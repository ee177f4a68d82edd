"""Estimator facade: CSA, SCSA, SCSA-EM, MVARICA and instantaneous ICA fits,
plus model-order selection by BIC and penalty-weight selection by blocked
cross-validation.

All estimators accept a multichannel observation block and return a
``SourceModel`` (demixing matrix plus source-space MVAR coefficients). The
time axis may be split into several contiguous segments (used by
cross-validation); segment likelihoods are summed, each segment contributing
its own lag windows only. Each fit stacks its lag windows once
(:func:`scsa.model.lag_stack`) and hands the stack to the cost kernels.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import em_dal
from .cost import (
    GroupPenaltySpec,
    cost_scsa,
    grad_csa,
    grad_scsa,
    nll_csa,
    pack_filter_bank,
    pack_source_model,
    penalty_groups,
    unpack_filter_bank,
    unpack_source_model,
)
from .exceptions import IllPosedError, PartitionError
from .model import (
    FilterBank,
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    filter_bank_to_source_model,
    lag_stack,
    least_squares_mvar,
    source_model_to_filter_bank,
)
from .optim import (
    OptimizationTrace,
    OptimizerConfig,
    keep_last_on_stagnation,
    minimize,
    minimize_with_group_truncation,
)

METHODS = ("CSA", "SCSA", "SCSA_EM", "MVARICA", "ICA")

AUTO = "AUTO"


@dataclass
class FitRequest:
    """What to fit and how to choose its hyperparameters."""

    method: str
    order_candidates: Sequence[int] = (1,)
    lambda_grid: Union[str, Sequence[float]] = AUTO
    cv_folds: int = 5

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not self.order_candidates:
            raise ValueError("order_candidates must be nonempty")
        if any(p < 0 for p in self.order_candidates):
            raise ValueError("orders must be nonnegative")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")


@dataclass
class FitResult:
    model: SourceModel
    method: str
    selected_order: int
    selected_lambda: Optional[float]
    bic_per_order: Dict[int, float]
    cv_curve: Dict[float, float]
    trace: OptimizationTrace
    wall_time: float


def _fit_csa(
    stack: np.ndarray,
    p: int,
    cfg: Optional[OptimizerConfig] = None,
    init: Optional[FilterBank] = None,
) -> Tuple[FilterBank, OptimizationTrace]:
    """Maximum-likelihood FIR fit on a lag stack (likelihoods summed over
    its segments)."""
    cfg = cfg or OptimizerConfig(max_iters=2000)
    d = stack.shape[0] // (p + 1)
    if init is None:
        init = FilterBank([np.eye(d)] + [np.zeros((d, d)) for _ in range(p)])

    def objective(theta):
        rep = grad_csa(unpack_filter_bank(theta, d, p), stack)
        return rep.value, rep.gradient

    def value_only(theta):
        return nll_csa(unpack_filter_bank(theta, d, p), stack)

    theta, trace = keep_last_on_stagnation(
        lambda: minimize(objective, pack_filter_bank(init), cfg, value_fn=value_only),
        f"CSA fit (P={p})",
    )
    return unpack_filter_bank(theta, d, p), trace


def fit_csa(
    x: TimeSeriesMatrix, p: int, cfg: Optional[OptimizerConfig] = None
) -> SourceModel:
    """CSA: maximum-likelihood fit of the FIR filter bank, returned in
    (B, H) coordinates. ``x`` may also be a sequence of segments."""
    fb, _ = _fit_csa(lag_stack(x, p), p, cfg)
    return filter_bank_to_source_model(fb)


def fit_ica(x: TimeSeriesMatrix, cfg: Optional[OptimizerConfig] = None) -> SourceModel:
    """Instantaneous maximum-likelihood ICA (order-0 CSA); empty H."""
    return fit_csa(x, 0, cfg)


def _fit_scsa(
    stack: np.ndarray,
    p: int,
    pen: GroupPenaltySpec,
    cfg: Optional[OptimizerConfig] = None,
    init: Optional[SourceModel] = None,
) -> Tuple[SourceModel, OptimizationTrace]:
    """Group-lasso regularized joint fit on a lag stack, warm-started from
    ``init`` or else from the CSA fit."""
    cfg = cfg or OptimizerConfig(max_iters=2000)
    d = stack.shape[0] // (p + 1)
    if init is None:
        fb, _ = _fit_csa(stack, p, cfg)
        init = filter_bank_to_source_model(fb)

    pen0 = GroupPenaltySpec(0.0)

    def smooth(theta):
        rep = grad_scsa(unpack_source_model(theta, d, p), stack, pen0)
        return rep.value, rep.gradient

    def smooth_value(theta):
        return cost_scsa(unpack_source_model(theta, d, p), stack, pen0)

    groups = penalty_groups(pen, d * d + np.arange(p * d * d).reshape(p, d, d))
    theta, trace = keep_last_on_stagnation(
        lambda: minimize_with_group_truncation(
            smooth, pack_source_model(init), groups, cfg, value_fn=smooth_value
        ),
        f"SCSA fit (P={p}, lambda={pen.lam:g})",
    )
    model = unpack_source_model(theta, d, p)
    return SourceModel(model.b, MvarCoefficients(model.h.lags)), trace


def fit_scsa(
    x: TimeSeriesMatrix,
    p: int,
    pen: GroupPenaltySpec,
    cfg: Optional[OptimizerConfig] = None,
    init: Optional[SourceModel] = None,
) -> SourceModel:
    """SCSA: group-lasso regularized joint fit, warm-started from CSA.
    ``x`` may also be a sequence of segments."""
    model, _ = _fit_scsa(lag_stack(x, p), p, pen, cfg, init)
    return model


def fit_scsa_em(
    x: TimeSeriesMatrix,
    p: int,
    pen: GroupPenaltySpec,
    em_steps: int = 20,
    opt_cfg: Optional[OptimizerConfig] = None,
) -> SourceModel:
    """SCSA refined by EM alternation, whose M-step runs on the same
    group-lasso L-BFGS core as :func:`fit_scsa`; warm-started from
    :func:`fit_scsa`."""
    model, _ = em_dal.fit_scsa_em(x, p, pen, em_steps=em_steps, opt_cfg=opt_cfg)
    return model


def fit_mvarica(
    x: TimeSeriesMatrix, p: int, cfg: Optional[OptimizerConfig] = None
) -> SourceModel:
    """MVARICA baseline: sensor-space least-squares MVAR, instantaneous ICA
    on its residuals, then similarity transform of the sensor coefficients
    into source space (H^(p) = B A^(p) B^{-1})."""
    return _fit_mvarica(x, p, cfg)[0]


def _fit_mvarica(
    x: TimeSeriesMatrix, p: int, cfg: Optional[OptimizerConfig] = None
) -> Tuple[SourceModel, OptimizationTrace]:
    """:func:`fit_mvarica`, plus the trace of its ICA fit."""
    d, t = x.n_channels, x.n_samples
    if t <= p:
        raise IllPosedError(f"need T > {p}, got T = {t}")
    a_stack, resid, rank = least_squares_mvar(x, p)
    if rank < p * d:
        raise IllPosedError(
            f"rank-deficient sensor MVAR regression (rank {rank} < {p * d})"
        )
    # the residual block is its own lag stack at order 0
    fb, trace = _fit_csa(resid, 0, cfg)
    b = filter_bank_to_source_model(fb).b
    b_inv = np.linalg.inv(b)
    h = MvarCoefficients(list(b @ a_stack.reshape(d, p, d).transpose(1, 0, 2) @ b_inv))
    return SourceModel(b=b, h=h), trace


def _common_window_nll(model: SourceModel, x: TimeSeriesMatrix, p_max: int) -> float:
    """Unpenalized NLL of the model restricted to samples t > p_max, so
    models of different order are scored on the identical window."""
    if model.order > p_max:
        raise ValueError("model order exceeds the common window")
    sub = TimeSeriesMatrix(x.data[:, p_max - model.order :])
    return nll_csa(source_model_to_filter_bank(model), sub)


def select_order_bic(
    x: TimeSeriesMatrix,
    method: str,
    order_candidates: Sequence[int],
    cfg: Optional[OptimizerConfig] = None,
) -> Tuple[int, Dict[int, float]]:
    """Pick the MVAR order minimizing BIC on the common evaluation window.

    SCSA-family methods are scored with the unpenalized (CSA) fit; the
    penalty weight is selected afterwards at the chosen order.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if not order_candidates:
        raise ValueError("order_candidates must be nonempty")
    candidates = sorted(set(int(p) for p in order_candidates))
    p_max = max(candidates)
    d, t = x.n_channels, x.n_samples
    bic: Dict[int, float] = {}
    for p in candidates:
        try:
            if method == "MVARICA":
                model = fit_mvarica(x, p, cfg)
            else:
                model = fit_csa(x, p, cfg)
            nll = _common_window_nll(model, x, p_max)
        except Exception as err:  # noqa: BLE001 - failed orders are skipped
            warnings.warn(f"order {p} failed and was excluded: {err}")
            continue
        k = d * d * (p + 1)
        bic[p] = 2.0 * nll + k * np.log(t - p_max)
    if not bic:
        raise IllPosedError("every candidate order failed to fit")
    best = min(bic, key=lambda p: (bic[p], p))
    return best, bic


def default_lambda_grid(t: int, n_points: int = 12) -> np.ndarray:
    """Log-spaced penalty grid scaled linearly with the sample count."""
    return np.geomspace(1e-3, 1e2, n_points) * (t / 2000.0)


def _cv_blocks(t: int, folds: int, p: int) -> List[np.ndarray]:
    blocks = np.array_split(np.arange(t), folds)
    for blk in blocks:
        if len(blk) < p + 1:
            raise PartitionError(
                f"fold of length {len(blk)} is shorter than P + 1 = {p + 1}"
            )
    return blocks


def select_lambda_cv(
    x: TimeSeriesMatrix,
    p: int,
    lambda_grid: Sequence[float],
    folds: int = 5,
    cfg: Optional[OptimizerConfig] = None,
    penalize_diagonal: bool = False,
) -> Tuple[float, Dict[float, float]]:
    """Blocked cross-validation for the group-lasso weight.

    The time axis is cut into ``folds`` contiguous blocks. For each fold the
    model is fitted on the remaining blocks, treated as separate contiguous
    segments whose likelihoods are summed (no lag window straddles the
    held-out gap), and scored by the unpenalized NLL on the held-out block.
    The grid is traversed in increasing order with warm starts.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    lambdas = sorted(float(l) for l in lambda_grid)
    if not lambdas:
        raise ValueError("lambda_grid must be nonempty")
    t = x.n_samples
    blocks = _cv_blocks(t, folds, p)
    scores = {lam: 0.0 for lam in lambdas}
    for k, held in enumerate(blocks):
        # the training data are the runs before and after the held-out block
        runs = (x.data[:, : held[0]], x.data[:, held[-1] + 1 :])
        stack = lag_stack([run for run in runs if run.shape[1]], p)
        held_x = TimeSeriesMatrix(x.data[:, held])
        warm, _ = _fit_csa(stack, p, cfg)
        warm_model = filter_bank_to_source_model(warm)
        for lam in lambdas:
            pen = GroupPenaltySpec(lam, penalize_diagonal=penalize_diagonal)
            warm_model, _ = _fit_scsa(stack, p, pen, cfg, init=warm_model)
            scores[lam] += _common_window_nll(warm_model, held_x, p)
    curve = {lam: scores[lam] / folds for lam in lambdas}
    best = min(lambdas, key=lambda l: (curve[l], l))
    return best, curve


def fit(x: TimeSeriesMatrix, request: FitRequest) -> FitResult:
    """Run the full estimation pipeline: order selection, penalty selection
    where the method uses one, and the final fit."""
    start = time.perf_counter()
    candidates = list(request.order_candidates)
    if len(candidates) > 1:
        p, bic = select_order_bic(x, request.method, candidates)
    else:
        p = int(candidates[0])
        bic = {}
    lam: Optional[float] = None
    curve: Dict[float, float] = {}
    if request.method in ("SCSA", "SCSA_EM"):
        grid = request.lambda_grid
        if isinstance(grid, str):
            if grid != AUTO:
                raise ValueError(f"unknown lambda_grid {grid!r}")
            grid = default_lambda_grid(x.n_samples)
        grid = list(grid)
        if len(grid) > 1:
            lam, curve = select_lambda_cv(x, p, grid, folds=request.cv_folds)
        else:
            lam = float(grid[0])

    trace = OptimizationTrace()
    if request.method in ("CSA", "ICA"):
        # for ICA, P is used downstream only for a post-hoc MVAR on the
        # demixed sources (evaluation module); the fitted model has order 0
        order = p if request.method == "CSA" else 0
        fb, trace = _fit_csa(lag_stack(x, order), order)
        model = filter_bank_to_source_model(fb)
    elif request.method == "MVARICA":
        model, trace = _fit_mvarica(x, p)
    elif request.method == "SCSA":
        model, trace = _fit_scsa(lag_stack(x, p), p, GroupPenaltySpec(lam))
    else:  # SCSA_EM
        model, history = em_dal.fit_scsa_em(x, p, GroupPenaltySpec(lam))
        trace = OptimizationTrace(
            iterations=len(history) - 1,
            final_value=history[-1],
            converged=em_dal.em_converged(history),
            value_history=list(history),
        )
    return FitResult(
        model=model,
        method=request.method,
        selected_order=p,
        selected_lambda=lam,
        bic_per_order=bic,
        cv_curve=curve,
        trace=trace,
        wall_time=time.perf_counter() - start,
    )
