"""Estimator facade: CSA, SCSA, SCSA-EM, MVARICA and instantaneous ICA fits,
plus model-order selection by BIC and penalty-weight selection by blocked
cross-validation.

All estimators accept a multichannel observation block and return a
``SourceModel`` (demixing matrix plus source-space MVAR coefficients). The
time axis may be split into several contiguous segments (used by
cross-validation); segment likelihoods are summed, each segment contributing
its own lag windows only.
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
    unpack_filter_bank,
    unpack_source_model,
)
from .exceptions import IllPosedError, PartitionError, StagnationError
from .model import (
    FilterBank,
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    filter_bank_to_source_model,
    source_model_to_filter_bank,
)
from .optim import (
    GroupBlock,
    OptimizationTrace,
    OptimizerConfig,
    minimize,
    minimize_with_group_truncation,
)

METHODS = ("CSA", "SCSA", "SCSA_EM", "MVARICA", "ICA")

AUTO = "AUTO"

# Residual-whiteness threshold for the MVARICA sanity check: largest absolute
# lag-1..L autocorrelation of the sensor-MVAR residuals, scaled by sqrt(T).
WHITENESS_LAGS = 10


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


def _segments(x) -> List[TimeSeriesMatrix]:
    if isinstance(x, TimeSeriesMatrix):
        return [x]
    return list(x)


def _fit_csa_segments(
    segments: List[TimeSeriesMatrix],
    p: int,
    cfg: Optional[OptimizerConfig] = None,
    init: Optional[FilterBank] = None,
) -> Tuple[FilterBank, OptimizationTrace]:
    """Maximum-likelihood FIR fit, likelihoods summed over segments."""
    cfg = cfg or OptimizerConfig(max_iters=2000)
    d = segments[0].n_channels
    if init is None:
        init = FilterBank([np.eye(d)] + [np.zeros((d, d)) for _ in range(p)])

    def objective(theta):
        fb = unpack_filter_bank(theta, d, p)
        value = 0.0
        grad = np.zeros_like(theta)
        for seg in segments:
            rep = grad_csa(fb, seg)
            value += rep.value
            grad += rep.gradient
        return value, grad

    def value_only(theta):
        fb = unpack_filter_bank(theta, d, p)
        return sum(nll_csa(fb, seg) for seg in segments)

    theta0 = pack_filter_bank(init)
    try:
        theta, trace = minimize(objective, theta0, cfg, value_fn=value_only)
    except StagnationError as err:
        # line search exhausted at numerical precision; keep the iterate
        theta, trace = err.x, err.trace
    return unpack_filter_bank(theta, d, p), trace


def fit_csa(
    x: TimeSeriesMatrix, p: int, cfg: Optional[OptimizerConfig] = None
) -> SourceModel:
    """CSA: maximum-likelihood fit of the FIR filter bank, returned in
    (B, H) coordinates."""
    fb, _ = _fit_csa_segments(_segments(x), p, cfg)
    return filter_bank_to_source_model(fb)


def fit_ica(x: TimeSeriesMatrix, cfg: Optional[OptimizerConfig] = None) -> SourceModel:
    """Instantaneous maximum-likelihood ICA (order-0 CSA); empty H."""
    return fit_csa(x, 0, cfg)


def _penalty_groups(d: int, p: int, pen: GroupPenaltySpec) -> List[GroupBlock]:
    """Group-lasso index matrices in the flat [vec(B); vec(H^(1..P))] layout:
    one row of P lag indices per off-diagonal (a, f) pair, row-major in
    (a, f), and with ``penalize_diagonal`` one group of all P*D diagonal
    coefficients."""
    h_index = d * d + np.arange(p * d * d).reshape(p, d, d)
    off = ~np.eye(d, dtype=bool)
    groups = [(h_index[:, off].T, np.full(d * (d - 1), pen.lam))]
    if pen.penalize_diagonal:
        diag = h_index[:, np.arange(d), np.arange(d)].reshape(1, p * d)
        groups.append((diag, np.array([pen.lambda_diag])))
    return groups


def _fit_scsa_segments(
    segments: List[TimeSeriesMatrix],
    p: int,
    pen: GroupPenaltySpec,
    cfg: Optional[OptimizerConfig] = None,
    init: Optional[SourceModel] = None,
) -> Tuple[SourceModel, OptimizationTrace]:
    cfg = cfg or OptimizerConfig(max_iters=2000)
    d = segments[0].n_channels
    if init is None:
        fb, _ = _fit_csa_segments(segments, p, cfg)
        init = filter_bank_to_source_model(fb)

    pen0 = GroupPenaltySpec(0.0)

    def smooth(theta):
        model = unpack_source_model(theta, d, p)
        value = 0.0
        grad = np.zeros_like(theta)
        for seg in segments:
            rep = grad_scsa(model, seg, pen0)
            value += rep.value
            grad += rep.gradient
        return value, grad

    def smooth_value(theta):
        model = unpack_source_model(theta, d, p)
        return sum(cost_scsa(model, seg, pen0) for seg in segments)

    groups = _penalty_groups(d, p, pen)
    theta0 = pack_source_model(init)
    try:
        theta, trace = minimize_with_group_truncation(
            smooth, theta0, groups, cfg, value_fn=smooth_value
        )
    except StagnationError as err:
        theta, trace = err.x, err.trace
    model = unpack_source_model(theta, d, p)
    return SourceModel(model.b, MvarCoefficients(model.h.lags)), trace


def fit_scsa(
    x: TimeSeriesMatrix,
    p: int,
    pen: GroupPenaltySpec,
    cfg: Optional[OptimizerConfig] = None,
    init: Optional[SourceModel] = None,
) -> SourceModel:
    """SCSA: group-lasso regularized joint fit, warm-started from CSA."""
    model, _ = _fit_scsa_segments(_segments(x), p, pen, cfg, init)
    return model


def fit_scsa_em(
    x: TimeSeriesMatrix,
    p: int,
    pen: GroupPenaltySpec,
    em_steps: int = 20,
    opt_cfg: Optional[OptimizerConfig] = None,
) -> SourceModel:
    """SCSA refined by EM alternation with the proximal-gradient M-step;
    warm-started from :func:`fit_scsa`."""
    model, _ = em_dal.fit_scsa_em(x, p, pen, em_steps=em_steps, opt_cfg=opt_cfg)
    return model


def residual_whiteness(resid: np.ndarray, max_lag: int = WHITENESS_LAGS) -> float:
    """Largest absolute residual autocorrelation over lags 1..max_lag."""
    n = resid.shape[1]
    centered = resid - resid.mean(axis=1, keepdims=True)
    denom = np.sum(centered**2, axis=1)
    worst = 0.0
    for lag in range(1, max_lag + 1):
        num = np.sum(centered[:, lag:] * centered[:, :-lag], axis=1)
        worst = max(worst, float(np.max(np.abs(num / denom))))
    return worst


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
    data = x.data
    if p > 0:
        design = np.vstack(
            [data[:, p - lag : t - lag] for lag in range(1, p + 1)]
        )  # (P D) x (T - P)
        target = data[:, p:]
        sol, _, rank, _ = np.linalg.lstsq(design.T, target.T, rcond=None)
        if rank < p * d:
            raise IllPosedError(
                f"rank-deficient sensor MVAR regression (rank {rank} < {p * d})"
            )
        a_stack = sol.T  # D x (P D)
        a_mats = [a_stack[:, (lag - 1) * d : lag * d] for lag in range(1, p + 1)]
        resid = target - a_stack @ design
    else:
        a_mats = []
        resid = data
    fb, trace = _fit_csa_segments([TimeSeriesMatrix(resid)], 0, cfg)
    b = filter_bank_to_source_model(fb).b
    b_inv = np.linalg.inv(b)
    h = MvarCoefficients([b @ a @ b_inv for a in a_mats])
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
        train_idx = [blk for j, blk in enumerate(blocks) if j != k]
        # remaining blocks form at most two contiguous runs around the gap
        runs: List[np.ndarray] = []
        for blk in train_idx:
            if runs and runs[-1][-1] + 1 == blk[0]:
                runs[-1] = np.concatenate([runs[-1], blk])
            else:
                runs.append(blk)
        segments = [TimeSeriesMatrix(x.data[:, r]) for r in runs]
        held_x = TimeSeriesMatrix(x.data[:, held])
        warm, _ = _fit_csa_segments(segments, p, cfg)
        warm_model = filter_bank_to_source_model(warm)
        for lam in lambdas:
            pen = GroupPenaltySpec(lam, penalize_diagonal=penalize_diagonal)
            warm_model, _ = _fit_scsa_segments(segments, p, pen, cfg, init=warm_model)
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
    if request.method == "CSA":
        fb, trace = _fit_csa_segments([x], p)
        model = filter_bank_to_source_model(fb)
    elif request.method == "ICA":
        # P is used downstream only for a post-hoc MVAR on the demixed
        # sources (evaluation module); the fitted model itself has order 0
        fb, trace = _fit_csa_segments([x], 0)
        model = filter_bank_to_source_model(fb)
    elif request.method == "MVARICA":
        model, trace = _fit_mvarica(x, p)
    elif request.method == "SCSA":
        model, trace = _fit_scsa_segments([x], p, GroupPenaltySpec(lam))
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
