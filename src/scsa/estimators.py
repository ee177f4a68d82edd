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

import math
import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import em_dal
from .cost import (
    GroupPenaltySpec,
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
    GRAD_TOL,
    OptimizationTrace,
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
        grid = self.lambda_grid
        if isinstance(grid, str):
            if grid != AUTO:
                raise ValueError(f"unknown lambda_grid {grid!r}")
        elif len(grid) == 0 or not all(0 <= float(lam) < math.inf for lam in grid):
            raise ValueError(
                f"lambda_grid must be {AUTO!r} or a nonempty sequence of finite, "
                f"nonnegative numbers; got {list(grid)!r}"
            )


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
    stack: np.ndarray, p: int, grad_tol: float = GRAD_TOL
) -> Tuple[FilterBank, OptimizationTrace]:
    """Maximum-likelihood FIR fit on a lag stack (likelihoods summed over
    its segments), started from W = [I, 0, ..., 0]."""
    d = stack.shape[0] // (p + 1)
    init = FilterBank([np.eye(d)] + [np.zeros((d, d)) for _ in range(p)])

    def objective(theta):
        rep = grad_csa(unpack_filter_bank(theta, d, p), stack)
        return rep.value, rep.gradient

    theta, trace = keep_last_on_stagnation(
        lambda: minimize(objective, pack_filter_bank(init), grad_tol),
        f"CSA fit (P={p})",
    )
    return unpack_filter_bank(theta, d, p), trace


def fit_csa(x: TimeSeriesMatrix, p: int) -> SourceModel:
    """CSA: maximum-likelihood fit of the FIR filter bank, returned in
    (B, H) coordinates. ``x`` may also be a sequence of segments."""
    fb, _ = _fit_csa(lag_stack(x, p), p)
    return filter_bank_to_source_model(fb)


def fit_ica(x: TimeSeriesMatrix) -> SourceModel:
    """Instantaneous maximum-likelihood ICA (order-0 CSA); empty H."""
    return fit_csa(x, 0)


def _fit_scsa(
    stack: np.ndarray,
    p: int,
    pen: GroupPenaltySpec,
    grad_tol: float = GRAD_TOL,
    init: Optional[SourceModel] = None,
    block: slice = slice(None),
) -> Tuple[SourceModel, OptimizationTrace]:
    """Group-lasso regularized fit on a lag stack, warm-started from ``init``
    or else from the CSA fit.

    ``block`` is the part of the flat vector ``[vec(B); vec(H)]`` minimized
    over, with the rest held at ``init``: all of it (the joint fit), the B
    block ``slice(0, D*D)`` or the H block ``slice(D*D, None)``. The penalty
    does not depend on B, so a B-block solve leaves it out.
    """
    d = stack.shape[0] // (p + 1)
    if init is None:
        fb, _ = _fit_csa(stack, p, grad_tol)
        init = filter_bank_to_source_model(fb)
    theta = pack_source_model(init)
    start, stop, _ = block.indices(theta.size)
    whole = stop - start == theta.size
    pen0 = GroupPenaltySpec(0.0)

    def smooth(v):
        if not whole:  # the held block stays at init
            theta[block] = v
            v = theta
        rep = grad_scsa(unpack_source_model(v, d, p), stack, pen0)
        return rep.value, rep.gradient[block]

    h_index = np.arange(d * d, theta.size).reshape(p, d, d) - start  # in the block
    groups = (penalty_groups(h_index), pen.lam) if stop > d * d else ()
    what = f"SCSA fit (P={p}, lambda={pen.lam:g})" if whole else (
        "M-step" if start else "E-step")
    v, trace = keep_last_on_stagnation(
        lambda: minimize_with_group_truncation(smooth, theta[block], groups, grad_tol),
        what,
    )
    theta[block] = v
    model = unpack_source_model(theta, d, p)
    return SourceModel(model.b, MvarCoefficients(model.h.lags)), trace


def fit_scsa(
    x: TimeSeriesMatrix,
    p: int,
    pen: GroupPenaltySpec,
    grad_tol: float = GRAD_TOL,
) -> SourceModel:
    """SCSA: group-lasso regularized joint fit, warm-started from CSA.
    ``x`` may also be a sequence of segments."""
    model, _ = _fit_scsa(lag_stack(x, p), p, pen, grad_tol)
    return model


def fit_scsa_em(
    x: TimeSeriesMatrix,
    p: int,
    pen: GroupPenaltySpec,
    em_steps: int = 20,
) -> SourceModel:
    """SCSA refined by EM alternation, block-coordinate descent on the SCSA
    cost over B and H; warm-started from :func:`fit_scsa`."""
    model, _ = em_dal.fit_scsa_em(x, p, pen, em_steps=em_steps)
    return model


def fit_mvarica(x: TimeSeriesMatrix, p: int) -> SourceModel:
    """MVARICA baseline: sensor-space least-squares MVAR, instantaneous ICA
    on its residuals, then similarity transform of the sensor coefficients
    into source space (H^(p) = B A^(p) B^{-1})."""
    return _fit_mvarica(x, p)[0]


def _fit_mvarica(x: TimeSeriesMatrix, p: int) -> Tuple[SourceModel, OptimizationTrace]:
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
    fb, trace = _fit_csa(resid, 0)
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


def _worker_count(n_tasks: int, cap: Optional[int] = None) -> int:
    """How many processes a pool spreads ``n_tasks`` tasks over: one per CPU
    this process may run on, at most one per task and at most ``cap``. A pool
    asks once, when it opens, and :func:`fit` opens one pool for both of its
    stages (:class:`_Pool`). It is 1 (run in the calling process) inside a
    worker process, so pools never nest; where ``fork`` is unavailable; and
    while other threads run, since a forked child gets a copy of their locks
    but not the threads that would release them."""
    import multiprocessing

    if (
        multiprocessing.parent_process() is not None
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(n_tasks, cpus, n_tasks if cap is None else cap))


class _Pool:
    """The fork pool of one :func:`fit` call, or of one :func:`_pool_map`
    call outside a fit. It opens when the first stage with two or more tasks
    runs, sized then, once, by :func:`_worker_count` for ``n_tasks`` tasks.
    A fit passes its largest stage's task count: one task per order of
    :func:`_candidate_orders` for BIC, one per fold for CV, as
    :func:`select_order_bic` and :func:`select_lambda_cv` build them. Inside
    its ``with`` block every :func:`_pool_map` call of this thread runs on
    it; leaving the block joins its workers, also on error."""

    def __init__(self, n_tasks: int, cap: Optional[int] = None):
        self.n_tasks, self.cap = n_tasks, cap
        self.pid = os.getpid()  # a forked worker's copy is not its pool
        self.workers = 0  # 0 until sized
        self.executor = None

    def __enter__(self) -> "_Pool":
        self.outer, _scope.pool = _scope.pool, self
        return self

    def __exit__(self, *exc_info):
        _scope.pool = self.outer
        if self.executor is not None:
            self.executor.shutdown(wait=True, cancel_futures=True)

    def map(self, fn: Callable, tasks: Sequence[tuple]) -> list:
        if len(tasks) > 1 and not self.workers:
            self.workers = _worker_count(self.n_tasks, self.cap)
            if self.workers > 1:
                # imported here: ``import scsa`` should not pay for the pool
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                # fork, not spawn: a spawned worker imports numpy and scipy
                # afresh, which takes longer than the tasks it would run
                self.executor = ProcessPoolExecutor(
                    self.workers, mp_context=multiprocessing.get_context("fork")
                )
        if self.executor is None:
            return [fn(*task) for task in tasks]
        futures = [self.executor.submit(fn, *task) for task in tasks]
        return [future.result() for future in futures]


class _Scope(threading.local):
    pool: Optional[_Pool] = None  # the pool whose block this thread is in


_scope = _Scope()


def _pool_map(fn: Callable, tasks: Sequence[tuple], cap: Optional[int] = None) -> list:
    """``[fn(*task) for task in tasks]``, with the tasks spread over forked
    processes: the pool of the running :func:`fit`, or else a pool of this
    call's own, sized by :func:`_worker_count` with ``cap``.

    ``fn`` must be a module-level function, because it is sent to the workers
    by name. Results come back in task order, so a caller that reduces them
    in that order gets the serial loop's numbers at every worker count. If a
    task raises, the exception of the first failed task in task order is
    raised with its own type, and closing the pool (at the end of this call,
    or of the fit's stages) cancels the tasks not yet started and joins the
    workers. No worker outlives the call, or the fit.
    """
    pool = _scope.pool
    if pool is not None and pool.pid == os.getpid():
        return pool.map(fn, tasks)
    with _Pool(len(tasks), cap) as pool:
        return pool.map(fn, tasks)


def _bic_fit(x: TimeSeriesMatrix, method: str, p: int, p_max: int):
    """The order-``p`` fit and its common-window NLL, or the exception that
    the fit raised (a failed order is excluded by the caller, not fatal)."""
    try:
        model = fit_mvarica(x, p) if method == "MVARICA" else fit_csa(x, p)
        return _common_window_nll(model, x, p_max), model
    except Exception as err:  # noqa: BLE001 - failed orders are skipped
        return err


class _OrderScores(dict):
    """BIC per order, as returned by :func:`select_order_bic`, with each
    scored order's full-data fit in ``models``."""

    def __init__(self, bic: Dict[int, float], models: Dict[int, SourceModel]):
        super().__init__(bic)
        self.models = models


def _candidate_orders(order_candidates: Sequence[int]) -> List[int]:
    """The distinct orders BIC scores, one task each, in increasing order."""
    return sorted(set(int(p) for p in order_candidates))


def select_order_bic(
    x: TimeSeriesMatrix,
    method: str,
    order_candidates: Sequence[int],
) -> Tuple[int, Dict[int, float]]:
    """Pick the MVAR order minimizing BIC on the common evaluation window.

    SCSA-family methods are scored with the unpenalized (CSA) fit; the
    penalty weight is selected afterwards at the chosen order. The orders
    are fitted in a process pool (:func:`_pool_map`). The returned BIC dict
    also carries each order's full-data fit as its ``models`` attribute; for
    the SCSA family, :func:`fit` starts its final fit from the selected
    order's CSA model.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if not order_candidates:
        raise ValueError("order_candidates must be nonempty")
    candidates = _candidate_orders(order_candidates)
    p_max = max(candidates)
    d, t = x.n_channels, x.n_samples
    fits = _pool_map(_bic_fit, [(x, method, p, p_max) for p in candidates])
    bic: Dict[int, float] = {}
    models: Dict[int, SourceModel] = {}
    for p, result in zip(candidates, fits):
        if isinstance(result, Exception):
            warnings.warn(f"order {p} failed and was excluded: {result}")
            continue
        nll, models[p] = result
        k = d * d * (p + 1)
        bic[p] = 2.0 * nll + k * np.log(t - p_max)
    if not bic:
        raise IllPosedError("every candidate order failed to fit")
    best = min(bic, key=lambda p: (bic[p], p))
    return best, _OrderScores(bic, models)


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


def _cv_fold(
    data: np.ndarray, p: int, lambdas: Sequence[float], held: np.ndarray
) -> List[float]:
    """Held-out NLL at each λ of one fold.

    The model is fitted on the runs before and after the held-out block
    (columns ``held`` of ``data``), treated as separate segments, walking
    ``lambdas`` in their order with warm starts from the fold's CSA fit.
    """
    runs = (data[:, : held[0]], data[:, held[-1] + 1 :])
    stack = lag_stack([run for run in runs if run.shape[1]], p)
    held_x = TimeSeriesMatrix(data[:, held])
    warm, _ = _fit_csa(stack, p)
    model = filter_bank_to_source_model(warm)
    nlls = []
    for lam in lambdas:
        model, _ = _fit_scsa(stack, p, GroupPenaltySpec(lam), init=model)
        nlls.append(_common_window_nll(model, held_x, p))
    return nlls


def select_lambda_cv(
    x: TimeSeriesMatrix,
    p: int,
    lambda_grid: Sequence[float],
    folds: int = 5,
) -> Tuple[float, Dict[float, float]]:
    """Blocked cross-validation for the group-lasso weight.

    The time axis is cut into ``folds`` contiguous blocks. For each fold the
    model is fitted on the remaining blocks, treated as separate contiguous
    segments whose likelihoods are summed (no lag window straddles the
    held-out gap), and scored by the unpenalized NLL on the held-out block.
    Each distinct λ of the grid is fitted once, in increasing order with
    warm starts. The folds run in a process pool (:func:`_pool_map`), and
    their scores are summed in fold order.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    lambdas = sorted(set(float(l) for l in lambda_grid))
    if not lambdas:
        raise ValueError("lambda_grid must be nonempty")
    blocks = _cv_blocks(x.n_samples, folds, p)
    scores = {lam: 0.0 for lam in lambdas}
    for nlls in _pool_map(_cv_fold, [(x.data, p, lambdas, held) for held in blocks]):
        for lam, nll in zip(lambdas, nlls):
            scores[lam] += nll
    curve = {lam: scores[lam] / folds for lam in lambdas}
    best = min(lambdas, key=lambda l: (curve[l], l))
    return best, curve


def fit(x: TimeSeriesMatrix, request: FitRequest) -> FitResult:
    """Run the full estimation pipeline: order selection, penalty selection
    where the method uses one, and the final fit. Cross-validation runs
    only when the λ grid has two or more distinct values.

    The selection stages share one fork pool, opened by the first stage with
    two or more tasks, sized once for the larger stage and closed, its
    workers joined, before the final fit, also on error. The final SCSA or
    SCSA-EM fit starts from BIC's CSA fit at the selected order, so the
    order's CSA fit runs once."""
    start = time.perf_counter()
    candidates = list(request.order_candidates)
    grid: List[float] = []
    if request.method in ("SCSA", "SCSA_EM"):
        grid = request.lambda_grid  # AUTO or a valid grid: FitRequest checks
        if isinstance(grid, str):
            grid = default_lambda_grid(x.n_samples)
        grid = list(grid)
    bic_tasks = len(_candidate_orders(candidates)) if len(candidates) > 1 else 0
    cv_tasks = request.cv_folds if len(set(grid)) > 1 else 0
    with _Pool(max(bic_tasks, cv_tasks)):
        if len(candidates) > 1:
            p, bic = select_order_bic(x, request.method, candidates)
        else:
            p, bic = int(candidates[0]), _OrderScores({}, {})
        lam: Optional[float] = None
        curve: Dict[float, float] = {}
        if cv_tasks:
            lam, curve = select_lambda_cv(x, p, grid, folds=request.cv_folds)
        elif grid:
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
    else:
        # BIC scored the SCSA family's orders with the CSA fit; without BIC,
        # _fit_scsa fits CSA itself
        pen = GroupPenaltySpec(lam)
        model, trace = _fit_scsa(lag_stack(x, p), p, pen, init=bic.models.get(p))
        if request.method == "SCSA_EM":
            model, history = em_dal.fit_scsa_em(x, p, pen, init=model)
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
        bic_per_order=dict(bic),
        cv_curve=curve,
        trace=trace,
        wall_time=time.perf_counter() - start,
    )
