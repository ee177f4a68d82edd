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

import contextlib
import logging
import math
import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg.lapack import dtrtri

from . import em_dal
from .cost import (
    GroupPenaltySpec,
    grad_csa,
    grad_scsa,
    nll_csa,
    pack_filter_bank,
    pack_source_model,
    penalty_groups,
    scsa_chain_rule,
    unpack_filter_bank,
    unpack_source_model,
)
from .exceptions import DegenerateModelError, IllPosedError, PartitionError
from .model import (
    FilterBank,
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    filter_bank_to_source_model,
    lag_stack,
    source_model_to_filter_bank,
)
from .optim import (
    GRAD_TOL,
    LbfgsMemory,
    OptimizationTrace,
    keep_last_on_stagnation,
    minimize,
    minimize_with_group_truncation,
)

METHODS = ("CSA", "SCSA", "SCSA_EM", "MVARICA", "ICA")

AUTO = "AUTO"

logger = logging.getLogger("scsa")


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


# A lag stack is rank-deficient when a Cholesky pivot keeps at most this
# share of its variance, u_ii^2 <= PIVOT_FLOOR * C_ii. A duplicated channel
# leaves 3.3e-16 to rounding (the order-0 stack of a two-channel, T = 300
# simulation with channel 1 set to channel 0); ordinary data keep at least
# 0.054 (the benchmark datasets at orders 0-7, and criterion-7 data N0-N6,
# reps 0-2, at orders 0, 4 and 7).
PIVOT_FLOOR = 1e-10


def _fit_csa(
    stack: np.ndarray, p: int, grad_tol: float = GRAD_TOL, lags: bool = True
) -> Tuple[SourceModel, OptimizationTrace]:
    """Maximum-likelihood FIR fit on a lag stack X (likelihoods summed over
    its segments), returned in (B, H) coordinates. With ``lags`` False the
    lag filters of the whitened fit are held at zero: MVARICA.

    The filter bank is fitted in whitened lag coordinates. With C = X X^T / N
    and U its upper-triangular Cholesky factor (C = U U^T), Z = R X with
    R = U^-1 has identity covariance, and the fit runs :func:`grad_csa` on Z
    over W_z, with W = W_z R. R is upper triangular, so W^(0) = W_z^(0) R_00
    and nll_csa(W, X) = nll_csa(W_z, Z) - N log|det R_00|: the objective is
    X's likelihood, and the stop test reads its gradient in Z. The start
    W_z = [I, 0, ..., 0] whitens the least-squares MVAR residual of X, which
    is Z's zero-lag block R[:D] X. Holding W_z^(1..P) at zero therefore fits
    the ICA of that residual, W = W_z^(0) R[:D]: B = W_z^(0) R_00, and
    H^(p) = B A^(p) B^-1 for the least-squares coefficients A.
    Raises :class:`DegenerateModelError` before the first iteration when C
    is numerically singular (:data:`PIVOT_FLOOR`).

    The CSA fit (``lags`` True) hands its L-BFGS pairs on: the trace's
    ``memory`` holds them in the coordinates of the SCSA fit that starts
    from the returned model (:func:`_scsa_memory`), so that fit continues
    the CSA solve's quasi-Newton path. An MVARICA trace's ``memory`` is None.
    """
    d, n = stack.shape[0] // (p + 1), stack.shape[1]
    k = p + 1 if lags else 1  # the filters W_z^(0..k-1) that are fitted
    cov = stack @ stack.T / n
    try:  # the lower factor of C with rows and columns reversed is U
        u = np.linalg.cholesky(cov[::-1, ::-1])[::-1, ::-1]
    except np.linalg.LinAlgError:
        u = None
    if u is None or np.any(u.diagonal() ** 2 <= PIVOT_FLOOR * cov.diagonal()):
        raise DegenerateModelError(
            "lag-stack covariance is numerically singular (rank-deficient data)"
        )
    r = dtrtri(u)[0][: k * d]
    z = r @ stack
    shift = n * float(np.log(u.diagonal()[:d]).sum())  # -N log|det R_00|

    def objective(theta):
        rep = grad_csa(unpack_filter_bank(theta, d, k - 1), z)
        return rep.value + shift, rep.gradient

    init = FilterBank([np.eye(d)] + [np.zeros((d, d))] * (k - 1))
    memory = LbfgsMemory(k * d * d)
    theta, trace = keep_last_on_stagnation(
        lambda: minimize(objective, pack_filter_bank(init), grad_tol, memory),
        f"{'CSA' if lags else 'MVARICA'} fit (P={p})",
    )
    w = np.hstack(unpack_filter_bank(theta, d, k - 1).w) @ r
    model = filter_bank_to_source_model(FilterBank(np.hsplit(w, p + 1)))
    if lags:
        trace.memory = _scsa_memory(memory, r, u, model)
    return model, trace


def _scsa_memory(
    memory: LbfgsMemory, r: np.ndarray, u: np.ndarray, model: SourceModel
) -> LbfgsMemory:
    """The pairs of a whitened CSA solve in the coordinates of the SCSA fit
    that starts from its model (:func:`_fit_scsa`): (B~, H) at B~ = I and
    H = model.h, with B0 = model.b.

    The CSA solve runs on W_z, with W = W_z R and R = U^-1. The SCSA fit
    has W^(0) = B~ B0 and W^(p) = -H^(p) B~ B0, so at its start the map L
    from (dB~, dH) to dW is dW^(0) = dB~ B0 and dW^(p) = -(dH^(p) +
    H^(p) dB~) B0. A step s_z becomes L^-1(s_z R): dB~ = dW^(0) B0^-1 and
    dH^(p) = -dW^(p) B0^-1 - H^(p) dB~. A gradient change y_z becomes
    L^T(y_z R^-T), the chain rule of :func:`scsa.cost.scsa_chain_rule` at
    B0 with the B block's relative gradient: (G_0 - sum_p H^(p)T G_p) B0^T
    for B~ and -G_p B0^T for H^(p). Neither map changes s^T y, and the
    pairs are pushed again, oldest first, through the same curvature test.
    """
    b0, k = model.b, memory.k
    d = b0.shape[0]
    p = memory.n // (d * d) - 1
    # rows of S and Y as (D, (P+1)D) filter banks, mapped to W's coordinates
    s, y = (
        memory.sy[:, :k].reshape(2, k, p + 1, d, d).transpose(0, 1, 3, 2, 4)
        .reshape(2, k, d, (p + 1) * d)
    )
    s = (s @ r).reshape(k, d, p + 1, d).transpose(0, 2, 1, 3)  # dW^(p)
    y = (y @ u.T).reshape(k, d, p + 1, d).transpose(0, 2, 1, 3)  # G_p
    hs = model.h.as_array(d)
    step = s @ np.linalg.inv(b0)
    step[:, 1:] = -step[:, 1:] - hs @ step[:, :1]
    grad = scsa_chain_rule(y, hs, b0)
    grad[:, 0] = grad[:, 0] @ b0.T
    out = LbfgsMemory(memory.n, memory.m)
    for pair in zip(step.reshape(k, memory.n), grad.reshape(k, memory.n)):
        out.push(*pair)
    return out


def fit_csa(x: TimeSeriesMatrix, p: int) -> SourceModel:
    """CSA: maximum-likelihood fit of the FIR filter bank, solved in
    whitened lag coordinates (:func:`_fit_csa`) and returned in (B, H)
    coordinates. ``x`` may also be a sequence of segments. Raises
    :class:`DegenerateModelError` on rank-deficient data."""
    return _order_fit(x, "CSA", p)[0]


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
    memory: Optional[LbfgsMemory] = None,
) -> Tuple[SourceModel, OptimizationTrace]:
    """Group-lasso regularized fit on a lag stack, warm-started from ``init``
    or else from the CSA fit.

    ``block`` is the part of the flat vector ``[vec(B); vec(H)]`` minimized
    over, with the rest held at ``init``: all of it (the joint fit), the B
    block ``slice(0, D*D)`` or the H block ``slice(D*D, None)``. The penalty
    does not depend on B, so a B-block solve leaves it out. ``memory`` is the
    L-BFGS memory the solve starts from and leaves its pairs in
    (:func:`scsa.optim.minimize_with_group_truncation`). Without ``init``
    and ``memory`` the fit starts from the CSA solve's pairs, handed on by
    :func:`_fit_csa`, so CSA and SCSA are one quasi-Newton path; with
    ``init`` and no ``memory`` it starts with an empty one.

    The fit runs in the source coordinates of its start. With B0 = init.b,
    it fits (B~, H) on Z = (I_{P+1} kron B0) X, the lag stack of the start's
    sources, from B~ = I, and returns B = B~ B0. The innovations are the
    same, B~ z(t) - sum_p H^(p) B~ z(t-p) = B x(t) - sum_p H^(p) B x(t-p),
    so H, its gradient and the penalty are unchanged, and the cost is X's
    less N log|det B0|. The objective adds that back: its values and the
    stop threshold are X's, and the B gradient the stop test reads is the
    relative gradient grad_B B0^T (Cardoso & Laheld, IEEE TSP 1996). An H
    block solve returns ``init.b`` itself.
    """
    d, n = stack.shape[0] // (p + 1), stack.shape[1]
    if init is None:
        init, csa = _fit_csa(stack, p, grad_tol)
        memory = csa.memory if memory is None else memory
    b0 = init.b
    z = (b0 @ stack.reshape(p + 1, d, n)).reshape(stack.shape)
    shift = -n * float(np.linalg.slogdet(b0)[1])  # -N log|det B0|
    theta = pack_source_model(init)
    theta[: d * d] = np.eye(d).ravel()
    start, stop, _ = block.indices(theta.size)
    whole = stop - start == theta.size
    pen0 = GroupPenaltySpec(0.0)

    def smooth(v):
        if not whole:  # the held block stays at init
            theta[block] = v
            v = theta
        rep = grad_scsa(unpack_source_model(v, d, p), z, pen0)
        return rep.value + shift, rep.gradient[block]

    h_index = np.arange(d * d, theta.size).reshape(p, d, d) - start  # in the block
    groups = (penalty_groups(h_index), pen.lam) if stop > d * d else ()
    what = f"SCSA fit (P={p}, lambda={pen.lam:g})" if whole else (
        "M-step" if start else "E-step")
    v, trace = keep_last_on_stagnation(
        lambda: minimize_with_group_truncation(
            smooth, theta[block], groups, grad_tol, memory
        ),
        what,
    )
    theta[block] = v
    model = unpack_source_model(theta, d, p)
    b = model.b @ b0 if start < d * d else b0
    return SourceModel(b, MvarCoefficients(model.h.lags)), trace


def fit_scsa(
    x: TimeSeriesMatrix,
    p: int,
    pen: GroupPenaltySpec,
    grad_tol: float = GRAD_TOL,
) -> SourceModel:
    """SCSA: group-lasso regularized joint fit, warm-started from CSA and
    from its L-BFGS pairs. ``x`` may also be a sequence of segments."""
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
    """MVARICA baseline (Gomez-Herrero et al., 2008): instantaneous ICA of the
    sensor-space least-squares MVAR residual, with the sensor coefficients
    A^(p) carried into source space as H^(p) = B A^(p) B^-1. This is the
    zero-lag block of CSA's whitened fit (:func:`_fit_csa` with the lag
    filters held at zero). Raises :class:`DegenerateModelError` on
    rank-deficient data."""
    return _order_fit(x, "MVARICA", p)[0]


def _worker_count(n_tasks: int, cap: Optional[int] = None) -> int:
    """How many processes a pool spreads ``n_tasks`` tasks over: one per CPU
    this process may run on, at most one per task and at most ``cap``.
    :func:`_pool` asks once, when it is made. It is 1 (run in the calling
    process) inside a worker process, so pools never nest; where ``fork`` is
    unavailable; and while other threads run, since a forked child gets a
    copy of their locks but not the threads that would release them."""
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


class _Scope(threading.local):
    # (pid, executor or None) of the pool whose block this thread is in; a
    # forked worker's copy has its parent's pid, so it is not the worker's pool
    pool: Optional[tuple] = None


_scope = _Scope()


@contextlib.contextmanager
def _pool(n_tasks: int, cap: Optional[int] = None):
    """The fork pool of one :func:`fit` call, or of one :func:`_pool_map`
    call outside a fit, for stages of up to ``n_tasks`` tasks. A fit passes
    its larger stage's task count: one task per distinct order for BIC, one
    per fold for CV. The executor is made here, with :func:`_worker_count`
    processes, only when that is two or more; it forks them at its first
    task. Inside the block every :func:`_pool_map` call of this thread runs
    on it; leaving the block joins its workers, also on error."""
    executor = None
    workers = _worker_count(n_tasks, cap) if n_tasks > 1 else 1
    if workers > 1:
        # imported here: ``import scsa`` should not pay for the pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker imports numpy and scipy afresh,
        # which takes longer than the tasks it would run
        executor = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")
        )
    outer, _scope.pool = _scope.pool, (os.getpid(), executor)
    try:
        yield
    finally:
        _scope.pool = outer
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


def _pool_map(fn: Callable, tasks: Sequence[tuple], cap: Optional[int] = None) -> list:
    """``[fn(*task) for task in tasks]``, with the tasks spread over forked
    processes: the pool of the running :func:`fit`, or else a :func:`_pool`
    of this call's own, sized for its tasks with ``cap``. Without workers
    the tasks run here, in order.

    ``fn`` must be a module-level function, because it is sent to the workers
    by name. Results come back in task order, so a caller that reduces them
    in that order gets the serial loop's numbers at every worker count. If a
    task raises, the exception of the first failed task in task order is
    raised with its own type, and closing the pool (at the end of this call,
    or of the fit's stages) cancels the tasks not yet started and joins the
    workers. No worker outlives the call, or the fit.
    """
    if _scope.pool is None or _scope.pool[0] != os.getpid():
        with _pool(len(tasks), cap):
            return _pool_map(fn, tasks)
    executor = _scope.pool[1]
    if executor is None:
        return [fn(*task) for task in tasks]
    futures = [executor.submit(fn, *task) for task in tasks]
    return [future.result() for future in futures]


def _order_fit(
    x: TimeSeriesMatrix, method: str, p: int
) -> Tuple[SourceModel, OptimizationTrace]:
    """The unpenalized order-``p`` fit of ``method`` and its trace: the
    whitened fit with its lag filters held at zero for MVARICA, the CSA fit
    for every other method."""
    return _fit_csa(lag_stack(x, p), p, GRAD_TOL, method != "MVARICA")


def _bic_fit(x: TimeSeriesMatrix, method: str, p: int, p_max: int):
    """The ``(model, trace)`` of :func:`_order_fit` and its unpenalized NLL on
    the common window t > p_max (its own lag stack from column p_max - p),
    or its exception (a failed order is excluded by the caller, not fatal)."""
    try:
        stack = lag_stack(x, p)
        model, trace = _fit_csa(stack, p, GRAD_TOL, method != "MVARICA")
        nll = nll_csa(source_model_to_filter_bank(model), stack[:, p_max - p :])
        return nll, (model, trace)
    except Exception as err:  # noqa: BLE001 - failed orders are skipped
        return err


class _OrderScores(dict):
    """BIC per order, as returned by :func:`select_order_bic`, with each
    scored order's full-data ``(model, trace)`` in ``fits``."""

    def __init__(self, bic: Dict[int, float], fits: Dict[int, tuple]):
        super().__init__(bic)
        self.fits = fits


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
    also carries each order's full-data ``(model, trace)`` of :func:`_order_fit`
    as its ``fits`` attribute; :func:`fit` returns or starts from the selected one.
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
    order_fits = {}
    for p, result in zip(candidates, fits):
        if isinstance(result, Exception):
            warnings.warn(f"order {p} failed and was excluded: {result}")
            continue
        nll, order_fits[p] = result
        k = d * d * (p + 1)
        bic[p] = 2.0 * nll + k * np.log(t - p_max)
    if not bic:
        raise IllPosedError("every candidate order failed to fit")
    best = min(bic, key=lambda p: (bic[p], p))
    return best, _OrderScores(bic, order_fits)


def default_lambda_grid(t: int) -> np.ndarray:
    """Twelve log-spaced penalty weights scaled linearly with the sample count."""
    return np.geomspace(1e-3, 1e2, 12) * (t / 2000.0)


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
    ``lambdas`` in their order as one quasi-Newton path that continues the
    fold's CSA solve: each λ's fit starts from the previous λ's model and
    from the L-BFGS memory the walk carries, and the first from the fold's
    CSA model and the pairs its solve handed on (:func:`_fit_csa`).
    Each (fold, λ) fit is logged at DEBUG on the ``scsa`` logger with the
    pairs its memory held at the start, its iterations, backtracks and end
    state.
    """
    runs = (data[:, : held[0]], data[:, held[-1] + 1 :])
    stack = lag_stack([run for run in runs if run.shape[1]], p)
    held_stack = lag_stack(data[:, held], p)
    model, csa = _fit_csa(stack, p)
    memory = csa.memory
    nlls = []
    for lam in lambdas:
        pairs = memory.k
        model, trace = _fit_scsa(
            stack, p, GroupPenaltySpec(lam), init=model, memory=memory
        )
        logger.debug(
            "CV fold t=%d..%d, lambda=%g: %d pairs at start, %d iterations, "
            "%d backtracks, converged=%s, stagnated=%s", held[0], held[-1], lam,
            pairs, trace.iterations, trace.backtracks, trace.converged,
            trace.stagnated,
        )
        nlls.append(nll_csa(source_model_to_filter_bank(model), held_stack))
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
    Each distinct λ of the grid is fitted once, in increasing order, and
    each fold walks the grid as one quasi-Newton path (:func:`_cv_fold`):
    every fit warm-starts from the previous λ's model and L-BFGS memory, and
    the first from the fold's CSA fit and the pairs of its solve.
    The folds run in a process pool (:func:`_pool_map`), and their scores
    are summed in fold order.
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
    where the method uses one, and the final fit. BIC runs only when the
    request has two or more distinct orders, and cross-validation only when
    the λ grid has two or more distinct values.

    The selection stages share one fork pool (:func:`_pool`), sized for the
    larger stage and closed, its workers joined, before the final fit, also
    on error. Each order is fitted once: CSA and MVARICA return BIC's fit of
    the selected order, and SCSA and SCSA-EM start from it and from the
    L-BFGS pairs its solve handed on (:func:`_fit_csa`), which BIC's
    workers return with it; so the final fit is the one
    :func:`_fit_scsa` makes without ``init``, whether BIC ran or not and at
    any worker count. The final SCSA and SCSA-EM stages share one lag stack
    of the data."""
    start = time.perf_counter()
    orders = _candidate_orders(request.order_candidates)
    grid: List[float] = []
    if request.method in ("SCSA", "SCSA_EM"):
        grid = request.lambda_grid  # AUTO or a valid grid: FitRequest checks
        if isinstance(grid, str):
            grid = default_lambda_grid(x.n_samples)
        grid = list(grid)
    bic_tasks = len(orders) if len(orders) > 1 else 0
    cv_tasks = request.cv_folds if len(set(grid)) > 1 else 0
    with _pool(max(bic_tasks, cv_tasks)):
        if bic_tasks:
            p, bic = select_order_bic(x, request.method, orders)
        else:
            p, bic = orders[0], _OrderScores({}, {})
        lam: Optional[float] = None
        curve: Dict[float, float] = {}
        if cv_tasks:
            lam, curve = select_lambda_cv(x, p, grid, folds=request.cv_folds)
        elif grid:
            lam = float(grid[0])

    # for ICA, P is used downstream only for a post-hoc MVAR on the demixed
    # sources (evaluation module); the fitted model has order 0
    order = 0 if request.method == "ICA" else p
    if grid:
        stack = lag_stack(x, p)
        model, csa = bic.fits.get(p) or _fit_csa(stack, p)
        pen = GroupPenaltySpec(lam)
        model, trace = _fit_scsa(stack, p, pen, init=model, memory=csa.memory)
        if request.method == "SCSA_EM":
            model, history = em_dal.fit_scsa_em(stack, p, pen, init=model)
            trace = OptimizationTrace(
                iterations=len(history) - 1,
                final_value=history[-1],
                converged=em_dal.em_converged(history),
                value_history=list(history),
            )
    else:
        model, trace = bic.fits.get(order) or _order_fit(x, request.method, order)
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
