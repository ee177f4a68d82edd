"""Estimator facade: CSA, SCSA, SCSA-EM, MVARICA and instantaneous ICA fits,
plus model-order selection by BIC and penalty-weight selection by blocked
cross-validation.

All estimators accept a multichannel observation block and return a
``SourceModel`` (demixing matrix plus source-space MVAR coefficients). Each
fit stacks its lag windows once (:func:`scsa.model.lag_stack`), one column
per window, and hands the stack to the fit core, :mod:`scsa.fitting`; a
cross-validation fold trains and scores on column ranges of that stack.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import em_dal
from .cost import GroupPenaltySpec, _lapack, cost_scsa
from .exceptions import IllPosedError, PartitionError, ScsaError
from .fitting import _checked, _fit_csa, _fit_scsa, _scsa_start
from .model import SourceModel, TimeSeriesMatrix, _is_int, lag_stack
from .optim import LbfgsMemory, OptimizationTrace

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
        _check_orders(self.order_candidates)
        _check_folds(self.cv_folds, "cv_folds")
        grid = self.lambda_grid
        if isinstance(grid, str):
            if grid != AUTO:
                raise ValueError(f"unknown lambda_grid {grid!r}")
        elif len(grid) == 0 or not all(0 <= float(lam) < math.inf for lam in grid):
            raise ValueError(
                f"lambda_grid must be {AUTO!r} or a nonempty sequence of finite, "
                f"nonnegative numbers; got {list(grid)!r}"
            )


def _check_orders(orders: Sequence[int]) -> None:
    if len(orders) == 0:
        raise ValueError("order_candidates must be nonempty")
    if not all(_is_int(p, 0) for p in orders):
        raise ValueError(f"orders must be nonnegative integers; got {list(orders)!r}")


def _check_folds(folds, what: str) -> None:
    if not _is_int(folds, 2):
        raise ValueError(f"{what} must be an integer >= 2; got {folds!r}")


@dataclass
class FitResult:
    """What :func:`fit` returns.

    ``model`` is the fitted model and ``method`` the request's method.
    ``selected_order`` is the order BIC picked, or the one candidate (an ICA
    model has order 0 whatever it is). ``selected_lambda`` is the λ that
    cross-validation picked, or the grid's one value, and None for methods
    without a penalty. ``bic_per_order`` and ``cv_curve`` are the scores of
    those stages, empty where a stage did not run. ``wall_time`` is the
    fit's time in seconds.

    ``trace`` is the final solve's :class:`scsa.optim.OptimizationTrace`,
    except for SCSA-EM, whose trace is built from the EM cost history:
    ``iterations`` counts half-steps, ``value_history`` is that history,
    ``converged`` is the EM stop rule, ``final_grad_norm`` is NaN, and
    ``stagnated`` is not set from the half-steps, though every M-step ends
    as a kept stagnation by design (:mod:`scsa.em_dal`).
    """

    model: SourceModel
    method: str
    selected_order: int
    selected_lambda: Optional[float]
    bic_per_order: Dict[int, float]
    cv_curve: Dict[float, float]
    trace: OptimizationTrace
    wall_time: float


def fit_csa(x: TimeSeriesMatrix, p: int) -> SourceModel:
    """CSA: maximum-likelihood fit of the FIR filter bank, solved in
    whitened lag coordinates (:func:`scsa.fitting._fit_csa`) and returned in
    (B, H) coordinates; :func:`fit` at the one order ``p``. Raises
    :class:`DegenerateModelError` on rank-deficient data."""
    return fit(x, FitRequest("CSA", [p])).model


def fit_ica(x: TimeSeriesMatrix) -> SourceModel:
    """Instantaneous maximum-likelihood ICA (order-0 CSA): :func:`fit` at order 0."""
    return fit(x, FitRequest("ICA", [0])).model


def fit_scsa(x: TimeSeriesMatrix, p: int, pen: GroupPenaltySpec) -> SourceModel:
    """SCSA: group-lasso regularized joint fit, warm-started from CSA and
    from its L-BFGS pairs (:func:`scsa.fitting._scsa_start`); :func:`fit`
    at the one order ``p`` and the one weight ``pen.lam``."""
    return fit(x, FitRequest("SCSA", [p], [pen.lam])).model


def fit_scsa_em(x: TimeSeriesMatrix, p: int, pen: GroupPenaltySpec) -> SourceModel:
    """SCSA refined by EM alternation, block-coordinate descent on the SCSA
    cost over B and H, warm-started from :func:`fit_scsa`; :func:`fit` at
    the one order ``p`` and the one weight ``pen.lam``."""
    return fit(x, FitRequest("SCSA_EM", [p], [pen.lam])).model


def fit_mvarica(x: TimeSeriesMatrix, p: int) -> SourceModel:
    """MVARICA baseline (Gomez-Herrero et al., 2008): instantaneous ICA of the
    sensor-space least-squares MVAR residual, with the sensor coefficients
    A^(p) carried into source space as H^(p) = B A^(p) B^-1. This is the
    zero-lag block of CSA's whitened fit (:func:`scsa.fitting._fit_csa`
    with the lag filters held at zero); :func:`fit` at the one order ``p``.
    Raises :class:`DegenerateModelError` on rank-deficient data."""
    return fit(x, FitRequest("MVARICA", [p])).model


# set in each forked worker of _pool_map, so that maps inside it run serially
_in_worker = False


def _worker_count(n_tasks: int, cap: Optional[int] = None) -> int:
    """How many processes :func:`_pool_map` forks for ``n_tasks`` tasks: one
    per CPU this process may run on, at most one per task and at most
    ``cap``. It is 1 (run in the calling process) inside a worker, so maps
    never nest; where ``os.fork`` is unavailable; and while other threads
    run, since a forked child gets a copy of their locks but not the
    threads that would release them."""
    if _in_worker or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(n_tasks, cpus, n_tasks if cap is None else cap))


def _pool_map(fn: Callable, tasks: Sequence[tuple], cap: Optional[int] = None) -> list:
    """``[fn(*task) for task in tasks]``, run by :func:`_worker_count`
    forked workers when that is two or more, else here, in order. The
    workers inherit ``fn``, ``tasks`` and scipy's LAPACK routines
    (:func:`scsa.cost._lapack`), imported before the fork, so nothing is
    sent to them. They claim tasks one at a time (:func:`_work`); this process
    runs none. Results come back in task order, so a caller that reduces
    them in that order gets the serial loop's numbers at every worker count.
    A failed task raises the exception of the first failed task in task
    order, with its own type; a worker that exits without sending its
    results raises a :class:`ScsaError` naming its exit status. Every worker
    is reaped before the call returns or raises."""
    workers = _worker_count(len(tasks), cap)
    if workers < 2:
        return [fn(*task) for task in tasks]
    _lapack()  # imported before the fork
    claim, pipes, pids = os.pipe(), [], []
    os.write(claim[1], bytes(4))  # task number 0 is the first unclaimed
    try:
        for _ in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, tasks, claim, write)
            finally:
                os.close(write)  # so the read ends at the worker's exit
            pids.append(pid)
        payloads = [f.read() for f in pipes]
    finally:
        for fd in claim:
            os.close(fd)
        for f in pipes:
            f.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code, payload in zip(codes, payloads):
        if code or not payload:
            raise ScsaError(f"a worker process exited with status {code} before "
                            "it sent its results")
    ran = sorted(r for payload in payloads for r in pickle.loads(payload))
    for _, failed, value in ran:  # by task number, which no two share
        if failed:
            raise value[0] from ScsaError(f"raised in a worker process:\n{value[1]}")
    return [value for _, _, value in ran]


def _work(fn: Callable, tasks: Sequence[tuple], claim: Tuple[int, int], out: int):
    """A worker of :func:`_pool_map`; it never returns. It takes the next
    task number from the ``claim`` pipe (4 bytes, which one read takes
    whole) and puts back its successor, so the pipe never fills, until no
    task is left or one of its own has failed. It then writes each task's
    number, whether it failed and its result or exception and traceback to
    ``out``, pickled once, and exits, with status 0 if that write completed."""
    global _in_worker
    _in_worker, ran, code, n = True, [], 1, len(tasks)
    try:
        while (i := int.from_bytes(os.read(claim[0], 4), "little")) < n:
            os.write(claim[1], (i + 1).to_bytes(4, "little"))
            try:
                ran.append((i, False, fn(*tasks[i])))
            except Exception as err:  # noqa: BLE001 - raised by the parent
                import traceback  # here: ``import scsa`` should not load it
                ran.append((i, True, (err, traceback.format_exc())))
                break
        else:
            os.write(claim[1], n.to_bytes(4, "little"))  # for the other workers
        with open(out, "wb") as f:
            f.write(pickle.dumps(ran, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _order_fit(
    stack: np.ndarray, method: str, p: int
) -> Tuple[SourceModel, OptimizationTrace]:
    """The unpenalized order-``p`` fit of ``method`` on a lag stack, and its
    trace: the whitened fit with its lag filters held at zero for MVARICA,
    the CSA fit for every other method."""
    return _fit_csa(stack, p, method != "MVARICA")


def _bic_fit(x: TimeSeriesMatrix, method: str, p: int, p_max: int):
    """The ``(model, trace)`` of :func:`_order_fit` and its unpenalized cost,
    as CV scores a held-out block, on the common window t > p_max (its own
    lag stack from column p_max - p), or its exception (a failed order is
    excluded by the caller, not fatal)."""
    try:
        stack = lag_stack(x, p)
        model, trace = _order_fit(stack, method, p)
        nll = cost_scsa(model, stack[:, p_max - p :], GroupPenaltySpec())
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
    are fitted in forked workers of this stage (:func:`_pool_map`). The
    returned BIC dict also carries each order's full-data ``(model, trace)``
    of :func:`_order_fit` as its ``fits`` attribute; :func:`fit` returns or
    starts from the selected one.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    _check_orders(order_candidates)
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
    stack: np.ndarray,
    lambdas: Sequence[float],
    held: np.ndarray,
    start: Tuple[SourceModel, LbfgsMemory],
) -> List[float]:
    """Held-out NLL at each λ of one fold.

    ``stack`` is the lag stack of the whole run at the start model's order
    P (column j is the window at sample j + P) and ``held`` the held-out
    samples h0..h1. The model is fitted on the windows that touch no
    held-out sample, columns before h0 - P and after h1, walking ``lambdas``
    in their order as one solve path of :func:`_fit_scsa`, and scored on the
    windows inside the block, columns h0..h1 - P. The walk starts from
    ``start``, the full-data CSA model and its mapped pairs
    (:func:`_scsa_start`), in a copy of that memory, so the folds and the
    final fit never share pairs; the fold fits no CSA model of its own. The
    start was fitted on the held-out block too, so it can choose the basin
    the walk reaches (:func:`select_lambda_cv`).
    Each (fold, λ) fit is logged at DEBUG on the ``scsa`` logger with the
    pairs its memory held at the start, its iterations, backtracks and end
    state.
    """
    h0, h1, p = held[0], held[-1], start[0].order
    train = np.hstack((stack[:, : max(h0 - p, 0)], stack[:, h1 + 1 :]))
    held_stack = stack[:, h0 : h1 - p + 1]
    memory = start[1].copy()
    walk = _fit_scsa(train, [GroupPenaltySpec(lam) for lam in lambdas], (start[0], memory))
    nlls = []
    pairs = memory.k
    for lam, (model, trace) in zip(lambdas, walk):
        logger.debug(
            "CV fold t=%d..%d, lambda=%g: %d pairs at start, %d iterations, "
            "%d backtracks, converged=%s, stagnated=%s", h0, h1, lam,
            pairs, trace.iterations, trace.backtracks, trace.converged,
            trace.stagnated,
        )
        pairs = memory.k  # where the next λ's solve starts
        nlls.append(cost_scsa(model, held_stack, GroupPenaltySpec()))
    return nlls


def select_lambda_cv(
    x: TimeSeriesMatrix,
    p: int,
    lambda_grid: Sequence[float],
    folds: int = 5,
    start: Optional[Tuple[SourceModel, LbfgsMemory]] = None,
) -> Tuple[float, Dict[float, float]]:
    """Blocked cross-validation for the group-lasso weight.

    The time axis is cut into ``folds`` contiguous blocks, and the lag
    stack of ``x`` is built once. Each fold is column ranges of it
    (:func:`_cv_fold`): the model is fitted on the windows that touch no
    held-out sample (Bergmeir, Hyndman & Koo, CSDA 2018) and scored by the
    unpenalized NLL of the windows inside the block. Each distinct λ is
    fitted once, in increasing order, and each fold walks the grid as one
    solve path from ``start``: a CSA fit of the whole of ``x`` at order
    ``p`` and its solve's pairs (:func:`_scsa_start`), made here when None.
    That start has seen every held-out block, so a fold's fits are not
    wholly out-of-sample: the held-out data can pick the basin a fold's walk
    reaches (the cost is not convex in B), though the fits minimize the
    training cost alone. cv.glmnet, by contrast, fits each fold's path from
    the fold's own data and shares only the λ sequence. Fold-local starts
    gave the same pick on 140 criterion-7 datasets, all with D = 4 sources,
    but on the D = 7 ``em_refine`` benchmark dataset with ``pipeline_cv``'s
    flags they pick 17.56 where the shared start picks 6.16 (ROADMAP item
    10). The folds run in forked workers of this stage (:func:`_pool_map`),
    which inherit the stack, and their scores are summed in fold order.
    """
    _check_orders([p])
    _check_folds(folds, "folds")
    lambdas = sorted(set(float(l) for l in lambda_grid))
    if not lambdas:
        raise ValueError("lambda_grid must be nonempty")
    blocks = _cv_blocks(x.n_samples, folds, p)
    stack = lag_stack(x, p)
    if start is None:
        start = _scsa_start(stack, p)
    scores = {lam: 0.0 for lam in lambdas}
    tasks = [(stack, lambdas, held, start) for held in blocks]
    for nlls in _pool_map(_cv_fold, tasks):
        for lam, nll in zip(lambdas, nlls):
            scores[lam] += nll
    curve = {lam: scores[lam] / folds for lam in lambdas}
    best = min(lambdas, key=lambda l: (curve[l], l))
    return best, curve


def fit(x: TimeSeriesMatrix, request: FitRequest) -> FitResult:
    """Run the full estimation pipeline: order selection, penalty selection
    where the method uses one, and the final fit. BIC runs only when the
    request has two or more distinct orders, and cross-validation only when
    the λ grid has two or more distinct values. The estimator facades
    (:func:`fit_csa` and the rest) run it at one order and one λ.

    Each selection stage forks its own workers and reaps them before it
    returns, also on error (:func:`_pool_map`); the final fit runs here.
    Each order is fitted once, on one lag stack at the fit's order (the
    selected P, or 0 for ICA): the unpenalized fit of that order is BIC's
    (its workers return each order's solve pairs with it) or else one made
    here (:func:`_order_fit`). CSA, MVARICA and ICA return it; SCSA and
    SCSA-EM start from it, with its pairs mapped once (:func:`_scsa_start`),
    and every later stage reads P and D from that start. The start is
    shared: every cross-validation fold walks its λ grid from it
    (:func:`select_lambda_cv`), in a copy of its memory, and the final fit
    starts from it; so the final fit is the same whether BIC ran or not and
    at any worker count."""
    _lapack()  # the first fit's wall_time leaves out scipy's import
    began = time.perf_counter()
    orders = _candidate_orders(request.order_candidates)
    if len(orders) > 1:
        p, bic = select_order_bic(x, request.method, orders)
    else:
        p, bic = orders[0], _OrderScores({}, {})
    # for ICA, P is used downstream only for a post-hoc MVAR on the
    # demixed sources (evaluation module); the fitted model has order 0
    order = 0 if request.method == "ICA" else p
    stack = lag_stack(x, order)
    model, trace = bic.fits.get(order) or _order_fit(stack, request.method, order)
    lam: Optional[float] = None
    curve: Dict[float, float] = {}
    if request.method in ("SCSA", "SCSA_EM"):
        grid = request.lambda_grid  # AUTO or a valid grid: FitRequest checks
        if isinstance(grid, str):
            grid = default_lambda_grid(x.n_samples)
        start = _scsa_start(stack, p, (model, trace))
        if len(set(grid)) > 1:
            lam, curve = select_lambda_cv(x, p, grid, folds=request.cv_folds, start=start)
        else:
            lam = float(grid[0])
        pen = GroupPenaltySpec(lam)
        (model, trace), = _fit_scsa(stack, [pen], start)
        model = _checked(model)
        if request.method == "SCSA_EM":
            model, history = em_dal.fit_scsa_em(stack, p, pen, init=model)
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
        wall_time=time.perf_counter() - began,
    )
