"""Limited-memory BFGS on flat vectors: one core serves :func:`minimize`
(smooth objectives) and :func:`minimize_with_group_truncation` (smooth part
plus w sum_g ||x_g||_2, the groups given as the rows of a (G, k) index matrix).

Directions use the compact L-BFGS form (Byrd, Nocedal & Schnabel, Math.
Prog. 63, 1994), updated one pair at a time. Penalized groups are handled as
in OWL-QN (Andrew & Gao, ICML 2007), with groups for coordinates, as the
rows of one index matrix. Directions and L-BFGS pairs use the
pseudo-gradient, the minimum-norm subgradient: on a zero group, the smooth
gradient shrunk radially by the weight, or zero inside the weight ball. Each
line-search trial is projected before it is evaluated: a group is zeroed
when its trial block has a non-positive inner product with its reference,
the current group when nonzero and minus its pseudo-gradient when zero (so a
zero group whose subdifferential holds 0 stays at zero). The Armijo test uses
the actual displacement of the projected trial.

A solve ends in one of three ways. It has converged when the sup-norm of the
pseudo-gradient is at most ``grad_tol * max(1, |f|)``, the one stop rule. It
stagnates, and raises :class:`StagnationError`, when no line-search trial
lowers the value before the step's predicted decrease falls to one ulp of
the value, as at the rounding floor of a tolerance tighter than the value
can resolve. Otherwise it returns after ``MAX_ITERS`` iterations,
neither converged nor stagnated.

Every line-search trial calls the one value-and-gradient callable inside
the domain barrier (``_BARRIER_ERRORS``), and the accepted trial's gradient
is kept: one evaluation per trial.

The memory keeps the last ``MEMORY`` = 40 pairs. A solve starts with an
empty one, whose first step is a unit step along the pseudo-gradient,
unless its caller passes an :class:`LbfgsMemory` it owns. The solve then
starts from that memory's pairs and leaves its own in it. So a walk over a
path of penalty weights (the cross-validation of
:func:`scsa.estimators.select_lambda_cv`) is one quasi-Newton path, as a
warm-started path is in glmnet (Friedman, Hastie & Tibshirani, JSS 2010),
and so is an SCSA fit that starts from the pairs of the CSA solve it
continues (:func:`scsa.estimators._fit_csa`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .exceptions import DegenerateModelError, NumericError, StagnationError

# L-BFGS pairs kept: enough for a walk down a penalty path to keep the
# curvature its earlier solves measured
MEMORY = 40
ARMIJO_C = 1e-4  # sufficient-decrease constant
BACKTRACK = 0.5  # step shrink per rejected trial
MAX_BACKTRACKS = 60
# A search fails once its linear model predicts a decrease of at most
# ROUNDING_FLOOR * eps * |f|, no more than one ulp of f.
ROUNDING_FLOOR = 0.5
_EPS = float(np.finfo(float).eps)
GRAD_TOL = 1e-6  # default tolerance of the gradient test
MAX_ITERS = 2000  # iterations before a solve returns unconverged

logger = logging.getLogger("scsa")

# Exceptions treated as "+inf objective" during line search, so the search
# backs off instead of crashing (e.g. an iterate crossing det B = 0, or an
# objective that rejects an ill-conditioned model).
_BARRIER_ERRORS = (
    NumericError,
    DegenerateModelError,
    FloatingPointError,
    np.linalg.LinAlgError,
)


@dataclass
class OptimizationTrace:
    """What a solve did. ``converged`` is set exactly when the final
    pseudo-gradient sup-norm ``final_grad_norm`` is at most ``grad_tol *
    max(1, |final_value|)``; ``stagnated`` when no line-search trial lowered
    the value and :func:`keep_last_on_stagnation` kept the last iterate. A
    solve that ran out of iterations has neither set.

    ``memory`` is None but on a CSA fit's trace
    (:func:`scsa.estimators._fit_csa`), where it holds the solve's pairs in
    the coordinates of the SCSA fit that starts from the CSA model; it does
    not take part in comparisons."""

    iterations: int = 0
    final_value: float = np.nan
    final_grad_norm: float = np.nan
    converged: bool = False
    value_history: List[float] = field(default_factory=list)
    backtracks: int = 0  # rejected line-search trials
    active_set_changes: int = 0  # iterations whose set of zero groups changed
    stagnated: bool = False  # the line search failed and the last iterate was kept
    memory: Optional[LbfgsMemory] = field(default=None, compare=False, repr=False)


class LbfgsMemory:
    """Inverse Hessian of the last ``m`` (``MEMORY``) accepted pairs of an
    ``n``-vector problem, in compact form
    H = gamma I + [S^T, gamma Y^T] [[R^-T (D + gamma Y Y^T) R^-1, -R^-T],
    [-R^-1, 0]] [S; gamma Y], with R = triu(S Y^T), D its diagonal and gamma
    = s^T y / y^T y of the newest pair. Rows of S and Y are pairs, oldest
    first; rows from ``k`` on are zero.

    A solve given a memory starts from its pairs and leaves its own in it,
    so a caller that owns one carries it from solve to solve: along a path
    of penalty weights, or from a CSA solve to the SCSA fit that continues
    it, with the pairs mapped into the SCSA fit's coordinates and pushed
    again. A pair is kept only when s^T y > 1e-12 ||s|| ||y||, the
    curvature test that keeps H positive definite."""

    def __init__(self, n: int, m: int = MEMORY):
        self.n, self.m, self.k = n, m, 0
        self.sy = np.zeros((2, m, n))  # S = sy[0], Y = sy[1]
        # inv(R) and Y Y^T on their leading k x k blocks; inv(R) stays upper
        # triangular, so its rows below the diagonal stay zero
        self.small = np.zeros((2, m, m))
        self.d = np.zeros(m)  # diag(R)
        self.coef = np.zeros(2 * m)

    def push(self, s, y):
        sy, yy = float(s @ y), float(y @ y)
        if sy <= 1e-12 * math.sqrt(float(s @ s) * yy):
            return  # skip pairs that would break positive definiteness
        k = self.k
        if k == self.m:
            # drop the oldest pair; the inverse of R's trailing block is the
            # trailing block of R's inverse, as R is upper triangular
            self.sy[:, :-1] = self.sy[:, 1:]
            self.small[:, :-1, :-1] = self.small[:, 1:, 1:]
            self.d[:-1] = self.d[1:]
            k -= 1
        cross = self.sy[:, :k] @ y  # S y and Y y
        r_inv, yy_mat = self.small
        # R gains the column S y and the diagonal entry s^T y
        r_inv[:k, k] = r_inv[:k, :k] @ cross[0] * (-1.0 / sy)
        r_inv[k, k] = 1.0 / sy
        yy_mat[:k, k] = yy_mat[k, :k] = cross[1]
        yy_mat[k, k] = yy
        self.d[k] = sy
        self.sy[:, k] = s, y
        self.k = k + 1

    def direction(self, g):
        """-H g, a descent direction for gradient g."""
        k, m = self.k, self.m
        if k == 0:
            return -g
        sy = self.sy.reshape(2 * m, -1)
        ab = sy @ g  # S g and Y g
        r_inv, yy_mat = self.small[:, :k, :k]
        d = self.d[:k]
        gamma = d[-1] / yy_mat[-1, -1]
        u = r_inv @ ab[:k]
        coef = self.coef
        coef[:k] = (d * u + gamma * (yy_mat @ u - ab[m : m + k])) @ r_inv
        coef[m : m + k] = -gamma * u
        return -(gamma * g + coef @ sy)


class GroupLayout:
    """The rows of a (G, k) index matrix as groups of flat indices, all with
    one weight. Norms, the pseudo-gradient's shrink and the projection are
    row sums over ``v[index]``. The layout is inactive, and adds no penalty,
    when the weight is 0 or the groups have no members (the lag groups of an
    order-0 model)."""

    def __init__(
        self, index: np.ndarray = np.empty((0, 0), dtype=int), weight: float = 0.0
    ):
        index = np.asarray(index, dtype=int)
        self.active = weight > 0 and index.shape[1] > 0
        self.index = index if self.active else index[:0]
        self.weight = float(weight)

    def norms(self, v):
        return _row_norms(v[self.index])

    def penalty(self, v) -> float:
        return self.weight * float(self.norms(v).sum())

    def gradient(self, v, n):
        """Gradient of the penalty at v, whose group norms are n: w v/||v||
        on the nonzero groups, 0 on the zero ones (where it has none)."""
        g = np.zeros_like(v)
        if self.active:
            idx = self.index
            g[idx] = v[idx] * (self.weight / np.where(n == 0, np.inf, n))[:, None]
        return g

    def pseudo_gradient(self, v, g_smooth, n):
        """Minimum-norm subgradient at v, and the orthant reference: v on
        its nonzero groups, minus the subgradient on its zero groups."""
        if not self.active:
            return g_smooth, v
        g, ref = g_smooth + self.gradient(v, n), v.copy()
        zero = n == 0
        if zero.any():
            idx = self.index[zero]
            gz = g[idx]
            gz *= _shrink(_row_norms(gz), self.weight)[:, None]
            g[idx] = gz
            ref[idx] = -gz
        return g, ref

    def project(self, u, ref) -> bool:
        """Zero, in place, each group of u whose inner product with the same
        group of ref is <= 0; returns whether any group was zeroed."""
        if not self.active:
            return False
        idx = self.index
        cut = (u[idx] * ref[idx]).sum(axis=1) <= 0
        if not cut.any():
            return False
        u[idx[cut]] = 0.0
        return True


def _row_norms(m):
    return np.sqrt((m * m).sum(axis=1))


def _shrink(norms, weight):
    """max(0, 1 - weight/norm), the radial shrink of a zero group's gradient
    to its minimum-norm subgradient (1 where the norm, so the gradient, is 0)."""
    return np.maximum(1.0 - weight / np.where(norms > 0, norms, np.inf), 0.0)


def _line_search(trial, project, x, f, g, d, trace):
    """Backtracking Armijo search along d, each trial projected by ``project``
    before it is evaluated. A trial is accepted only when its value is below
    f, so a search that cannot lower the value fails. It also fails once the
    linear model's decrease step·|slope| is at most one ulp of f
    (``ROUNDING_FLOOR``), where only a rounding accident could lower the
    value. ``trial`` returns a trial's value, smooth gradient and group
    norms; the search returns (x_new, f_new, smooth_grad, norms) or None."""
    slope = float(np.dot(g, d))
    if slope >= 0:
        d = -g
        slope = -float(np.dot(g, g))
        if slope == 0.0:
            return None
    floor = ROUNDING_FLOOR * _EPS * abs(f)
    step = 1.0
    for k in range(MAX_BACKTRACKS):
        if -step * slope <= floor:
            break
        x_new = x + step * d
        decrease = ARMIJO_C * step * slope
        if project(x_new):
            # the predicted decrease follows the actual displacement; a trial
            # that does not move downhill (x itself among them) is rejected
            decrease = ARMIJO_C * float(np.dot(g, x_new - x))
        if k and not (x_new != x).any():
            break  # the trial is x itself, and so is every shorter one
        if decrease < 0:
            f_new, g_new, n_new = trial(x_new)
            if f_new < f and f_new <= f + decrease:
                return x_new, f_new, g_new, n_new
        trace.backtracks += 1
        step *= BACKTRACK
    return None


def _lbfgs(objective, x0, grad_tol, groups, memory=None):
    x = np.asarray(x0, dtype=float).copy()
    if memory is None:
        memory = LbfgsMemory(x.size)
    elif memory.n != x.size:
        raise ValueError(
            f"L-BFGS memory holds {memory.n}-vectors, the start has {x.size} entries"
        )
    layout = GroupLayout(*groups)

    def trial(v):
        """Penalized value at a trial point (+inf outside the domain), the
        smooth gradient and the group norms there."""
        try:
            f_smooth, g_smooth = objective(v)
            n = layout.norms(v)
            f_new = f_smooth + layout.weight * float(n.sum())
        except _BARRIER_ERRORS:
            return np.inf, None, None
        return (f_new if np.isfinite(f_new) else np.inf), g_smooth, n

    n = layout.norms(x)
    f_smooth, g_smooth = objective(x)
    f = f_smooth + layout.weight * float(n.sum())
    if not np.isfinite(f):
        raise NumericError("objective not finite at the starting point")
    g, ref = layout.pseudo_gradient(x, g_smooth, n)

    trace = OptimizationTrace(value_history=[f])
    for it in range(MAX_ITERS + 1):
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        trace.iterations, trace.final_value, trace.final_grad_norm = it, f, gnorm
        if gnorm <= grad_tol * max(1.0, abs(f)):
            trace.converged = True
            return x, trace
        if it == MAX_ITERS:
            return x, trace
        result = _line_search(
            trial,
            lambda u: layout.project(u, ref),
            x, f, g, memory.direction(g), trace,
        )
        if result is None:
            raise StagnationError(
                "line search found no acceptable step", x=x, trace=trace
            )
        x_new, f_new, g_smooth, n_new = result
        g_new, ref = layout.pseudo_gradient(x_new, g_smooth, n_new)
        memory.push(x_new - x, g_new - g)
        trace.active_set_changes += bool(np.any((n_new == 0) != (n == 0)))
        x, f, g, n = x_new, f_new, g_new, n_new
        trace.value_history.append(f)


def minimize(
    objective: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    grad_tol: float = GRAD_TOL,
    memory: Optional[LbfgsMemory] = None,
) -> Tuple[np.ndarray, OptimizationTrace]:
    """Minimize a smooth objective given its value-and-gradient callable.

    Converges when the gradient sup-norm drops to ``grad_tol * max(1, |f|)``,
    and otherwise returns unconverged after ``MAX_ITERS`` iterations. A trial
    where the objective raises a domain error or is not finite is backtracked.
    ``memory`` is as in :func:`minimize_with_group_truncation`.

    Raises
    ------
    NumericError
        If the objective is not finite at ``x0``.
    StagnationError
        If no backtracking step lowers the value with sufficient decrease;
        the error carries the last iterate and trace.
    """
    return _lbfgs(objective, x0, grad_tol, (), memory)


def minimize_with_group_truncation(
    smooth_objective: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    groups: Union[Tuple[np.ndarray, float], Tuple[()]],
    grad_tol: float = GRAD_TOL,
    memory: Optional[LbfgsMemory] = None,
) -> Tuple[np.ndarray, OptimizationTrace]:
    """Minimize smooth(x) + sum_g weight_g * ||x_g||_2 by L-BFGS whose
    line-search trials are projected onto the group orthant (module docstring).

    ``smooth_objective`` returns the value and gradient of the smooth part
    only; the penalty and its (sub)gradient are handled here. ``groups`` is
    an (index matrix, weight) pair, each row of the (G, k) matrix the flat
    indices of one group, or ``()`` for no penalty (:class:`GroupLayout`).
    ``memory``, an :class:`LbfgsMemory` the caller owns, is the memory the
    solve starts from and leaves its pairs in; without it the solve starts
    with an empty one. Stopping rules, trials and errors are those of
    :func:`minimize`.

    Raises
    ------
    ValueError
        Before the first evaluation, if ``memory`` holds vectors of another
        size than ``x0``.
    """
    return _lbfgs(smooth_objective, x0, grad_tol, groups, memory)


def keep_last_on_stagnation(
    solve: Callable[[], Tuple[np.ndarray, OptimizationTrace]], what: str
) -> Tuple[np.ndarray, OptimizationTrace]:
    """Run ``solve``; if its line search stalls, return the last iterate and
    its trace with ``stagnated`` set, and log that at DEBUG."""
    try:
        return solve()
    except StagnationError as err:
        err.trace.stagnated = True
        logger.debug("%s stagnated after %d iterations, kept: %s",
                     what, err.trace.iterations, err)
        return err.x, err.trace
