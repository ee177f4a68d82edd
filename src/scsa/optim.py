"""Limited-memory BFGS on flat vectors: one core serves :func:`minimize`
(smooth objectives) and :func:`minimize_with_group_truncation` (smooth part
plus sum_g w_g ||x_g||_2, groups given as (G, k) index matrices and weights).

Directions use the compact L-BFGS form (Byrd, Nocedal & Schnabel, Math.
Prog. 63, 1994), updated one pair at a time. Penalized groups are handled as
in OWL-QN (Andrew & Gao, ICML 2007), with groups for coordinates, on one
flat layout of all group members. Directions and L-BFGS pairs use the
pseudo-gradient, the minimum-norm subgradient: on a zero group, the smooth
gradient shrunk radially by the weight, or zero inside the weight ball. Each
line-search trial is projected before it is evaluated: a group is zeroed
when its trial block has a non-positive inner product with its reference,
the current group when nonzero and minus its pseudo-gradient when zero (so a
zero group whose subdifferential holds 0 stays at zero). The Armijo test uses
the actual displacement of the projected trial.

The line search keeps the smooth gradient of its first trial, so an accepted
first trial costs one evaluation in all; later trials call the value-only
callable when one is given.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import DegenerateModelError, NumericError, StagnationError

MEMORY = 10  # L-BFGS pairs kept
ARMIJO_C = 1e-4  # sufficient-decrease constant
BACKTRACK = 0.5  # step shrink per rejected trial
MAX_BACKTRACKS = 60
VALUE_TOL_ITERS = 5  # consecutive flat iterations that end a solve

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

# (index matrix of shape (G, k), weights of shape (G,)): G groups of k
# flat indices each.
GroupBlock = Tuple[np.ndarray, np.ndarray]


@dataclass
class OptimizerConfig:
    max_iters: int = 500
    grad_tol: float = 1e-6
    value_tol: float = 1e-10

    def __post_init__(self):
        if self.grad_tol <= 0 or self.value_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class OptimizationTrace:
    iterations: int = 0
    final_value: float = np.nan
    final_grad_norm: float = np.nan
    converged: bool = False
    value_history: List[float] = field(default_factory=list)
    backtracks: int = 0  # rejected line-search trials
    active_set_changes: int = 0  # iterations whose set of zero groups changed
    stagnated: bool = False  # the line search failed and the last iterate was kept


class _LbfgsMemory:
    """Inverse Hessian of the last ``m`` accepted pairs, in compact form
    H = gamma I + [S^T, gamma Y^T] [[R^-T (D + gamma Y Y^T) R^-1, -R^-T],
    [-R^-1, 0]] [S; gamma Y], with R = triu(S Y^T), D its diagonal and gamma
    = s^T y / y^T y of the newest pair. Rows of S and Y are pairs, oldest
    first; rows from ``k`` on are zero."""

    def __init__(self, m: int, n: int):
        self.m, self.k = m, 0
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
    """The penalized groups (weight > 0, at least one member) in one flat
    layout: ``members`` holds the flat indices of every group back to back,
    ``owner`` the group of each member, and ``starts`` where each group
    begins in ``members``. A group with no members has norm 0 and adds
    nothing to the penalty, so it is left out."""

    def __init__(self, groups: Sequence[GroupBlock]):
        members, sizes, weights = [np.zeros(0, dtype=int)], [], [np.zeros(0)]
        for index, w in groups:
            w = np.asarray(w, dtype=float)
            index = np.asarray(index, dtype=int)
            if index.shape[1] == 0:
                continue
            index = index[w > 0]
            members.append(index.ravel())
            sizes.extend([index.shape[1]] * len(index))
            weights.append(w[w > 0])
        self.members = np.concatenate(members)
        self.weights = np.concatenate(weights)
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        self.starts = np.cumsum([0] + sizes)[:-1]
        self.active = bool(sizes)

    def norms(self, v):
        vm = v[self.members]
        return np.sqrt(np.add.reduceat(vm * vm, self.starts))

    def penalty(self, v) -> float:
        return float(self.weights @ self.norms(v)) if self.active else 0.0

    def gradient(self, v, n):
        """Gradient of the penalty at v, whose group norms are n: w v/||v||
        on the nonzero groups, 0 on the zero ones (where it has none)."""
        g = np.zeros_like(v)
        if self.active:
            idx = self.members
            g[idx] = v[idx] * (self.weights / np.where(n == 0, np.inf, n))[self.owner]
        return g

    def pseudo_gradient(self, v, g_smooth, n):
        """Minimum-norm subgradient at v, and the orthant reference: v on
        its nonzero groups, minus the subgradient on its zero groups."""
        if not self.active:
            return g_smooth, v
        g, ref = g_smooth + self.gradient(v, n), v.copy()
        zero = n == 0
        if zero.any():
            idx, owner = self.members, self.owner
            gm = g[idx]
            gnorm = np.sqrt(np.add.reduceat(gm * gm, self.starts))
            gm *= np.where(zero, _shrink(gnorm, self.weights), 1.0)[owner]
            g[idx] = gm
            on_zero = zero[owner]
            ref[idx[on_zero]] = -gm[on_zero]
        return g, ref

    def project(self, u, ref) -> bool:
        """Zero, in place, each group of u whose inner product with the same
        group of ref is <= 0; returns whether any group was zeroed."""
        if not self.active:
            return False
        idx = self.members
        cut = np.add.reduceat(u[idx] * ref[idx], self.starts) <= 0
        if not cut.any():
            return False
        u[idx[cut[self.owner]]] = 0.0
        return True


def _shrink(norms, weights):
    """max(0, 1 - weight/norm), the radial shrink of a zero group's gradient
    to its minimum-norm subgradient (1 where the norm, so the gradient, is 0)."""
    return np.maximum(1.0 - weights / np.where(norms > 0, norms, np.inf), 0.0)


def _line_search(trial, project, x, f, g, d, trace):
    """Backtracking Armijo search along d, each trial projected by ``project``
    before it is evaluated. Returns (x_new, f_new, smooth_grad) or None;
    smooth_grad is None when the accepted trial computed no gradient."""
    slope = float(np.dot(g, d))
    if slope >= 0:
        d = -g
        slope = -float(np.dot(g, g))
        if slope == 0.0:
            return None
    step = 1.0
    for k in range(MAX_BACKTRACKS):
        x_new = x + step * d
        decrease = ARMIJO_C * step * slope
        if project(x_new):
            # the predicted decrease follows the actual displacement; a trial
            # that does not move downhill (x itself among them) is rejected
            decrease = ARMIJO_C * float(np.dot(g, x_new - x))
        if decrease < 0:
            f_new, g_new = trial(x_new, k == 0)
            if f_new <= f + decrease:
                return x_new, f_new, g_new
        trace.backtracks += 1
        step *= BACKTRACK
    return None


def _lbfgs(objective, x0, cfg, value_fn, groups):
    cfg = cfg or OptimizerConfig()
    layout = GroupLayout(groups)

    def trial(v, first):
        """Penalized value at a trial point (+inf outside the domain) and the
        smooth gradient there when it was computed."""
        try:
            if first or value_fn is None:
                f_smooth, g_smooth = objective(v)
            else:
                f_smooth, g_smooth = value_fn(v), None
            f_new = f_smooth + layout.penalty(v)
        except _BARRIER_ERRORS:
            return np.inf, None
        return (f_new if np.isfinite(f_new) else np.inf), g_smooth

    x = np.asarray(x0, dtype=float).copy()
    n = layout.norms(x)
    f_smooth, g_smooth = objective(x)
    f = f_smooth + float(layout.weights @ n)
    if not np.isfinite(f):
        raise NumericError("objective not finite at the starting point")
    g, ref = layout.pseudo_gradient(x, g_smooth, n)

    memory = _LbfgsMemory(MEMORY, x.size)
    trace = OptimizationTrace(value_history=[f])
    flat_count = 0
    for it in range(cfg.max_iters + 1):
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        trace.iterations, trace.final_value, trace.final_grad_norm = it, f, gnorm
        if (
            gnorm <= cfg.grad_tol * max(1.0, abs(f))
            or flat_count >= VALUE_TOL_ITERS
        ):
            trace.converged = True
            return x, trace
        if it == cfg.max_iters:
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
        x_new, f_new, g_smooth = result
        n_new = layout.norms(x_new)
        if g_smooth is None:
            f_smooth, g_smooth = objective(x_new)
            f_new = f_smooth + float(layout.weights @ n_new)
        g_new, ref = layout.pseudo_gradient(x_new, g_smooth, n_new)
        memory.push(x_new - x, g_new - g)
        trace.active_set_changes += bool(np.any((n_new == 0) != (n == 0)))
        if abs(f - f_new) <= cfg.value_tol * max(1.0, abs(f)):
            flat_count += 1
        else:
            flat_count = 0
        x, f, g, n = x_new, f_new, g_new, n_new
        trace.value_history.append(f)


def minimize(
    objective: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    cfg: Optional[OptimizerConfig] = None,
    value_fn: Optional[Callable[[np.ndarray], float]] = None,
) -> Tuple[np.ndarray, OptimizationTrace]:
    """Minimize a smooth objective given its value-and-gradient callable.

    Stops when the gradient sup-norm drops below ``grad_tol * max(1, |f|)``
    or the relative value change stays below ``value_tol`` for
    ``VALUE_TOL_ITERS`` consecutive iterations.

    ``value_fn``, when given, is a cheaper value-only callable used for the
    line-search trials after the first.

    Raises
    ------
    NumericError
        If the objective is not finite at ``x0``.
    StagnationError
        If no backtracking step achieves sufficient decrease; the error
        carries the last iterate and trace.
    """
    return _lbfgs(objective, x0, cfg, value_fn, ())


def minimize_with_group_truncation(
    smooth_objective: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    groups: Sequence[GroupBlock],
    cfg: Optional[OptimizerConfig] = None,
    value_fn: Optional[Callable[[np.ndarray], float]] = None,
) -> Tuple[np.ndarray, OptimizationTrace]:
    """Minimize smooth(x) + sum_g weight_g * ||x_g||_2 by L-BFGS whose
    line-search trials are projected onto the group orthant (module docstring).

    ``smooth_objective`` returns the value and gradient of the smooth part
    only, and ``value_fn`` (optional) its value; the penalty and its
    (sub)gradient are handled here. ``groups`` is a sequence of (index
    matrix, weights) blocks; groups with weight 0 are ignored. Stopping
    rules and errors are those of :func:`minimize`.
    """
    return _lbfgs(smooth_objective, x0, cfg, value_fn, groups)


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
