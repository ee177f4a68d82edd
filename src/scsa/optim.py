"""Limited-memory BFGS on flat vectors: one core serves :func:`minimize`
(smooth objectives) and :func:`minimize_with_group_truncation` (smooth part
plus sum_g w_g ||x_g||_2, with the groups given as (G, k) index matrices and
weight vectors, one block per group size).

Penalized groups are handled as in OWL-QN (Andrew & Gao, ICML 2007), with
groups for coordinates. Directions and L-BFGS pairs use the pseudo-gradient,
the minimum-norm subgradient: on a zero group, the smooth gradient shrunk
radially by the weight, or zero inside the weight ball. Each line-search
trial is projected before it is evaluated: a group is zeroed when its trial
block has a non-positive inner product with its reference, the current group
when nonzero and minus its pseudo-gradient when zero (so a zero group whose
subdifferential holds 0 stays at zero). The Armijo test uses the actual
displacement of the projected trial.

The line search keeps the smooth gradient of its first trial, so an accepted
first trial costs one evaluation in all; later trials call the value-only
callable when one is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import DegenerateModelError, NumericError, StagnationError

MAX_BACKTRACKS = 60

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
    memory: int = 10
    max_iters: int = 500
    grad_tol: float = 1e-6
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    value_tol: float = 1e-10
    value_tol_iters: int = 5

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
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


class _LbfgsMemory:
    def __init__(self, m):
        self.m = m
        self.s: List[np.ndarray] = []
        self.y: List[np.ndarray] = []
        self.rho: List[float] = []

    def push(self, s, y):
        sy = float(np.dot(s, y))
        if sy <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            return  # skip pairs that would break positive definiteness
        self.s.append(s)
        self.y.append(y)
        self.rho.append(1.0 / sy)
        if len(self.s) > self.m:
            self.s.pop(0)
            self.y.pop(0)
            self.rho.pop(0)

    def direction(self, g):
        """Two-loop recursion; returns a descent direction for gradient g."""
        q = -g.copy()
        if not self.s:
            return q
        alphas = []
        for s, y, rho in zip(reversed(self.s), reversed(self.y), reversed(self.rho)):
            a = rho * np.dot(s, q)
            alphas.append(a)
            q -= a * y
        gamma = np.dot(self.s[-1], self.y[-1]) / np.dot(self.y[-1], self.y[-1])
        q *= gamma
        for (s, y, rho), a in zip(
            zip(self.s, self.y, self.rho), reversed(alphas)
        ):
            b = rho * np.dot(y, q)
            q += (a - b) * s
        return q


def min_norm_subgradient(group_grads: np.ndarray, weights) -> np.ndarray:
    """Minimum-norm element of the subdifferential at zeroed groups, one
    group per row of ``group_grads`` (a vector is a single group)."""
    norms = np.linalg.norm(group_grads, axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        shrink = 1.0 - np.asarray(weights, dtype=float)[..., None] / norms
    return group_grads * np.maximum(shrink, 0.0)


def _line_search(trial, project, x, f, g, d, cfg, trace):
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
        decrease = cfg.armijo_c * step * slope
        if project(x_new):
            # the predicted decrease follows the actual displacement; a trial
            # that does not move downhill (x itself among them) is rejected
            decrease = cfg.armijo_c * float(np.dot(g, x_new - x))
        if decrease < 0:
            f_new, g_new = trial(x_new, k == 0)
            if f_new <= f + decrease:
                return x_new, f_new, g_new
        trace.backtracks += 1
        step *= cfg.backtrack
    return None


def _lbfgs(objective, x0, cfg, value_fn, groups):
    cfg = cfg or OptimizerConfig()
    blocks = []  # groups with positive weight only
    for index, weights in groups:
        weights = np.asarray(weights, dtype=float)
        keep = weights > 0
        if np.any(keep):
            blocks.append((np.asarray(index, dtype=int)[keep], weights[keep]))
    weights = np.concatenate([np.zeros(0)] + [w for _, w in blocks])
    cuts = np.cumsum([len(w) for _, w in blocks])[:-1]

    def norms(v):
        return np.concatenate(
            [np.zeros(0)] + [np.linalg.norm(v[idx], axis=1) for idx, _ in blocks]
        )

    def trial(v, first):
        """Penalized value at a trial point (+inf outside the domain) and the
        smooth gradient there when it was computed."""
        try:
            if first or value_fn is None:
                f_smooth, g_smooth = objective(v)
            else:
                f_smooth, g_smooth = value_fn(v), None
            f_new = f_smooth + weights @ norms(v)
        except _BARRIER_ERRORS:
            return np.inf, None
        return (f_new if np.isfinite(f_new) else np.inf), g_smooth

    def pseudo_gradient(v, g_smooth, n):
        """Minimum-norm subgradient at v, and the orthant reference: v on
        its nonzero groups, minus the subgradient on its zero groups."""
        g, ref = g_smooth.copy(), v.copy()
        for (idx, w), nb in zip(blocks, np.split(n, cuts)):
            z = nb == 0
            g[idx[~z]] += w[~z, None] * v[idx[~z]] / nb[~z, None]
            g[idx[z]] = min_norm_subgradient(g_smooth[idx[z]], w[z])
            ref[idx[z]] = -g[idx[z]]
        return g, ref

    def project(u, ref):
        """Zero, in place, each group of u whose inner product with the same
        group of ref is <= 0; returns whether any group was zeroed."""
        crossed = False
        for idx, _ in blocks:
            cut = np.einsum("gk,gk->g", u[idx], ref[idx]) <= 0
            u[idx[cut]] = 0.0
            crossed |= bool(np.any(cut))
        return crossed

    x = np.asarray(x0, dtype=float).copy()
    n = norms(x)
    f_smooth, g_smooth = objective(x)
    f = f_smooth + weights @ n
    if not np.isfinite(f):
        raise ValueError("objective not finite at the starting point")
    g, ref = pseudo_gradient(x, g_smooth, n)

    memory = _LbfgsMemory(cfg.memory)
    trace = OptimizationTrace(value_history=[f])
    flat_count = 0
    for it in range(cfg.max_iters + 1):
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        trace.iterations, trace.final_value, trace.final_grad_norm = it, f, gnorm
        if (
            gnorm <= cfg.grad_tol * max(1.0, abs(f))
            or flat_count >= cfg.value_tol_iters
        ):
            trace.converged = True
            return x, trace
        if it == cfg.max_iters:
            return x, trace
        result = _line_search(
            trial, lambda u: project(u, ref), x, f, g, memory.direction(g), cfg, trace
        )
        if result is None:
            raise StagnationError(
                "line search found no acceptable step", x=x, trace=trace
            )
        x_new, f_new, g_smooth = result
        n_new = norms(x_new)
        if g_smooth is None:
            f_smooth, g_smooth = objective(x_new)
            f_new = f_smooth + weights @ n_new
        g_new, ref = pseudo_gradient(x_new, g_smooth, n_new)
        memory.push(x_new - x, g_new - g)
        trace.active_set_changes += not np.array_equal(n_new == 0, n == 0)
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
    ``value_tol_iters`` consecutive iterations.

    ``value_fn``, when given, is a cheaper value-only callable used for the
    line-search trials after the first.

    Raises
    ------
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
