"""Alternating estimation of the demixing matrix and the MVAR coefficients.

The demixing update ("E-step") is a smooth quasi-Newton minimization at fixed
lag coefficients. The coefficient update ("M-step") minimizes the sech
prediction loss plus the group penalty at fixed demixed sources. That problem
is convex; one accelerated proximal-gradient solver (FISTA with restart, Beck &
Teboulle 2009) solves all D rows at once on the (D, P*D) coefficient array,
including the optional joint diagonal group, which couples the rows.

The module and :func:`m_step_dal` are named after the dual augmented
Lagrangian formulation of the M-step (Tomioka & Sugiyama 2009), whose dual
loss is the convex conjugate of the sech loss: :func:`m_loss_conjugate` with
its gradient and diagonal Hessian. They are exported for dual methods and
duality-gap checks; the solver itself works in the primal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import xlogy

from .cost import (
    Data,
    GroupPenaltySpec,
    cost_scsa,
    grad_scsa,
    group_penalty,
    log_sech_density,
)
from .model import MvarCoefficients, SourceModel, TimeSeriesMatrix, lag_stack, unchecked
from .optim import OptimizerConfig, keep_last_on_stagnation, minimize

LOG_2_OVER_PI = float(np.log(2.0 / np.pi))

@dataclass
class DualVariables:
    """Dual matrix of the conjugate sech loss, entries strictly inside (-1, 1)."""

    a: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        if np.any(np.abs(self.a) >= 1.0):
            raise ValueError("dual variables must lie strictly inside (-1, 1)")


def _as_array(a):
    return a.a if isinstance(a, DualVariables) else np.asarray(a, dtype=float)


def m_loss(s_tilde, s) -> float:
    """Sech loss of predictions against demixed sources (data term of the
    regularized cost, as a function of the predictions)."""
    s_tilde = np.asarray(s_tilde, dtype=float)
    s = np.asarray(s, dtype=float)
    if s_tilde.shape != s.shape:
        raise ValueError(f"shape mismatch: {s_tilde.shape} vs {s.shape}")
    return -float(np.sum(log_sech_density(s_tilde - s)))


def m_loss_conjugate(a, s) -> float:
    """Convex conjugate of the sech loss, entrywise on the dual matrix.

    Per entry: (1-a)/2 log((1-a)/2) + (1+a)/2 log((1+a)/2) - a s + log(2/pi),
    with the x log x -> 0 limit at the interval ends.
    """
    a = _as_array(a)
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(a) > 1.0):
        raise ValueError("dual variables must lie in [-1, 1]")
    lo = (1.0 - a) / 2.0
    hi = (1.0 + a) / 2.0
    return float(np.sum(xlogy(lo, lo) + xlogy(hi, hi) - a * s + LOG_2_OVER_PI))


def m_loss_conjugate_grad_hess(a, s):
    """Gradient and diagonal Hessian of :func:`m_loss_conjugate`.

    Gradient entry: atanh(a) - s = (1/2) log((1+a)/(1-a)) - s.
    Hessian diagonal entry: 1/(1 - a^2), the derivative of the gradient.
    """
    a = _as_array(a)
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(a) >= 1.0):
        raise ValueError("dual variables must lie strictly inside (-1, 1)")
    grad = np.arctanh(a) - s
    hess = 1.0 / (1.0 - a * a)
    return grad, hess


# ---------------------------------------------------------------------------
# M-step


def _prox_m(h_flat, step, pen: GroupPenaltySpec, d, p):
    """Prox of step * penalty on the stacked (D, P*D) coefficient array."""
    hg = h_flat.reshape(d, p, d).copy()
    norms = np.linalg.norm(hg, axis=1)
    thr = step * pen.lam
    scale = np.maximum(0.0, 1.0 - thr / np.where(norms > 0, norms, 1.0))
    scale[norms == 0] = 0.0
    np.fill_diagonal(scale, 1.0)
    hg *= scale[:, None, :]
    if pen.penalize_diagonal and pen.lambda_diag > 0:
        idx = np.arange(d)
        dn = float(np.linalg.norm(hg[idx, :, idx]))  # the (D, P) diagonal group
        factor = max(0.0, 1.0 - step * pen.lambda_diag / dn) if dn > 0 else 0.0
        hg[idx, :, idx] *= factor
    return hg.reshape(d, p * d)


def _fista_m_step(x_design, targets, h0_flat, pen, d, p, max_iters=2000, tol=1e-10):
    """Proximal-gradient (FISTA with restart) solve of the M-step problem."""
    lip = np.linalg.norm(x_design, 2) ** 2 + 1e-12
    step = 1.0 / lip

    def prox_grad_step(z):
        grad = np.tanh(z @ x_design - targets) @ x_design.T
        h_new = _prox_m(z - step * grad, step, pen, d, p)
        hg = h_new.reshape(d, p, d)  # (row, lag, column)
        penalty = group_penalty(hg.transpose(1, 0, 2), np.linalg.norm(hg, axis=1), pen)
        return h_new, m_loss(h_new @ x_design, targets) + penalty

    h = h0_flat.copy()
    z = h.copy()
    t_momentum = 1.0
    f_prev = np.inf
    for _ in range(max_iters):
        h_new, f_new = prox_grad_step(z)
        if f_new > f_prev:  # restart momentum
            z = h.copy()
            t_momentum = 1.0
            h_new, f_new = prox_grad_step(z)
        t_next = 0.5 * (1 + np.sqrt(1 + 4 * t_momentum**2))
        z = h_new + ((t_momentum - 1) / t_next) * (h_new - h)
        move = np.max(np.abs(h_new - h))
        h, t_momentum, f_prev = h_new, t_next, f_new
        if move <= tol:
            break
    return h


def m_step_dal(
    s: TimeSeriesMatrix,
    P: int,
    pen: GroupPenaltySpec,
    h0: Optional[MvarCoefficients] = None,
) -> MvarCoefficients:
    """Minimize the sech prediction loss plus group penalty over the lag
    coefficients, at fixed demixed sources.

    Off-diagonal (d, f) groups carry weight ``pen.lam``; diagonal
    autocorrelation coefficients are unpenalized unless
    ``pen.penalize_diagonal`` is set, in which case they form one joint group
    weighted by ``pen.lambda_diag``. All rows are solved together by
    proximal gradient, warm-started from ``h0`` when it has order ``P``.
    Raises :class:`InsufficientDataError` when ``T <= P``.
    """
    if P == 0:
        return MvarCoefficients([])
    d = s.n_channels
    stack = lag_stack(s, P)  # targets s(t), then the design s(t-1..t-P)
    if h0 is not None and h0.order == P:
        # row i holds H[lag][i, f] at column lag*D + f
        h_flat = h0.as_array(d).transpose(1, 0, 2).reshape(d, P * d)
    else:
        h_flat = np.zeros((d, P * d))
    h_flat = _fista_m_step(stack[d:], stack[:d], h_flat, pen, d, P)
    return MvarCoefficients(
        list(np.ascontiguousarray(h_flat.reshape(d, P, d).transpose(1, 0, 2)))
    )


def e_step(
    x: Data,
    h: MvarCoefficients,
    b0: np.ndarray,
    cfg: Optional[OptimizerConfig] = None,
) -> np.ndarray:
    """Update the demixing matrix at fixed lag coefficients by quasi-Newton
    minimization of the unpenalized cost (the penalty is constant in B).
    ``x`` is the data or its lag stack at the order of ``h``."""
    cfg = cfg or OptimizerConfig()
    d = b0.shape[0]
    pen0 = GroupPenaltySpec(0.0)
    stack = x if isinstance(x, np.ndarray) else lag_stack(x, h.order)

    def objective(theta):
        rep = grad_scsa(unchecked(SourceModel, b=theta.reshape(d, d), h=h), stack, pen0)
        return rep.value, rep.gradient[: d * d]  # the B block

    def value_fn(theta):
        return cost_scsa(unchecked(SourceModel, b=theta.reshape(d, d), h=h), stack, pen0)

    theta, _ = keep_last_on_stagnation(
        lambda: minimize(objective, b0.ravel(), cfg, value_fn=value_fn), "E-step"
    )
    return theta.reshape(d, d)


def fit_scsa_em(
    x: TimeSeriesMatrix,
    P: int,
    pen: GroupPenaltySpec,
    em_steps: int = 20,
    opt_cfg: Optional[OptimizerConfig] = None,
    init: Optional[SourceModel] = None,
    cost_change_tol: float = 1e-8,
) -> Tuple[SourceModel, List[float]]:
    """Alternate demixing and coefficient updates from a warm start.

    When ``init`` is omitted the warm start is the jointly optimized sparse
    solution. Returns the refined model together with the composite cost
    after the warm start and after every half-step.
    """
    if init is None:
        from .estimators import fit_scsa  # deferred: estimators imports us

        init = fit_scsa(x, P, pen, cfg=opt_cfg)
    model = init
    stack = lag_stack(x, P)
    history = [cost_scsa(model, stack, pen)]
    for _ in range(em_steps):
        b = e_step(stack, model.h, model.b, opt_cfg)
        cand = SourceModel(b=b, h=model.h)
        c = cost_scsa(cand, stack, pen)
        if c <= history[-1]:
            model = cand
            history.append(c)
        else:
            history.append(history[-1])
        s = TimeSeriesMatrix(model.b @ x.data)
        h = m_step_dal(s, P, pen, model.h)
        cand = SourceModel(b=model.b, h=h)
        c = cost_scsa(cand, stack, pen)
        if c <= history[-1]:
            model = cand
            history.append(c)
        else:
            history.append(history[-1])
        if em_converged(history, cost_change_tol):
            break
    return model, history


def em_converged(history: Sequence[float], cost_change_tol: float = 1e-8) -> bool:
    """Whether the last EM step of a :func:`fit_scsa_em` cost history changed
    the cost by at most ``cost_change_tol`` relative: the loop's stop rule."""
    return len(history) >= 3 and bool(
        abs(history[-1] - history[-3]) <= cost_change_tol * max(1.0, abs(history[-3]))
    )
