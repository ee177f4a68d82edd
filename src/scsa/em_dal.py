"""Alternating estimation of the demixing matrix and the MVAR coefficients.

The demixing update ("E-step") is a smooth quasi-Newton minimization at fixed
lag coefficients. The coefficient update ("M-step") minimizes the sech
prediction loss plus the group penalty at fixed demixed sources s = B x, a
convex problem. It runs on the group-lasso L-BFGS core of the joint fits,
over H in its (P, D, D) layout with the groups of
:func:`scsa.cost.penalty_groups`. Its smooth part is the FIR likelihood at
W = [I, -H^(1), ..., -H^(P)] on the lag stack of s, which is the sech
prediction loss because log|det I| = 0.

The M-step ends at the rounding floor: :data:`M_STEP_CONFIG` asks for a
gradient no solve reaches, so the solve stops after five iterations whose
value does not change. That relies on the line search accepting a trial of
equal value once the Armijo decrease is below the rounding of the value.
Should it stop accepting such trials, the solve raises
:class:`scsa.exceptions.StagnationError` at the same iterate instead, and
:func:`scsa.optim.keep_last_on_stagnation` keeps that iterate.

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
    grad_csa,
    grad_scsa,
    log_sech_density,
    nll_csa,
    penalty_groups,
)
from .model import (
    FilterBank,
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    lag_stack,
    unchecked,
)
from .optim import (
    OptimizerConfig,
    keep_last_on_stagnation,
    minimize,
    minimize_with_group_truncation,
)

LOG_2_OVER_PI = float(np.log(2.0 / np.pi))

# The M-step stop rule: it ends at the rounding floor (module docstring).
M_STEP_CONFIG = OptimizerConfig(grad_tol=1e-12, max_iters=2000, value_tol=1e-16)

# Relative change of the composite cost over one EM step that ends the loop.
EM_COST_CHANGE_TOL = 1e-8


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
    weighted by ``pen.lambda_diag``. All rows are solved together by the
    group-lasso L-BFGS of :mod:`scsa.optim`, warm-started from ``h0`` when it
    has order ``P``. Raises :class:`InsufficientDataError` when ``T <= P``.
    """
    if P == 0:
        return MvarCoefficients([])
    d = s.n_channels
    stack = lag_stack(s, P)
    eye = np.eye(d)

    def filters(h):
        # the prediction loss is the FIR likelihood at W = [I, -H^(1..P)]
        return unchecked(FilterBank, w=[eye, *(-h.reshape(P, d, d))])

    def smooth(h):
        rep = grad_csa(filters(h), stack)
        return rep.value, -rep.gradient[d * d :]

    def smooth_value(h):
        return nll_csa(filters(h), stack)

    if h0 is not None and h0.order == P:
        start = h0.as_array(d).ravel()
    else:
        start = np.zeros(P * d * d)
    groups = penalty_groups(pen, np.arange(P * d * d).reshape(P, d, d))
    h, _ = keep_last_on_stagnation(
        lambda: minimize_with_group_truncation(
            smooth, start, groups, M_STEP_CONFIG, value_fn=smooth_value
        ),
        "M-step",
    )
    return MvarCoefficients(list(h.reshape(P, d, d)))


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
        if em_converged(history):
            break
    return model, history


def em_converged(history: Sequence[float]) -> bool:
    """Whether the last EM step of a :func:`fit_scsa_em` cost history changed
    the cost by at most ``EM_COST_CHANGE_TOL`` relative: the loop's stop rule."""
    return len(history) >= 3 and bool(
        abs(history[-1] - history[-3]) <= EM_COST_CHANGE_TOL * max(1.0, abs(history[-3]))
    )
