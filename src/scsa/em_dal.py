"""Alternating estimation of the demixing matrix and the MVAR coefficients.

SCSA-EM is block-coordinate descent on the SCSA cost: each half-step is a
block solve of the one SCSA fit (:func:`scsa.estimators._fit_scsa`), over
one block of the flat vector ``[vec(B); vec(H)]`` with the other held. The
demixing update ("E-step") is the B block at fixed lag coefficients; the
penalty does not depend on B, so it is a smooth quasi-Newton solve. The
coefficient update ("M-step") is the H block at B = I on the lag stack of the
demixed sources s = B x: there log|det I| = 0 and W = [I, -H], so the SCSA
cost is the sech prediction loss plus lam times the off-diagonal lag-group
norms, a convex problem.

The M-step asks for a gradient (:data:`M_STEP_GRAD_TOL`) finer than the
rounding of its value can resolve, so it ends where no step lowers the value,
as a stagnation that the block fit keeps and logs.

The module and :func:`m_step_dal` are named after the dual augmented
Lagrangian formulation of the M-step (Tomioka & Sugiyama 2009), whose dual
loss is the convex conjugate of the sech loss: :func:`m_loss_conjugate` with
its gradient and diagonal Hessian. They are exported for dual methods and
duality-gap checks; the solver itself works in the primal.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import xlogy

from .cost import Data, GroupPenaltySpec, cost_scsa, log_sech_density
from .model import MvarCoefficients, SourceModel, TimeSeriesMatrix, lag_stack, unchecked
from .optim import GRAD_TOL

LOG_2_OVER_PI = float(np.log(2.0 / np.pi))

# The M-step tolerance: it ends at the rounding floor (module docstring).
M_STEP_GRAD_TOL = 1e-12

# Relative change of the composite cost over one EM step that ends the loop.
EM_COST_CHANGE_TOL = 1e-8


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
    a = np.asarray(a, dtype=float)
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
    a = np.asarray(a, dtype=float)
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
    coefficients, at fixed demixed sources: the H block of the SCSA fit at
    B = I on the lag stack of ``s``.

    Each off-diagonal (d, f) lag group carries weight ``pen.lam``; the
    diagonal autocorrelation coefficients are unpenalized. All rows are
    solved together, warm-started from ``h0`` when it has order ``P``. Raises
    :class:`InsufficientDataError` when ``T <= P``.
    """
    if P == 0:
        return MvarCoefficients([])
    from .estimators import _fit_scsa  # deferred: estimators imports us

    d = s.n_channels
    if h0 is None or h0.order != P:
        h0 = MvarCoefficients(list(np.zeros((P, d, d))))
    init = unchecked(SourceModel, b=np.eye(d), h=h0)
    model, _ = _fit_scsa(
        lag_stack(s, P), P, pen, M_STEP_GRAD_TOL, init, block=slice(d * d, None)
    )
    return model.h


def e_step(
    x: Data,
    h: MvarCoefficients,
    b0: np.ndarray,
    grad_tol: float = GRAD_TOL,
) -> np.ndarray:
    """Update the demixing matrix at fixed lag coefficients: the B block of
    the unpenalized SCSA fit (the penalty is constant in B), solved to the
    gradient tolerance ``grad_tol``. ``x`` is the data or its lag stack at
    the order of ``h``."""
    from .estimators import _fit_scsa  # deferred: estimators imports us

    stack = x if isinstance(x, np.ndarray) else lag_stack(x, h.order)
    init = unchecked(SourceModel, b=b0, h=h)
    model, _ = _fit_scsa(
        stack, h.order, GroupPenaltySpec(0.0), grad_tol, init,
        block=slice(0, b0.size),
    )
    return model.b


def fit_scsa_em(
    x: TimeSeriesMatrix,
    P: int,
    pen: GroupPenaltySpec,
    em_steps: int = 20,
    init: Optional[SourceModel] = None,
) -> Tuple[SourceModel, List[float]]:
    """Alternate demixing and coefficient updates from a warm start.

    When ``init`` is omitted the warm start is the jointly optimized sparse
    solution. A half-step's result is kept only when it does not raise the
    composite cost. Returns the refined model together with the composite
    cost after the warm start and after every half-step.
    """
    if init is None:
        from .estimators import fit_scsa  # deferred: estimators imports us

        init = fit_scsa(x, P, pen)
    model = init
    stack = lag_stack(x, P)
    history = [cost_scsa(model, stack, pen)]
    half_steps = (
        lambda m: SourceModel(b=e_step(stack, m.h, m.b), h=m.h),
        lambda m: SourceModel(
            b=m.b, h=m_step_dal(TimeSeriesMatrix(m.b @ x.data), P, pen, m.h)
        ),
    )
    for _ in range(em_steps):
        for half_step in half_steps:
            cand = half_step(model)
            c = cost_scsa(cand, stack, pen)
            if c <= history[-1]:
                model = cand
            else:
                c = history[-1]
            history.append(c)
        if em_converged(history):
            break
    return model, history


def em_converged(history: Sequence[float]) -> bool:
    """Whether the last EM step of a :func:`fit_scsa_em` cost history changed
    the cost by at most ``EM_COST_CHANGE_TOL`` relative: the loop's stop rule."""
    return len(history) >= 3 and bool(
        abs(history[-1] - history[-3]) <= EM_COST_CHANGE_TOL * max(1.0, abs(history[-3]))
    )
