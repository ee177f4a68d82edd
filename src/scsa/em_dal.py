"""Alternating estimation of the demixing matrix and the MVAR coefficients.

SCSA-EM is block-coordinate descent on the SCSA cost: each half-step is a
block solve of the one SCSA fit (:func:`scsa.fitting._fit_scsa`), over
one block of the flat vector ``[vec(B); vec(H)]`` with the other held. The
demixing update ("E-step") is the B block at fixed lag coefficients; the
penalty does not depend on B, so it is a smooth quasi-Newton solve. Like
every SCSA fit, it runs in the source coordinates of its start B0: it
solves for B~ in B = B~ B0 from B~ = I, so it is a relative-gradient solve,
its gradient grad_B B0^T (Cardoso & Laheld 1996), and its update is
multiplicative. The coefficient update ("M-step") is the H block at the
current B on the same lag stack: with s = B x, the SCSA cost is the sech
prediction loss of s plus lam times the off-diagonal lag-group norms, less
(T-P) log|det B|, a convex problem in H.

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

from .cost import Data, GroupPenaltySpec, _as_stack, cost_scsa, log_sech_density
from .fitting import _checked, _fit_scsa, _scsa_start
from .model import MvarCoefficients, SourceModel, unchecked
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
    # imported here: ``import scsa`` should not pay for scipy.special
    from scipy.special import xlogy

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
    s: Data,
    P: int,
    pen: GroupPenaltySpec,
    init: Optional[SourceModel] = None,
) -> MvarCoefficients:
    """Minimize the sech prediction loss plus group penalty over the lag
    coefficients: the H block of the SCSA fit on ``s``, B held at ``init.b``
    and H started at ``init.h``, or at B = I from H = 0 without ``init``.
    ``s`` is a :class:`TimeSeriesMatrix` or, beside ``init``, its lag stack
    at order ``P`` (:func:`scsa.cost._as_stack`).

    Each off-diagonal (d, f) lag group carries weight ``pen.lam``; the
    diagonal autocorrelation coefficients are unpenalized. Raises
    :class:`InsufficientDataError` when ``T <= P``, and ValueError for a
    stack without ``init`` or with rows that do not fit it.
    """
    stack = _as_stack(s, P, None if init is None else init.dim)
    if P == 0:
        return MvarCoefficients([])
    if init is None:
        d = s.n_channels  # without init, _as_stack takes only a TimeSeriesMatrix
        init = SourceModel(np.eye(d), MvarCoefficients(list(np.zeros((P, d, d)))))
    (model, _), = _fit_scsa(
        stack, P, [pen], (init, None), M_STEP_GRAD_TOL, slice(init.b.size, None)
    )
    return MvarCoefficients(model.h.lags)


def e_step(
    x: Data,
    h: MvarCoefficients,
    b0: np.ndarray,
    grad_tol: float = GRAD_TOL,
) -> np.ndarray:
    """Update the demixing matrix at fixed lag coefficients: the B block of
    the unpenalized SCSA fit (the penalty is constant in B), solved to the
    gradient tolerance ``grad_tol`` as the relative-gradient solve for B~ in
    B = B~ b0. ``x`` is a :class:`TimeSeriesMatrix` or its lag stack at the
    order of ``h``, with as many channels as ``b0`` has rows
    (:func:`scsa.cost._as_stack`)."""
    stack = _as_stack(x, h.order, b0.shape[0])
    init = unchecked(SourceModel, b=b0, h=h)
    (model, _), = _fit_scsa(
        stack, h.order, [GroupPenaltySpec(0.0)], (init, None), grad_tol,
        slice(0, b0.size),
    )
    return model.b


def fit_scsa_em(
    x: Data,
    P: int,
    pen: GroupPenaltySpec,
    em_steps: int = 20,
    init: Optional[SourceModel] = None,
) -> Tuple[SourceModel, List[float]]:
    """Alternate demixing and coefficient updates, block solves on one lag
    stack started at the current model, from a warm start: ``init``, or else
    :func:`scsa.estimators.fit_scsa`'s solution, the SCSA fit from the CSA
    start (:func:`scsa.fitting._scsa_start`). ``x`` is a
    :class:`TimeSeriesMatrix` or, beside ``init``, its lag stack at order
    ``P`` (:func:`scsa.cost._as_stack`). Returns the refined model and the
    composite cost after the warm start and after every half-step, which
    never rises.
    """
    stack = _as_stack(x, P, None if init is None else init.dim)
    if init is None:
        (init, _), = _fit_scsa(stack, P, [pen], _scsa_start(stack, P))
        init = _checked(init)
    model = init
    history = [cost_scsa(model, stack, pen)]
    half_steps = (
        lambda m: SourceModel(b=e_step(stack, m.h, m.b), h=m.h),
        lambda m: SourceModel(b=m.b, h=m_step_dal(stack, P, pen, m)),
    )
    for _ in range(em_steps):
        for half_step in half_steps:
            model = half_step(model)
            history.append(cost_scsa(model, stack, pen))
        if em_converged(history):
            break
    return model, history


def em_converged(history: Sequence[float]) -> bool:
    """Whether the last EM step of a :func:`fit_scsa_em` cost history changed
    the cost by at most ``EM_COST_CHANGE_TOL`` relative: the loop's stop rule."""
    return len(history) >= 3 and bool(
        abs(history[-1] - history[-3]) <= EM_COST_CHANGE_TOL * max(1.0, abs(history[-3]))
    )
