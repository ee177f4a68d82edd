"""The fit core on a lag stack: the CSA fit (MVARICA is its zero-lag block)
and the SCSA fit that continues its solve. :mod:`scsa.estimators` runs them
for BIC, cross-validation and ``fit``; :mod:`scsa.em_dal` runs SCSA-EM's
half-steps as block solves of :func:`_fit_scsa`."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .cost import (
    GroupPenaltySpec,
    _lapack,
    grad_csa,
    grad_scsa,
    pack_filter_bank,
    pack_source_model,
    penalty_groups,
    scsa_chain_rule,
    unpack_filter_bank,
    unpack_source_model,
)
from .exceptions import DegenerateModelError
from .model import (
    FilterBank,
    MvarCoefficients,
    SourceModel,
    filter_bank_to_source_model,
    unchecked,
)
from .optim import (
    GRAD_TOL,
    LbfgsMemory,
    OptimizationTrace,
    keep_last_on_stagnation,
    minimize,
    minimize_with_group_truncation,
)

# A lag stack is rank-deficient when a Cholesky pivot keeps at most this
# share of its variance, u_ii^2 <= PIVOT_FLOOR * C_ii. A duplicated channel
# leaves 3.3e-16 to rounding (the order-0 stack of a two-channel, T = 300
# simulation with channel 1 set to channel 0); ordinary data keep at least
# 0.054 (the benchmark datasets at orders 0-7, and criterion-7 data N0-N6,
# reps 0-2, at orders 0, 4 and 7).
PIVOT_FLOOR = 1e-10


def _fit_csa(
    stack: np.ndarray, p: int, lags: bool = True
) -> Tuple[SourceModel, OptimizationTrace]:
    """Maximum-likelihood FIR fit on a lag stack X (the likelihood summed
    over its columns, one lag window each), solved to
    :data:`scsa.optim.GRAD_TOL` and returned in (B, H) coordinates. With
    ``lags`` False the lag filters of the whitened fit are held at zero:
    MVARICA.

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

    The CSA fit (``lags`` True) keeps its L-BFGS pairs, in Z's coordinates,
    as the trace's ``memory``; :func:`_scsa_start` maps them for the SCSA
    fits that continue the solve. An MVARICA trace's ``memory`` is None.
    """
    d, n = stack.shape[0] // (p + 1), stack.shape[1]
    k = p + 1 if lags else 1  # the filters W_z^(0..k-1) that are fitted
    u, r = _lag_cholesky(stack)
    r = r[: k * d]
    z = r @ stack
    shift = n * float(np.log(u.diagonal()[:d]).sum())  # -N log|det R_00|

    def objective(theta):
        rep = grad_csa(unpack_filter_bank(theta, d, k - 1), z)
        return rep.value + shift, rep.gradient

    init = FilterBank([np.eye(d)] + [np.zeros((d, d))] * (k - 1))
    memory = LbfgsMemory(k * d * d)
    theta, trace = keep_last_on_stagnation(
        lambda: minimize(objective, pack_filter_bank(init), GRAD_TOL, memory),
        f"{'CSA' if lags else 'MVARICA'} fit (P={p})",
    )
    w = np.hstack(unpack_filter_bank(theta, d, k - 1).w) @ r
    model = filter_bank_to_source_model(FilterBank(np.hsplit(w, p + 1)))
    if lags:
        trace.memory = memory
    return model, trace


def _lag_cholesky(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The upper-triangular Cholesky factor U of the lag stack's covariance,
    C = X X^T / N = U U^T, and its inverse R = U^-1; raises
    :class:`DegenerateModelError` when C is numerically singular
    (:data:`PIVOT_FLOOR`)."""
    cov = stack @ stack.T / stack.shape[1]
    try:  # the lower factor of C with rows and columns reversed is U
        u = np.linalg.cholesky(cov[::-1, ::-1])[::-1, ::-1]
    except np.linalg.LinAlgError:
        u = None
    if u is None or np.any(u.diagonal() ** 2 <= PIVOT_FLOOR * cov.diagonal()):
        raise DegenerateModelError(
            "lag-stack covariance is numerically singular (rank-deficient data)"
        )
    return u, _lapack().dtrtri(u)[0]


def _scsa_start(
    stack: np.ndarray,
    p: int,
    csa: Optional[Tuple[SourceModel, OptimizationTrace]] = None,
) -> Tuple[SourceModel, LbfgsMemory]:
    """Where the SCSA fits of order ``p`` on ``stack`` start: the CSA fit
    ``csa``, a ``(model, trace)`` of :func:`_fit_csa` on the stack (fitted
    here when None), and its solve's pairs mapped into the coordinates of
    an SCSA fit from that model (:func:`_fit_scsa`): (B~, H) at B~ = I and
    H = model.h, with B0 = model.b. A fit from there continues the CSA
    solve's quasi-Newton path.

    The CSA solve runs on W_z, with W = W_z R and R = U^-1 for the
    stack's Cholesky factor U (:func:`_lag_cholesky`). The SCSA fit
    has W^(0) = B~ B0 and W^(p) = -H^(p) B~ B0, so at its start the map L
    from (dB~, dH) to dW is dW^(0) = dB~ B0 and dW^(p) = -(dH^(p) +
    H^(p) dB~) B0. A step s_z becomes L^-1(s_z R): dB~ = dW^(0) B0^-1 and
    dH^(p) = -dW^(p) B0^-1 - H^(p) dB~. A gradient change y_z becomes
    L^T(y_z R^-T), the chain rule of :func:`scsa.cost.scsa_chain_rule` at
    B0 with the B block's relative gradient: (G_0 - sum_p H^(p)T G_p) B0^T
    for B~ and -G_p B0^T for H^(p). Neither map changes s^T y, and the
    pairs are pushed again, oldest first, through the same curvature test.
    """
    model, trace = csa or _fit_csa(stack, p)
    memory = trace.memory
    b0, k = model.b, memory.k
    d = b0.shape[0]
    u, r = _lag_cholesky(stack)
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
    return model, out


def _fit_scsa(
    stack: np.ndarray,
    p: int,
    pens: Sequence[GroupPenaltySpec],
    start: Tuple[SourceModel, Optional[LbfgsMemory]],
    grad_tol: float = GRAD_TOL,
    block: slice = slice(None),
) -> Iterator[Tuple[SourceModel, OptimizationTrace]]:
    """Group-lasso regularized fits on a lag stack, one per penalty of
    ``pens``, walked in their order as one solve path from ``start``, a
    ``(model, memory)``: the first starts from ``model``, and each later one
    from the model the one before it ended on. Yields ``(model, trace)`` per
    penalty, each solved when it is asked for. The models are iterates,
    built without validation (:func:`scsa.model.unchecked`).

    ``block`` is the part of the flat vector ``[vec(B); vec(H)]`` minimized
    over, with the rest held at the start model: all of it (the joint fit),
    the B block ``slice(0, D*D)`` or the H block ``slice(D*D, None)``. The
    penalty does not depend on B, so a B-block solve leaves it out.
    ``memory`` is the L-BFGS memory the walk starts from and leaves its pairs
    in (:func:`scsa.optim.minimize_with_group_truncation`), or None for an
    empty one. From :func:`_scsa_start`'s start the walk continues the CSA
    solve's pairs, so CSA and SCSA are one quasi-Newton path.

    The walk runs in one frame, the source coordinates of its start. With
    B0 = model.b, it fits (B~, H) on Z = (I_{P+1} kron B0) X, the lag stack
    of the start's sources, from B~ = I, and returns B = B~ B0. The
    innovations are the same, B~ z(t) - sum_p H^(p) B~ z(t-p) = B x(t) -
    sum_p H^(p) B x(t-p), so H, its gradient and the penalty are unchanged,
    and the cost is X's less N log|det B0|. The objective adds that back:
    its values and the stop threshold are X's, and the B gradient the stop
    test reads is the relative gradient grad_B B0^T (Cardoso & Laheld, IEEE
    TSP 1996). It keeps its last evaluation, so a solve that starts where
    the one before it ended starts without one. An H block solve returns
    the start's B itself.
    """
    init, memory = start
    d, n = stack.shape[0] // (p + 1), stack.shape[1]
    b0 = init.b
    z = (b0 @ stack.reshape(p + 1, d, n)).reshape(stack.shape)
    shift = -n * float(np.linalg.slogdet(b0)[1])  # -N log|det B0|
    theta = pack_source_model(init)
    theta[: d * d] = np.eye(d).ravel()
    lo, hi, _ = block.indices(theta.size)
    whole = hi - lo == theta.size
    pen0 = GroupPenaltySpec(0.0)
    last = None  # the last point evaluated, and its value and gradient

    def smooth(v):
        nonlocal last
        if last is not None and (v == last[0]).all():
            return last[1]
        point = v.copy()
        if not whole:  # the held block stays at the start
            theta[block] = v
            v = theta
        rep = grad_scsa(unpack_source_model(v, d, p), z, pen0)
        last = point, (rep.value + shift, rep.gradient[block])
        return last[1]

    h_index = np.arange(d * d, theta.size).reshape(p, d, d) - lo  # in the block
    index = penalty_groups(h_index) if hi > d * d else None
    for pen in pens:
        groups = () if index is None else (index, pen.lam)
        what = f"SCSA fit (P={p}, lambda={pen.lam:g})" if whole else (
            "M-step" if lo else "E-step")
        v, trace = keep_last_on_stagnation(
            lambda: minimize_with_group_truncation(
                smooth, theta[block], groups, grad_tol, memory
            ),
            what,
        )
        theta[block] = v
        model = unpack_source_model(theta.copy(), d, p)
        b = model.b @ b0 if lo < d * d else b0
        yield unchecked(SourceModel, b=b, h=model.h), trace


def _checked(model: SourceModel) -> SourceModel:
    """A fit's model, validated as the package returns it."""
    return SourceModel(model.b, MvarCoefficients(model.h.lags))
