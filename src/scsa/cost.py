"""Negative log-likelihood of the FIR model, its group-lasso regularized
version in (B, H) coordinates, and all analytic gradients.

One kernel serves all four public functions. The data enter as a lag stack X
(:func:`scsa.model.lag_stack`, rows x(t-p) for p = 0..P, one column per
window t > P), built once per fit, or any set of its columns (a
cross-validation fold's); a ``TimeSeriesMatrix`` is also accepted and
stacked inside the call. With the filter bank written as
W = [W^(0), ..., W^(P)], a (D, (P+1)D) array, the innovations are
eps = W X and the gradient of the sech data term is G = tanh(eps) X^T:
two matrix products per call, whatever columns X holds. SCSA is CSA
with W = [B, -H^(1) B, ..., -H^(P) B], so its smooth gradient is the chain
rule on G: grad_B = G_0 - sum_p H^(p)T G_p and grad_H^(p) = -G_p B^T. The
group-lasso penalty of :func:`cost_scsa`/:func:`grad_scsa` is a thin layer
on top of that smooth part: lam times the sum of the off-diagonal lag-group
norms ||(H^(1) ... H^(P))_af||, a != f, as the groups of
:func:`penalty_groups` in the optimizer's flat
:class:`scsa.optim.GroupLayout`.

Parameter layout contract (used by every optimizer in this package): the flat
vector is ``[vec(B); vec(H^(1)); ...; vec(H^(P))]`` with row-major ``vec``.
Filter banks are flattened the same way, ``[vec(W^(0)); ...; vec(W^(P))]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .exceptions import NumericError
from .model import (
    FilterBank,
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    lag_stack,
    unchecked,
)
from .optim import GroupLayout

LOG_PI = float(np.log(np.pi))
LOG_2 = float(np.log(2.0))

# A data argument: a lag stack, or a signal block stacked inside (_as_stack).
Data = Union[np.ndarray, TimeSeriesMatrix]


def _as_stack(x: Data, p: int, d: Optional[int] = None) -> np.ndarray:
    """The order-``p`` lag stack of a data argument: a ``TimeSeriesMatrix``
    stacked here, or an ndarray, which is the stack itself. A stack's rows
    cannot tell it from raw data, so an ndarray needs ``d``, the channel
    count of the model beside it; the stack must have (p+1)·d rows."""
    if isinstance(x, TimeSeriesMatrix):
        x = lag_stack(x, p)
    elif d is None:
        raise ValueError("an ndarray is read as a lag stack and takes a model to fix D")
    if d is not None and x.shape[0] != (p + 1) * d:
        raise ValueError(f"lag stack has {x.shape[0]} rows, expected {(p + 1) * d}")
    return x


@functools.cache
def _lapack():
    """scipy's LAPACK routines (:mod:`scipy.linalg.lapack`), imported on
    first use: ``import scsa`` loads numpy only, and importing scipy.linalg
    takes longer than a simulation. :func:`scsa.estimators._pool_map`
    imports it before it forks, so its workers inherit it."""
    from scipy.linalg import lapack

    return lapack


@dataclass
class GroupPenaltySpec:
    """Group-lasso penalty weight.

    ``lam`` weights each off-diagonal interaction group, the P lag
    coefficients from source f to source a != f; the diagonal
    (autocorrelation) coefficients are unpenalized.
    """

    lam: float = 0.0

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and nonnegative")


@dataclass
class CostReport:
    """Cost value and flat gradient."""

    value: float
    gradient: np.ndarray


def log_sech_density(u):
    """log of (1/pi) sech(u), computed without overflow."""
    u = np.abs(u)
    # log cosh(u) = u + log1p(exp(-2u)) - log 2
    return -LOG_PI - (u + np.log1p(np.exp(-2.0 * u)) - np.log(2.0))


def pack_source_model(model: SourceModel) -> np.ndarray:
    parts = [model.b.ravel()]
    parts.extend(hp.ravel() for hp in model.h.lags)
    return np.concatenate(parts)


def unpack_source_model(theta: np.ndarray, d: int, p: int) -> SourceModel:
    """Unvalidated model whose matrices are views into ``theta``."""
    mats = theta.reshape(p + 1, d, d)
    return unchecked(
        SourceModel, b=mats[0], h=unchecked(MvarCoefficients, lags=list(mats[1:]))
    )


def pack_filter_bank(fb: FilterBank) -> np.ndarray:
    return np.concatenate([wp.ravel() for wp in fb.w])


def unpack_filter_bank(theta: np.ndarray, d: int, p: int) -> FilterBank:
    """Unvalidated filter bank whose matrices are views into ``theta``."""
    return unchecked(FilterBank, w=list(theta.reshape(p + 1, d, d)))


def _fir_kernel(w0, w, x: Data, want_grad: bool):
    """Value of the FIR negative log-likelihood and, with ``want_grad``, its
    gradient G with respect to W = [W^(0), ..., W^(P)] as a (D, (P+1)D)
    array. tanh and log cosh share one expm1(-2|eps|)."""
    d = w0.shape[0]
    stack = _as_stack(x, w.shape[1] // d - 1, d)
    n = stack.shape[1]
    lu, piv, info = _lapack().dgetrf(w0)  # one LU gives log|det W^(0)| and its inverse
    logdet = float(np.log(np.abs(lu.diagonal())).sum()) if info == 0 else np.nan
    if not math.isfinite(logdet):
        raise NumericError("W^(0) has zero or nonfinite determinant")
    eps = w @ stack
    a = np.abs(eps)
    em = np.expm1(np.multiply(a, -2.0, out=a))  # exp(-2|eps|) - 1
    q = em + 2.0  # 1 + exp(-2|eps|)
    if want_grad:
        np.divide(em, q, out=em)  # -tanh|eps|
    # -log sech(eps)/pi = log(pi) + |eps| + log(q) - log(2)
    value = (
        n * d * (LOG_PI - LOG_2)
        - 0.5 * float(a.sum())
        + float(np.log(q, out=q).sum())
        - n * logdet
    )
    if not math.isfinite(value):
        raise NumericError("nonfinite likelihood value")
    if not want_grad:
        return value, None
    grad = np.copysign(em, eps, out=em) @ stack.T  # tanh(eps) X^T
    grad[:, :d] -= n * _lapack().dgetri(lu, piv)[0].T
    return value, grad


def _report(value, grad) -> CostReport:
    if not math.isfinite(grad.sum()):
        bad = np.flatnonzero(~np.isfinite(grad))
        raise NumericError(f"nonfinite gradient entries at {bad[:5]}")
    return CostReport(value=value, gradient=grad)


def nll_csa(fb: FilterBank, x: Data) -> float:
    """Negative log-likelihood of the data under the FIR filter model.

    (P-T) log|det W^(0)| - sum_{t>P} sum_d log((1/pi) sech(eps_d(t))); on a
    lag stack, T - P is its column count and the sum runs over its columns.
    """
    return _fir_kernel(fb.w[0], np.concatenate(fb.w, axis=1), x, False)[0]


def grad_csa(fb: FilterBank, x: Data) -> CostReport:
    """Value and analytic gradient of :func:`nll_csa` w.r.t. all W^(p)."""
    d, p = fb.dim, fb.order
    value, g = _fir_kernel(fb.w[0], np.concatenate(fb.w, axis=1), x, True)
    grad = g.reshape(d, p + 1, d).transpose(1, 0, 2).ravel()
    return _report(value, grad)


def _scsa_kernel(model: SourceModel, x: Data, want_grad: bool):
    """Smooth (unpenalized) SCSA cost as the FIR kernel at
    W = [B, -H^(1) B, ..., -H^(P) B]; returns (value, flat gradient, H
    as a (P, D, D) array)."""
    b = model.b
    d = b.shape[0]
    hs = model.h.as_array(d)
    p = len(hs)
    w = np.empty((d, p + 1, d))
    w[:, 0] = b
    np.matmul(hs, -b, out=w[:, 1:].transpose(1, 0, 2))
    value, g = _fir_kernel(b, w.reshape(d, -1), x, want_grad)
    if not want_grad:
        return value, None, hs
    g = np.ascontiguousarray(g.reshape(d, p + 1, d).transpose(1, 0, 2))  # G_0..G_P
    return value, scsa_chain_rule(g, hs, b).ravel(), hs


def scsa_chain_rule(g: np.ndarray, hs: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The gradient with respect to (B, H) of a function of
    W = [B, -H^(1) B, ..., -H^(P) B], from its gradient G_0, ..., G_P with
    respect to W: grad_B = G_0 - sum_p H^(p)T G_p and grad_H^(p) = -G_p B^T.
    ``g`` is a (..., P+1, D, D) array, a stack of such gradients, and ``hs``
    the (P, D, D) lags."""
    p, d = hs.shape[0], b.shape[0]
    grad = np.empty_like(g)
    lags = g[..., 1:, :, :]
    grad[..., 0, :, :] = g[..., 0, :, :] - hs.reshape(p * d, d).T @ lags.reshape(
        g.shape[:-3] + (p * d, d)
    )
    np.matmul(lags, -b.T, out=grad[..., 1:, :, :])
    return grad


def group_norms(h: MvarCoefficients, d: Optional[int] = None) -> np.ndarray:
    """D x D matrix of l2 norms over lags of each (d, f) coefficient group."""
    dim = h.dimension(d)
    if h.order == 0:
        return np.zeros((dim, dim))
    return np.sqrt(np.sum(h.as_array(dim) ** 2, axis=0))


def penalty_groups(h_index: np.ndarray) -> np.ndarray:
    """Group-lasso groups of H as a (D(D-1), P) index matrix, given
    ``h_index``, the (P, D, D) array of H's positions in a flat vector: one
    row of P lag indices per off-diagonal (a, f) pair, row-major in (a, f)."""
    d = h_index.shape[1]
    return h_index[:, ~np.eye(d, dtype=bool)].T


def _penalty_layout(pen: GroupPenaltySpec, hs: np.ndarray) -> Optional[GroupLayout]:
    """Flat layout of the penalized groups of the (P, D, D) array ``hs``, or
    None when nothing is penalized."""
    if pen.lam > 0:
        index = penalty_groups(np.arange(hs.size).reshape(hs.shape))
        return GroupLayout(index, pen.lam)
    return None


def cost_scsa(model: SourceModel, x: Data, pen: GroupPenaltySpec) -> float:
    """Group-lasso regularized negative log-likelihood in (B, H) coordinates."""
    value, _, hs = _scsa_kernel(model, x, False)
    layout = _penalty_layout(pen, hs)
    if layout is not None:
        value += layout.penalty(hs.ravel())
    return value


def grad_scsa(model: SourceModel, x: Data, pen: GroupPenaltySpec) -> CostReport:
    """Value and analytic gradient of :func:`cost_scsa`.

    At a penalized group of norm zero the penalty is not differentiable and
    contributes nothing here; callers handle the subdifferential there.
    """
    value, grad, hs = _scsa_kernel(model, x, True)
    layout = _penalty_layout(pen, hs)
    if layout is not None:
        d, h = model.dim, hs.ravel()
        value, n = layout.penalized(h, value)
        grad[d * d :] += layout.gradient(h, n)
    return _report(value, grad)
