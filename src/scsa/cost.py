"""Negative log-likelihood of the FIR model, its group-lasso regularized
version in (B, H) coordinates, and all analytic gradients.

Parameter layout contract (used by every optimizer in this package): the flat
vector is ``[vec(B); vec(H^(1)); ...; vec(H^(P))]`` with row-major ``vec``.
Filter banks are flattened the same way, ``[vec(W^(0)); ...; vec(W^(P))]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import InsufficientDataError, NumericError
from .model import (
    FilterBank,
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    unchecked,
)

LOG_PI = float(np.log(np.pi))

# Group norms below this are treated as exactly zero when evaluating the
# (otherwise singular) penalty gradient.
GROUP_TRUNCATION_DEFAULT = 1e-8


@dataclass
class GroupPenaltySpec:
    """Group-lasso penalty weights.

    ``lam`` weights the off-diagonal interaction groups. When
    ``penalize_diagonal`` is set, all diagonal (autocorrelation) coefficients
    form one additional group weighted by ``lambda_diag`` (defaults to
    ``lam``); by default they are left unpenalized.
    """

    lam: float = 0.0
    penalize_diagonal: bool = False
    lambda_diag: Optional[float] = None

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.lambda_diag is None:
            self.lambda_diag = self.lam
        if self.lambda_diag < 0:
            raise ValueError("lambda_diag must be nonnegative")


@dataclass
class CostReport:
    """Cost value, flat gradient, and per-interaction group norms.

    ``group_norms[d, f]`` is the l2 norm of (H_df^(1..P)); diagonal entries
    hold the per-source autocorrelation group norms.
    """

    value: float
    gradient: np.ndarray
    group_norms: np.ndarray


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


def _logabsdet(a, what):
    sign, logdet = np.linalg.slogdet(a)
    if sign == 0 or not np.isfinite(logdet):
        raise NumericError(f"{what} has zero or nonfinite determinant")
    return logdet


def _lagged(x, p_order, lag):
    """Columns x(t-lag) for t = P+1..T (0-based slice)."""
    t = x.shape[1]
    return x[:, p_order - lag : t - lag]


def nll_csa(fb: FilterBank, x: TimeSeriesMatrix) -> float:
    """Negative log-likelihood of the data under the FIR filter model.

    (P-T) log|det W^(0)| - sum_{t>P} sum_d log((1/pi) sech(eps_d(t))).
    """
    p, t = fb.order, x.n_samples
    if t <= p:
        raise InsufficientDataError(f"need T > {p}, got T = {t}")
    eps = fb.w[0] @ _lagged(x.data, p, 0)
    for lag in range(1, p + 1):
        eps += fb.w[lag] @ _lagged(x.data, p, lag)
    value = (p - t) * _logabsdet(fb.w[0], "W^(0)") - float(
        np.sum(log_sech_density(eps))
    )
    if not np.isfinite(value):
        raise NumericError("nonfinite likelihood value")
    return value


def grad_csa(fb: FilterBank, x: TimeSeriesMatrix) -> CostReport:
    """Value and analytic gradient of :func:`nll_csa` w.r.t. all W^(p)."""
    p, t = fb.order, x.n_samples
    if t <= p:
        raise InsufficientDataError(f"need T > {p}, got T = {t}")
    data = x.data
    eps = fb.w[0] @ _lagged(data, p, 0)
    for lag in range(1, p + 1):
        eps += fb.w[lag] @ _lagged(data, p, lag)
    th = np.tanh(eps)
    grads = []
    for lag in range(p + 1):
        g = th @ _lagged(data, p, lag).T
        if lag == 0:
            g = g + (p - t) * np.linalg.inv(fb.w[0]).T
        grads.append(g)
    value = (p - t) * _logabsdet(fb.w[0], "W^(0)") - float(
        np.sum(log_sech_density(eps))
    )
    gradient = np.concatenate([g.ravel() for g in grads])
    if not (np.isfinite(value) and np.all(np.isfinite(gradient))):
        bad = np.flatnonzero(~np.isfinite(gradient))
        raise NumericError(f"nonfinite gradient entries at {bad[:5]}")
    d = fb.dim
    return CostReport(value=value, gradient=gradient, group_norms=np.zeros((d, d)))


def _scsa_residual(model: SourceModel, x: TimeSeriesMatrix):
    """Demixed sources, their MVAR predictions, and the residual.

    Returns (s, resid) where s covers all T samples and resid is
    D x (T-P), resid(t) = s(t) - sum_p H^(p) s(t-p) for t > P.
    """
    p, t = model.order, x.n_samples
    if t <= p:
        raise InsufficientDataError(f"need T > {p}, got T = {t}")
    s = model.b @ x.data
    resid = _lagged(s, p, 0).copy()
    for lag in range(1, p + 1):
        resid -= model.h.lags[lag - 1] @ _lagged(s, p, lag)
    return s, resid


def group_norms(h: MvarCoefficients, d: Optional[int] = None) -> np.ndarray:
    """D x D matrix of l2 norms over lags of each (d, f) coefficient group."""
    dim = h.dimension(d)
    if h.order == 0:
        return np.zeros((dim, dim))
    return np.sqrt(np.sum(h.as_array(dim) ** 2, axis=0))


def _penalty(hs: np.ndarray, norms: np.ndarray, pen: GroupPenaltySpec) -> float:
    """Penalty of the (P, D, D) lag stack ``hs`` with group norms ``norms``."""
    off = norms - np.diag(np.diag(norms))
    value = pen.lam * float(np.sum(off))
    if pen.penalize_diagonal and len(hs):
        diag_norm = float(np.sqrt(sum(np.sum(np.diag(hp) ** 2) for hp in hs)))
        value += pen.lambda_diag * diag_norm
    return value


def penalty_value(h: MvarCoefficients, pen: GroupPenaltySpec, d=None) -> float:
    return _penalty(h.as_array(h.dimension(d)), group_norms(h, d), pen)


def cost_scsa(model: SourceModel, x: TimeSeriesMatrix, pen: GroupPenaltySpec) -> float:
    """Group-lasso regularized negative log-likelihood in (B, H) coordinates."""
    _, resid = _scsa_residual(model, x)
    p, t = model.order, x.n_samples
    value = (
        (p - t) * _logabsdet(model.b, "B")
        - float(np.sum(log_sech_density(resid)))
        + penalty_value(model.h, pen, model.dim)
    )
    if not np.isfinite(value):
        raise NumericError("nonfinite cost value")
    return value


def grad_scsa(
    model: SourceModel,
    x: TimeSeriesMatrix,
    pen: GroupPenaltySpec,
    truncation_threshold: float = GROUP_TRUNCATION_DEFAULT,
) -> CostReport:
    """Value and analytic gradient of :func:`cost_scsa`.

    For penalized groups with norm below ``truncation_threshold`` the
    (singular) penalty gradient term is omitted; callers handle the
    subdifferential there, using the reported ``group_norms``.
    """
    p, t = model.order, x.n_samples
    d = model.dim
    s, resid = _scsa_residual(model, x)
    th = np.tanh(resid)
    data = x.data

    # B block: resid(t) = B x(t) - sum_p H^(p) B x(t-p), so the chain rule
    # contributes through both the prediction target and the lagged sources.
    grad_b = th @ _lagged(data, p, 0).T
    for lag in range(1, p + 1):
        grad_b -= model.h.lags[lag - 1].T @ th @ _lagged(data, p, lag).T
    grad_b += (p - t) * np.linalg.inv(model.b).T

    hs = model.h.as_array(d)  # (P, D, D)
    norms = np.sqrt(np.sum(hs**2, axis=0))
    grad_h = np.zeros((p, d, d))
    for lag in range(1, p + 1):
        grad_h[lag - 1] = -th @ _lagged(s, p, lag).T

    if p > 0 and pen.lam > 0:
        off_mask = (norms >= truncation_threshold) & ~np.eye(d, dtype=bool)
        safe = np.where(norms > 0, norms, 1.0)
        grad_h[:, off_mask] += (pen.lam * hs / safe)[:, off_mask]
    if p > 0 and pen.penalize_diagonal and pen.lambda_diag > 0:
        diag_vec = hs[:, np.arange(d), np.arange(d)]  # (P, D)
        diag_norm = float(np.sqrt(np.sum(diag_vec**2)))
        if diag_norm >= truncation_threshold:
            grad_h[:, np.arange(d), np.arange(d)] += (
                pen.lambda_diag * diag_vec / diag_norm
            )

    value = (p - t) * _logabsdet(model.b, "B") - float(
        np.sum(log_sech_density(resid))
    )
    if pen.lam > 0 or pen.penalize_diagonal:
        value += _penalty(hs, norms, pen)
    gradient = np.concatenate([grad_b.ravel(), grad_h.ravel()])
    if not (np.isfinite(value) and np.all(np.isfinite(gradient))):
        bad = np.flatnonzero(~np.isfinite(gradient))
        raise NumericError(f"nonfinite gradient entries at {bad[:5]}")
    return CostReport(value=value, gradient=gradient, group_norms=norms)

