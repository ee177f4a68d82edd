"""Generative model, its two parameterizations and the transforms between them.

Two equivalent parameterizations of the same model are used throughout:

* ``SourceModel``: a demixing matrix ``B`` plus MVAR lag matrices ``H^(1..P)``
  acting on the demixed sources.
* ``FilterBank``: FIR matrices ``W^(0..P)`` mapping observations directly to
  the innovation sequence, with ``W^(0) = B`` and ``W^(p) = -H^(p) B``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DegenerateModelError,
    InsufficientDataError,
    StabilityError,
)

# Condition number above which a matrix is treated as singular.
COND_BOUND = 1e8

# Companion spectral radius defining "stable" with a margin away from the
# unit circle (slow mixing near unit roots makes short simulations useless).
STABILITY_RADIUS = 0.95

# Burn-in samples discarded before recording a simulated series, per lag.
BURN_IN_PER_LAG = 10


def _check_finite_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains nonfinite entries")
    return a


def _check_invertible(a, name):
    if a.shape[0] != a.shape[1]:
        raise DegenerateModelError(f"{name} must be square, got {a.shape}")
    if np.linalg.cond(a) > COND_BOUND:
        raise DegenerateModelError(
            f"{name} is singular or ill-conditioned (cond > {COND_BOUND:g})"
        )


@dataclass
class TimeSeriesMatrix:
    """A D-channel, T-sample signal block; rows are channels."""

    data: np.ndarray

    def __post_init__(self):
        self.data = _check_finite_matrix(self.data, "data")
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError("need at least one channel and one sample")

    @property
    def n_channels(self):
        return self.data.shape[0]

    @property
    def n_samples(self):
        return self.data.shape[1]


@dataclass
class MvarCoefficients:
    """Ordered lag matrices H^(1..P) of an MVAR model; ``order`` may be 0."""

    lags: list = field(default_factory=list)

    def __post_init__(self):
        self.lags = [_check_finite_matrix(h, f"lags[{i}]") for i, h in enumerate(self.lags)]
        if self.lags:
            d = self.lags[0].shape[0]
            for i, h in enumerate(self.lags):
                if h.shape != (d, d):
                    raise ValueError(f"lags[{i}] has shape {h.shape}, expected {(d, d)}")

    @property
    def order(self):
        return len(self.lags)

    def dimension(self, default=None):
        if self.lags:
            return self.lags[0].shape[0]
        if default is None:
            raise ValueError("order-0 coefficients carry no dimension")
        return default

    def as_array(self, dim=None):
        """Return the lags stacked as a (P, D, D) array."""
        d = self.dimension(dim)
        if not self.lags:
            return np.zeros((0, d, d))
        return np.array(self.lags)


@dataclass
class MixingMatrix:
    """Square instantaneous mixing matrix (volume-conduction surrogate)."""

    m: np.ndarray

    def __post_init__(self):
        self.m = _check_finite_matrix(self.m, "m")
        _check_invertible(self.m, "mixing matrix")


@dataclass
class SourceModel:
    """Demixing matrix B together with source-space MVAR coefficients."""

    b: np.ndarray
    h: MvarCoefficients

    def __post_init__(self):
        self.b = _check_finite_matrix(self.b, "b")
        _check_invertible(self.b, "demixing matrix")
        if self.h.lags and self.h.dimension() != self.b.shape[0]:
            raise ValueError("demixing matrix and MVAR lags disagree in dimension")

    @property
    def dim(self):
        return self.b.shape[0]

    @property
    def order(self):
        return self.h.order


@dataclass
class FilterBank:
    """FIR filter matrices W^(0..P) mapping observations to innovations."""

    w: list

    def __post_init__(self):
        if not self.w:
            raise ValueError("filter bank needs at least W^(0)")
        self.w = [_check_finite_matrix(wp, f"w[{p}]") for p, wp in enumerate(self.w)]
        d = self.w[0].shape[0]
        for p, wp in enumerate(self.w):
            if wp.shape != (d, d):
                raise ValueError(f"w[{p}] has shape {wp.shape}, expected {(d, d)}")
        _check_invertible(self.w[0], "zero-lag filter")

    @property
    def dim(self):
        return self.w[0].shape[0]

    @property
    def order(self):
        return len(self.w) - 1


def unchecked(cls, **fields):
    """An instance of a model dataclass built without ``__post_init__``
    validation, for arrays the package derives itself on hot paths (an
    optimizer's iterates). The cost functions still raise ``NumericError``
    on singular or nonfinite iterates."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def source_model_to_filter_bank(model: SourceModel) -> FilterBank:
    """Convert (B, H) to the equivalent FIR inverse filter.

    W^(0) = B and W^(p) = -H^(p) B for p >= 1.
    """
    b = model.b
    _check_invertible(b, "demixing matrix")
    w = [b.copy()]
    for hp in model.h.lags:
        w.append(-hp @ b)
    return FilterBank(w)


def filter_bank_to_source_model(fb: FilterBank) -> SourceModel:
    """Invert :func:`source_model_to_filter_bank`.

    B = W^(0) and H^(p) = -W^(p) B^{-1} for p >= 1.
    """
    b = fb.w[0]
    _check_invertible(b, "zero-lag filter")
    b_inv = np.linalg.inv(b)
    lags = [-wp @ b_inv for wp in fb.w[1:]]
    return SourceModel(b=b.copy(), h=MvarCoefficients(lags))


def lag_stack(x, p: int) -> np.ndarray:
    """The lag windows of one D x T block, a 2-D array or a
    ``TimeSeriesMatrix``, as X of shape ((P+1)*D, T - P) whose row block p
    holds x(t-p) and whose column t - P is the window at t, for t > P. A
    filter bank acts on it as ``np.hstack(w) @ X``. Raises
    :class:`InsufficientDataError` when T <= P, and ValueError for anything
    but one 2-D block or for an order that is not a nonnegative integer."""
    if not (isinstance(p, numbers.Integral) and p >= 0):
        raise ValueError(f"lag order must be a nonnegative integer; got {p!r}")
    data = x.data if isinstance(x, TimeSeriesMatrix) else x
    if not isinstance(data, np.ndarray) or data.ndim != 2:
        raise ValueError(f"lag_stack takes one 2-D block, not {type(x).__name__}")
    d, n = data.shape[0], data.shape[1] - p
    if n < 1:
        raise InsufficientDataError(f"need T > {p}, got T = {n + p}")
    out = np.empty(((p + 1) * d, n))
    for lag in range(p + 1):
        out[lag * d : (lag + 1) * d] = data[:, p - lag : p - lag + n]
    return out


def least_squares_mvar(x, p: int):
    """Least-squares MVAR coefficients [A^(1), ..., A^(P)] as a (D, P*D)
    array."""
    stack = lag_stack(x, p)
    d = stack.shape[0] // (p + 1)
    return np.linalg.lstsq(stack[d:].T, stack[:d].T, rcond=None)[0].T


def innovations(fb: FilterBank, x: TimeSeriesMatrix) -> TimeSeriesMatrix:
    """Apply the FIR inverse filter to recover the innovation sequence.

    Returns a D x (T-P) block whose column t-P is sum_p W^(p) x(t-p).
    """
    return TimeSeriesMatrix(np.hstack(fb.w) @ lag_stack(x, fb.order))


def companion_matrix(h: MvarCoefficients) -> np.ndarray:
    """Block companion matrix of the MVAR coefficients."""
    p = h.order
    if p == 0:
        raise ValueError("order-0 model has no companion matrix")
    d = h.dimension()
    comp = np.zeros((d * p, d * p))
    comp[:d, :] = np.hstack(h.lags)
    if p > 1:
        comp[d:, : d * (p - 1)] = np.eye(d * (p - 1))
    return comp


def spectral_radius(h: MvarCoefficients) -> float:
    if h.order == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(h)))))


def sample_sech(rng: np.random.Generator, size):
    """Draw i.i.d. samples from the density f(x) = sech(x) / pi.

    Inverse-CDF sampling: x = asinh(tan(pi (u - 1/2))) for uniform u.
    """
    u = rng.random(size)
    return np.arcsinh(np.tan(np.pi * (u - 0.5)))


def simulate_sources(
    h: MvarCoefficients,
    T: int,
    seed=0,
    burn_in=None,
    dim=None,
):
    """Simulate an MVAR process driven by i.i.d. sech innovations.

    Returns ``(sources, innovations)`` as TimeSeriesMatrix pairs of shape
    D x T; the recurrence s(t) = sum_p H^(p) s(t-p) + eps(t) holds on the
    recorded window for t > P (earlier history comes from the burn-in).

    Parameters
    ----------
    burn_in : int, optional
        Samples discarded before recording; defaults to 10 * order.
    dim : int, optional
        Channel count for order-0 models (no lag matrix to infer it from).
    """
    p = h.order
    d = h.dimension(dim)
    if T <= p:
        raise InsufficientDataError(f"need T > {p}, got {T}")
    rho = spectral_radius(h)
    if rho >= STABILITY_RADIUS:
        raise StabilityError(
            f"companion spectral radius {rho:.4f} >= {STABILITY_RADIUS}"
        )
    if burn_in is None:
        burn_in = BURN_IN_PER_LAG * p
    rng = np.random.default_rng(seed)
    total = burn_in + T
    eps = sample_sech(rng, (d, total))
    s = np.empty((d, total))
    hs = h.as_array(d)
    s[:, :p] = eps[:, :p]
    for t in range(p, total):
        acc = eps[:, t].copy()
        for lag in range(1, p + 1):
            acc += hs[lag - 1] @ s[:, t - lag]
        s[:, t] = acc
    return (
        TimeSeriesMatrix(s[:, burn_in:].copy()),
        TimeSeriesMatrix(eps[:, burn_in:].copy()),
    )
