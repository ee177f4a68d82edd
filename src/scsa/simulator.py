"""Benchmark dataset generator: sparse stable MVAR sources with sech
innovations, instantaneous mixing, six noise regimes with exact SNR control,
and principal-component dimensionality reduction.

Noise kinds:

* ``N0`` — none.
* ``N1`` / ``N4`` — independent per-sensor noise.
* ``N2`` / ``N5`` — per-source noise mixed through the signal mixing matrix.
* ``N3`` / ``N6`` — many ambient noise sources mixed through an independent
  random matrix.

``N1``–``N3`` are temporally white Gaussian; ``N4``–``N6`` pass each noise
channel through an independent stable univariate autoregressive filter.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

import numpy as np

from . import __version__
from .cost import group_norms
from .exceptions import SamplingError
from .model import (
    MixingMatrix,
    MvarCoefficients,
    STABILITY_RADIUS,
    TimeSeriesMatrix,
    _is_int,
    simulate_sources,
    spectral_radius,
)

NOISE_KINDS = ("N0", "N1", "N2", "N3", "N4", "N5", "N6")

# Nonzero MVAR coefficients are drawn uniform on +/- [COEF_LOW, COEF_HIGH].
COEF_LOW, COEF_HIGH = 0.1, 0.5

# A stabilized draw is rejected when any true interaction's lag-group norm
# falls below this detectability floor.
DETECTABILITY_FLOOR = 0.1

MAX_REJECTIONS = 100

# Condition-number bound for randomly drawn mixing matrices.
MIXING_COND_BOUND = 1e3

# Default number of ambient noise sources for N3 / N6.
AMBIENT_SOURCES = 64

# Reflection coefficients of the noise AR filters are drawn uniform within
# +/- this bound, keeping every filter comfortably stable.
REFLECTION_BOUND = 0.7


@dataclass
class SimulationSpec:
    d_sources: int = 7
    p: int = 4
    t: int = 2000
    n_interactions: int = 7
    noise_kind: str = "N0"
    snr: float = 2.0
    noise_ar_order: int = 20
    sensor_count: Optional[int] = None
    ambient_sources: int = AMBIENT_SOURCES
    seed: int = 0

    def __post_init__(self):
        if self.sensor_count is None:
            self.sensor_count = self.d_sources
        for name in ("d_sources", "p", "t", "n_interactions", "noise_ar_order",
                     "ambient_sources", "seed", "sensor_count"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer; got {getattr(self, name)!r}")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if self.d_sources < 1:
            raise ValueError("d_sources must be >= 1")
        if not 0 <= self.p < self.t:
            raise ValueError(f"need 0 <= p < t, got p = {self.p}, t = {self.t}")
        if self.n_interactions > self.d_sources * (self.d_sources - 1):
            raise ValueError("n_interactions exceeds D(D-1)")
        if self.p == 0 and self.n_interactions > 0:
            raise ValueError("order-0 sources cannot interact; need n_interactions = 0")
        if not 0 < self.snr < np.inf:
            raise ValueError(f"snr must be positive and finite, got {self.snr}")
        if self.sensor_count < self.d_sources:
            raise ValueError("sensor_count must be >= d_sources")


@dataclass
class Dataset:
    x: TimeSeriesMatrix
    true_mixing: MixingMatrix
    true_h: MvarCoefficients
    true_support: np.ndarray
    spec: SimulationSpec
    metadata: Dict = field(default_factory=dict)


def sample_sparse_mvar(
    d: int, p: int, n_interactions: int, seed: int = 0
) -> MvarCoefficients:
    """Draw stable MVAR coefficients with the requested interaction count.

    All diagonal groups and ``n_interactions`` uniformly chosen off-diagonal
    groups get coefficients uniform on +/- [0.1, 0.5] at every lag. Draws are
    scaled per lag (H^(p) <- c^p H^(p), which scales the companion
    eigenvalues by c) until the spectral radius is below the stability bound,
    and rejected when scaling pushes any interaction's lag-group norm below
    the detectability floor.
    """
    if n_interactions > d * (d - 1):
        raise ValueError("n_interactions exceeds D(D-1)")
    rng = np.random.default_rng(seed)
    off_pairs = [(a, f) for a in range(d) for f in range(d) if a != f]
    for _ in range(MAX_REJECTIONS):
        chosen = rng.choice(len(off_pairs), size=n_interactions, replace=False)
        mask = np.zeros((d, d), dtype=bool)
        mask[np.diag_indices(d)] = True
        for idx in chosen:
            mask[off_pairs[idx]] = True
        coefs = rng.uniform(COEF_LOW, COEF_HIGH, size=(p, d, d))
        coefs *= rng.choice([-1.0, 1.0], size=(p, d, d))
        coefs[:, ~mask] = 0.0
        h = MvarCoefficients([coefs[lag] for lag in range(p)])
        rho = spectral_radius(h)
        if rho >= STABILITY_RADIUS:
            c = (STABILITY_RADIUS * 0.999) / rho
            scale = c ** np.arange(1, p + 1)
            h = MvarCoefficients([coefs[lag] * scale[lag] for lag in range(p)])
        norms = group_norms(h, d)
        if n_interactions and np.min(norms[mask & ~np.eye(d, dtype=bool)]) < (
            DETECTABILITY_FLOOR
        ):
            continue
        if spectral_radius(h) < STABILITY_RADIUS:
            return h
    raise SamplingError(
        f"no stable, detectable draw within {MAX_REJECTIONS} attempts"
    )


def _ar_filter_coefficients(rng, order):
    """Stable AR coefficients via the step-up (Levinson) recursion on
    uniformly drawn reflection coefficients."""
    k = rng.uniform(-REFLECTION_BOUND, REFLECTION_BOUND, size=order)
    a = np.zeros(0)
    for m in range(order):
        a = np.concatenate([a - k[m] * a[::-1], [k[m]]])
    return a  # s(t) = sum_m a[m] s(t-m-1) + e(t)


def _colored_noise(rng, shape, order):
    # imported here: only the colored-noise kinds use it, and it is slow to import
    from scipy.signal import lfilter

    white = rng.standard_normal(shape)
    out = np.empty(shape)
    for ch in range(shape[0]):
        a = _ar_filter_coefficients(rng, order)
        out[ch] = lfilter([1.0], np.concatenate([[1.0], -a]), white[ch])
    return out


def apply_noise(
    clean: TimeSeriesMatrix,
    m: MixingMatrix,
    kind: str,
    snr: float,
    noise_ar_order: int = 20,
    seed: int = 0,
    ambient_sources: int = AMBIENT_SOURCES,
) -> TimeSeriesMatrix:
    """Add one of the six noise regimes to the clean sensor signal.

    The noise innovation block xi* is scaled so that
    ``||clean||_F / ||xi*||_F`` equals ``snr`` exactly; for the mixed regimes
    the sensor-space noise is the correspondingly scaled mixture.
    """
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    if kind == "N0":
        return TimeSeriesMatrix(clean.data.copy())
    # a plain (possibly rectangular) array is accepted in place of a
    # MixingMatrix, which must be square
    m_arr = m.m if hasattr(m, "m") else np.asarray(m, dtype=float)
    rng = np.random.default_rng(seed)
    n_ch, t = clean.data.shape
    colored = kind in ("N4", "N5", "N6")

    def draw(shape):
        if colored:
            return _colored_noise(rng, shape, noise_ar_order)
        return rng.standard_normal(shape)

    if kind in ("N1", "N4"):
        xi_star = draw((n_ch, t))
        mixed = xi_star
    elif kind in ("N2", "N5"):
        xi_star = draw((m_arr.shape[1], t))
        mixed = m_arr @ xi_star
    else:  # N3 / N6: ambient sources through an independent mixing
        m_star = rng.standard_normal((n_ch, ambient_sources))
        m_star /= np.linalg.norm(m_star, axis=0, keepdims=True)
        xi_star = draw((ambient_sources, t))
        mixed = m_star @ xi_star
    scale = np.linalg.norm(clean.data) / (snr * np.linalg.norm(xi_star))
    return TimeSeriesMatrix(clean.data + scale * mixed)


def _draw_mixing(rng, n_rows, n_cols):
    """Random mixing with unit-norm columns (field-pattern surrogate).

    Column normalization keeps the pre-mixing SNR definition meaningful
    across sensor counts: a unit-norm pattern maps unit noise to unit sensor
    power regardless of how many sensors observe it.
    """
    for _ in range(MAX_REJECTIONS):
        m = rng.standard_normal((n_rows, n_cols))
        m /= np.linalg.norm(m, axis=0, keepdims=True)
        if np.linalg.cond(m) < MIXING_COND_BOUND:
            return m
    raise SamplingError(
        f"no well-conditioned mixing within {MAX_REJECTIONS} attempts"
    )


def generate(spec: SimulationSpec) -> Dataset:
    """Simulate one benchmark dataset end to end.

    Sources are drawn from a sparse stable MVAR model, mixed to
    ``sensor_count`` channels, corrupted by the requested noise regime and,
    when the sensor count exceeds the source count, projected back to
    ``d_sources`` dimensions with the strongest principal components. The
    stored ``true_mixing`` is the composite (projection after mixing), so the
    noiseless path satisfies x = true_mixing @ sources exactly.
    """
    rng = np.random.default_rng(spec.seed)
    sub = rng.integers(0, 2**63 - 1, size=4)
    h = sample_sparse_mvar(spec.d_sources, spec.p, spec.n_interactions, int(sub[0]))
    sources, _ = simulate_sources(h, spec.t, seed=int(sub[1]), dim=spec.d_sources)
    m_full = _draw_mixing(
        np.random.default_rng(int(sub[2])), spec.sensor_count, spec.d_sources
    )
    clean = TimeSeriesMatrix(m_full @ sources.data)
    noisy = apply_noise(
        clean,
        m_full,
        spec.noise_kind,
        spec.snr,
        spec.noise_ar_order,
        int(sub[3]),
        spec.ambient_sources,
    )
    if spec.sensor_count > spec.d_sources:
        cov = noisy.data @ noisy.data.T / noisy.n_samples
        eigvals, eigvecs = np.linalg.eigh(cov)
        proj = eigvecs[:, ::-1][:, : spec.d_sources].T
        x = TimeSeriesMatrix(proj @ noisy.data)
        effective = proj @ m_full
    else:
        x = noisy
        effective = m_full
    norms = group_norms(h, spec.d_sources)
    support = (norms > 0) & ~np.eye(spec.d_sources, dtype=bool)
    metadata = {
        "seed": spec.seed,
        "version": __version__,
        "coefficient_range": [COEF_LOW, COEF_HIGH],
        "detectability_floor": DETECTABILITY_FLOOR,
        "innovation_density": "sech, unit scale",
        "stability_radius": STABILITY_RADIUS,
    }
    return Dataset(
        x=x,
        true_mixing=MixingMatrix(effective),
        true_h=h,
        true_support=support,
        spec=spec,
        metadata=metadata,
    )


def save_dataset(dataset: Dataset, directory) -> None:
    """Write a dataset as binary signals plus JSON sidecars.

    Layout: ``signals.bin`` holds the observation block as little-endian
    float64 in column-major order; ``header.json`` records dims and layout;
    ``truth.json`` the ground-truth model and generating spec;
    ``metadata.json`` the provenance record.
    """
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    data = np.asfortranarray(dataset.x.data.astype("<f8"))
    (path / "signals.bin").write_bytes(data.tobytes(order="F"))
    header = {
        "n_channels": dataset.x.n_channels,
        "n_samples": dataset.x.n_samples,
        "dtype": "<f8",
        "layout": "column-major",
    }
    (path / "header.json").write_text(json.dumps(header, indent=2))
    truth = {
        "true_mixing": dataset.true_mixing.m.tolist(),
        "true_h": [hp.tolist() for hp in dataset.true_h.lags],
        "true_support": dataset.true_support.tolist(),
        "spec": asdict(dataset.spec),
    }
    (path / "truth.json").write_text(json.dumps(truth, indent=2))
    (path / "metadata.json").write_text(json.dumps(dataset.metadata, indent=2))


def load_dataset(directory) -> Dataset:
    path = pathlib.Path(directory)
    header = json.loads((path / "header.json").read_text())
    dtype = np.dtype(header["dtype"])
    signals = path / "signals.bin"
    buf = signals.read_bytes()
    expected = header["n_channels"] * header["n_samples"] * dtype.itemsize
    if len(buf) != expected:
        raise OSError(
            f"{signals}: holds {len(buf)} bytes, header.json implies {expected}"
        )
    raw = np.frombuffer(buf, dtype=dtype)
    data = raw.reshape(
        (header["n_channels"], header["n_samples"]), order="F"
    ).copy()
    truth = json.loads((path / "truth.json").read_text())
    metadata = json.loads((path / "metadata.json").read_text())
    return Dataset(
        x=TimeSeriesMatrix(data),
        true_mixing=MixingMatrix(np.array(truth["true_mixing"])),
        true_h=MvarCoefficients([np.array(hp) for hp in truth["true_h"]]),
        true_support=np.array(truth["true_support"], dtype=bool),
        spec=SimulationSpec(**truth["spec"]),
        metadata=metadata,
    )
