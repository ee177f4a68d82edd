import numpy as np
import pytest

from scsa.cost import group_norms
from scsa.model import MixingMatrix, TimeSeriesMatrix, spectral_radius
from scsa.simulator import (
    NOISE_KINDS,
    SimulationSpec,
    apply_noise,
    generate,
    load_dataset,
    sample_sparse_mvar,
    save_dataset,
)


class TestSampleSparseMvar:
    def test_no_interactions_is_diagonal(self):
        h = sample_sparse_mvar(4, 3, 0, seed=0)
        for hp in h.lags:
            off = hp - np.diag(np.diag(hp))
            assert np.all(off == 0.0)
        assert np.all(np.diag(group_norms(h)) > 0)

    def test_paper_scale_interaction_count(self):
        h = sample_sparse_mvar(7, 4, 7, seed=1)
        norms = group_norms(h)
        off = norms[~np.eye(7, dtype=bool)]
        assert np.sum(off > 0) == 7

    def test_spectral_radius_bounded(self):
        for seed in range(20):
            h = sample_sparse_mvar(5, 3, 6, seed=seed)
            assert spectral_radius(h) < 0.95

    def test_detectability_floor(self):
        for seed in range(10):
            h = sample_sparse_mvar(6, 4, 8, seed=seed)
            norms = group_norms(h)
            mask = (norms > 0) & ~np.eye(6, dtype=bool)
            assert np.min(norms[mask]) >= 0.1

    def test_too_many_interactions(self):
        with pytest.raises(ValueError):
            sample_sparse_mvar(3, 2, 7, seed=0)


def _clean_and_mixing(seed, d=3, t=500):
    rng = np.random.default_rng(seed)
    m = MixingMatrix(rng.standard_normal((d, d)) + 2 * np.eye(d))
    clean = TimeSeriesMatrix(rng.standard_normal((d, t)))
    return clean, m


class TestApplyNoise:
    def test_n0_identity(self):
        clean, m = _clean_and_mixing(0)
        out = apply_noise(clean, m, "N0", snr=2.0)
        np.testing.assert_array_equal(out.data, clean.data)

    @pytest.mark.parametrize("kind", [k for k in NOISE_KINDS if k != "N0"])
    def test_exact_snr(self, kind):
        clean, m = _clean_and_mixing(1)
        for snr in (0.5, 2.0):
            rng = np.random.default_rng(7)
            out = apply_noise(clean, m, kind, snr=snr, seed=7)
            # reconstruct xi* norm from the realized perturbation: for the
            # mixed kinds the added noise is a fixed linear image of xi*, so
            # verify via a second draw with doubled snr halving the noise
            out_half = apply_noise(clean, m, kind, snr=2 * snr, seed=7)
            noise = out.data - clean.data
            noise_half = out_half.data - clean.data
            np.testing.assert_allclose(noise_half, noise / 2, rtol=1e-12)

    def test_snr_norm_identity_direct_kinds(self):
        # for per-sensor noise xi* is the added noise itself
        clean, m = _clean_and_mixing(2)
        for kind in ("N1", "N4"):
            out = apply_noise(clean, m, kind, snr=2.0, seed=3)
            xi = out.data - clean.data
            snr = np.linalg.norm(clean.data) / np.linalg.norm(xi)
            assert snr == pytest.approx(2.0, rel=1e-10)

    def test_temporal_structure(self):
        clean, m = _clean_and_mixing(3, t=4000)

        def lag1(kind):
            out = apply_noise(clean, m, kind, snr=0.01, seed=5)
            noise = out.data - clean.data
            c = noise - noise.mean(axis=1, keepdims=True)
            num = np.sum(c[:, 1:] * c[:, :-1], axis=1)
            den = np.sum(c**2, axis=1)
            return np.abs(num / den)

        threshold = 3.0 / np.sqrt(4000)
        assert np.all(lag1("N1") < threshold)
        assert np.max(lag1("N4")) > threshold

    def test_unknown_kind(self):
        clean, m = _clean_and_mixing(4)
        with pytest.raises(ValueError):
            apply_noise(clean, m, "N9", snr=1.0)


class TestGenerate:
    def test_paper_default_runs_fast(self):
        import time

        spec = SimulationSpec(noise_kind="N5", seed=0)
        start = time.perf_counter()
        ds = generate(spec)
        assert time.perf_counter() - start < 1.0
        assert ds.x.data.shape == (7, 2000)
        assert ds.true_support.sum() == 7

    def test_deterministic(self):
        spec = SimulationSpec(noise_kind="N2", seed=5)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.x.data, b.x.data)
        np.testing.assert_array_equal(a.true_mixing.m, b.true_mixing.m)

    def test_support_consistent_with_h(self):
        ds = generate(SimulationSpec(seed=3))
        norms = group_norms(ds.true_h)
        off = (norms > 0) & ~np.eye(7, dtype=bool)
        np.testing.assert_array_equal(ds.true_support, off)

    def test_noiseless_mixing_consistency(self):
        # with no noise and square mixing, x = true_mixing @ sources, so
        # demixing with the stored inverse reproduces an MVAR process
        ds = generate(SimulationSpec(d_sources=4, p=2, t=500, n_interactions=3))
        s = np.linalg.solve(ds.true_mixing.m, ds.x.data)
        resid = s[:, 2:].copy()
        for lag in (1, 2):
            resid -= ds.true_h.lags[lag - 1] @ s[:, 2 - lag : 500 - lag]
        # residuals should look like unit-scale sech innovations
        assert 0.5 < np.std(resid) < 5.0

    def test_pca_reduction_consistency(self):
        spec = SimulationSpec(
            d_sources=4, p=2, t=1000, n_interactions=3, sensor_count=16,
            noise_kind="N1", snr=5.0, seed=9,
        )
        ds = generate(spec)
        assert ds.x.data.shape == (4, 1000)
        assert ds.true_mixing.m.shape == (4, 4)

    def test_noiseless_recovery_end_to_end(self):
        from test_estimators import best_pairing_gof
        from scsa.estimators import fit_csa

        ds = generate(SimulationSpec(d_sources=3, p=2, t=8000, n_interactions=2, seed=1))
        model = fit_csa(ds.x, 2)
        assert best_pairing_gof(np.linalg.inv(model.b), ds.true_mixing.m) < 0.05


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = generate(SimulationSpec(d_sources=3, p=2, t=200, n_interactions=2, seed=4))
        save_dataset(ds, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(back.x.data, ds.x.data)
        np.testing.assert_array_equal(back.true_mixing.m, ds.true_mixing.m)
        np.testing.assert_array_equal(back.true_support, ds.true_support)
        for a, b in zip(back.true_h.lags, ds.true_h.lags):
            np.testing.assert_array_equal(a, b)
        assert back.spec == ds.spec
        assert back.metadata == ds.metadata

    def test_binary_layout(self, tmp_path):
        ds = generate(SimulationSpec(d_sources=2, p=1, t=50, n_interactions=1, seed=6))
        save_dataset(ds, tmp_path / "ds")
        raw = np.fromfile(tmp_path / "ds" / "signals.bin", dtype="<f8")
        # column-major: the first D entries are the first sample across channels
        np.testing.assert_array_equal(raw[:2], ds.x.data[:, 0])


class TestSimulationSpec:
    # t, d_sources, n_interactions and p: tests/test_cli.py's bad simulations
    @pytest.mark.parametrize(
        "field, value",
        [("noise_ar_order", 2.0), ("ambient_sources", "64"), ("seed", 0.5),
         ("sensor_count", 7.0)],
    )
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimulationSpec(**{field: value})

    def test_numpy_integer_sizes(self):
        ds = generate(SimulationSpec(d_sources=np.int64(2), p=np.int64(1),
                                     t=np.int64(50), n_interactions=np.int64(1)))
        want = generate(SimulationSpec(d_sources=2, p=1, t=50, n_interactions=1))
        np.testing.assert_array_equal(ds.x.data, want.x.data)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationSpec(noise_kind="bogus")
        with pytest.raises(ValueError):
            SimulationSpec(snr=0.0)
        with pytest.raises(ValueError):
            SimulationSpec(d_sources=3, n_interactions=7)
        with pytest.raises(ValueError):
            SimulationSpec(sensor_count=3)
