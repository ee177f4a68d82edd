"""Acceptance criteria, one test per criterion (criterion 4 is split into
its three independent halves). Each test prints a PASS/FAIL line with its
runtime.

Two criteria check the property the method actually has rather than a
stronger one no correct implementation can meet:

- 4a (convexity in B). In (B, H) coordinates the cost is
  ``D(B) - (T-P) log|det B|``, with ``D`` the sum of ``log(pi cosh e(t))``
  over residuals ``e(t) = B x(t) - sum_p H^(p) B x(t-p)``. ``D`` is convex in
  B (the residual is affine in B and ``log cosh`` is convex), but
  ``-log|det B|`` is not convex on invertible matrices: at B = I its second
  derivative along a skew direction V is ``tr(V^2) = -||V||_F^2 < 0``. So the
  test pins the decomposition, the convexity of ``D`` on arbitrary B, and the
  convexity of the full cost on the positive-definite cone, where
  ``log det`` is concave.
- 7 (method ordering). SCSA is promised to beat the existing methods, and
  all sensor-space-aware methods to beat plain ICA. Nothing promises that the
  unpenalized joint fit (CSA) beats the two-step MVARICA; on this simulation
  the two differ by less than 0.003 in median GOF, so that comparison is
  printed but not asserted.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from scsa.cost import (
    GroupPenaltySpec,
    cost_scsa,
    grad_csa,
    grad_scsa,
    nll_csa,
    pack_filter_bank,
    pack_source_model,
    unpack_filter_bank,
    unpack_source_model,
)
from scsa.em_dal import (
    fit_scsa_em,
    m_loss,
    m_loss_conjugate,
    m_loss_conjugate_grad_hess,
    m_step_dal,
)
from scsa.estimators import (
    fit_csa,
    fit_ica,
    fit_mvarica,
    fit_scsa,
    select_lambda_cv,
    select_order_bic,
)
from scsa.evaluation import (
    MixingMatrix,
    connectivity_auc,
    matrix_gof,
    optimal_pairing,
)
from scsa.model import (
    FilterBank,
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    filter_bank_to_source_model,
    simulate_sources,
    source_model_to_filter_bank,
)
from scsa.simulator import SimulationSpec, generate

pytestmark = pytest.mark.slow


class _Timer:
    def __init__(self, label, budget):
        self.label, self.budget = label, budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.label}] {status} ({elapsed:.1f}s, budget {self.budget:.0f}s)")
        assert elapsed < self.budget, f"{self.label} exceeded runtime budget"
        return False


def fd_gradient(fn, x, eps=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (fn(xp) - fn(xm)) / (2 * eps)
    return g


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


def test_criterion_1_gradient_correctness():
    with _Timer("criterion 1: gradient correctness", 10.0):
        d, p, t = 3, 2, 40
        rng = np.random.default_rng(0)
        for _ in range(20):
            # FIR likelihood gradient
            fb = FilterBank(
                [np.eye(d) + 0.3 * rng.standard_normal((d, d))]
                + [0.3 * rng.standard_normal((d, d)) for _ in range(p)]
            )
            x = TimeSeriesMatrix(rng.standard_normal((d, t)))
            theta = pack_filter_bank(fb)
            fd = fd_gradient(
                lambda th: nll_csa(unpack_filter_bank(th, d, p), x), theta
            )
            assert rel_err(grad_csa(fb, x).gradient, fd) <= 1e-5

            # regularized (B, H) gradient, groups away from zero
            h = MvarCoefficients(
                [
                    rng.uniform(0.2, 0.5, (d, d)) * rng.choice([-1, 1], (d, d))
                    for _ in range(p)
                ]
            )
            model = SourceModel(
                b=np.eye(d) + 0.3 * rng.standard_normal((d, d)), h=h
            )
            pen = GroupPenaltySpec(0.5)
            theta = pack_source_model(model)
            fd = fd_gradient(
                lambda th: cost_scsa(unpack_source_model(th, d, p), x, pen), theta
            )
            assert rel_err(grad_scsa(model, x, pen).gradient, fd) <= 1e-5

            # conjugate loss gradient and Hessian diagonal
            a = 0.9 * rng.uniform(-1, 1, (d, t))
            s = rng.uniform(-2, 2, (d, t))
            g, hess = m_loss_conjugate_grad_hess(a, s)
            fd = fd_gradient(
                lambda v: m_loss_conjugate(v.reshape(d, t), s), a.ravel()
            ).reshape(d, t)
            assert rel_err(g, fd) <= 1e-5
            fd_h = np.empty_like(a)
            eps = 1e-6
            for i in range(d):
                for j in range(t):
                    ap, am = a.copy(), a.copy()
                    ap[i, j] += eps
                    am[i, j] -= eps
                    gp, _ = m_loss_conjugate_grad_hess(ap, s)
                    gm, _ = m_loss_conjugate_grad_hess(am, s)
                    fd_h[i, j] = (gp[i, j] - gm[i, j]) / (2 * eps)
            assert rel_err(hess, fd_h) <= 1e-5


def test_criterion_2_transform_round_trip():
    with _Timer("criterion 2: transform round trip", 1.0):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            p = int(rng.integers(0, 8))
            model = SourceModel(
                b=np.eye(d) + 0.3 * rng.standard_normal((d, d)),
                h=MvarCoefficients(
                    [0.3 * rng.standard_normal((d, d)) for _ in range(p)]
                ),
            )
            back = filter_bank_to_source_model(source_model_to_filter_bank(model))
            assert np.max(np.abs(back.b - model.b)) < 1e-12
            for a, b in zip(back.h.lags, model.h.lags):
                assert np.max(np.abs(a - b)) < 1e-12


def conjugate_oracle(a, s):
    def neg(y):
        return a * y + np.log(np.pi) + np.log(np.cosh(y - s))

    grid = s + np.linspace(-30, 30, 2001)
    y0 = grid[np.argmin([neg(y) for y in grid])]
    res = minimize_scalar(neg, bracket=(y0 - 0.1, y0, y0 + 0.1), method="brent")
    return -res.fun


def test_criterion_3_conjugate_correctness():
    with _Timer("criterion 3: conjugate correctness", 5.0):
        for a in (-0.9, -0.5, 0.0, 0.5, 0.9):
            for s in (-2.0, 0.0, 3.0):
                closed = m_loss_conjugate(np.array([[a]]), np.array([[s]]))
                assert closed == pytest.approx(conjugate_oracle(a, s), abs=1e-8)
        # biconjugate recovers the primal loss
        for s in (-1.0, 0.0, 2.0):
            for s_tilde in (-2.0, 0.3, 1.5):

                def neg(a):
                    return a * s_tilde + m_loss_conjugate(
                        np.array([[a]]), np.array([[s]])
                    )

                res = minimize_scalar(
                    neg, bounds=(-1 + 1e-12, 1 - 1e-12), method="bounded",
                    options={"xatol": 1e-12},
                )
                want = m_loss(np.array([[s_tilde]]), np.array([[s]]))
                assert -res.fun == pytest.approx(want, abs=1e-6)


def _random_instance(rng, d=3, p=2, t=60):
    h = MvarCoefficients(
        [0.25 * rng.standard_normal((d, d)) for _ in range(p)]
    )
    x = TimeSeriesMatrix(rng.standard_normal((d, t)))
    return h, x


def _sech_data_term(b, h, x):
    """Sum of log(pi cosh e(t)) over the MVAR residuals of the sources B x."""
    p, t = h.order, x.n_samples
    s = b @ x.data
    resid = s[:, p:].copy()
    for lag in range(1, p + 1):
        resid -= h.lags[lag - 1] @ s[:, p - lag : t - lag]
    return float(np.sum(np.log(np.pi * np.cosh(resid))))


def test_criterion_4_convexity_in_b():
    # The whole cost is not midpoint-convex in B over invertible matrices
    # (-log|det B| has negative curvature in skew directions; on these
    # triples 4 of 50 violate it, all by the log-det term). The test checks
    # the decomposition into a data term and the log-det barrier, the
    # convexity of the data term on the same triples, and the convexity of
    # the whole cost on SPD endpoints B B^T built from the same draws.
    with _Timer("criterion 4a: midpoint convexity in B", 10.0):
        rng = np.random.default_rng(2)
        pen = GroupPenaltySpec(0.0)
        for _ in range(50):
            h, x = _random_instance(rng)
            n_resid = x.n_samples - h.order
            b1 = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
            b2 = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
            f = lambda b: cost_scsa(SourceModel(b=b, h=h), x, pen)
            data = lambda b: _sech_data_term(b, h, x)
            bm = 0.5 * (b1 + b2)
            for b in (b1, b2, bm):
                logdet = np.linalg.slogdet(b)[1]
                assert f(b) == pytest.approx(
                    data(b) - n_resid * logdet, rel=1e-10, abs=1e-9
                )
            assert data(bm) <= 0.5 * (data(b1) + data(b2)) + 1e-9

            a1, a2 = b1 @ b1.T, b2 @ b2.T
            assert f(0.5 * (a1 + a2)) <= 0.5 * (f(a1) + f(a2)) + 1e-9


def test_criterion_4_convexity_in_h():
    with _Timer("criterion 4b: midpoint convexity in H", 10.0):
        rng = np.random.default_rng(3)
        pen = GroupPenaltySpec(0.7)
        d, p = 3, 2
        for _ in range(50):
            _, x = _random_instance(rng)
            b = np.eye(d) + 0.3 * rng.standard_normal((d, d))
            h1 = [0.4 * rng.standard_normal((d, d)) for _ in range(p)]
            h2 = [0.4 * rng.standard_normal((d, d)) for _ in range(p)]
            mid = [0.5 * (a + c) for a, c in zip(h1, h2)]
            f = lambda lags: cost_scsa(
                SourceModel(b=b, h=MvarCoefficients(lags)), x, pen
            )
            assert f(mid) <= 0.5 * (f(h1) + f(h2)) + 1e-9


def test_criterion_4_dal_kkt():
    with _Timer("criterion 4c: DAL KKT conditions", 30.0):
        rng = np.random.default_rng(4)
        for trial in range(20):
            d, p, t = 3, 2, 300
            h_true = MvarCoefficients(
                [0.2 * rng.standard_normal((d, d)) for _ in range(p)]
            )
            while True:
                from scsa.model import spectral_radius

                if spectral_radius(h_true) < 0.9:
                    break
                h_true = MvarCoefficients([0.5 * hp for hp in h_true.lags])
            s, _ = simulate_sources(h_true, T=t, seed=1000 + trial)
            lam = float(rng.uniform(2.0, 10.0))
            pen = GroupPenaltySpec(lam)
            h = m_step_dal(s, p, pen)
            s_tilde = np.zeros((d, t - p))
            for lag in range(1, p + 1):
                s_tilde += h.lags[lag - 1] @ s.data[:, p - lag : t - lag]
            resid = np.tanh(s_tilde - s.data[:, p:])
            grads = [
                resid @ s.data[:, p - lag : t - lag].T for lag in range(1, p + 1)
            ]
            hs = h.as_array()
            norms = np.sqrt(np.sum(hs**2, axis=0))
            for a in range(d):
                for f in range(d):
                    g = np.array([gr[a, f] for gr in grads])
                    if a == f:
                        continue  # unpenalized; covered by inner-solver tol
                    if norms[a, f] == 0.0:
                        assert np.linalg.norm(g) <= lam * (1 + 1e-6)
                    else:
                        stat = g + lam * hs[:, a, f] / norms[a, f]
                        assert np.max(np.abs(stat)) <= 1e-6 * max(1.0, t)


def test_criterion_5_em_monotonicity():
    with _Timer("criterion 5: EM monotonicity", 120.0):
        for seed in range(10):
            rng = np.random.default_rng(50 + seed)
            d, p = 3, 2
            h = MvarCoefficients([0.2 * rng.standard_normal((d, d)) for _ in range(p)])
            s, _ = simulate_sources(h, T=500, seed=seed)
            m = rng.standard_normal((d, d)) + 2 * np.eye(d)
            x = TimeSeriesMatrix(m @ s.data)
            pen = GroupPenaltySpec(1.0)
            _, history = fit_scsa_em(x, p, pen, em_steps=20)
            assert np.all(np.diff(np.array(history)) <= 1e-9)


def _fit_and_score(ds, model, mvar_order):
    est_mixing = MixingMatrix(np.linalg.inv(model.b))
    pairing = optimal_pairing(ds.true_mixing, est_mixing)
    gof = matrix_gof(ds.true_mixing, est_mixing, pairing)
    auc = connectivity_auc(
        model, ds.true_support, pairing, x=ds.x, mvar_order=mvar_order
    )
    return gof, auc


def test_criterion_6_noiseless_recovery():
    with _Timer("criterion 6: noiseless recovery", 600.0):
        gofs, aucs = [], []
        for seed in range(20):
            ds = generate(
                SimulationSpec(
                    d_sources=4, p=2, t=2000, n_interactions=3,
                    noise_kind="N0", seed=seed,
                )
            )
            lam, _ = select_lambda_cv(
                ds.x, 2, np.geomspace(1e-2, 1e2, 9), folds=5
            )
            model = fit_scsa(ds.x, 2, GroupPenaltySpec(lam))
            gof, auc = _fit_and_score(ds, model, 2)
            gofs.append(gof)
            aucs.append(auc)
        print("  median gof", np.median(gofs), "median auc", np.median(aucs))
        assert np.median(gofs) <= 0.1
        assert np.median(aucs) >= 0.95


def test_criterion_7_method_ordering():
    # Asserted: SCSA beats both CSA and MVARICA, and both beat ICA, in at
    # least 5 of 7 noise kinds; SCSA's AUC is never below ICA's. CSA vs
    # MVARICA is only reported: CSA's fit is converged (refitting at
    # grad_tol=1e-12 moves GOF by under 2e-4), yet MVARICA wins by up to
    # 0.0024 in median GOF on some kinds, and no claim of the method says
    # the unpenalized joint fit beats the two-step estimator.
    with _Timer("criterion 7: method ordering across noise kinds", 7200.0):
        kinds = ["N0", "N1", "N2", "N3", "N4", "N5", "N6"]
        p = 4
        medians_gof = {}
        medians_auc = {}
        for kind in kinds:
            results = {m: {"gof": [], "auc": []} for m in ("SCSA", "CSA", "MVARICA", "ICA")}
            for rep in range(20):
                ds = generate(
                    SimulationSpec(
                        d_sources=4, p=p, t=2000, n_interactions=6,
                        sensor_count=16, noise_kind=kind, snr=2.0,
                        seed=10_000 + 100 * rep + kinds.index(kind),
                    )
                )
                lam, _ = select_lambda_cv(
                    ds.x, p, np.geomspace(0.3, 100.0, 5), folds=3
                )
                fits = {
                    "SCSA": fit_scsa(ds.x, p, GroupPenaltySpec(lam)),
                    "CSA": fit_csa(ds.x, p),
                    "MVARICA": fit_mvarica(ds.x, p),
                    "ICA": fit_ica(ds.x),
                }
                for name, model in fits.items():
                    gof, auc = _fit_and_score(ds, model, p)
                    results[name]["gof"].append(gof)
                    results[name]["auc"].append(auc)
            medians_gof[kind] = {m: float(np.median(v["gof"])) for m, v in results.items()}
            medians_auc[kind] = {m: float(np.median(v["auc"])) for m, v in results.items()}
            print(" ", kind, "gof", medians_gof[kind], "auc", medians_auc[kind])
        ordered = sum(
            m["SCSA"] <= min(m["CSA"], m["MVARICA"])
            and max(m["CSA"], m["MVARICA"]) <= m["ICA"]
            for m in medians_gof.values()
        )
        csa_wins = sum(m["CSA"] <= m["MVARICA"] for m in medians_gof.values())
        print("  SCSA <= min(CSA, MVARICA) <= max(CSA, MVARICA) <= ICA holds for",
              ordered, "of 7 kinds")
        print("  CSA <= MVARICA (reported, not asserted) for", csa_wins, "of 7 kinds")
        assert ordered >= 5
        for k in kinds:
            assert medians_auc[k]["SCSA"] >= medians_auc[k]["ICA"]


def test_criterion_8_order_selection():
    with _Timer("criterion 8: BIC order selection", 600.0):
        hits = 0
        for seed in range(50):
            ds = generate(
                SimulationSpec(
                    d_sources=4, p=4, t=2000, n_interactions=3,
                    noise_kind="N0", seed=200 + seed,
                )
            )
            p, _ = select_order_bic(ds.x, "CSA", range(1, 8))
            hits += p == 4
        print("  true order recovered in", hits, "of 50 runs")
        assert hits >= 40


def test_criterion_9_determinism(tmp_path):
    import hashlib
    import json

    from scsa.cli import main

    with _Timer("criterion 9: pipeline determinism", 120.0):
        config = {
            "simulation": {
                "d_sources": 3, "p": 1, "t": 400, "n_interactions": 2, "snr": 2.0,
            },
            "methods": [
                {"method": "CSA", "order_candidates": [1]},
                {"method": "SCSA", "order_candidates": [1], "lambda_grid": [1.0]},
            ],
            "noise_kinds": ["N0", "N1"],
            "repetitions": 2,
            "master_seed": 7,
        }
        digests = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            cfg = tmp_path / f"cfg{run}.json"
            cfg.write_text(json.dumps({**config, "output_dir": str(out)}))
            assert main(["bench", str(cfg)]) == 0
            rows = (out / "results.csv").read_text().strip().splitlines()
            # wall time is inherently nondeterministic; hash all other columns
            stable = "\n".join(
                ",".join(line.split(",")[:7] + line.split(",")[8:]) for line in rows
            )
            digests.append(hashlib.sha256(stable.encode()).hexdigest())
        assert digests[0] == digests[1]
