import logging

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from scsa import em_dal, estimators
from scsa.cost import (
    GroupPenaltySpec,
    cost_scsa,
    grad_scsa,
    group_norms,
    nll_csa,
    penalty_groups,
)
from scsa.estimators import (
    AUTO,
    FitRequest,
    FitResult,
    default_lambda_grid,
    fit,
    fit_csa,
    fit_ica,
    fit_mvarica,
    fit_scsa,
    fit_scsa_em,
    select_lambda_cv,
    select_order_bic,
)
from scsa.exceptions import IllPosedError, NumericError, PartitionError
from scsa.optim import OptimizerConfig
from scsa.model import (
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    sample_sech,
    simulate_sources,
    source_model_to_filter_bank,
)

from test_model import stable_random_mvar


def best_pairing_gof(m_hat, m_true):
    """Worst column GOF after scale-invariant optimal column pairing."""
    d = m_true.shape[1]
    gof = np.zeros((d, d))
    for i in range(d):  # true column
        for j in range(d):  # estimated column
            mh = m_hat[:, j]
            c = mh @ m_true[:, i] / (mh @ mh)
            gof[i, j] = np.linalg.norm(c * mh - m_true[:, i]) / np.linalg.norm(
                m_true[:, i]
            )
    rows, cols = linear_sum_assignment(gof)
    return float(np.max(gof[rows, cols]))


def assert_signed_permutation(c, atol=0.05):
    """c must equal a permutation up to per-row scales and signs."""
    scaled = np.abs(c) / np.max(np.abs(c), axis=1, keepdims=True)
    perm = scaled > 0.5
    assert np.all(perm.sum(axis=0) == 1) and np.all(perm.sum(axis=1) == 1)
    assert np.max(scaled[~perm]) < atol


def mixed_dataset(seed, d=3, p=2, t=2000):
    rng = np.random.default_rng(seed)
    h = stable_random_mvar(rng, d, p)
    s, _ = simulate_sources(h, T=t, seed=seed)
    m = rng.standard_normal((d, d)) + 2 * np.eye(d)
    return TimeSeriesMatrix(m @ s.data), m, h


class TestFitCsa:
    def test_recovers_mixing(self):
        x, m, _ = mixed_dataset(0, t=8000)
        model = fit_csa(x, 2)
        assert best_pairing_gof(np.linalg.inv(model.b), m) < 0.05

    def test_predemixed_identity(self):
        rng = np.random.default_rng(1)
        s = sample_sech(rng, (3, 3000))
        model = fit_csa(TimeSeriesMatrix(s), 0)
        assert_signed_permutation(model.b)

    def test_deterministic(self):
        x, _, _ = mixed_dataset(2, t=500)
        m1 = fit_csa(x, 2)
        m2 = fit_csa(x, 2)
        np.testing.assert_array_equal(m1.b, m2.b)
        for a, b in zip(m1.h.lags, m2.h.lags):
            np.testing.assert_array_equal(a, b)


class TestFitIca:
    def test_sech_mixture_recovery(self):
        rng = np.random.default_rng(3)
        s = sample_sech(rng, (3, 4000))
        m = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        model = fit_ica(TimeSeriesMatrix(m @ s))
        assert model.order == 0
        assert best_pairing_gof(np.linalg.inv(model.b), m) < 0.05


class TestFitScsa:
    def test_lambda_zero_matches_csa(self):
        x, _, _ = mixed_dataset(4, d=2, p=1, t=800)
        csa = fit_csa(x, 1)
        scsa = fit_scsa(x, 1, GroupPenaltySpec(0.0))
        pen = GroupPenaltySpec(0.0)
        assert cost_scsa(scsa, x, pen) == pytest.approx(
            cost_scsa(csa, x, pen), abs=1e-6
        )

    def test_huge_lambda_zeroes_offdiagonal(self):
        x, _, _ = mixed_dataset(5, d=2, p=2, t=600)
        model = fit_scsa(x, 2, GroupPenaltySpec(1e5))
        norms = group_norms(model.h)
        off = norms - np.diag(np.diag(norms))
        assert np.all(off == 0.0)

    def test_sparse_support_recovery(self):
        # one true cross-interaction; the reverse edge must vanish
        h = MvarCoefficients([np.array([[0.5, 0.7], [0.0, 0.4]])])
        s, _ = simulate_sources(h, T=3000, seed=11)
        rng = np.random.default_rng(11)
        m = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        x = TimeSeriesMatrix(m @ s.data)
        model = fit_scsa(x, 1, GroupPenaltySpec(30.0))
        norms = group_norms(model.h)
        off = norms - np.diag(np.diag(norms))
        nonzero = off > 0
        assert nonzero.sum() == 1

    @pytest.mark.parametrize("diag", [False, True])
    def test_order_zero_with_penalty_is_ica(self, diag):
        # at P = 0 every penalty group is empty, so any lambda leaves the
        # unpenalized instantaneous fit
        x, _, _ = mixed_dataset(6, d=3, p=1, t=600)
        pen = GroupPenaltySpec(0.5, penalize_diagonal=diag, lambda_diag=2.0)
        model = fit_scsa(x, 0, pen)
        assert model.order == 0
        pen0 = GroupPenaltySpec(0.0)
        assert cost_scsa(model, x, pen) == cost_scsa(model, x, pen0)
        assert cost_scsa(model, x, pen0) == pytest.approx(
            cost_scsa(fit_ica(x), x, pen0), abs=1e-6
        )

    def test_huge_diagonal_weight_zeroes_diagonal(self):
        x, _, _ = mixed_dataset(5, d=3, p=2, t=600)
        pen = GroupPenaltySpec(0.5, penalize_diagonal=True, lambda_diag=1e6)
        model = fit_scsa(x, 2, pen)
        hs = model.h.as_array()
        assert np.all(hs[:, np.arange(3), np.arange(3)] == 0.0)
        assert np.any(hs != 0.0)

    def test_kkt_with_diagonal_group(self):
        # the joint diagonal group (P*D coefficients) sits next to the
        # off-diagonal groups (P each); both must satisfy the KKT conditions
        d, p, lam, lam_diag = 3, 2, 120.0, 150.0
        x, _, _ = mixed_dataset(8, d=d, p=p, t=1000)
        pen = GroupPenaltySpec(lam, penalize_diagonal=True, lambda_diag=lam_diag)
        cfg = OptimizerConfig(max_iters=5000, grad_tol=1e-10, value_tol=1e-15)
        model = fit_scsa(x, p, pen, cfg=cfg)
        g = grad_scsa(model, x, GroupPenaltySpec(0.0)).gradient
        gh = g[d * d :].reshape(p, d, d)
        hs = model.h.as_array()
        tol = 1e-6 * x.n_samples
        assert np.max(np.abs(g[: d * d])) <= tol
        i = np.arange(d)
        groups = [(hs[:, i, i].ravel(), gh[:, i, i].ravel(), lam_diag)]
        groups += [
            (hs[:, a, f], gh[:, a, f], lam)
            for a in range(d) for f in range(d) if a != f
        ]
        states = []
        for xg, gg, w in groups:
            if np.all(xg == 0.0):
                assert np.linalg.norm(gg) <= w * (1 + 1e-6)
            else:
                stat = gg + w * xg / np.linalg.norm(xg)
                assert np.max(np.abs(stat)) <= tol
            states.append(bool(np.all(xg == 0.0)))
        # the diagonal group is active and some interaction group is not
        assert not states[0] and any(states[1:])


class TestPenaltyGroups:
    @pytest.mark.parametrize("d,p", [(1, 2), (2, 1), (3, 2), (4, 3)])
    def test_matches_loop_layout(self, d, p):
        # reference: one list of lag indices per ordered off-diagonal pair,
        # then the joint diagonal group, in the flat [vec(B); vec(H)] layout
        pen = GroupPenaltySpec(0.5, penalize_diagonal=True, lambda_diag=2.0)
        theta_index = d * d + np.arange(p * d * d).reshape(p, d, d)
        (off, w_off), (diag, w_diag) = penalty_groups(pen, theta_index)
        want = [
            [d * d + lag * d * d + a * d + f for lag in range(p)]
            for a in range(d) for f in range(d) if a != f
        ]
        np.testing.assert_array_equal(off, np.array(want, dtype=int).reshape(-1, p))
        np.testing.assert_array_equal(w_off, np.full(len(want), 0.5))
        want_diag = [
            d * d + lag * d * d + a * d + a for lag in range(p) for a in range(d)
        ]
        np.testing.assert_array_equal(diag, [want_diag])
        np.testing.assert_array_equal(w_diag, [2.0])
        assert len(penalty_groups(GroupPenaltySpec(0.5), theta_index)) == 1


class TestFitScsaEm:
    def test_cost_no_worse_than_scsa(self):
        for seed in (6, 7):
            x, _, _ = mixed_dataset(seed, d=2, p=1, t=600)
            pen = GroupPenaltySpec(2.0)
            scsa = fit_scsa(x, 1, pen)
            em = fit_scsa_em(x, 1, pen, em_steps=5)
            assert cost_scsa(em, x, pen) <= cost_scsa(scsa, x, pen) + 1e-9


class TestFitMvarica:
    def test_identity_mixing(self):
        rng = np.random.default_rng(8)
        h = stable_random_mvar(rng, 3, 2)
        s, _ = simulate_sources(h, T=3000, seed=8)
        model = fit_mvarica(TimeSeriesMatrix(s.data), 2)
        assert_signed_permutation(model.b, atol=0.15)

    def test_worse_than_csa_on_model_data(self):
        x, m, _ = mixed_dataset(10, t=2000)
        gof_mvarica = best_pairing_gof(np.linalg.inv(fit_mvarica(x, 2).b), m)
        assert np.isfinite(gof_mvarica)

    def test_rank_deficient_raises(self):
        data = np.zeros((2, 50))
        data[0] = 1.0  # constant channels -> collinear lagged design
        with pytest.raises(IllPosedError):
            fit_mvarica(TimeSeriesMatrix(data), 2)


class TestSelectOrderBic:
    def test_single_candidate(self):
        x, _, _ = mixed_dataset(12, d=2, p=1, t=400)
        p, bic = select_order_bic(x, "CSA", [3])
        assert p == 3
        assert set(bic) == {3}

    def test_recovers_true_order(self):
        x, _, _ = mixed_dataset(13, d=2, p=2, t=2000)
        p, bic = select_order_bic(x, "CSA", [1, 2, 3, 4])
        assert p == 2
        assert bic[1] > bic[2] < bic[3]


class TestSelectLambdaCv:
    def test_single_value_grid(self):
        x, _, _ = mixed_dataset(14, d=2, p=1, t=600)
        lam, curve = select_lambda_cv(x, 1, [0.7], folds=3)
        assert lam == 0.7
        assert set(curve) == {0.7}

    def test_deterministic(self):
        x, _, _ = mixed_dataset(15, d=2, p=1, t=600)
        out1 = select_lambda_cv(x, 1, [0.1, 1.0], folds=3)
        out2 = select_lambda_cv(x, 1, [0.1, 1.0], folds=3)
        assert out1 == out2

    def test_degenerate_fold_raises(self):
        x = TimeSeriesMatrix(np.random.default_rng(0).standard_normal((2, 12)))
        with pytest.raises(PartitionError):
            select_lambda_cv(x, 5, [0.1], folds=3)

    def test_selects_positive_lambda_on_sparse_truth(self):
        # a per-instance guarantee does not exist; require a majority of
        # repetitions to prefer some regularization over none
        wins = 0
        for seed in range(5):
            h = MvarCoefficients([np.array([[0.5, 0.6], [0.0, 0.4]])])
            s, _ = simulate_sources(h, T=1500, seed=100 + seed)
            rng = np.random.default_rng(100 + seed)
            m = rng.standard_normal((2, 2)) + 2 * np.eye(2)
            x = TimeSeriesMatrix(m @ s.data)
            lam, _ = select_lambda_cv(x, 1, [0.0, 1.0, 10.0], folds=3)
            wins += lam > 0.0
        assert wins >= 3


class TestDefaultLambdaGrid:
    def test_shape_and_scaling(self):
        g = default_lambda_grid(2000)
        assert len(g) == 12
        assert g[0] == pytest.approx(1e-3)
        assert g[-1] == pytest.approx(1e2)
        np.testing.assert_allclose(default_lambda_grid(1000), g / 2)


class TestFitDispatcher:
    def test_request_validation(self):
        with pytest.raises(ValueError):
            FitRequest(method="NOPE")
        with pytest.raises(ValueError):
            FitRequest(method="CSA", order_candidates=[])

    @pytest.mark.parametrize("method", ["CSA", "ICA", "MVARICA", "SCSA", "SCSA_EM"])
    def test_each_method_runs(self, method):
        x, _, _ = mixed_dataset(17, d=2, p=1, t=500)
        req = FitRequest(
            method=method, order_candidates=[1], lambda_grid=[1.0], cv_folds=2
        )
        res = fit(x, req)
        assert isinstance(res, FitResult)
        assert res.model.dim == 2
        assert res.wall_time >= 0.0
        if method in ("SCSA", "SCSA_EM"):
            assert res.selected_lambda == 1.0
        if method == "ICA":
            assert res.model.order == 0

    @pytest.mark.parametrize("method", ["SCSA", "SCSA_EM"])
    def test_penalized_methods_run_at_order_zero(self, method):
        x, _, _ = mixed_dataset(17, d=2, p=1, t=500)
        req = FitRequest(
            method=method, order_candidates=[0], lambda_grid=[1.0], cv_folds=2
        )
        res = fit(x, req)
        assert res.model.order == 0
        assert np.all(np.isfinite(res.model.b))

    def test_scsa_em_converged_follows_the_stop_rule(self, monkeypatch):
        x, _, _ = mixed_dataset(17, d=2, p=1, t=500)
        req = FitRequest(method="SCSA_EM", order_candidates=[1], lambda_grid=[1.0])
        res = fit(x, req)
        assert res.trace.converged
        assert res.trace.iterations < 2 * 20  # stopped before em_steps ran out
        # one EM step from a poor start cannot meet the stop rule
        start = SourceModel(np.eye(2), MvarCoefficients([np.zeros((2, 2))]))
        one_step = em_dal.fit_scsa_em
        monkeypatch.setattr(
            em_dal,
            "fit_scsa_em",
            lambda *a, **k: one_step(*a, em_steps=1, init=start, **k),
        )
        res = fit(x, req)
        assert res.trace.iterations == 2
        assert res.trace.converged == em_dal.em_converged(res.trace.value_history)
        assert not res.trace.converged

    @pytest.mark.parametrize(
        "method,kernel,value_kernel",
        [("CSA", "grad_csa", "nll_csa"), ("SCSA", "grad_scsa", "cost_scsa")],
    )
    def test_stagnation_is_reported(
        self, method, kernel, value_kernel, monkeypatch, caplog
    ):
        # every point but the start leaves the domain, so the first line
        # search rejects all its trials
        x, _, _ = mixed_dataset(17, d=2, p=1, t=500)
        real = getattr(estimators, kernel)
        calls = []

        def start_only(*args):
            calls.append(args)
            if len(calls) > 1:
                raise NumericError("outside the domain")
            return real(*args)

        def outside(*args):
            raise NumericError("outside the domain")

        monkeypatch.setattr(estimators, kernel, start_only)
        monkeypatch.setattr(estimators, value_kernel, outside)
        req = FitRequest(method=method, order_candidates=[1], lambda_grid=[1.0])
        with caplog.at_level(logging.DEBUG, logger="scsa"):
            res = fit(x, req)
        assert res.trace.stagnated and not res.trace.converged
        assert res.trace.iterations == 0
        assert f"{method} fit (P=1" in caplog.text and "stagnated" in caplog.text
        monkeypatch.undo()
        res = fit(x, req)
        assert not res.trace.stagnated and res.trace.converged

    def test_mvarica_reports_its_ica_trace(self):
        x, _, _ = mixed_dataset(17, d=2, p=1, t=500)
        res = fit(x, FitRequest(method="MVARICA", order_candidates=[1]))
        assert res.trace.converged
        assert res.trace.iterations > 0
        assert np.isfinite(res.trace.final_value)
        assert res.trace.value_history[-1] == res.trace.final_value

    def test_order_and_lambda_selection_path(self):
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        req = FitRequest(
            method="SCSA",
            order_candidates=[1, 2],
            lambda_grid=[0.1, 1.0],
            cv_folds=3,
        )
        res = fit(x, req)
        assert res.selected_order in (1, 2)
        assert res.selected_order == min(
            res.bic_per_order, key=lambda p: res.bic_per_order[p]
        )
        assert res.selected_lambda in (0.1, 1.0)
        assert res.selected_lambda == min(res.cv_curve, key=lambda l: res.cv_curve[l])
