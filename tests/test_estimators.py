import json
import logging
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from scsa import cost, em_dal, estimators, fitting, optim
from scsa.cost import (
    CostReport,
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
from scsa.exceptions import (
    DegenerateModelError,
    IllPosedError,
    NumericError,
    PartitionError,
    ScsaError,
)
from scsa.model import (
    FilterBank,
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    lag_stack,
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


def fold_stack(x, p, cuts=()):
    """The order-``p`` lag windows of ``x``, or, with ``cuts`` (h0, h1 + 1),
    those of a CV fold that holds out samples h0..h1: the windows of the runs
    before and after the held-out block, as columns of the whole stack."""
    stack = lag_stack(x, p)
    if not cuts:
        return stack
    return np.hstack((stack[:, : cuts[0] - p], stack[:, cuts[1] :]))


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

    @pytest.mark.parametrize("p", [0, 3])
    @pytest.mark.parametrize("cuts", [(), (300, 400)])  # whole run, or a CV fold
    def test_objective_is_the_data_likelihood(self, p, cuts):
        # the fit runs in whitened coordinates; its reported value must be
        # the likelihood of the returned model on the data's own stack
        x, _, _ = mixed_dataset(6, t=800)
        stack = fold_stack(x, p, cuts)
        model, trace = fitting._fit_csa(stack, p)
        f = nll_csa(source_model_to_filter_bank(model), stack)
        assert abs(trace.final_value - f) <= 1e-9 * abs(f)

    @pytest.mark.parametrize("p", [0, 2])
    def test_duplicated_channel_is_degenerate(self, p):
        rng = np.random.default_rng(7)
        data = sample_sech(rng, (3, 300))
        data[2] = data[0]
        with pytest.raises(DegenerateModelError):
            fit_csa(TimeSeriesMatrix(data), p)


class TestCsaHandOff:
    def test_pairs_keep_curvature_and_slopes(self, monkeypatch):
        # each pair of the CSA solve, as the SCSA start maps it, keeps s^T y,
        # and the SCSA objective's slope along the mapped step, at the SCSA
        # start, is the CSA objective's along the original step. The solve
        # stops at a loose tolerance: at a tight one the slopes vanish below
        # what central differences resolve.
        x, _, _ = mixed_dataset(6, t=800)
        d, p = 3, 2
        stack = lag_stack(x, p)
        monkeypatch.setattr(fitting, "GRAD_TOL", 1e-3)
        csa = fitting._fit_csa(stack, p)
        model, out = fitting._scsa_start(stack, p, csa)
        memory = csa[1].memory
        assert model is csa[0]
        assert out.k == memory.k > 5
        # the solve ran on W_z, with W = W_z R and R the inverse of the upper
        # Cholesky factor of the stack's covariance
        cov = stack @ stack.T / stack.shape[1]
        r = np.linalg.inv(np.linalg.cholesky(cov[::-1, ::-1])[::-1, ::-1])
        w = np.hstack(source_model_to_filter_bank(model).w)
        b0, hs = model.b, model.h.as_array(d)

        def csa(s_z, t):  # W = W_z R moves by t s_z R
            w_t = w + t * np.hstack(s_z.reshape(p + 1, d, d)) @ r
            return nll_csa(FilterBank(np.hsplit(w_t, p + 1)), stack)

        def scsa(s, t):  # (B~, H) moves from (I, H) by t s; B = B~ B0
            v = s.reshape(p + 1, d, d)
            b_t = (np.eye(d) + t * v[0]) @ b0
            m_t = SourceModel(b_t, MvarCoefficients(list(hs + t * v[1:])))
            return cost_scsa(m_t, stack, GroupPenaltySpec(0.0))

        for i in range(out.k):
            (s_z, y_z), (s, y) = memory.sy[:, i], out.sy[:, i]
            assert abs(s @ y - s_z @ y_z) <= 1e-12 * abs(s_z @ y_z)
            h = 1e-4 / np.linalg.norm(s_z)
            slope_csa = (csa(s_z, h) - csa(s_z, -h)) / (2 * h)
            slope_scsa = (scsa(s, h) - scsa(s, -h)) / (2 * h)
            assert abs(slope_scsa - slope_csa) <= 1e-6 * abs(slope_csa)

    def test_mvarica_hands_on_nothing(self):
        x, _, _ = mixed_dataset(6, t=800)
        _, trace = fitting._fit_csa(lag_stack(x, 2), 2, lags=False)
        assert trace.memory is None

    def test_pairs_are_mapped_once_per_fit(self, monkeypatch):
        # BIC's orders keep their solves' pairs unmapped; only the selected
        # order's are mapped, once, for CV and the final fit to share
        monkeypatch.setattr(estimators, "_worker_count", lambda n_tasks, cap=None: 1)
        maps = []
        real = estimators._scsa_start

        def counted(stack, p, csa=None):
            maps.append(stack.shape[0])
            return real(stack, p, csa)

        monkeypatch.setattr(estimators, "_scsa_start", counted)
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        res = fit(x, FitRequest("SCSA", [1, 2, 3], [0.1, 1.0], cv_folds=3))
        assert maps == [2 * (res.selected_order + 1)]
        maps.clear()
        fit(x, FitRequest("CSA", [1, 2, 3]))
        assert maps == []


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

    def test_order_zero_with_penalty_is_ica(self):
        # at P = 0 every penalty group is empty, so any lambda leaves the
        # unpenalized instantaneous fit
        x, _, _ = mixed_dataset(6, d=3, p=1, t=600)
        pen = GroupPenaltySpec(0.5)
        model = fit_scsa(x, 0, pen)
        assert model.order == 0
        pen0 = GroupPenaltySpec(0.0)
        assert cost_scsa(model, x, pen) == cost_scsa(model, x, pen0)
        assert cost_scsa(model, x, pen0) == pytest.approx(
            cost_scsa(fit_ica(x), x, pen0), abs=1e-6
        )

    def test_kkt_conditions(self, monkeypatch):
        # B and the unpenalized diagonal coefficients have a zero gradient,
        # and the off-diagonal groups (P each) satisfy the KKT conditions
        monkeypatch.setattr(optim, "MAX_ITERS", 5000)
        d, p, lam = 3, 2, 120.0
        x, _, _ = mixed_dataset(8, d=d, p=p, t=1000)
        pen = GroupPenaltySpec(lam)
        stack = lag_stack(x, p)
        (model, _), = fitting._fit_scsa(
            stack, [pen], fitting._scsa_start(stack, p), grad_tol=1e-10
        )
        g = grad_scsa(model, x, GroupPenaltySpec(0.0)).gradient
        gh = g[d * d :].reshape(p, d, d)
        hs = model.h.as_array()
        tol = 1e-6 * x.n_samples
        assert np.max(np.abs(g[: d * d])) <= tol
        i = np.arange(d)
        assert np.max(np.abs(gh[:, i, i])) <= tol
        zero = []
        for a in range(d):
            for f in range(d):
                if a == f:
                    continue
                xg, gg = hs[:, a, f], gh[:, a, f]
                if np.all(xg == 0.0):
                    assert np.linalg.norm(gg) <= lam * (1 + 1e-6)
                else:
                    stat = gg + lam * xg / np.linalg.norm(xg)
                    assert np.max(np.abs(stat)) <= tol
                zero.append(bool(np.all(xg == 0.0)))
        # some interaction group is zero and some is not
        assert any(zero) and not all(zero)

    def test_uphill_direction_stagnates(self, monkeypatch):
        # with the smooth gradient negated the search directions point uphill
        # in the data term, so the fit soon finds no trial that lowers the
        # value: it stagnates, keeps its last iterate and is not converged
        x, _, _ = mixed_dataset(17, d=2, p=1, t=500)
        stack = lag_stack(x, 1)
        init = fit_csa(x, 1)

        def uphill(model, data, pen):
            rep = grad_scsa(model, data, pen)
            return CostReport(rep.value, -rep.gradient)

        monkeypatch.setattr(fitting, "grad_scsa", uphill)
        (model, trace), = fitting._fit_scsa(
            stack, [GroupPenaltySpec(1.0)], (init, None)
        )
        assert trace.stagnated and not trace.converged
        assert trace.final_value <= cost_scsa(init, stack, GroupPenaltySpec(1.0))

    def test_walk_starts_each_solve_where_the_last_ended(self, monkeypatch):
        # a walk's later solve starts from the model, the memory and the
        # evaluation the one before it ended on: walking one weight twice,
        # the second solve evaluates nothing and takes no step
        x, _, _ = mixed_dataset(17, d=2, p=1, t=500)
        stack = lag_stack(x, 1)
        evals = []
        real = fitting.grad_scsa

        def counted(*args):
            evals.append(1)
            return real(*args)

        monkeypatch.setattr(fitting, "grad_scsa", counted)
        start = fitting._scsa_start(stack, 1)
        walk = fitting._fit_scsa(stack, [GroupPenaltySpec(1.0)] * 2, start)
        first, trace = next(walk)
        n, steps = len(evals), trace.iterations
        second, trace = next(walk)
        assert steps > 0
        assert len(evals) == n and trace.iterations == 0 and trace.converged
        np.testing.assert_array_equal(second.b, first.b)
        np.testing.assert_array_equal(second.h.as_array(), first.h.as_array())

    @pytest.mark.parametrize("free", ["joint", "B", "H"])
    @pytest.mark.parametrize("cuts", [(), (300, 400)])  # whole run, or a CV fold
    def test_objective_is_the_data_cost(self, free, cuts):
        # the fit runs in the source coordinates of its start; its reported
        # value must be the cost of the returned model on the data's own stack
        x, m, h = mixed_dataset(6, t=800)
        d, p = 3, 2
        stack = fold_stack(x, p, cuts)
        init = SourceModel(
            np.linalg.inv(m) + 0.05 * np.eye(d),
            MvarCoefficients([0.5 * hp for hp in h.lags]),
        )
        block = {"joint": slice(None), "B": slice(0, d * d), "H": slice(d * d, None)}
        # the penalty does not depend on B, so a B-block solve leaves it out
        pen = GroupPenaltySpec(0.0 if free == "B" else 2.0)
        (model, trace), = fitting._fit_scsa(
            stack, [pen], (init, None), block=block[free]
        )
        assert trace.iterations > 0
        f = cost_scsa(model, stack, pen)
        assert abs(trace.final_value - f) <= 1e-9 * abs(f)
        if free == "H":
            assert np.array_equal(model.b, init.b)  # bit for bit

    @pytest.mark.parametrize("free", ["B", "H"])
    def test_block_solve_holds_the_other_block(self, free):
        x, m, h = mixed_dataset(19, d=3, p=2, t=500)
        d, p = 3, 2
        b0 = np.linalg.inv(m) + 0.05 * np.eye(d)
        init = SourceModel(b0, MvarCoefficients([0.5 * hp for hp in h.lags]))
        b_start, h_start = init.b.copy(), init.h.as_array().copy()
        block = slice(0, d * d) if free == "B" else slice(d * d, None)
        pen = GroupPenaltySpec(0.0 if free == "B" else 2.0)
        (model, _), = fitting._fit_scsa(
            lag_stack(x, p), [pen], (init, None), block=block
        )
        b, hs = model.b, model.h.as_array()
        if free == "B":
            assert np.array_equal(hs, h_start)  # bit for bit
            assert not np.array_equal(b, b_start)
            np.testing.assert_array_equal(b, em_dal.e_step(x, init.h, b0))
        else:
            assert np.array_equal(b, b_start)
            assert not np.array_equal(hs, h_start)
        # the start is not written through
        np.testing.assert_array_equal(init.b, b_start)
        np.testing.assert_array_equal(init.h.as_array(), h_start)


class TestPenaltyGroups:
    @pytest.mark.parametrize("d,p", [(1, 2), (2, 1), (3, 2), (4, 3)])
    def test_matches_loop_layout(self, d, p):
        # reference: one list of lag indices per ordered off-diagonal pair,
        # in the flat [vec(B); vec(H)] layout
        theta_index = d * d + np.arange(p * d * d).reshape(p, d, d)
        want = [
            [d * d + lag * d * d + a * d + f for lag in range(p)]
            for a in range(d) for f in range(d) if a != f
        ]
        np.testing.assert_array_equal(
            penalty_groups(theta_index), np.array(want, dtype=int).reshape(-1, p)
        )


class TestFitScsaEm:
    def test_cost_no_worse_than_scsa(self):
        for seed in (6, 7):
            x, _, _ = mixed_dataset(seed, d=2, p=1, t=600)
            pen = GroupPenaltySpec(2.0)
            scsa = fit_scsa(x, 1, pen)
            em = fit_scsa_em(x, 1, pen)
            assert cost_scsa(em, x, pen) <= cost_scsa(scsa, x, pen) + 1e-9


def two_step_mvarica(x, p):
    """MVARICA as Gomez-Herrero et al. (2008) state it: a least-squares sensor
    MVAR, instantaneous ICA of its residual, then H^(p) = B A^(p) B^-1."""
    d = x.n_channels
    stack = lag_stack(x, p)
    target, design = stack[:d], stack[d:]
    a = np.linalg.lstsq(design.T, target.T, rcond=None)[0].T
    b = fit_ica(TimeSeriesMatrix(target - a @ design)).b
    b_inv = np.linalg.inv(b)
    lags = a.reshape(d, p, d).transpose(1, 0, 2)
    return SourceModel(b, MvarCoefficients([b @ ap @ b_inv for ap in lags]))


class TestFitMvarica:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("seed", [10, 11])
    def test_is_the_two_step_fit(self, seed, p):
        x, _, _ = mixed_dataset(seed, t=1000)
        model, ref = fit_mvarica(x, p), two_step_mvarica(x, p)
        f, f_ref = (nll_csa(source_model_to_filter_bank(m), x) for m in (model, ref))
        assert abs(f - f_ref) <= 1e-9 * abs(f_ref)
        # measured 5e-14; the bound leaves room for rounding drift in the solve
        tol = 1e-6 * np.max(np.abs(ref.b))
        np.testing.assert_allclose(model.b, ref.b, rtol=0, atol=tol)
        np.testing.assert_allclose(
            np.array(model.h.lags), np.array(ref.h.lags), rtol=0, atol=tol
        )

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
        with pytest.raises(DegenerateModelError):
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

    def test_array_of_orders_is_a_sequence(self):
        # lambda_grid takes arrays, and so do the order candidates
        x, _, _ = mixed_dataset(12, d=2, p=1, t=400)
        p, bic = select_order_bic(x, "CSA", np.arange(1, 4))
        want_p, want_bic = select_order_bic(x, "CSA", [1, 2, 3])
        assert p == want_p and dict(bic) == dict(want_bic)
        assert FitRequest("CSA", np.arange(1, 4)).order_candidates.tolist() == [1, 2, 3]


class TestSelectLambdaCv:
    @pytest.mark.parametrize("p", [-1, 1.5])
    def test_order_must_be_a_nonnegative_integer(self, p):
        x, _, _ = mixed_dataset(14, d=2, p=1, t=600)
        with pytest.raises(ValueError, match="orders must be nonnegative integers"):
            select_lambda_cv(x, p, [0.1, 1.0], folds=3)

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

    def test_duplicate_lambdas_are_fitted_once(self):
        x, _, _ = mixed_dataset(15, d=2, p=1, t=600)
        assert select_lambda_cv(x, 1, [0.1, 1.0, 1.0], folds=3) == select_lambda_cv(
            x, 1, [0.1, 1.0], folds=3
        )
        # one distinct value is no choice: fit runs no cross-validation
        res = fit(x, FitRequest("SCSA", [1], lambda_grid=[1.0, 1.0], cv_folds=3))
        assert res.selected_lambda == 1.0 and res.cv_curve == {}

    def test_each_fold_walks_its_grid_with_one_memory(self, monkeypatch, caplog):
        # one L-BFGS memory per fold, carried from λ to λ and holding the
        # full-data CSA pairs at the first, and one DEBUG line per (fold, λ)
        monkeypatch.setattr(estimators, "_worker_count", lambda n_tasks, cap=None: 1)
        real = fitting.minimize_with_group_truncation
        memories = []

        def recorded(*args):
            memories.append((args[-1], args[-1].k))
            return real(*args)

        monkeypatch.setattr(fitting, "minimize_with_group_truncation", recorded)
        x, _, _ = mixed_dataset(15, d=2, p=1, t=600)
        with caplog.at_level(logging.DEBUG, logger="scsa"):
            select_lambda_cv(x, 1, [0.1, 1.0, 10.0], folds=3)
        for fold in range(3):
            walk = memories[3 * fold : 3 * fold + 3]
            assert all(memory is walk[0][0] for memory, _ in walk)
            assert [k > 0 for _, k in walk] == [True, True, True]
        assert len({id(memory) for memory, _ in memories}) == 3
        lines = [r.getMessage() for r in caplog.records]
        lines = [line for line in lines if line.startswith("CV fold")]
        assert len(lines) == 9
        assert all("iterations" in line and "backtracks" in line for line in lines)
        starts = [f"{k} pairs at start" for _, k in memories]
        assert all(start in line for start, line in zip(starts, lines))

    def test_folds_start_from_one_full_data_csa_fit(self, monkeypatch):
        monkeypatch.setattr(estimators, "_worker_count", lambda n_tasks, cap=None: 1)
        calls = []
        real = fitting._fit_csa

        def counted(stack, p, *args, **kwargs):
            calls.append((p, stack.shape[1]))
            return real(stack, p, *args, **kwargs)

        for module in (estimators, fitting):
            monkeypatch.setattr(module, "_fit_csa", counted)
        x, _, _ = mixed_dataset(15, d=2, p=1, t=600)
        select_lambda_cv(x, 1, [0.1, 1.0], folds=3)
        assert calls == [(1, 599)]  # the whole run's lag windows, once
        stack = lag_stack(x, 1)
        start = fitting._scsa_start(stack, 1)
        calls.clear()
        estimators._cv_fold(stack, [0.1, 1.0], np.arange(200, 400), start)
        assert calls == []

    def test_fit_cross_validates_through_select_lambda_cv(self, monkeypatch):
        # fit's CV stage is the public function, given the start fit made;
        # without BIC that start is the one select_lambda_cv makes itself
        monkeypatch.setattr(estimators, "_worker_count", lambda n_tasks, cap=None: 1)
        starts = []
        real = estimators.select_lambda_cv

        def recorded(*args, **kwargs):
            starts.append(kwargs["start"])
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "select_lambda_cv", recorded)
        x, _, _ = mixed_dataset(15, d=2, p=1, t=600)
        res = fit(x, FitRequest("SCSA", [1], [0.1, 1.0], cv_folds=3))
        assert len(starts) == 1 and starts[0] is not None
        assert (res.selected_lambda, res.cv_curve) == real(x, 1, [0.1, 1.0], folds=3)

    def test_fold_walk_validates_nothing(self, monkeypatch):
        # the walk's iterates and its held-out scores skip the condition
        # checks of the model classes
        x, _, _ = mixed_dataset(15, d=2, p=1, t=600)
        stack = lag_stack(x, 1)
        start = fitting._scsa_start(stack, 1)
        checks = []
        real = np.linalg.cond

        def counted(*args, **kwargs):
            checks.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counted)
        estimators._cv_fold(stack, [0.1, 1.0], np.arange(200, 400), start)
        assert checks == []
        fit_scsa(x, 1, GroupPenaltySpec(0.1))  # a returned model is validated
        assert checks

    @settings(max_examples=8, deadline=None)
    @given(
        t=st.integers(40, 240),
        p=st.integers(0, 3),
        folds=st.integers(2, 5),
        fold=st.integers(0, 4),
    )
    def test_fold_is_column_ranges_of_one_stack(self, t, p, folds, fold):
        # a fold's held-out scores are bit for bit those of the same walk on
        # the stacks of its runs, side by side, and of its held-out block
        x, _, _ = mixed_dataset(t, d=2, p=1, t=t)
        held = estimators._cv_blocks(t, folds, p)[fold % folds]
        lambdas = [0.1, 1.0]
        stack = lag_stack(x, p)
        start = fitting._scsa_start(stack, p)
        runs = [r for r in (x.data[:, : held[0]], x.data[:, held[-1] + 1 :]) if r.size]
        train = np.hstack([lag_stack(r, p) for r in runs])
        held_stack = lag_stack(x.data[:, held], p)
        walk = fitting._fit_scsa(
            train, [GroupPenaltySpec(lam) for lam in lambdas],
            (start[0], start[1].copy()),
        )
        want = [cost_scsa(model, held_stack, GroupPenaltySpec()) for model, _ in walk]
        assert estimators._cv_fold(stack, lambdas, held, start) == want

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


def two_workers(n_tasks, cap=None):
    """A worker count that forks two workers even on a one-CPU host."""
    return min(n_tasks, 2)


def assert_children_reaped():
    """No child of this process is running or left unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def squared_after(i, seconds):
    time.sleep(seconds)
    return i * i


def first_fails_last(i):
    if i == 0:
        time.sleep(0.3)
        raise KeyError("task 0")
    if i == 1:
        raise ValueError("task 1")
    return i


class TestForkMap:
    """``_pool_map`` with two real forked workers."""

    @pytest.fixture(autouse=True)
    def two(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # the maps below fork, so no task runs (or exits) in this process
        assert estimators._worker_count(2) == 2
        yield
        assert_children_reaped()

    def test_results_in_task_order(self):
        tasks = [(i, 0.02 * (i % 3)) for i in range(9)]
        assert estimators._pool_map(squared_after, tasks) == [i * i for i in range(9)]

    def test_first_failure_in_task_order_is_raised(self):
        # task 1 fails first, in one worker; task 0 fails later, in the other
        with pytest.raises(KeyError, match="task 0") as info:
            estimators._pool_map(first_fails_last, [(i,) for i in range(4)])
        # the worker's traceback comes with it
        assert "in first_fails_last" in str(info.value.__cause__)

    def test_worker_that_exits_raises_scsa_error(self, monkeypatch, tmp_path, capsys):
        def exits(i):
            if i == 1:
                os._exit(3)
            return i

        with pytest.raises(ScsaError, match="status 3") as info:
            estimators._pool_map(exits, [(i,) for i in range(4)])
        assert type(info.value) is ScsaError
        # the CLI reports it as an estimator failure
        from scsa import cli

        monkeypatch.setattr(cli, "_bench_run", lambda *task: os._exit(3))
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "methods": [{"method": "CSA"}], "repetitions": 2, "parallelism": 2,
            "output_dir": str(tmp_path / "out"),
        }))
        assert cli.main(["bench", str(config)]) == cli.EXIT_ESTIMATOR
        assert "status 3" in capsys.readouterr().err

    def test_more_tasks_than_a_pipe_buffer_holds(self):
        n = 20_000
        assert estimators._pool_map(int, [(i,) for i in range(n)]) == list(range(n))

    def test_nested_map_runs_serially(self):
        def pids(_):
            return os.getpid(), estimators._pool_map(os.getpid, [(), ()])

        for pid, inner in estimators._pool_map(pids, [(0,), (1,)]):
            assert pid != os.getpid() and inner == [pid, pid]


class TestWorkerPool:
    def test_pooled_equals_serial(self, monkeypatch):
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        req = FitRequest(
            method="SCSA", order_candidates=[1, 2, 3], lambda_grid=[0.1, 1.0, 10.0],
            cv_folds=3,
        )

        def run():
            return (
                select_order_bic(x, "CSA", [1, 2, 3]),
                select_lambda_cv(x, 2, [0.1, 1.0, 10.0], folds=3),
                fit(x, req),
            )

        monkeypatch.setattr(estimators, "_worker_count", two_workers)
        pooled = run()
        monkeypatch.setattr(estimators, "_worker_count", lambda n_tasks, cap=None: 1)
        serial = run()
        assert pooled[0] == serial[0]
        assert pooled[1] == serial[1]
        a, b = pooled[2], serial[2]
        assert (a.selected_order, a.selected_lambda) == (b.selected_order, b.selected_lambda)
        assert a.bic_per_order == b.bic_per_order and a.cv_curve == b.cv_curve
        np.testing.assert_array_equal(a.model.b, b.model.b)
        np.testing.assert_array_equal(np.array(a.model.h.lags), np.array(b.model.h.lags))

    @pytest.mark.parametrize(
        "call",
        [
            'fit(x, FitRequest("SCSA", [1, 2], [0.1, 1.0], cv_folds=2))',
            'select_order_bic(x, "CSA", [1, 2])',  # a map outside a fit, as in bench
        ],
        ids=["fit", "bic"],
    )
    def test_workers_inherit_lapack(self, tmp_path, call):
        # a fresh process: ``import scsa`` binds no LAPACK, and each map binds
        # it before it forks, so no worker imports scipy for its first task
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        np.save(tmp_path / "x.npy", x.data)
        log = tmp_path / "tasks.log"
        code = f"""
import os, sys
import numpy as np
from scsa import estimators
from scsa.estimators import FitRequest, fit, select_order_bic
from scsa.model import TimeSeriesMatrix

bic_fit, cv_fold = estimators._bic_fit, estimators._cv_fold

def seen():
    with open({str(log)!r}, "a") as f:
        print(os.getpid(), "scipy.linalg.lapack" in sys.modules, file=f)

def bic_task(*args):
    seen()
    return bic_fit(*args)

def cv_task(*args):
    seen()
    return cv_fold(*args)

estimators._bic_fit, estimators._cv_fold = bic_task, cv_task
estimators._worker_count = lambda n_tasks, cap=None: min(n_tasks, 2)
print("scipy.linalg.lapack" in sys.modules, os.getpid())
x = TimeSeriesMatrix(np.load({str(tmp_path / "x.npy")!r}))
{call}
"""
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(estimators.__file__).parents[1])},
        )
        loaded, parent = out.stdout.split()
        assert loaded == "False"
        first = {}
        for line in log.read_text().splitlines():
            pid, found = line.split()
            first.setdefault(pid, found)
        assert first and parent not in first
        assert set(first.values()) == {"True"}

    def test_worker_count(self, monkeypatch):
        assert estimators._worker_count(1) == 1
        assert estimators._worker_count(8, cap=1) == 1
        assert estimators._worker_count(8) == min(8, len(os.sched_getaffinity(0)))
        # inside a forked worker, on any host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert estimators._pool_map(estimators._worker_count, [(8,), (8,)]) == [1, 1]

    def test_failed_order_is_excluded(self, monkeypatch):
        x, _, _ = mixed_dataset(12, d=2, p=1, t=400)
        real = estimators._fit_csa

        def fails_at_two(stack, p, *args):
            if p == 2:
                raise IllPosedError("no fit at order 2")
            return real(stack, p, *args)

        monkeypatch.setattr(estimators, "_worker_count", two_workers)
        monkeypatch.setattr(estimators, "_fit_csa", fails_at_two)
        with pytest.warns(UserWarning, match="order 2 failed and was excluded"):
            _, bic = select_order_bic(x, "CSA", [1, 2, 3])
        assert set(bic) == {1, 3}

    def test_task_error_keeps_its_type(self, monkeypatch):
        x, _, _ = mixed_dataset(15, d=2, p=1, t=600)

        def fails(*args, **kwargs):
            raise NumericError("no SCSA fit")

        monkeypatch.setattr(estimators, "_worker_count", two_workers)
        # the folds' solves fail in the workers; the CSA start, fitted here,
        # does not
        monkeypatch.setattr(estimators, "_fit_scsa", fails)
        with pytest.raises(NumericError, match="no SCSA fit"):
            select_lambda_cv(x, 1, [0.1, 1.0], folds=4)
        assert_children_reaped()


class TestOnePoolPerFit:
    GRID = [0.1, 1.0, 10.0]

    @pytest.fixture
    def forks(self, monkeypatch):
        """The children forked while the test runs, at two workers."""
        made = []
        real = os.fork

        def counted():
            pid = real()
            if pid:
                made.append(pid)
            return pid

        monkeypatch.setattr(estimators, "_worker_count", two_workers)
        monkeypatch.setattr(os, "fork", counted)
        return made

    def test_bic_and_cv_fork_two_workers_each(self, forks, monkeypatch):
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        before_cv = []
        real = estimators.select_lambda_cv

        def counted(*args, **kwargs):
            before_cv.append(len(forks))
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "select_lambda_cv", counted)
        fit(x, FitRequest("SCSA", [1, 2, 3], self.GRID, cv_folds=3))
        assert before_cv == [2] and len(forks) == 4
        assert_children_reaped()

    def test_no_pool_without_a_stage(self, forks):
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        fit(x, FitRequest("SCSA", [1], [1.0], cv_folds=3))
        assert forks == []

    def test_failed_cv_task_keeps_its_type(self, forks, monkeypatch):
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)

        def fails(*args, **kwargs):
            raise NumericError("no SCSA fit")

        monkeypatch.setattr(estimators, "_fit_scsa", fails)
        with pytest.raises(NumericError, match="no SCSA fit"):
            fit(x, FitRequest("SCSA", [1, 2, 3], self.GRID, cv_folds=3))
        assert len(forks) == 4
        assert_children_reaped()

    @pytest.mark.parametrize(
        "method, workers",
        [("SCSA", 2), ("SCSA_EM", 2), ("SCSA", 1), ("SCSA_EM", 1)],
        ids=["SCSA", "SCSA_EM", "SCSA-serial", "SCSA_EM-serial"],
    )
    def test_reused_warm_start_is_bit_identical(
        self, method, workers, forks, monkeypatch
    ):
        if workers == 1:
            monkeypatch.setattr(estimators, "_worker_count", lambda n, cap=None: 1)
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        csa_fits = []
        real = fitting._fit_csa

        def counted(*args, **kwargs):
            csa_fits.append(args[1])
            return real(*args, **kwargs)

        for module in (estimators, fitting):
            monkeypatch.setattr(module, "_fit_csa", counted)
        scored = []
        real_bic = estimators.select_order_bic

        def recorded(*args):
            p, bic = real_bic(*args)
            memory = bic.fits[p][1].memory
            scored.append((memory, memory.k, memory.sy.copy(), memory.small.copy()))
            return p, bic

        monkeypatch.setattr(estimators, "select_order_bic", recorded)
        res = fit(x, FitRequest(method, [1, 2, 3], self.GRID, cv_folds=3))
        # BIC fitted each order once, in the workers if there were any; the
        # folds and the final fit started from BIC's CSA fit, and no stage
        # changed the pairs BIC returned with it
        assert csa_fits == ([] if workers == 2 else [1, 2, 3])
        (memory, k, sy, small), = scored
        assert memory.k == k
        np.testing.assert_array_equal(memory.sy, sy)
        np.testing.assert_array_equal(memory.small, small)
        p, pen = res.selected_order, GroupPenaltySpec(res.selected_lambda)
        if method == "SCSA":
            cold = fit_scsa(x, p, pen)
        else:
            cold, _ = em_dal.fit_scsa_em(x, p, pen)
        np.testing.assert_array_equal(res.model.b, cold.b)
        np.testing.assert_array_equal(np.array(res.model.h.lags), np.array(cold.h.lags))
        assert type(res.bic_per_order) is dict

    def test_one_order_fit_is_the_fit_without_init(self):
        # without BIC, the final fit starts from its own CSA fit and that
        # solve's pairs, as fit_scsa does
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        res = fit(x, FitRequest("SCSA", [2], [0.5]))
        stack = lag_stack(x, 2)
        (cold, trace), = fitting._fit_scsa(
            stack, [GroupPenaltySpec(0.5)], fitting._scsa_start(stack, 2)
        )
        np.testing.assert_array_equal(res.model.b, cold.b)
        np.testing.assert_array_equal(np.array(res.model.h.lags), np.array(cold.h.lags))
        assert res.trace == trace

    def test_bic_scores_carry_each_orders_fit(self, forks):
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        _, bic = select_order_bic(x, "CSA", [1, 2])
        assert sorted(bic.fits) == [1, 2] == sorted(bic)
        for p in bic.fits:
            model = bic.fits[p][0]
            cold = fit_csa(x, p)
            np.testing.assert_array_equal(model.b, cold.b)
            np.testing.assert_array_equal(np.array(model.h.lags), np.array(cold.h.lags))


    @pytest.mark.parametrize("method", ["CSA", "MVARICA"])
    def test_unpenalized_fit_is_bics(self, method, forks, monkeypatch):
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        in_process = []
        real = fitting._fit_csa

        def counted(*args, **kwargs):
            in_process.append(args[1])
            return real(*args, **kwargs)

        for module in (estimators, fitting):
            monkeypatch.setattr(module, "_fit_csa", counted)
        res = fit(x, FitRequest(method, [1, 2, 3]))
        # every order was fitted in the workers, and none again here
        assert in_process == []
        p = res.selected_order
        model, trace = estimators._order_fit(lag_stack(x, p), method, p)
        np.testing.assert_array_equal(res.model.b, model.b)
        np.testing.assert_array_equal(np.array(res.model.h.lags), np.array(model.h.lags))
        assert res.trace == trace

    def test_repeated_order_runs_no_bic(self, monkeypatch):
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        calls = []
        real = estimators.select_order_bic

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(estimators, "select_order_bic", counted)
        res = fit(x, FitRequest("CSA", [2, 2]))
        assert calls == []
        assert res.bic_per_order == {} and res.selected_order == 2

    def test_scsa_em_stacks_its_data_once(self, monkeypatch):
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        calls = []
        real = estimators.lag_stack

        def counted(data, p):
            calls.append(p)
            return real(data, p)

        for module in (estimators, cost):
            monkeypatch.setattr(module, "lag_stack", counted)
        fit(x, FitRequest("SCSA_EM", [2], [1.0]))
        assert calls == [2]

    def test_cv_stacks_its_data_once(self, monkeypatch):
        # one stack in fit, for the start and the final fit, and one in
        # select_lambda_cv, whose folds are column ranges of it
        monkeypatch.setattr(estimators, "_worker_count", lambda n_tasks, cap=None: 1)
        x, _, _ = mixed_dataset(18, d=2, p=1, t=600)
        calls = []
        real = estimators.lag_stack

        def counted(data, p):
            calls.append(p)
            return real(data, p)

        monkeypatch.setattr(estimators, "lag_stack", counted)
        fit(x, FitRequest("SCSA", [2], [0.1, 1.0], cv_folds=3))
        assert calls == [2, 2]


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
        # non-integers are not rounded: order 2.5 would fit order 2, and 2.5
        # folds would run 2 folds and divide the CV curve by 2.5
        with pytest.raises(ValueError, match="orders must be nonnegative integers"):
            FitRequest("CSA", [2.5])
        with pytest.raises(ValueError, match="cv_folds must be an integer"):
            FitRequest("SCSA", [1], cv_folds=2.5)
        x, _, _ = mixed_dataset(17, d=2, p=1, t=300)
        with pytest.raises(ValueError, match="folds must be an integer"):
            select_lambda_cv(x, 1, [0.1, 1.0], folds=2.5)

    def test_bool_is_not_an_order(self):
        # bool is a numbers.Integral: True would run as order 1
        x, _, _ = mixed_dataset(17, d=2, p=1, t=300)
        with pytest.raises(ValueError, match="orders must be nonnegative integers"):
            FitRequest("CSA", [True])
        with pytest.raises(ValueError, match="orders must be nonnegative integers"):
            select_order_bic(x, "CSA", [True, 2])
        with pytest.raises(ValueError, match="nonnegative integer"):
            lag_stack(x, True)
        with pytest.raises(ValueError, match="cv_folds must be an integer"):
            FitRequest("SCSA", [1], cv_folds=True)

    def test_numpy_integers_are_orders_and_folds(self):
        x, _, _ = mixed_dataset(17, d=2, p=1, t=300)
        req = FitRequest("SCSA", [np.int64(1), np.int64(2)], [0.1, 1.0], np.int64(2))
        want = fit(x, FitRequest("SCSA", [1, 2], [0.1, 1.0], 2))
        got = fit(x, req)
        assert got.selected_order == want.selected_order
        assert got.cv_curve == want.cv_curve
        np.testing.assert_array_equal(got.model.b, want.model.b)
        assert lag_stack(x, np.int64(2)).shape == (6, 298)

    @pytest.mark.parametrize(
        "facade",
        [
            lambda x: fit_csa(x, -1),
            lambda x: fit_mvarica(x, -1),
            lambda x: fit_scsa(x, 1.5, GroupPenaltySpec(1.0)),
        ],
        ids=["csa", "mvarica", "scsa"],
    )
    def test_facades_check_their_order(self, facade):
        # each facade is fit on one FitRequest, which checks the order
        x, _, _ = mixed_dataset(17, d=2, p=1, t=300)
        with pytest.raises(ValueError, match="orders must be nonnegative integers"):
            facade(x)

    @pytest.mark.parametrize(
        "grid", ["auto", [], [float("nan")], [1.0, float("inf")], [1.0, -0.5]]
    )
    def test_lambda_grid_validation(self, grid):
        with pytest.raises(ValueError, match="lambda_grid"):
            FitRequest(method="SCSA", lambda_grid=grid)

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
            lambda *a, init, **k: one_step(*a, em_steps=1, init=start, **k),
        )
        res = fit(x, req)
        assert res.trace.iterations == 2
        assert res.trace.converged == em_dal.em_converged(res.trace.value_history)
        assert not res.trace.converged

    @pytest.mark.parametrize(
        "method,kernel", [("CSA", "grad_csa"), ("SCSA", "grad_scsa")]
    )
    def test_stagnation_is_reported(self, method, kernel, monkeypatch, caplog):
        # every point but the start leaves the domain, so the first line
        # search rejects all its trials
        x, _, _ = mixed_dataset(17, d=2, p=1, t=500)
        real = getattr(fitting, kernel)
        calls = []

        def start_only(*args):
            calls.append(args)
            if len(calls) > 1:
                raise NumericError("outside the domain")
            return real(*args)

        monkeypatch.setattr(fitting, kernel, start_only)
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


def test_only_the_front_ends_import_estimators():
    # the fit core lives in scsa.fitting, so the modules below the facade
    # (em_dal above all, whose half-steps are block solves of that core)
    # need no import of estimators, at module level or inside a function
    import ast

    importers = set()
    for path in pathlib.Path(estimators.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # every module is in the one package, so relative is scsa.
                base = f"scsa.{node.module or ''}" if node.level else node.module
                base = base.rstrip(".")
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if "scsa.estimators" in names:
                importers.add(path.stem)
    assert importers == {"cli", "__init__"}
