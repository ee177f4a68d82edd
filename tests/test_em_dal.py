import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from scsa import cost
from scsa.cost import GroupPenaltySpec, cost_scsa, nll_csa
from scsa.em_dal import (
    e_step,
    fit_scsa_em,
    m_loss,
    m_loss_conjugate,
    m_loss_conjugate_grad_hess,
    m_step_dal,
)
from scsa.model import (
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    lag_stack,
    sample_sech,
    simulate_sources,
    source_model_to_filter_bank,
)
from scsa.optim import keep_last_on_stagnation, minimize

from test_model import stable_random_mvar


def conjugate_oracle(a, s):
    """Numerical Legendre transform of the sech loss at the negated dual.

    The closed form pairs with -a*s, i.e. it is the transform evaluated at
    -a: sup over y of (-a*y + log(sech(y - s) / pi)), located by coarse grid
    plus bounded refinement of the concave objective.
    """

    def neg(y):
        return a * y + np.log(np.pi) + np.log(np.cosh(y - s))

    grid = s + np.linspace(-30, 30, 2001)
    y0 = grid[np.argmin([neg(y) for y in grid])]
    res = minimize_scalar(neg, bracket=(y0 - 0.1, y0, y0 + 0.1), method="brent")
    return -res.fun


class TestMLoss:
    def test_perfect_prediction(self):
        s = np.random.default_rng(0).standard_normal((3, 7))
        assert m_loss(s, s) == pytest.approx(21 * np.log(np.pi), rel=1e-12)

    def test_unit_residual_hand_value(self):
        got = m_loss(np.array([[1.0]]), np.array([[0.0]]))
        assert got == pytest.approx(np.log(np.pi) + np.log(np.cosh(1.0)), rel=1e-12)

    def test_matches_cost_scsa_data_term(self):
        rng = np.random.default_rng(1)
        d, p, t = 3, 2, 30
        h = stable_random_mvar(rng, d, p)
        b = np.eye(d) + 0.2 * rng.standard_normal((d, d))
        model = SourceModel(b=b, h=h)
        x = TimeSeriesMatrix(rng.standard_normal((d, t)))
        s = b @ x.data
        s_tilde = np.zeros((d, t - p))
        for lag in range(1, p + 1):
            s_tilde += h.lags[lag - 1] @ s[:, p - lag : t - lag]
        data_term = m_loss(s_tilde, s[:, p:])
        want = cost_scsa(model, x, GroupPenaltySpec(0.0)) - (p - t) * np.log(
            abs(np.linalg.det(b))
        )
        assert data_term == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            m_loss(np.zeros((2, 3)), np.zeros((2, 4)))


class TestMLossConjugate:
    def test_zero_dual_value(self):
        a = np.zeros((2, 3))
        s = np.random.default_rng(2).standard_normal((2, 3))
        assert m_loss_conjugate(a, s) == pytest.approx(-6 * np.log(np.pi), rel=1e-12)

    def test_matches_legendre_oracle(self):
        for a in [-0.9, -0.5, 0.0, 0.5, 0.9]:
            for s in [-2.0, 0.0, 3.0]:
                closed = m_loss_conjugate(np.array([[a]]), np.array([[s]]))
                assert closed == pytest.approx(conjugate_oracle(a, s), abs=1e-8)

    def test_symmetric_in_dual_at_zero_sources(self):
        rng = np.random.default_rng(3)
        a = 0.8 * rng.uniform(-1, 1, (3, 4))
        s = np.zeros((3, 4))
        assert m_loss_conjugate(a, s) == pytest.approx(
            m_loss_conjugate(-a, s), rel=1e-12
        )

    def test_endpoint_limit(self):
        # x log x -> 0 keeps the value finite at |a| = 1
        val = m_loss_conjugate(np.array([[1.0]]), np.array([[0.0]]))
        assert np.isfinite(val)

    def test_biconjugate_recovers_loss(self):
        # sup over a of (-a s_tilde - conjugate_entry(a; s)) must equal the
        # per-entry loss; scan a on a fine grid with refinement.
        for s in [-1.0, 0.0, 2.0]:
            for s_tilde in [-2.0, 0.3, 1.5]:

                def neg(a):
                    return a * s_tilde + m_loss_conjugate(
                        np.array([[a]]), np.array([[s]])
                    )

                res = minimize_scalar(neg, bounds=(-1 + 1e-12, 1 - 1e-12), method="bounded",
                                      options={"xatol": 1e-12})
                got = -res.fun
                want = m_loss(np.array([[s_tilde]]), np.array([[s]]))
                assert got == pytest.approx(want, abs=1e-6)


class TestConjugateGradHess:
    def test_zero_point(self):
        g, h = m_loss_conjugate_grad_hess(np.zeros((1, 1)), np.zeros((1, 1)))
        assert g[0, 0] == 0.0
        # second derivative of the closed form (and of the gradient) at 0
        assert h[0, 0] == pytest.approx(1.0)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(4)
        a = 0.9 * rng.uniform(-1, 1, (2, 5))
        s = rng.standard_normal((2, 5))
        g, _ = m_loss_conjugate_grad_hess(a, s)
        eps = 1e-7
        for i in range(2):
            for j in range(5):
                ap = a.copy()
                ap[i, j] += eps
                am = a.copy()
                am[i, j] -= eps
                num = (m_loss_conjugate(ap, s) - m_loss_conjugate(am, s)) / (2 * eps)
                assert g[i, j] == pytest.approx(num, abs=1e-6)

    def test_hessian_finite_differences(self):
        rng = np.random.default_rng(5)
        a = 0.8 * rng.uniform(-1, 1, (1, 8))
        s = rng.standard_normal((1, 8))
        _, h = m_loss_conjugate_grad_hess(a, s)
        eps = 1e-6
        for j in range(8):
            ap = a.copy()
            ap[0, j] += eps
            am = a.copy()
            am[0, j] -= eps
            gp, _ = m_loss_conjugate_grad_hess(ap, s)
            gm, _ = m_loss_conjugate_grad_hess(am, s)
            num = (gp[0, j] - gm[0, j]) / (2 * eps)
            assert h[0, j] == pytest.approx(num, rel=1e-5)


def m_step_objective(h, s_data, p, pen):
    d = s_data.shape[0]
    model_cost = 0.0
    s_tilde = np.zeros((d, s_data.shape[1] - p))
    for lag in range(1, p + 1):
        s_tilde += h.lags[lag - 1] @ s_data[:, p - lag : s_data.shape[1] - lag]
    loss = m_loss(s_tilde, s_data[:, p:])
    norms = np.sqrt(sum(hp**2 for hp in h.lags))
    off = float(np.sum(norms)) - float(np.trace(norms))
    return loss + pen.lam * off


def m_step_grads(h, s_data, p):
    """Smooth M-step gradient as a (P, D, D) array, laid out like h.as_array()."""
    t = s_data.shape[1]
    s_tilde = np.zeros((s_data.shape[0], t - p))
    for lag in range(1, p + 1):
        s_tilde += h.lags[lag - 1] @ s_data[:, p - lag : t - lag]
    resid = np.tanh(s_tilde - s_data[:, p:])
    return np.stack([resid @ s_data[:, p - lag : t - lag].T for lag in range(1, p + 1)])


class TestMStepDal:
    def _sources(self, seed, d=3, p=2, t=400):
        rng = np.random.default_rng(seed)
        h = stable_random_mvar(rng, d, p)
        s, _ = simulate_sources(h, T=t, seed=seed)
        return s, h

    def test_huge_lambda_zeroes_offdiagonal(self):
        s, _ = self._sources(10)
        pen = GroupPenaltySpec(1e6)
        h = m_step_dal(s, 2, pen)
        for hp in h.lags:
            off = hp - np.diag(np.diag(hp))
            assert np.all(off == 0.0)
        # unpenalized diagonal solves the per-source autoregression: its
        # smooth gradient must vanish
        d, t = s.data.shape
        s_tilde = np.zeros((d, t - 2))
        for lag in range(1, 3):
            s_tilde += h.lags[lag - 1] @ s.data[:, 2 - lag : t - lag]
        resid = np.tanh(s_tilde - s.data[:, 2:])
        for lag in range(1, 3):
            g = resid @ s.data[:, 2 - lag : t - lag].T
            assert np.max(np.abs(np.diag(g))) < 1e-5

    def test_zero_lambda_matches_smooth_solver(self):
        s, h_true = self._sources(11, d=2, p=1, t=300)
        pen = GroupPenaltySpec(0.0)
        h = m_step_dal(s, 1, pen)
        got = m_step_objective(h, s.data, 1, pen)

        # smooth quasi-Newton reference on the same objective
        d = 2

        def obj(theta):
            hh = MvarCoefficients([theta.reshape(d, d)])
            val = m_step_objective(hh, s.data, 1, pen)
            s_tilde = theta.reshape(d, d) @ s.data[:, :-1]
            grad = np.tanh(s_tilde - s.data[:, 1:]) @ s.data[:, :-1].T
            return val, grad.ravel()

        theta, _ = keep_last_on_stagnation(
            lambda: minimize(obj, np.zeros(4), grad_tol=1e-10),
            "reference solve",
        )
        want = obj(theta)[0]
        assert got == pytest.approx(want, abs=1e-6)

    def test_support_recovery_with_kkt(self):
        rng = np.random.default_rng(12)
        h_true = MvarCoefficients([np.array([[0.5, 0.8], [0.0, 0.4]])])
        s, _ = simulate_sources(h_true, T=2000, seed=99)
        pen = GroupPenaltySpec(40.0)
        h = m_step_dal(s, 1, pen)
        assert h.lags[0][1, 0] == 0.0
        assert h.lags[0][0, 1] != 0.0

    def test_kkt_on_random_problems(self):
        # the off-diagonal groups satisfy the group-lasso KKT conditions and
        # the unpenalized diagonal coefficients a zero gradient
        lam, d, p = 5.0, 3, 2
        pen = GroupPenaltySpec(lam)
        for seed in range(5):
            s, _ = self._sources(20 + seed, d=d, p=p, t=300)
            h = m_step_dal(s, p, pen)
            grads = m_step_grads(h, s.data, p)
            hs = h.as_array()
            norms = np.sqrt(np.sum(hs**2, axis=0))
            for a in range(d):
                for f in range(d):
                    g = grads[:, a, f]
                    if a == f:
                        assert np.max(np.abs(g)) <= 1e-6 * max(
                            1.0, np.max(np.abs(s.data))
                        ) * 10
                    elif norms[a, f] == 0.0:
                        assert np.linalg.norm(g) <= lam * (1 + 1e-6)
                    else:
                        resid_g = g + lam * hs[:, a, f] / norms[a, f]
                        assert np.max(np.abs(resid_g)) <= 1e-6 * 10

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        perm=st.permutations(range(3)),
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
    )
    def test_signed_permutation_equivariance(self, seed, perm, signs):
        # relabelling the sources by a signed permutation Pi maps the
        # sech loss and the group penalty onto themselves, so the
        # coefficients must map to Pi H Pi^T
        s, _ = self._sources(seed, d=3, p=2, t=300)
        pen = GroupPenaltySpec(5.0)
        pi = np.eye(3)[list(perm)] * np.array(signs)[:, None]
        h = m_step_dal(s, 2, pen)
        h_pi = m_step_dal(TimeSeriesMatrix(pi @ s.data), 2, pen)
        for hp, hp_pi in zip(h.lags, h_pi.lags):
            np.testing.assert_allclose(hp_pi, pi @ hp @ pi.T, rtol=0, atol=1e-6)

    def test_same_solution_as_h_block_at_another_demixing(self):
        # at B != I on x, with s = B x, the SCSA cost is the M-step cost
        # minus the constant (T - P) log|det B|, so both H-block solves
        # reach the same objective
        from scsa.model import lag_stack

        d, p, t = 3, 2, 300
        s, _ = self._sources(32, d=d, p=p, t=t)
        b = np.eye(d) + 0.3 * np.random.default_rng(32).standard_normal((d, d))
        x = TimeSeriesMatrix(np.linalg.solve(b, s.data))
        pen = GroupPenaltySpec(5.0)
        h = m_step_dal(s, p, pen)
        init = SourceModel(b, MvarCoefficients(list(np.zeros((p, d, d)))))
        h_at_b = m_step_dal(lag_stack(x, p), p, pen, init)
        want = cost_scsa(SourceModel(np.eye(d), h), s, pen)
        logdet = np.linalg.slogdet(b)[1]
        got = cost_scsa(SourceModel(b, h_at_b), x, pen) + (t - p) * logdet
        assert got == pytest.approx(want, rel=1e-9)

    def test_order_zero(self):
        s, _ = self._sources(30)
        h = m_step_dal(s, 0, GroupPenaltySpec(1.0))
        assert h.order == 0


class TestEStep:
    def test_stagnation_keeps_the_start_and_is_logged(self, monkeypatch, caplog):
        import logging

        from scsa import fitting
        from scsa.exceptions import NumericError

        rng = np.random.default_rng(41)
        x = TimeSeriesMatrix(rng.standard_normal((2, 200)))
        h = MvarCoefficients([0.2 * np.eye(2)])
        real = fitting.grad_scsa
        calls = []

        def start_only(*args):  # every point but the start leaves the domain
            calls.append(args)
            if len(calls) > 1:
                raise NumericError("outside the domain")
            return real(*args)

        # the E-step is the B-block solve of the SCSA fit, which calls this
        monkeypatch.setattr(fitting, "grad_scsa", start_only)
        b0 = np.array([[1.0, 0.2], [0.1, 1.0]])
        with caplog.at_level(logging.DEBUG, logger="scsa"):
            b = e_step(x, h, b0)
        np.testing.assert_array_equal(b, b0)
        assert "E-step stagnated" in caplog.text

    def test_scalar_scale_estimation(self):
        # H = 0, D = 1: maximum-likelihood scale under the sech density;
        # compare against a bounded golden-section oracle.
        rng = np.random.default_rng(40)
        from scsa.model import sample_sech

        x_data = 2.5 * sample_sech(rng, (1, 500))
        x = TimeSeriesMatrix(x_data)
        h = MvarCoefficients([])
        b = e_step(x, h, np.array([[1.0]]), grad_tol=1e-12)

        def scalar_nll(w):
            t = x_data.shape[1]
            return -t * np.log(abs(w)) + np.sum(
                np.log(np.pi) + np.log(np.cosh(w * x_data))
            )

        res = minimize_scalar(scalar_nll, bounds=(1e-3, 10), method="bounded",
                              options={"xatol": 1e-12})
        # the likelihood is even in w, so +/- the oracle scale are both optima
        assert abs(b[0, 0]) == pytest.approx(res.x, abs=1e-8)

    def test_near_stationary_at_truth_large_t(self):
        # starting from the true demixing, the conditional maximizer must
        # stay close to it (finite-sample fluctuation only)
        rng = np.random.default_rng(41)
        d, p = 3, 2
        h = stable_random_mvar(rng, d, p)
        s, _ = simulate_sources(h, T=2000, seed=7)
        m = rng.standard_normal((d, d)) + 2 * np.eye(d)
        x = TimeSeriesMatrix(m @ s.data)
        b_true = np.linalg.inv(m)
        b = e_step(x, h, b_true, grad_tol=1e-8)
        rel = np.linalg.norm(b - b_true) / np.linalg.norm(b_true)
        assert rel < 0.1

    def test_perturbed_starts_agree(self):
        # the objective is convex near the incumbent basin; two perturbed
        # starts must reach the same value (global convexity does not hold:
        # the log-det term is not convex in B)
        rng = np.random.default_rng(42)
        d, p = 2, 1
        h = stable_random_mvar(rng, d, p)
        s, _ = simulate_sources(h, T=500, seed=3)
        m = rng.standard_normal((d, d)) + 2 * np.eye(d)
        x = TimeSeriesMatrix(m @ s.data)
        b_true = np.linalg.inv(m)
        vals = []
        for _ in range(2):
            b0 = b_true + 0.2 * rng.standard_normal((d, d))
            b = e_step(x, h, b0, grad_tol=1e-10)
            vals.append(cost_scsa(SourceModel(b, h), x, GroupPenaltySpec(0.0)))
        assert vals[0] == pytest.approx(vals[1], abs=1e-8)


class TestFitScsaEm:
    def _dataset(self, seed, d=3, p=2, t=800):
        rng = np.random.default_rng(seed)
        h = stable_random_mvar(rng, d, p)
        s, _ = simulate_sources(h, T=t, seed=seed)
        m = rng.standard_normal((d, d)) + 2 * np.eye(d)
        x = TimeSeriesMatrix(m @ s.data)
        return x, np.linalg.inv(m), h

    def test_zero_steps_returns_warm_start(self):
        x, b_true, h_true = self._dataset(50)
        init = SourceModel(b=b_true, h=h_true)
        model, hist = fit_scsa_em(x, 2, GroupPenaltySpec(0.1), em_steps=0, init=init)
        assert model is init
        assert len(hist) == 1

    def test_half_step_costs_nonincreasing(self):
        for seed in range(3):
            x, b_true, h_true = self._dataset(60 + seed, d=2, p=1, t=400)
            init = SourceModel(
                b=b_true + 0.1 * np.random.default_rng(seed).standard_normal((2, 2)),
                h=MvarCoefficients([np.zeros((2, 2))]),
            )
            _, hist = fit_scsa_em(
                x, 1, GroupPenaltySpec(0.5), em_steps=5, init=init
            )
            diffs = np.diff(np.array(hist))
            assert np.all(diffs <= 0)

    def test_stacks_the_data_once(self, monkeypatch):
        x, b_true, _ = self._dataset(70, d=2, p=1, t=400)
        init = SourceModel(b=b_true + 0.1, h=MvarCoefficients([np.zeros((2, 2))]))
        calls = []
        real = cost.lag_stack

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(cost, "lag_stack", counted)
        _, hist = fit_scsa_em(x, 1, GroupPenaltySpec(0.5), em_steps=5, init=init)
        assert len(hist) > 3  # more than one EM step ran
        assert calls == [1]


class TestDataArgument:
    """The entry points read their data by the kernels' rule
    (:func:`scsa.cost._as_stack`): a ``TimeSeriesMatrix`` is stacked, and an
    ndarray is a lag stack whose channel count comes from the model beside
    it."""

    def _raw(self):
        return sample_sech(np.random.default_rng(80), (4, 300))  # 4 channels

    def test_raw_array_without_a_model_is_rejected(self):
        # four rows would be read as the order-1 stack of two channels
        raw, pen = self._raw(), GroupPenaltySpec(1.0)
        with pytest.raises(ValueError, match="takes a model"):
            fit_scsa_em(raw, 1, pen)
        with pytest.raises(ValueError, match="takes a model"):
            m_step_dal(raw, 1, pen)

    def test_stack_must_fit_the_demixing_matrix(self):
        # the order-1 stack of four channels has 8 rows, not the 4 of a
        # two-source model
        x, h = TimeSeriesMatrix(self._raw()), MvarCoefficients([np.zeros((2, 2))])
        with pytest.raises(ValueError, match="8 rows, expected 4"):
            e_step(x, h, np.eye(2))
        with pytest.raises(ValueError, match="8 rows, expected 4"):
            e_step(lag_stack(x, 1), h, np.eye(2))

    def test_series_and_stack_beside_a_model_are_read(self):
        x = TimeSeriesMatrix(self._raw())
        pen = GroupPenaltySpec(1.0)
        model, _ = fit_scsa_em(x, 1, pen, em_steps=1)
        assert model.dim == 4
        stacked, _ = fit_scsa_em(lag_stack(x, 1), 1, pen, em_steps=1, init=model)
        assert stacked.dim == 4
        assert m_step_dal(x, 1, pen).order == 1
        h = m_step_dal(lag_stack(x, 1), 1, pen, model)
        np.testing.assert_array_equal(h.as_array(), m_step_dal(x, 1, pen, model).as_array())
        b = e_step(lag_stack(x, 1), model.h, model.b)
        np.testing.assert_array_equal(b, e_step(x, model.h, model.b))
