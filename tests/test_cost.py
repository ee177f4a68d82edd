import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsa.cost import (
    CostReport,
    GroupPenaltySpec,
    cost_scsa,
    grad_csa,
    grad_scsa,
    group_norms,
    nll_csa,
    pack_filter_bank,
    pack_source_model,
    unpack_filter_bank,
    unpack_source_model,
)
from scsa.model import (
    FilterBank,
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    lag_stack,
    source_model_to_filter_bank,
)

from test_model import random_model


def naive_nll(w_list, x):
    """Independent double-loop reference for the FIR negative log-likelihood."""
    p = len(w_list) - 1
    d, t = x.shape
    val = (p - t) * np.log(abs(np.linalg.det(w_list[0])))
    for ti in range(p, t):
        eps = np.zeros(d)
        for lag in range(p + 1):
            eps += w_list[lag] @ x[:, ti - lag]
        for di in range(d):
            val -= np.log(np.cosh(eps[di]) ** -1 / np.pi)
    return val


def fd_gradient(f, theta, step=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        tp = theta.copy()
        tp[i] += step
        tm = theta.copy()
        tm[i] -= step
        g[i] = (f(tp) - f(tm)) / (2 * step)
    return g


def random_filter_bank(rng, d, p, scale=0.3):
    w = [rng.standard_normal((d, d)) + 2 * np.eye(d)]
    w += [scale * rng.standard_normal((d, d)) for _ in range(p)]
    return FilterBank(w)


class TestNllCsa:
    def test_single_sample_hand_value(self):
        fb = FilterBank([np.array([[1.0]])])
        x = TimeSeriesMatrix(np.array([[0.0]]))
        assert nll_csa(fb, x) == pytest.approx(np.log(np.pi), abs=1e-12)

    def test_determinant_term_isolation(self):
        # Zero data keeps eps = 0 under any scaling of W^(0).
        d, t = 2, 6
        x = TimeSeriesMatrix(np.zeros((d, t)))
        base = nll_csa(FilterBank([np.eye(d)]), x)
        c = 3.0
        scaled = nll_csa(FilterBank([c * np.eye(d)]), x)
        assert scaled - base == pytest.approx((0 - t) * d * np.log(c), rel=1e-12)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            fb = random_filter_bank(rng, 3, 2)
            x = rng.standard_normal((3, 50))
            got = nll_csa(fb, TimeSeriesMatrix(x))
            want = naive_nll(fb.w, x)
            assert got == pytest.approx(want, rel=1e-12)

    def test_signed_permutation_invariance(self):
        rng = np.random.default_rng(1)
        fb = random_filter_bank(rng, 3, 2)
        x = TimeSeriesMatrix(rng.standard_normal((3, 40)))
        perm = np.array([[0, -1, 0], [1, 0, 0], [0, 0, -1]], dtype=float)
        fb2 = FilterBank([perm @ wp for wp in fb.w])
        assert nll_csa(fb2, x) == pytest.approx(nll_csa(fb, x), rel=1e-12)


class TestGradCsa:
    def test_finite_differences(self):
        rng = np.random.default_rng(2)
        d, p, t = 3, 2, 40
        for _ in range(5):
            fb = random_filter_bank(rng, d, p)
            x = TimeSeriesMatrix(rng.standard_normal((d, t)))
            theta = pack_filter_bank(fb)
            analytic = grad_csa(fb, x).gradient
            num = fd_gradient(
                lambda th: nll_csa(unpack_filter_bank(th, d, p), x), theta
            )
            np.testing.assert_allclose(analytic, num, rtol=1e-5, atol=1e-7)

    def test_zero_data_leaves_determinant_term(self):
        d, p, t = 2, 1, 10
        fb = FilterBank([2 * np.eye(d), 0.5 * np.eye(d)])
        x = TimeSeriesMatrix(np.zeros((d, t)))
        g = grad_csa(fb, x).gradient.reshape(p + 1, d, d)
        np.testing.assert_allclose(g[0], (p - t) * np.linalg.inv(2 * np.eye(d)).T)
        np.testing.assert_allclose(g[1], np.zeros((d, d)))

    def test_scalar_order_zero_formula(self):
        rng = np.random.default_rng(3)
        w = 1.7
        x = rng.standard_normal(25)
        fb = FilterBank([np.array([[w]])])
        g = grad_csa(fb, TimeSeriesMatrix(x[None, :])).gradient[0]
        want = -len(x) / w + np.sum(np.tanh(w * x) * x)
        assert g == pytest.approx(want, rel=1e-12)


class TestCostScsa:
    def test_equals_nll_when_unpenalized(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            model = random_model(rng, 3, 2)
            x = TimeSeriesMatrix(rng.standard_normal((3, 30)))
            pen = GroupPenaltySpec(0.0)
            got = cost_scsa(model, x, pen)
            want = nll_csa(source_model_to_filter_bank(model), x)
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_coefficients_zero_penalty(self):
        model = SourceModel(b=np.eye(2), h=MvarCoefficients([np.zeros((2, 2))]))
        x = TimeSeriesMatrix(np.random.default_rng(5).standard_normal((2, 20)))
        c0 = cost_scsa(model, x, GroupPenaltySpec(0.0))
        c1 = cost_scsa(model, x, GroupPenaltySpec(5.0))
        assert c0 == pytest.approx(c1, rel=1e-14)

    def test_cost_linear_in_lambda(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 3, 2)
        x = TimeSeriesMatrix(rng.standard_normal((3, 30)))
        lam = 0.7
        c1 = cost_scsa(model, x, GroupPenaltySpec(lam))
        c2 = cost_scsa(model, x, GroupPenaltySpec(2 * lam))
        norms = group_norms(model.h)
        off_sum = np.sum(norms) - np.trace(norms)
        assert c2 - c1 == pytest.approx(lam * off_sum, rel=1e-12)

    def test_convex_in_b_on_spd_segments(self):
        # The log|det B| term is concave only on the positive-definite cone,
        # so midpoint convexity in B is guaranteed along SPD segments (the
        # data term is convex in B everywhere).
        rng = np.random.default_rng(7)
        h = MvarCoefficients([0.2 * rng.standard_normal((3, 3)) for _ in range(2)])
        x = TimeSeriesMatrix(rng.standard_normal((3, 40)))
        pen = GroupPenaltySpec(0.5)
        for _ in range(50):
            a1 = rng.standard_normal((3, 3))
            a2 = rng.standard_normal((3, 3))
            b1 = a1 @ a1.T + 0.5 * np.eye(3)
            b2 = a2 @ a2.T + 0.5 * np.eye(3)
            th = rng.uniform(0.2, 0.8)
            bm = th * b1 + (1 - th) * b2
            cm = cost_scsa(SourceModel(bm, h), x, pen)
            c1 = cost_scsa(SourceModel(b1, h), x, pen)
            c2 = cost_scsa(SourceModel(b2, h), x, pen)
            assert cm <= th * c1 + (1 - th) * c2 + 1e-9

    def test_convex_in_h_for_fixed_b(self):
        rng = np.random.default_rng(8)
        b = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        x = TimeSeriesMatrix(rng.standard_normal((3, 40)))
        pen = GroupPenaltySpec(0.5)
        for _ in range(50):
            h1 = [0.4 * rng.standard_normal((3, 3)) for _ in range(2)]
            h2 = [0.4 * rng.standard_normal((3, 3)) for _ in range(2)]
            th = rng.uniform(0.2, 0.8)
            hm = [th * a + (1 - th) * c for a, c in zip(h1, h2)]
            cm = cost_scsa(SourceModel(b, MvarCoefficients(hm)), x, pen)
            c1 = cost_scsa(SourceModel(b, MvarCoefficients(h1)), x, pen)
            c2 = cost_scsa(SourceModel(b, MvarCoefficients(h2)), x, pen)
            assert cm <= th * c1 + (1 - th) * c2 + 1e-9


class TestGradScsa:
    def test_finite_differences_away_from_zeros(self):
        rng = np.random.default_rng(9)
        d, p, t = 3, 2, 40
        pen = GroupPenaltySpec(0.3)
        # keep all group norms well away from the kink
        draws = (random_model(rng, d, p, scale=0.4) for _ in range(30))
        models = [m for m in draws if np.min(group_norms(m.h)) >= 0.1][:5]
        assert len(models) == 5
        for model in models:
            x = TimeSeriesMatrix(rng.standard_normal((d, t)))
            theta = pack_source_model(model)
            analytic = grad_scsa(model, x, pen).gradient
            num = fd_gradient(
                lambda th: cost_scsa(unpack_source_model(th, d, p), x, pen), theta
            )
            np.testing.assert_allclose(analytic, num, rtol=1e-5, atol=1e-6)

    def test_unpenalized_gradient_matches_csa_through_chain_rule(self):
        # With lambda = 0 the costs agree; compare gradients by finite
        # differencing each parameterization against the shared value.
        rng = np.random.default_rng(10)
        d, p, t = 3, 2, 30
        model = random_model(rng, d, p)
        x = TimeSeriesMatrix(rng.standard_normal((d, t)))
        pen = GroupPenaltySpec(0.0)
        rep = grad_scsa(model, x, pen)
        num = fd_gradient(
            lambda th: nll_csa(
                source_model_to_filter_bank(unpack_source_model(th, d, p)), x
            ),
            pack_source_model(model),
        )
        np.testing.assert_allclose(rep.gradient, num, rtol=1e-5, atol=1e-6)

    def test_penalty_subgradient_scale_invariant_direction(self):
        rng = np.random.default_rng(11)
        h1 = rng.standard_normal(4)
        for c in [0.5, 2.0, 7.0]:
            direction1 = h1 / np.linalg.norm(h1)
            direction2 = (c * h1) / np.linalg.norm(c * h1)
            np.testing.assert_allclose(direction1, direction2, rtol=1e-12)

    def test_report_group_norms(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, 3, 2)
        x = TimeSeriesMatrix(rng.standard_normal((3, 20)))
        rep = grad_scsa(model, x, GroupPenaltySpec(0.1))
        assert isinstance(rep, CostReport)


def rel_close(got, want, rel=1e-12):
    scale = np.max(np.abs(want))
    return np.max(np.abs(np.asarray(got) - want)) <= rel * scale


class TestLagStack:
    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_kernels_sum_over_segments(self, p):
        # one call on the columns of several segments' stacks, side by side
        # as a cross-validation fold's training windows are, equals the sum
        # of per-segment calls, for all four kernels; P = 0 is the ICA path
        rng = np.random.default_rng(30 + p)
        d, lengths = 3, (40, 23, p + 1)  # the last segment has one window
        segs = [TimeSeriesMatrix(rng.standard_normal((d, t))) for t in lengths]
        stack = np.hstack([lag_stack(x, p) for x in segs])
        assert stack.shape == ((p + 1) * d, sum(t - p for t in lengths))
        model = random_model(rng, d, p)
        fb = source_model_to_filter_bank(model)
        pen0 = GroupPenaltySpec(0.0)
        assert rel_close(nll_csa(fb, stack), sum(nll_csa(fb, x) for x in segs))
        assert rel_close(
            cost_scsa(model, stack, pen0), sum(cost_scsa(model, x, pen0) for x in segs)
        )
        for kernel, params, pen in ((grad_csa, fb, ()), (grad_scsa, model, (pen0,))):
            rep = kernel(params, stack, *pen)
            parts = [kernel(params, x, *pen) for x in segs]
            assert rel_close(rep.value, sum(r.value for r in parts))
            assert rel_close(rep.gradient, sum(r.gradient for r in parts))

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_penalty_added_once(self, p):
        rng = np.random.default_rng(40 + p)
        d = 3
        segs = [rng.standard_normal((d, 30)), rng.standard_normal((d, 20))]
        stack = np.hstack([lag_stack(x, p) for x in segs])
        model = random_model(rng, d, p)
        pen = GroupPenaltySpec(0.4)
        smooth = cost_scsa(model, stack, GroupPenaltySpec(0.0))
        norms = group_norms(model.h, d)
        want = smooth + pen.lam * (norms.sum() - np.trace(norms))
        assert cost_scsa(model, stack, pen) == pytest.approx(want, rel=1e-14)
        assert grad_scsa(model, stack, pen).value == pytest.approx(want, rel=1e-14)

    def test_order_zero_stack_is_the_data(self):
        x = np.random.default_rng(50).standard_normal((2, 9))
        np.testing.assert_array_equal(lag_stack(x, 0), x)
        np.testing.assert_array_equal(lag_stack(TimeSeriesMatrix(x), 0), x)

    def test_rows_are_lagged_windows(self):
        x = np.arange(12.0).reshape(2, 6)
        stack = lag_stack(x, 2)
        np.testing.assert_array_equal(stack[:2], x[:, 2:])
        np.testing.assert_array_equal(stack[2:4], x[:, 1:5])
        np.testing.assert_array_equal(stack[4:], x[:, :4])

    def test_short_segment_raises(self):
        from scsa.exceptions import InsufficientDataError

        lag_stack(np.ones((2, 3)), 2)  # one window
        with pytest.raises(InsufficientDataError):
            lag_stack(np.ones((2, 2)), 2)

    @pytest.mark.parametrize(
        "x", [[np.ones((2, 5)), np.ones((2, 4))], np.ones((2, 2, 5)), np.ones(5)],
        ids=["segments", "3-D", "1-D"],
    )
    def test_only_one_block_is_stacked(self, x):
        # a sequence of segments is not read as one 3-D block
        with pytest.raises(ValueError, match="one 2-D block"):
            lag_stack(x, 1)

    @pytest.mark.parametrize("p", [-1, 1.5])
    def test_order_must_be_a_nonnegative_integer(self, p):
        with pytest.raises(ValueError, match="nonnegative integer"):
            lag_stack(np.ones((2, 5)), p)

    def test_stack_of_wrong_order_rejected(self):
        rng = np.random.default_rng(51)
        model = random_model(rng, 2, 2)
        with pytest.raises(ValueError, match="rows"):
            cost_scsa(model, lag_stack(rng.standard_normal((2, 10)), 1), GroupPenaltySpec(0.0))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_signed_permutation_relabels_sources(seed):
    # relabelling the sources by a signed permutation pi (B -> pi B,
    # H^(p) -> pi H^(p) pi^T) leaves the cost unchanged and maps the gradient
    # the same way
    rng = np.random.default_rng(seed)
    d, p = 3, 2
    model = random_model(rng, d, p, scale=0.4)
    x = TimeSeriesMatrix(rng.standard_normal((d, 30)))
    pi = np.zeros((d, d))
    pi[np.arange(d), rng.permutation(d)] = rng.choice([-1.0, 1.0], d)
    moved = SourceModel(pi @ model.b, MvarCoefficients([pi @ hp @ pi.T for hp in model.h.lags]))
    pen = GroupPenaltySpec(0.5)
    assert cost_scsa(moved, x, pen) == pytest.approx(cost_scsa(model, x, pen), rel=1e-12)
    rep, rep_moved = grad_scsa(model, x, pen), grad_scsa(moved, x, pen)
    assert rep_moved.value == pytest.approx(rep.value, rel=1e-12)
    g = rep.gradient.reshape(p + 1, d, d)
    want = np.concatenate([[pi @ g[0]], pi @ g[1:] @ pi.T])
    assert rel_close(rep_moved.gradient.reshape(p + 1, d, d), want, rel=1e-10)
