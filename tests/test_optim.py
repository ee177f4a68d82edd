import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsa import optim
from scsa.cost import grad_csa, unpack_filter_bank
from scsa.exceptions import DegenerateModelError, NumericError, StagnationError
from scsa.model import TimeSeriesMatrix, lag_stack, sample_sech
from scsa.optim import (
    GroupLayout,
    LbfgsMemory,
    keep_last_on_stagnation,
    minimize,
    minimize_with_group_truncation,
)


class TestMinimize:
    def test_quadratic(self):
        c = np.array([1.0, -2.0, 3.0, 0.5])

        def obj(x):
            return float(np.sum((x - c) ** 2)), 2 * (x - c)

        x, trace = minimize(obj, np.zeros(4), grad_tol=1e-10)
        assert trace.converged
        assert trace.iterations <= 30
        np.testing.assert_allclose(x, c, atol=1e-8)

    def test_rosenbrock(self):
        def obj(v):
            x, y = v
            f = (1 - x) ** 2 + 100 * (y - x**2) ** 2
            g = np.array(
                [-2 * (1 - x) - 400 * x * (y - x**2), 200 * (y - x**2)]
            )
            return f, g

        x, trace = minimize(obj, np.array([-1.2, 1.0]), grad_tol=1e-10)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)

    def test_value_history_nonincreasing(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 10))
        b = rng.standard_normal(20)

        def obj(x):
            r = a @ x - b
            return float(0.5 * np.dot(r, r)), a.T @ r

        _, trace = minimize(obj, np.ones(10))
        hist = np.array(trace.value_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_nonfinite_start_is_numeric_error(self):
        def obj(x):
            return np.inf, np.zeros_like(x)

        with pytest.raises(NumericError, match="starting point"):
            minimize(obj, np.zeros(3))
        groups = (np.array([[0, 1]]), 1.0)
        with pytest.raises(NumericError, match="starting point"):
            minimize_with_group_truncation(obj, np.zeros(3), groups)

    def test_gradient_norm_at_solution(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((30, 8))

        def obj(x):
            r = a @ x - 1.0
            return float(0.5 * np.dot(r, r)), a.T @ r

        grad_tol = 1e-8
        x, trace = minimize(obj, np.zeros(8), grad_tol)
        _, g = obj(x)
        assert np.max(np.abs(g)) <= grad_tol * max(1.0, abs(trace.final_value))


def solve_to_floor(solve, *args):
    """Run a solve whose tolerance may lie below the rounding of its value,
    keeping the last iterate if it stagnates there."""
    return keep_last_on_stagnation(lambda: solve(*args), "test solve")


def least_squares(seed, n_obs=30, n=8):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_obs, n))
    b = rng.standard_normal(n_obs)

    def obj(x):
        r = a @ x - b
        return float(0.5 * np.dot(r, r)), a.T @ r

    return obj


class TestEndStates:
    # one solve per end state: it meets the tolerance; the tolerance lies
    # below the rounding of the value, so no step can lower it far enough;
    # it runs out of iterations
    @pytest.mark.parametrize(
        "end,grad_tol,max_iters",
        [("converged", 1e-6, 2000), ("stagnated", 1e-14, 2000), ("capped", 1e-10, 3)],
    )
    def test_converged_is_the_gradient_test(
        self, end, grad_tol, max_iters, monkeypatch
    ):
        monkeypatch.setattr(optim, "MAX_ITERS", max_iters)
        for seed in range(3):
            obj = least_squares(seed)
            if end == "stagnated":
                with pytest.raises(StagnationError) as err:
                    minimize(obj, np.ones(8), grad_tol)
                assert not err.value.trace.converged
            _, trace = solve_to_floor(minimize, obj, np.ones(8), grad_tol)
            bound = grad_tol * max(1.0, abs(trace.final_value))
            assert trace.converged == (trace.final_grad_norm <= bound)
            assert trace.converged == (end == "converged")
            assert trace.stagnated == (end == "stagnated")
            if end == "capped":
                assert trace.iterations == 3

    def test_stagnating_search_evaluates_no_point_twice(self):
        # once a shorter step rounds back to x itself, the search ends
        obj, points = least_squares(0), []

        def counted(x):
            points.append(x.tobytes())
            return obj(x)

        with pytest.raises(StagnationError):
            minimize(counted, np.ones(8), grad_tol=1e-14)
        assert len(set(points)) == len(points)

    def test_search_ends_at_the_rounding_floor(self):
        # started at the minimum to within the rounding of f, no step's
        # predicted decrease exceeds one ulp of f: at most one trial
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 8))
        hess, c = a.T @ a, rng.standard_normal(8)
        calls = []

        def obj(x):
            calls.append(x)
            r = x - c
            return float(0.5 * r @ hess @ r) + 100.0, hess @ r

        with pytest.raises(StagnationError) as err:
            minimize(obj, c + 1e-10 * rng.standard_normal(8), grad_tol=1e-14)
        assert len(calls) <= 2 and err.value.trace.backtracks <= 1

    def test_penalized_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(optim, "MAX_ITERS", 3)
        smooth, groups, _, _ = make_group_lasso(1, weight=5.0)
        _, trace = minimize_with_group_truncation(smooth, np.ones(18), groups)
        assert trace.iterations == 3 and len(trace.value_history) == 4
        assert not trace.converged and not trace.stagnated

    def test_config_defaults(self):
        assert (optim.MAX_ITERS, optim.GRAD_TOL) == (2000, 1e-6)


def make_group_lasso(seed, n_groups=6, group_size=3, n_obs=40, weight=1.0):
    """Least-squares group lasso; groups are consecutive index triples."""
    rng = np.random.default_rng(seed)
    n = n_groups * group_size
    a = rng.standard_normal((n_obs, n))
    x_true = np.zeros(n)
    x_true[:group_size] = 2.0
    x_true[group_size : 2 * group_size] = -1.5
    b = a @ x_true + 0.1 * rng.standard_normal(n_obs)

    def smooth(x):
        r = a @ x - b
        return float(0.5 * np.dot(r, r)), a.T @ r

    index = np.arange(n).reshape(n_groups, group_size)
    return smooth, (index, float(weight)), a, b


def assert_group_kkt(smooth, groups, x, trace, grad_tol):
    """Group-lasso optimality: a zero group's smooth gradient lies in the
    weight ball; a nonzero group's gradient balances its penalty term."""
    _, gs = smooth(x)
    index, lam = groups
    for idx in index:
        xg, gg = x[idx], gs[idx]
        if np.all(xg == 0.0):
            assert np.linalg.norm(gg) <= lam * (1 + 1e-6)
        else:
            res = gg + lam * xg / np.linalg.norm(xg)
            assert np.max(np.abs(res)) <= grad_tol * 10 * max(
                1.0, abs(trace.final_value)
            )


class TestGroupTruncation:
    def test_zero_weight_matches_smooth_minimize(self):
        smooth, groups, _, _ = make_group_lasso(2, weight=0.0)
        x0 = np.zeros(18)
        x1, _ = solve_to_floor(minimize, smooth, x0, 1e-10)
        x2, _ = solve_to_floor(minimize_with_group_truncation, smooth, x0, groups, 1e-10)
        np.testing.assert_allclose(x1, x2, atol=1e-7)

    def test_large_weight_keeps_all_groups_zero(self):
        smooth, (index, _), _, _ = make_group_lasso(3)
        _, g0 = smooth(np.zeros(18))
        big = 10 * np.max(np.linalg.norm(g0[index], axis=1))
        groups = (index, big)
        x, _ = minimize_with_group_truncation(smooth, np.zeros(18), groups)
        assert np.all(x == 0.0)

    def test_kkt_conditions_at_solution(self, monkeypatch):
        monkeypatch.setattr(optim, "MAX_ITERS", 3000)
        lam = 8.0
        for seed in range(5):
            smooth, groups, _, _ = make_group_lasso(seed, n_obs=60, weight=lam)
            x, trace = solve_to_floor(
                minimize_with_group_truncation, smooth, np.zeros(18), groups, 1e-9
            )
            assert_group_kkt(smooth, groups, x, trace, 1e-9)

    def test_converges_in_few_iterations(self, monkeypatch):
        # The projection zeroes a group as soon as a trial step carries it
        # across zero, so zero groups cost no extra iterations.
        monkeypatch.setattr(optim, "MAX_ITERS", 3000)
        for lam in (8.0, 20.0):
            for seed in range(5):
                smooth, groups, _, _ = make_group_lasso(seed, n_obs=60, weight=lam)
                x, trace = solve_to_floor(
                    minimize_with_group_truncation, smooth, np.ones(18), groups, 1e-9
                )
                assert_group_kkt(smooth, groups, x, trace, 1e-9)
                assert trace.iterations <= 30

    def test_active_set_changes_counted(self):
        smooth, groups, _, _ = make_group_lasso(0, weight=8.0)
        x, trace = minimize_with_group_truncation(smooth, np.ones(18), groups)
        assert np.any(x == 0.0)
        assert trace.active_set_changes >= 1
        _, trace = minimize(smooth, np.ones(18))
        assert trace.active_set_changes == 0

    def test_value_history_nonincreasing(self):
        smooth, groups, _, _ = make_group_lasso(7, weight=5.0)
        _, trace = minimize_with_group_truncation(smooth, np.zeros(18), groups)
        hist = np.array(trace.value_history)
        assert np.all(np.diff(hist) <= 1e-8)

    def test_accepted_trial_evaluation_is_reused(self):
        # Trials are projected before they are evaluated, so there is at
        # most one call per line-search trial and no point is seen twice.
        for seed in range(4):
            smooth, groups, _, _ = make_group_lasso(seed, weight=5.0)
            points = []

            def counted(x):
                points.append(x.copy())
                return smooth(x)

            _, trace = minimize_with_group_truncation(counted, np.zeros(18), groups)
            assert trace.converged and trace.iterations >= 5
            trials = trace.iterations + trace.backtracks
            assert len(points) <= 1 + trials
            assert len({x.tobytes() for x in points}) == len(points)


class TestCarriedMemory:
    def test_walk_reaches_the_fresh_minimizer(self):
        # the smooth part is a least-squares quadratic whose Hessian A^T A
        # has least eigenvalue mu > 0, so a point whose minimum-norm
        # subgradient has 2-norm r lies within r / mu of the one minimizer
        grad_tol, n = 1e-7, 18
        for seed in range(3):
            smooth, (index, _), a, _ = make_group_lasso(seed)
            mu = np.linalg.eigvalsh(a.T @ a)[0]
            memory = LbfgsMemory(n)
            x1, _ = minimize_with_group_truncation(
                smooth, np.zeros(n), (index, 2.0), grad_tol, memory
            )
            assert memory.k > 0
            groups = (index, 8.0)
            carried, t_carried = minimize_with_group_truncation(
                smooth, x1, groups, grad_tol, memory
            )
            fresh, t_fresh = minimize_with_group_truncation(smooth, x1, groups, grad_tol)
            assert t_carried.converged and t_fresh.converged
            radius = sum(
                np.sqrt(n) * grad_tol * max(1.0, abs(t.final_value)) / mu
                for t in (t_carried, t_fresh)
            )
            assert np.linalg.norm(carried - fresh) <= radius

    def test_memory_of_another_size_is_rejected_before_evaluating(self):
        smooth, groups, _, _ = make_group_lasso(0)
        calls = []

        def counted(x):
            calls.append(x)
            return smooth(x)

        with pytest.raises(ValueError, match="memory"):
            minimize_with_group_truncation(
                counted, np.zeros(18), groups, memory=LbfgsMemory(17)
            )
        assert calls == []


@pytest.mark.parametrize("penalized", [False, True])
def test_degenerate_trial_iterate_backtracks(penalized):
    c = np.array([1.0, -2.0, 0.5])
    radius = 1.5 * np.linalg.norm(c)

    def obj(x):
        if np.linalg.norm(x) > radius:
            raise DegenerateModelError("condition number above the bound")
        return float(np.sum((x - c) ** 2)), 2 * (x - c)

    if penalized:
        groups = (np.array([[0, 1, 2]]), 0.1)
        x, trace = minimize_with_group_truncation(obj, np.zeros(3), groups, 1e-10)
        np.testing.assert_allclose(x, c * (1 - 0.05 / np.linalg.norm(c)), atol=1e-8)
    else:
        x, trace = minimize(obj, np.zeros(3), 1e-10)
        np.testing.assert_allclose(x, c, atol=1e-8)
    assert trace.converged
    assert trace.backtracks >= 1


def test_gradient_error_at_a_backtracked_trial_backtracks():
    # A CSA objective in data coordinates, started from W = I: its first
    # line search backtracks through trials with W[0, 0] < 0.9, the last of
    # them (W[0, 0] = 0.83) low enough to accept, while its minimizer has
    # W[0, 0] = 1.12. There the gradient kernel raises NumericError, as it
    # does for a nonfinite gradient, and the value stays finite: each such
    # trial is backtracked, and the fit ends outside that region instead of
    # raising.
    rng = np.random.default_rng(0)
    mixing = np.array([[1.0, 0.5], [0.3, 1.0]])
    stack = lag_stack(TimeSeriesMatrix(mixing @ sample_sech(rng, (2, 300))), 0)
    raised = []

    def objective(w):
        if w[0] < 0.9:
            raised.append(w[0])
            raise NumericError("nonfinite gradient entries")
        rep = grad_csa(unpack_filter_bank(w, 2, 0), stack)
        return rep.value, rep.gradient

    w, trace = keep_last_on_stagnation(
        lambda: minimize(objective, np.eye(2).ravel()), "CSA fit"
    )
    assert len(raised) > 1  # trials after the first reached the region
    assert trace.converged or trace.stagnated
    assert w[0] >= 0.9  # W[0, 0]


def zero_group_pseudo_gradient(group_grads, weight):
    """Pseudo-gradient at 0 of a layout with one group per row of
    ``group_grads``, returned row by row."""
    group_grads = np.atleast_2d(group_grads)
    g, k = group_grads.shape
    layout = GroupLayout(np.arange(g * k).reshape(g, k), weight)
    x = np.zeros(g * k)
    pg, ref = layout.pseudo_gradient(x, group_grads.ravel(), layout.norms(x))
    np.testing.assert_array_equal(ref, -pg)
    return pg.reshape(g, k)


class TestMinNormSubgradient:
    def test_inside_ball_is_zero(self):
        g = np.array([0.3, -0.2])
        assert np.all(zero_group_pseudo_gradient(g, 1.0) == 0.0)

    def test_outside_ball_shrinks_radially(self):
        g = np.array([3.0, 4.0])  # norm 5
        out = zero_group_pseudo_gradient(g, 2.0)
        np.testing.assert_allclose(out[0], g * (1 - 2.0 / 5.0))

    def test_rows_are_groups(self):
        rows = np.array([[0.3, -0.2], [3.0, 4.0], [0.0, 0.0]])
        out = zero_group_pseudo_gradient(rows, 2.0)
        for row, got in zip(rows, out):
            np.testing.assert_array_equal(got, zero_group_pseudo_gradient(row, 2.0)[0])
        np.testing.assert_allclose(out[1], rows[1] * 0.6)
        assert np.all(out[[0, 2]] == 0.0)

    def test_nonzero_group_adds_weighted_direction(self):
        layout = GroupLayout(np.array([[0, 1]]), 2.0)
        x, g = np.array([3.0, 4.0, 1.0]), np.array([1.0, -1.0, 5.0])
        pg, ref = layout.pseudo_gradient(x, g, layout.norms(x))
        np.testing.assert_allclose(pg, g + 2.0 * np.array([0.6, 0.8, 0.0]))
        np.testing.assert_array_equal(ref, x)


def loop_layout(index, weight, v, g_smooth, u):
    """Reference for an active :class:`GroupLayout`, one group (row of
    ``index``) at a time: the norms, penalty and penalty gradient at v, the
    pseudo-gradient and orthant reference for the smooth gradient g_smooth,
    and u projected on that reference with whether any group was zeroed."""
    norms = np.array([np.linalg.norm(v[row]) for row in index])
    grad, pg, ref, u = np.zeros_like(v), g_smooth.copy(), v.copy(), u.copy()
    zeroed = False
    for row, n in zip(index, norms):
        if n > 0:
            grad[row] = weight * v[row] / n
            pg[row] += grad[row]
        else:
            gn = np.linalg.norm(pg[row])
            pg[row] *= max(0.0, 1.0 - weight / gn) if gn > 0 else 1.0
            ref[row] = -pg[row]
    for row in index:
        if u[row] @ ref[row] <= 0:
            u[row] = 0.0
            zeroed = True
    return norms, weight * norms.sum(), grad, pg, ref, u, zeroed


class TestGroupLayout:
    # the flat layout sums in another order than the loop
    RTOL = 16 * np.finfo(float).eps

    @pytest.mark.parametrize("g,k,weight", [(6, 1, 0.5), (6, 3, 2.0), (8, 4, 1.0)])
    def test_matches_per_row_loop(self, g, k, weight):
        rng = np.random.default_rng(100 * g + k)
        n = g * k + 5
        # the groups are scattered over a longer vector; some coordinates
        # are in no group
        index = rng.permutation(n)[: g * k].reshape(g, k)
        v = rng.standard_normal(n)
        # every other group is zero, its smooth gradient alternately inside
        # and outside the weight ball
        zero = index[::2]
        v[zero] = 0.0
        g_smooth = rng.standard_normal(n)
        radii = weight * np.resize([0.5, 2.0], len(zero))[:, None]
        g_smooth[zero] *= radii / np.linalg.norm(g_smooth[zero], axis=1, keepdims=True)
        u = v + rng.standard_normal(n)
        layout = GroupLayout(index, weight)
        assert layout.active
        norms, penalty, grad, pg, ref, u_ref, zeroed = loop_layout(
            index, weight, v, g_smooth, u
        )
        got_norms = layout.norms(v)
        np.testing.assert_allclose(got_norms, norms, rtol=self.RTOL)
        assert layout.penalty(v) == pytest.approx(penalty, rel=self.RTOL)
        np.testing.assert_allclose(layout.gradient(v, got_norms), grad, rtol=self.RTOL)
        got_pg, got_ref = layout.pseudo_gradient(v, g_smooth, got_norms)
        np.testing.assert_allclose(got_pg, pg, rtol=self.RTOL, atol=0)
        np.testing.assert_allclose(got_ref, ref, rtol=self.RTOL, atol=0)
        assert layout.project(u, got_ref) == zeroed
        np.testing.assert_allclose(u, u_ref, rtol=self.RTOL, atol=0)
        assert zeroed and np.any(u[index] != 0.0)  # both projection outcomes

    def test_empty_and_unweighted_groups_are_left_out(self):
        # groups with no members (an order-0 model's H groups) or with weight
        # 0 make an inactive layout, which adds nothing
        for layout in (
            GroupLayout(),
            GroupLayout(np.zeros((3, 0), dtype=int), 0.5),
            GroupLayout(np.array([[0, 1], [2, 3]]), 0.0),
        ):
            assert not layout.active
            x, g = np.array([1.0, -2.0, 3.0, 4.0]), np.array([0.5, 0.5, -1.0, 2.0])
            assert layout.norms(x).size == 0
            assert layout.penalty(x) == 0.0
            np.testing.assert_array_equal(layout.gradient(x, layout.norms(x)), 0.0)
            pg, ref = layout.pseudo_gradient(x, g, layout.norms(x))
            assert pg is g and ref is x
            u = -x
            assert not layout.project(u, ref)
            np.testing.assert_array_equal(u, -x)

    def test_inactive_layout_solves_do_no_group_work(self, monkeypatch):
        # a smooth solve (every CSA fit, lambda = 0) computes no group
        # norms, pseudo-gradient or active-set comparison
        def fail(*args):
            raise AssertionError("group work in a solve without groups")

        for name in ("norms", "pseudo_gradient", "gradient"):
            monkeypatch.setattr(GroupLayout, name, fail)
        smooth, (index, _), _, _ = make_group_lasso(1)
        for groups in ((), (index, 0.0), (index[:, :0], 5.0)):
            _, trace = minimize_with_group_truncation(smooth, np.ones(18), groups)
            assert trace.converged and trace.active_set_changes == 0

    def test_only_empty_groups_is_smooth(self):
        # an order-0 fit has groups of no members: the solve is the smooth one
        smooth, (index, _), _, _ = make_group_lasso(4, weight=5.0)
        x1, t1 = minimize(smooth, np.ones(18))
        x2, t2 = minimize_with_group_truncation(smooth, np.ones(18), (index[:, :0], 5.0))
        np.testing.assert_array_equal(x1, x2)
        assert t1.value_history == t2.value_history


def zero_filled_pseudo_gradient(index, weight, v, g_smooth, n):
    """The reference for :meth:`GroupLayout.pseudo_gradient`, in the form it
    had before it worked in place: the penalty gradient as a zero-filled
    vector, added to the whole smooth gradient."""
    if not (weight > 0 and index.shape[1] > 0):
        return g_smooth, v
    pen = np.zeros_like(v)
    pen[index] = v[index] * (weight / np.where(n == 0, np.inf, n))[:, None]
    g, ref = g_smooth + pen, v.copy()
    zero = n == 0
    if zero.any():
        idx = index[zero]
        gz = g[idx]
        norms = np.sqrt((gz * gz).sum(axis=1))
        gz *= np.maximum(1.0 - weight / np.where(norms > 0, norms, np.inf), 0.0)[:, None]
        g[idx] = gz
        ref[idx] = -gz
    return g, ref


@settings(max_examples=200, deadline=None)
@given(
    groups=st.integers(0, 5),
    size=st.integers(0, 4),
    free=st.integers(0, 3),
    weight=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
    zero_v=st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=5, max_size=5),
    zero_g=st.lists(st.booleans(), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_pseudo_gradient_matches_the_zero_filled_sum(
    groups, size, free, weight, zero_v, zero_g, seed
):
    # scattered groups with coordinates in none, zero groups (of either
    # sign) and zero smooth gradients, at weights inside and outside the
    # gradients' norms; == lets +0 and -0 agree
    rng = np.random.default_rng(seed)
    n = groups * size + free
    index = rng.permutation(n)[: groups * size].reshape(groups, size)
    v = rng.standard_normal(n)
    g_smooth = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 1e3])
    for row, zv, zg in zip(index, zero_v, zero_g):
        if zv is not None:
            v[row] = zv
        if zg:
            g_smooth[row] = 0.0
    norms = np.sqrt((v[index] * v[index]).sum(axis=1))
    v_in, g_in = v.copy(), g_smooth.copy()
    want_g, want_ref = zero_filled_pseudo_gradient(index, weight, v_in, g_in, norms)
    got_g, got_ref = GroupLayout(index, weight).pseudo_gradient(v, g_smooth, norms)
    assert np.array_equal(got_g, want_g)
    assert np.array_equal(got_ref, want_ref)
    # the inputs are left as they were: an objective may keep its gradient
    assert v.tobytes() == v_in.tobytes() and g_smooth.tobytes() == g_in.tobytes()


def two_loop_direction(pairs, g):
    """Reference L-BFGS direction: the two-loop recursion (Nocedal & Wright,
    Algorithm 7.4) over the kept (s, y) pairs, oldest first, scaled by
    s^T y / y^T y of the newest pair."""
    q = -g.copy()
    if not pairs:
        return q
    alphas = []
    for s, y in reversed(pairs):
        a = np.dot(s, q) / np.dot(s, y)
        alphas.append(a)
        q -= a * y
    s, y = pairs[-1]
    q *= np.dot(s, y) / np.dot(y, y)
    for (s, y), a in zip(pairs, reversed(alphas)):
        q += (a - np.dot(y, q) / np.dot(s, y)) * s
    return q


class TestCompactMemory:
    @pytest.mark.parametrize(
        "m, n",
        [
            pytest.param(1, 15, id="1"),
            pytest.param(3, 15, id="3"),
            pytest.param(10, 15, id="10"),
            pytest.param(40, 15, id="40"),  # more pairs than dimensions
            pytest.param(40, 60, id="40-n60"),
        ],
    )
    def test_matches_two_loop_recursion(self, m, n):
        # 3m + 7 pushes wrap the memory around several times; every fourth
        # pair has s^T y < 0 and every fifth s^T y = 0 (up to rounding), and
        # both must be rejected
        rng = np.random.default_rng(m)
        a = rng.standard_normal((n, n))
        hess = a @ a.T + 0.5 * np.eye(n)
        memory = LbfgsMemory(n, m)
        kept = []
        g = rng.standard_normal(n)
        np.testing.assert_array_equal(memory.direction(g), -g)
        for step in range(3 * m + 7):
            s = rng.standard_normal(n)
            if step % 4 == 3:
                y = -hess @ s
            elif step % 5 == 4:
                v = rng.standard_normal(n)
                y = v - (v @ s) / (s @ s) * s
            else:
                y = hess @ s + 0.1 * rng.standard_normal(n)
            memory.push(s, y)
            if s @ y > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
                kept = (kept + [(s, y)])[-m:]
            g = rng.standard_normal(n)
            want = two_loop_direction(kept, g)
            got = memory.direction(g)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert memory.k == m

    @pytest.mark.parametrize("pushes", [0, 9, 55])
    @pytest.mark.parametrize("how", ["pickle", "copy"])
    def test_round_trip_keeps_every_bit(self, pushes, how):
        # a memory crosses to pool workers in pickles (a CSA trace, a CV
        # fold's start), which hold the k pairs in use and not all m rows;
        # 55 pushes wrap the memory around
        n, m = 60, 40
        rng = np.random.default_rng(pushes)
        a = rng.standard_normal((n, n))
        hess = a @ a.T + 0.5 * np.eye(n)
        memory = LbfgsMemory(n, m)
        for _ in range(pushes):
            s = rng.standard_normal(n)
            memory.push(s, hess @ s)
        g = rng.standard_normal(n)
        memory.direction(g)
        data = pickle.dumps(memory)
        back = pickle.loads(data) if how == "pickle" else memory.copy()
        assert (back.n, back.m, back.k) == (n, m, min(pushes, m))
        for name in ("sy", "small", "d"):
            assert getattr(back, name).tobytes() == getattr(memory, name).tobytes()
        assert back.direction(g).tobytes() == memory.direction(g).tobytes()
        s = rng.standard_normal(n)
        back.push(s, hess @ s)
        memory.push(s, hess @ s)
        assert back.direction(g).tobytes() == memory.direction(g).tobytes()
        k = min(pushes, m)
        assert len(data) <= 8 * (2 * k * n + 2 * k * k + k) + 1024
