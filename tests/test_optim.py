import numpy as np
import pytest

from scsa.exceptions import DegenerateModelError, NumericError
from scsa.optim import (
    GroupLayout,
    OptimizerConfig,
    _LbfgsMemory,
    minimize,
    minimize_with_group_truncation,
)


class TestMinimize:
    def test_quadratic(self):
        c = np.array([1.0, -2.0, 3.0, 0.5])

        def obj(x):
            return float(np.sum((x - c) ** 2)), 2 * (x - c)

        x, trace = minimize(obj, np.zeros(4), OptimizerConfig(grad_tol=1e-10))
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

        x, trace = minimize(
            obj, np.array([-1.2, 1.0]), OptimizerConfig(max_iters=2000, grad_tol=1e-10)
        )
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
        groups = [(np.array([[0, 1]]), np.array([1.0]))]
        with pytest.raises(NumericError, match="starting point"):
            minimize_with_group_truncation(obj, np.zeros(3), groups)

    def test_gradient_norm_at_solution(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((30, 8))

        def obj(x):
            r = a @ x - 1.0
            return float(0.5 * np.dot(r, r)), a.T @ r

        cfg = OptimizerConfig(grad_tol=1e-8)
        x, trace = minimize(obj, np.zeros(8), cfg)
        _, g = obj(x)
        assert np.max(np.abs(g)) <= cfg.grad_tol * max(1.0, abs(trace.final_value))


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
    return smooth, [(index, np.full(n_groups, float(weight)))], a, b


def assert_group_kkt(smooth, groups, x, trace, cfg):
    """Group-lasso optimality: a zero group's smooth gradient lies in the
    weight ball; a nonzero group's gradient balances its penalty term."""
    _, gs = smooth(x)
    for block, weights in groups:
        for idx, lam in zip(block, weights):
            xg, gg = x[idx], gs[idx]
            if np.all(xg == 0.0):
                assert np.linalg.norm(gg) <= lam * (1 + 1e-6)
            else:
                res = gg + lam * xg / np.linalg.norm(xg)
                assert np.max(np.abs(res)) <= cfg.grad_tol * 10 * max(
                    1.0, abs(trace.final_value)
                )


class TestGroupTruncation:
    def test_zero_weight_matches_smooth_minimize(self):
        smooth, groups, _, _ = make_group_lasso(2, weight=0.0)
        x0 = np.zeros(18)
        x1, _ = minimize(smooth, x0, OptimizerConfig(grad_tol=1e-10))
        x2, _ = minimize_with_group_truncation(
            smooth, x0, groups, OptimizerConfig(grad_tol=1e-10)
        )
        np.testing.assert_allclose(x1, x2, atol=1e-7)

    def test_large_weight_keeps_all_groups_zero(self):
        smooth, [(index, _)], _, _ = make_group_lasso(3)
        _, g0 = smooth(np.zeros(18))
        big = 10 * np.max(np.linalg.norm(g0[index], axis=1))
        groups = [(index, np.full(len(index), big))]
        x, _ = minimize_with_group_truncation(smooth, np.zeros(18), groups)
        assert np.all(x == 0.0)

    def test_kkt_conditions_at_solution(self):
        lam = 8.0
        for seed in range(5):
            smooth, groups, _, _ = make_group_lasso(seed, n_obs=60, weight=lam)
            cfg = OptimizerConfig(grad_tol=1e-9, max_iters=3000, value_tol=1e-14)
            x, trace = minimize_with_group_truncation(
                smooth, np.zeros(18), groups, cfg
            )
            assert_group_kkt(smooth, groups, x, trace, cfg)

    def test_converges_in_few_iterations(self):
        # The projection zeroes a group as soon as a trial step carries it
        # across zero, so zero groups cost no extra iterations.
        for lam in (8.0, 20.0):
            for seed in range(5):
                smooth, groups, _, _ = make_group_lasso(seed, n_obs=60, weight=lam)
                cfg = OptimizerConfig(grad_tol=1e-9, max_iters=3000, value_tol=1e-14)
                x, trace = minimize_with_group_truncation(
                    smooth, np.ones(18), groups, cfg
                )
                assert_group_kkt(smooth, groups, x, trace, cfg)
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

    def test_value_fn_serves_backtracking_trials(self):
        smooth, groups, _, _ = make_group_lasso(5, weight=5.0)
        calls = {"smooth": 0, "value": 0}

        def counted(x):
            calls["smooth"] += 1
            return smooth(x)

        def value(x):
            calls["value"] += 1
            return smooth(x)[0]

        x1, trace = minimize_with_group_truncation(
            counted, np.zeros(18), groups, value_fn=value
        )
        x2, _ = minimize_with_group_truncation(smooth, np.zeros(18), groups)
        np.testing.assert_array_equal(x1, x2)
        assert calls["value"] == trace.backtracks
        assert calls["smooth"] <= 1 + 2 * trace.iterations

    def test_blocks_of_different_group_sizes(self):
        # a block of pairs and a block holding one group of six
        smooth, [(index, _)], _, _ = make_group_lasso(6, n_obs=60)
        flat = index.ravel()
        groups = [
            (flat[:12].reshape(6, 2), np.full(6, 4.0)),
            (flat[12:].reshape(1, 6), np.array([40.0])),
        ]
        cfg = OptimizerConfig(grad_tol=1e-9, max_iters=3000, value_tol=1e-14)
        x, trace = minimize_with_group_truncation(smooth, np.zeros(18), groups, cfg)
        assert_group_kkt(smooth, groups, x, trace, cfg)
        assert np.all(x[flat[12:]] == 0.0)
        assert np.any(x[flat[:12]] != 0.0)


@pytest.mark.parametrize("penalized", [False, True])
def test_degenerate_trial_iterate_backtracks(penalized):
    c = np.array([1.0, -2.0, 0.5])
    radius = 1.5 * np.linalg.norm(c)

    def obj(x):
        if np.linalg.norm(x) > radius:
            raise DegenerateModelError("condition number above the bound")
        return float(np.sum((x - c) ** 2)), 2 * (x - c)

    cfg = OptimizerConfig(grad_tol=1e-10)
    if penalized:
        groups = [(np.array([[0, 1, 2]]), np.array([0.1]))]
        x, trace = minimize_with_group_truncation(obj, np.zeros(3), groups, cfg)
        np.testing.assert_allclose(x, c * (1 - 0.05 / np.linalg.norm(c)), atol=1e-8)
    else:
        x, trace = minimize(obj, np.zeros(3), cfg)
        np.testing.assert_allclose(x, c, atol=1e-8)
    assert trace.converged
    assert trace.backtracks >= 1


def zero_group_pseudo_gradient(group_grads, weights):
    """Pseudo-gradient at 0 of a layout with one group per row of
    ``group_grads``, returned row by row."""
    group_grads = np.atleast_2d(group_grads)
    g, k = group_grads.shape
    layout = GroupLayout([(np.arange(g * k).reshape(g, k), np.broadcast_to(weights, g))])
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
        weights = np.array([1.0, 2.0, 0.5])
        out = zero_group_pseudo_gradient(rows, weights)
        for row, w, got in zip(rows, weights, out):
            np.testing.assert_array_equal(got, zero_group_pseudo_gradient(row, w)[0])
        np.testing.assert_allclose(out[1], rows[1] * 0.6)
        assert np.all(out[[0, 2]] == 0.0)

    def test_nonzero_group_adds_weighted_direction(self):
        layout = GroupLayout([(np.array([[0, 1]]), np.array([2.0]))])
        x, g = np.array([3.0, 4.0, 1.0]), np.array([1.0, -1.0, 5.0])
        pg, ref = layout.pseudo_gradient(x, g, layout.norms(x))
        np.testing.assert_allclose(pg, g + 2.0 * np.array([0.6, 0.8, 0.0]))
        np.testing.assert_array_equal(ref, x)


class TestGroupLayout:
    def test_empty_and_unweighted_groups_are_left_out(self):
        # groups with no members (an order-0 model's H groups) or weight 0
        # contribute nothing; the layout keeps only the remaining group
        layout = GroupLayout([
            (np.zeros((3, 0), dtype=int), np.full(3, 0.5)),
            (np.array([[0, 1], [2, 3]]), np.array([0.0, 1.5])),
            (np.zeros((1, 0), dtype=int), np.array([0.7])),
        ])
        x = np.array([1.0, 1.0, 3.0, 4.0])
        np.testing.assert_array_equal(layout.norms(x), [5.0])
        assert layout.penalty(x) == 7.5
        u = np.array([1.0, 1.0, -3.0, -4.0])
        assert layout.project(u, x)
        np.testing.assert_array_equal(u, [1.0, 1.0, 0.0, 0.0])

    def test_only_empty_groups_is_smooth(self):
        layout = GroupLayout([(np.zeros((2, 0), dtype=int), np.full(2, 0.5))])
        assert not layout.active
        x, g = np.array([1.0, -2.0]), np.array([0.5, 0.5])
        assert layout.penalty(x) == 0.0
        pg, ref = layout.pseudo_gradient(x, g, layout.norms(x))
        np.testing.assert_array_equal(pg, g)
        assert not layout.project(x.copy(), ref)


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
    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_matches_two_loop_recursion(self, m):
        # 3m + 7 pushes wrap the memory around several times; every fourth
        # pair has s^T y < 0 and every fifth s^T y = 0 (up to rounding), and
        # both must be rejected
        rng = np.random.default_rng(m)
        n = 15
        a = rng.standard_normal((n, n))
        hess = a @ a.T + 0.5 * np.eye(n)
        memory = _LbfgsMemory(m, n)
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
