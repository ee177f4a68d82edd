import numpy as np
import pytest

from scsa.exceptions import DegenerateModelError
from scsa.optim import (
    OptimizerConfig,
    minimize,
    minimize_with_group_truncation,
    min_norm_subgradient,
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


class TestMinNormSubgradient:
    def test_inside_ball_is_zero(self):
        g = np.array([0.3, -0.2])
        assert np.all(min_norm_subgradient(g, 1.0) == 0.0)

    def test_outside_ball_shrinks_radially(self):
        g = np.array([3.0, 4.0])  # norm 5
        out = min_norm_subgradient(g, 2.0)
        np.testing.assert_allclose(out, g * (1 - 2.0 / 5.0))

    def test_rows_are_groups(self):
        rows = np.array([[0.3, -0.2], [3.0, 4.0], [0.0, 0.0]])
        weights = np.array([1.0, 2.0, 0.5])
        out = min_norm_subgradient(rows, weights)
        for row, w, got in zip(rows, weights, out):
            np.testing.assert_array_equal(got, min_norm_subgradient(row, w))
        np.testing.assert_allclose(out[1], rows[1] * 0.6)
        assert np.all(out[[0, 2]] == 0.0)
