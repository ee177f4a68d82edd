import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsa.evaluation import (
    _min_cost_assignment,
    EvalReport,
    PairingResult,
    auc_from_scores,
    connectivity_auc,
    evaluate,
    interaction_scores,
    matrix_gof,
    optimal_pairing,
    pattern_gof,
    per_pattern_gof,
    regression_coefficient,
)
from scsa.exceptions import DegenerateModelError
from scsa.model import (
    MixingMatrix,
    MvarCoefficients,
    SourceModel,
    TimeSeriesMatrix,
    simulate_sources,
)


class TestRegressionCoefficient:
    def test_identical(self):
        v = np.array([1.0, 2.0, -1.0])
        assert regression_coefficient(v, v) == pytest.approx(1.0)

    def test_scaled(self):
        v = np.array([1.0, 2.0, -1.0])
        assert regression_coefficient(v, -2 * v) == pytest.approx(-0.5)

    def test_orthogonal(self):
        assert regression_coefficient(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == 0.0

    def test_zero_estimate_raises(self):
        with pytest.raises(DegenerateModelError):
            regression_coefficient(np.array([1.0]), np.array([0.0]))


class TestPatternGof:
    def test_scale_invariance(self):
        v = np.array([1.0, -2.0, 0.5])
        for alpha in (0.1, -3.0):
            assert pattern_gof(v, alpha * v) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_is_one(self):
        assert pattern_gof(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 1.0

    def test_hand_value(self):
        got = pattern_gof(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(np.sqrt(0.5))

    def test_zero_truth_raises(self):
        with pytest.raises(DegenerateModelError):
            pattern_gof(np.array([0.0, 0.0]), np.array([1.0, 0.0]))


def exhaustive_pairing_cost(cost):
    d = cost.shape[0]
    return min(
        sum(cost[i, perm[i]] for i in range(d))
        for perm in itertools.permutations(range(d))
    )


class TestOptimalPairing:
    def test_permuted_rescaled_truth(self):
        rng = np.random.default_rng(0)
        tm = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        perm = np.array([2, 0, 3, 1])
        scales = np.array([0.5, -2.0, 3.0, -0.1])
        em = np.empty_like(tm)
        for f in range(4):
            em[:, f] = scales[f] * tm[:, perm[f]]
        pairing = optimal_pairing(MixingMatrix(tm), MixingMatrix(em))
        np.testing.assert_array_equal(pairing.permutation, perm)
        assert pairing.total_cost == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(pairing.scales, 1.0 / scales)

    def test_two_by_two(self):
        tm = np.eye(2)
        em = np.array([[1.0, 0.3], [0.3, 1.0]])
        pairing = optimal_pairing(MixingMatrix(tm), MixingMatrix(em))
        np.testing.assert_array_equal(pairing.permutation, [0, 1])

    def test_matches_exhaustive_search(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 6))
            tm = rng.standard_normal((d, d)) + 2 * np.eye(d)
            em = rng.standard_normal((d, d)) + 2 * np.eye(d)
            pairing = optimal_pairing(MixingMatrix(tm), MixingMatrix(em))
            cost = np.array(
                [[pattern_gof(tm[:, i], em[:, j]) for j in range(d)] for i in range(d)]
            )
            assert pairing.total_cost == pytest.approx(exhaustive_pairing_cost(cost))

    def test_matches_scipy(self):
        # scipy is the reference only here: the package solves the pairing itself
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(0)
        for d in [*range(1, 13), 64]:
            for _ in range(20):
                continuous = rng.standard_normal((d, d))
                rows, cols = linear_sum_assignment(continuous)
                np.testing.assert_array_equal(_min_cost_assignment(continuous), cols)
                tied = rng.integers(0, 4, (d, d)).astype(float)
                rows, cols = linear_sum_assignment(tied)
                got = _min_cost_assignment(tied)
                assert sorted(got) == list(range(d))
                assert tied[rows, got].sum() == tied[rows, cols].sum()

    def test_constant_cost_pairs_in_order(self):
        # every pairing ties; each row's path ends at its lowest free column
        np.testing.assert_array_equal(_min_cost_assignment(np.ones((5, 5))), range(5))

    @pytest.mark.parametrize(
        "cost",
        [np.ones((2, 3)), np.ones(3), np.array([[0.0, np.nan], [1.0, 0.0]]),
         np.array([[0.0, np.inf], [1.0, 0.0]])],
    )
    def test_bad_cost_matrix_raises(self, cost):
        with pytest.raises(ValueError):
            _min_cost_assignment(cost)

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            PairingResult(np.array([0, 0]), np.array([1.0, 1.0]), 0.0)


class TestMatrixGof:
    def test_perfect_up_to_indeterminacy(self):
        rng = np.random.default_rng(1)
        tm = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        em = tm[:, [1, 2, 0]] * np.array([2.0, -0.5, 3.0])
        pairing = optimal_pairing(MixingMatrix(tm), MixingMatrix(em))
        assert matrix_gof(MixingMatrix(tm), MixingMatrix(em), pairing) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_first_order_perturbation(self):
        rng = np.random.default_rng(2)
        tm = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        delta = 1e-4
        noise = rng.standard_normal((5, 5))
        noise *= delta * np.linalg.norm(tm) / np.linalg.norm(noise)
        em = tm + noise
        pairing = optimal_pairing(MixingMatrix(tm), MixingMatrix(em))
        got = matrix_gof(MixingMatrix(tm), MixingMatrix(em), pairing)
        assert got == pytest.approx(delta, rel=0.5)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(3)
        tm = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        em = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        flipped = em * np.array([1.0, -1.0, -1.0])
        p1 = optimal_pairing(MixingMatrix(tm), MixingMatrix(em))
        p2 = optimal_pairing(MixingMatrix(tm), MixingMatrix(flipped))
        assert matrix_gof(MixingMatrix(tm), MixingMatrix(em), p1) == pytest.approx(
            matrix_gof(MixingMatrix(tm), MixingMatrix(flipped), p2), abs=1e-12
        )


class TestGofInvariance:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_signed_permutation_and_scaling_of_estimate(self, data):
        # the GOF scores do not see the order, scale or sign of the estimated
        # patterns; the pairing follows the relabelling
        d = data.draw(st.integers(2, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        perm = np.array(data.draw(st.permutations(range(d))))
        mags = data.draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d))
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
        scales = np.array(mags) * np.array(signs)
        tm = MixingMatrix(rng.standard_normal((d, d)) + 2 * np.eye(d))
        em = MixingMatrix(rng.standard_normal((d, d)) + 2 * np.eye(d))
        moved = MixingMatrix(em.m[:, perm] * scales)  # column f is old column perm[f]
        p1, p2 = optimal_pairing(tm, em), optimal_pairing(tm, moved)
        np.testing.assert_array_equal(p2.permutation, p1.permutation[perm])
        assert p2.total_cost == pytest.approx(p1.total_cost, abs=1e-12)
        assert matrix_gof(tm, moved, p2) == pytest.approx(matrix_gof(tm, em, p1), abs=1e-12)
        np.testing.assert_allclose(
            per_pattern_gof(tm, moved, p2), per_pattern_gof(tm, em, p1), rtol=0, atol=1e-12
        )


def auc_trapezoid(scores, labels):
    """Trapezoidal ROC-integration oracle."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, bool)
    thresholds = np.concatenate([[np.inf], np.sort(np.unique(scores))[::-1]])
    tpr = [np.mean(scores[labels] >= th) for th in thresholds] + [1.0]
    fpr = [np.mean(scores[~labels] >= th) for th in thresholds] + [1.0]
    return float(np.trapezoid(tpr, fpr))


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2, 0.0])
        labels = np.array([1, 1, 0, 0, 0], dtype=bool)
        assert auc_from_scores(scores, labels) == 1.0

    def test_null_distribution(self):
        rng = np.random.default_rng(4)
        vals = []
        scores = rng.random(40)
        labels = np.zeros(40, dtype=bool)
        labels[:10] = True
        for _ in range(300):
            rng.shuffle(labels)
            vals.append(auc_from_scores(scores, labels))
        assert np.mean(vals) == pytest.approx(0.5, abs=0.02)

    def test_matches_trapezoid_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            scores = np.round(rng.random(n), 2)  # force ties
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                continue
            got = auc_from_scores(scores, labels)
            assert got == pytest.approx(auc_trapezoid(scores, labels), abs=1e-12)

    def test_matches_rank_sum_with_ties(self):
        from scipy.stats import rankdata

        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            scores = np.round(rng.random(n), 1)  # many ties
            labels = rng.random(n) < 0.4
            n_pos, n_neg = int(labels.sum()), int((~labels).sum())
            if not n_pos or not n_neg:
                continue
            rank_sum = float(rankdata(scores)[labels].sum())
            expected = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
            assert auc_from_scores(scores, labels) == expected

    def test_degenerate_truth_absent(self):
        assert auc_from_scores([1.0, 2.0], [True, True]) is None
        assert auc_from_scores([1.0, 2.0], [False, False]) is None


def identity_pairing(d):
    return PairingResult(np.arange(d), np.ones(d), 0.0)


class TestConnectivityAuc:
    def test_exact_support_match(self):
        h = MvarCoefficients(
            [np.array([[0.4, 0.6, 0.0], [0.0, 0.3, 0.0], [0.5, 0.0, 0.2]])]
        )
        model = SourceModel(b=np.eye(3), h=h)
        support = np.array(
            [[False, True, False], [False, False, False], [True, False, False]]
        )
        auc = connectivity_auc(model, support, identity_pairing(3))
        assert auc == 1.0

    def test_alignment_through_permutation(self):
        # estimated sources are a permuted, rescaled copy of the truth; the
        # aligned scores must land on the true index pairs
        h_est = MvarCoefficients([np.array([[0.3, 0.0], [0.9, 0.2]])])
        model = SourceModel(b=np.eye(2), h=h_est)
        # estimated source 0 is true source 1 and vice versa
        pairing = PairingResult(np.array([1, 0]), np.array([2.0, -1.0]), 0.0)
        scores = interaction_scores(model, pairing)
        # true pair (0,1) maps to estimated pair (1,0): |c_0/c_1 * 0.9|
        assert scores[0, 1] == pytest.approx(abs(2.0 / -1.0) * 0.9)
        assert scores[1, 0] == pytest.approx(0.0, abs=1e-14)

    def test_scores_match_loop_reference(self):
        # reference: one true pair (d1, d2) at a time, from the estimated
        # group of its paired sources (f1, f2), rescaled inside the norm
        rng = np.random.default_rng(7)
        d, p = 4, 3
        hs = rng.standard_normal((p, d, d))
        model = SourceModel(b=np.eye(d), h=MvarCoefficients(list(hs)))
        scales = rng.choice([-1.0, 1.0], d) * rng.uniform(0.5, 2, d)
        pairing = PairingResult(np.array([2, 0, 3, 1]), scales, 0.0)
        inv = np.argsort(pairing.permutation)
        want = np.zeros((d, d))
        for d1 in range(d):
            for d2 in range(d):
                if d1 != d2:
                    f1, f2 = inv[d1], inv[d2]
                    c = pairing.scales[f2] / pairing.scales[f1]
                    want[d1, d2] = np.linalg.norm(c * hs[:, f1, f2])
        # the scale is applied outside the norm, a few roundings apart
        got = interaction_scores(model, pairing)
        np.testing.assert_allclose(got, want, rtol=8 * np.finfo(float).eps, atol=0)

    def test_order_zero_uses_posthoc_mvar(self):
        h = MvarCoefficients([np.array([[0.5, 0.7], [0.0, 0.4]])])
        s, _ = simulate_sources(h, T=4000, seed=6)
        model = SourceModel(b=np.eye(2), h=MvarCoefficients([]))
        support = np.array([[False, True], [False, False]])
        auc = connectivity_auc(
            model, support, identity_pairing(2), x=s, mvar_order=1
        )
        assert auc == 1.0

    def test_order_zero_without_data_raises(self):
        model = SourceModel(b=np.eye(2), h=MvarCoefficients([]))
        with pytest.raises(ValueError):
            connectivity_auc(
                model, np.array([[False, True], [False, False]]), identity_pairing(2)
            )

    @pytest.mark.parametrize("truth", [False, True], ids=["no-positive", "no-negative"])
    def test_one_class_truth_is_not_scored(self, truth):
        # no AUC exists, so nothing is scored: an order-0 model without data
        # to fit a post-hoc MVAR on does not raise
        model = SourceModel(b=np.eye(2), h=MvarCoefficients([]))
        support = np.full((2, 2), truth)
        assert connectivity_auc(model, support, identity_pairing(2)) is None


class TestEvaluateAndSerialization:
    def test_report_round_trip(self, tmp_path):
        h = MvarCoefficients([np.array([[0.4, 0.5], [0.0, 0.3]])])
        model = SourceModel(b=np.eye(2), h=h)
        support = np.array([[False, True], [False, False]])
        report = evaluate(
            "SCSA", model, MixingMatrix(np.eye(2)), support, selected_lambda=1.5
        )
        assert isinstance(report, EvalReport)
        payload = json.loads(report.to_json())
        assert payload["method"] == "SCSA"
        assert payload["gof_error"] == pytest.approx(0.0, abs=1e-12)
        assert payload["auc"] == 1.0
        assert payload["selected_lambda"] == 1.5
