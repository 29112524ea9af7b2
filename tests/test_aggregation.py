import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmcdm import (
    AwgmmOptions,
    PriorityMatrix,
    aggregate_amm,
    aggregate_awgmm,
    aggregate_gmm,
    build_average_array,
    check_pareto,
)
from groupmcdm.composition import consistency_violation, pair_indices
from groupmcdm.errors import InputError, WeightDimensionMismatch

from conftest import EXAMPLE_W, random_matrix


def normalized_geometric_mean(values):
    """Independent oracle: per-column product^(1/K), then closure."""
    K = values.shape[0]
    g = np.prod(values ** (1.0 / K), axis=0)
    return g / g.sum()


def brute_force_mean_array(values):
    """Independent oracle: explicit loops over pairs and decision-makers."""
    K, n = values.shape
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = sum(
                    math.log(values[k, i] / values[k, j]) for k in range(K)
                ) / K
    return out


class TestAmm:
    def test_worked_example(self, example_matrix):
        got = aggregate_amm(example_matrix).weights.parts
        np.testing.assert_allclose(got, [0.253, 0.389, 0.277, 0.081], atol=1e-3)

    def test_single_dm_is_identity(self):
        W = PriorityMatrix(EXAMPLE_W[:1])
        np.testing.assert_allclose(
            aggregate_amm(W).weights.parts, EXAMPLE_W[0], atol=1e-15
        )

    def test_identical_dms(self):
        W = PriorityMatrix(np.tile(EXAMPLE_W[1], (4, 1)))
        np.testing.assert_allclose(
            aggregate_amm(W).weights.parts, EXAMPLE_W[1], atol=1e-15
        )

    def test_method_tag(self, example_matrix):
        assert aggregate_amm(example_matrix).method == "amm"


class TestAverageArray:
    def test_mean_matches_brute_force(self):
        rng = np.random.default_rng(11)
        W = random_matrix(rng, 6, 5)
        got = build_average_array(W, "mean")
        np.testing.assert_allclose(got, brute_force_mean_array(W.values), atol=1e-12)

    def test_worked_example_entry(self, example_matrix):
        # exact recomputation from the fixture; the 3-decimal reference
        # display shows -0.446
        xi = build_average_array(example_matrix, "mean")
        assert xi[0, 1] == pytest.approx(-0.447376, abs=1e-5)

    def test_antisymmetry_is_exact(self):
        rng = np.random.default_rng(12)
        for estimator in ("mean", "median"):
            W = random_matrix(rng, 7, 4)
            xi = build_average_array(W, estimator)
            np.testing.assert_array_equal(xi, -xi.T)

    def test_identical_rows_mean_is_shared_ratios(self):
        from groupmcdm import log_ratio_transform

        W = PriorityMatrix(np.tile(EXAMPLE_W[0], (3, 1)))
        xi = build_average_array(W, "mean")
        i, j = pair_indices(4)
        np.testing.assert_allclose(
            xi[i, j], log_ratio_transform(W.row(0)), atol=1e-14
        )

    def test_median_matches_numpy_oracle(self):
        rng = np.random.default_rng(13)
        W = random_matrix(rng, 8, 4)
        xi = build_average_array(W, "median")
        logs = np.log(W.values)
        for i in range(4):
            for j in range(4):
                expected = np.median(logs[:, i] - logs[:, j])
                assert xi[i, j] == pytest.approx(expected, abs=1e-15)

    def test_weighted_with_uniform_weights_equals_mean(self):
        rng = np.random.default_rng(14)
        W = random_matrix(rng, 5, 4)
        lam = np.full(5, 0.2)
        np.testing.assert_allclose(
            build_average_array(W, "weighted", dm_weights=lam),
            build_average_array(W, "mean"),
            atol=1e-14,
        )

    def test_weight_dimension_checked(self, example_matrix):
        with pytest.raises(WeightDimensionMismatch):
            build_average_array(example_matrix, "weighted", dm_weights=[0.5, 0.5])
        with pytest.raises(WeightDimensionMismatch):
            build_average_array(example_matrix, "weighted")

    @pytest.mark.parametrize("estimator", ["mean", "median"])
    def test_dm_weights_checked_whenever_given(self, example_matrix, estimator):
        # the estimators that do not use the weights still reject bad ones
        with pytest.raises(InputError, match="DM weights must be real numbers"):
            build_average_array(example_matrix, estimator, dm_weights="abc")
        with pytest.raises(WeightDimensionMismatch, match="2 weights for 5 decision-makers"):
            build_average_array(example_matrix, estimator, dm_weights=[0.5, 0.5])
        with pytest.raises(InputError, match="DM weights must be finite, non-negative"):
            build_average_array(example_matrix, estimator, dm_weights=[0.5] * 5)

    def test_unknown_estimator(self, example_matrix):
        with pytest.raises(InputError):
            build_average_array(example_matrix, "mode")

    def test_mean_is_additively_consistent(self):
        rng = np.random.default_rng(15)
        W = random_matrix(rng, 9, 6)
        assert consistency_violation(build_average_array(W, "mean")) < 1e-12


class TestGmm:
    def test_worked_example(self, example_matrix):
        got = aggregate_gmm(example_matrix).weights.parts
        np.testing.assert_allclose(got, [0.260, 0.405, 0.269, 0.066], atol=1e-3)

    def test_single_dm_is_identity(self):
        W = PriorityMatrix(EXAMPLE_W[:1])
        np.testing.assert_allclose(
            aggregate_gmm(W).weights.parts, EXAMPLE_W[0], atol=1e-12
        )

    def test_equals_normalized_geometric_mean(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            W = random_matrix(rng, int(rng.integers(2, 12)), int(rng.integers(2, 8)))
            got = aggregate_gmm(W).weights.parts
            np.testing.assert_allclose(
                got, normalized_geometric_mean(W.values), rtol=0, atol=1e-12
            )

    def test_dm_permutation_invariance(self, example_matrix):
        perm = np.array([4, 2, 0, 3, 1])
        shuffled = PriorityMatrix(example_matrix.values[perm], example_matrix.labels)
        np.testing.assert_array_equal(
            aggregate_gmm(example_matrix).weights.parts,
            aggregate_gmm(shuffled).weights.parts,
        )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_dm_permutation_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        W = random_matrix(rng, int(rng.integers(2, 12)), int(rng.integers(2, 8)))
        shuffled = PriorityMatrix(W.values[rng.permutation(W.n_dms)])
        np.testing.assert_allclose(aggregate_gmm(shuffled).weights.parts,
                                   aggregate_gmm(W).weights.parts, rtol=0, atol=1e-12)

    def test_differs_from_amm_on_example(self, example_matrix):
        amm = aggregate_amm(example_matrix).weights.parts
        gmm = aggregate_gmm(example_matrix).weights.parts
        assert np.max(np.abs(amm - gmm)) > 0.005

    def test_memory_stays_quadratic(self):
        rng = np.random.default_rng(61)
        W = random_matrix(rng, 200, 200)
        tracemalloc.start()
        try:
            aggregate_gmm(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (n, n, n) consistency temporary alone would take 64 MB here
        assert peak < 5e6


class TestAwgmm:
    # frozen from an independent run of the documented iteration
    EXPECTED_LAMBDA = [0.25588, 0.26260, 0.00000, 0.23297, 0.24855]

    def test_worked_example_weights(self, example_matrix):
        result = aggregate_awgmm(example_matrix)
        np.testing.assert_allclose(
            result.weights.parts, [0.225, 0.410, 0.319, 0.046], atol=1e-3
        )
        assert result.converged and result.iterations <= 500

    def test_worked_example_dm_weights(self, example_matrix):
        result = aggregate_awgmm(example_matrix)
        np.testing.assert_allclose(result.dm_weights, self.EXPECTED_LAMBDA, atol=1e-4)
        assert result.dm_weights[2] < 0.01  # the deviant DM

    def test_dm_weights_on_simplex(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            W = random_matrix(rng, int(rng.integers(2, 15)), int(rng.integers(2, 7)))
            lam = aggregate_awgmm(W).dm_weights
            assert np.all(lam >= 0)
            assert abs(lam.sum() - 1.0) <= 1e-12

    def test_weights_are_closed_weighted_product_of_rows(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            W = random_matrix(rng, int(rng.integers(2, 15)), int(rng.integers(2, 7)))
            result = aggregate_awgmm(W)
            direct = np.prod(W.values ** result.dm_weights[:, None], axis=0)
            np.testing.assert_allclose(
                result.weights.parts, direct / direct.sum(), rtol=0, atol=1e-10
            )

    def test_identical_dms_degenerate_case(self):
        W = PriorityMatrix(np.tile(EXAMPLE_W[0], (4, 1)))
        result = aggregate_awgmm(W)
        assert result.converged
        np.testing.assert_allclose(result.weights.parts, EXAMPLE_W[0], atol=1e-12)
        np.testing.assert_allclose(result.dm_weights, [0.25] * 4, atol=1e-15)

    def test_identity_estimator_equals_gmm(self):
        rng = np.random.default_rng(18)
        opts = AwgmmOptions(force_identity_estimator=True)
        for _ in range(20):
            W = random_matrix(rng, int(rng.integers(2, 10)), int(rng.integers(2, 6)))
            a = aggregate_awgmm(W, opts).weights.parts
            g = aggregate_gmm(W).weights.parts
            np.testing.assert_allclose(a, g, rtol=0, atol=1e-10)

    def test_weighted_array_consistency(self, example_matrix):
        lam = aggregate_awgmm(example_matrix).dm_weights
        xi = build_average_array(example_matrix, "weighted", dm_weights=lam)
        assert consistency_violation(xi) < 1e-10

    def test_monotone_contribution(self, example_matrix):
        result = aggregate_awgmm(example_matrix)
        what = example_matrix.log_ratios()
        from groupmcdm import log_ratio_transform

        wg = log_ratio_transform(result.weights)
        dists = np.linalg.norm(what - wg, axis=1)
        order = np.argsort(dists)
        lam_sorted = result.dm_weights[order]
        assert np.all(np.diff(lam_sorted) <= 1e-12)

    def test_dm_permutation_invariance(self, example_matrix):
        perm = np.array([3, 0, 4, 1, 2])
        shuffled = PriorityMatrix(example_matrix.values[perm], example_matrix.labels)
        a = aggregate_awgmm(example_matrix)
        b = aggregate_awgmm(shuffled)
        np.testing.assert_allclose(a.weights.parts, b.weights.parts, atol=1e-12)
        np.testing.assert_allclose(a.dm_weights[perm], b.dm_weights, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_dm_permutation_invariance_property(self, seed):
        # the verdict and weights stay; the DM weights permute with the rows
        rng = np.random.default_rng(seed)
        W = random_matrix(rng, int(rng.integers(2, 12)), int(rng.integers(2, 8)))
        perm = rng.permutation(W.n_dms)
        a = aggregate_awgmm(W)
        b = aggregate_awgmm(PriorityMatrix(W.values[perm]))
        assert a.converged == b.converged
        np.testing.assert_allclose(b.weights.parts, a.weights.parts, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.dm_weights, a.dm_weights[perm], rtol=0, atol=1e-12)

    def test_sigma_trace_recorded(self, example_matrix):
        result = aggregate_awgmm(example_matrix)
        assert result.sigma_trace is not None
        assert len(result.sigma_trace) == result.iterations + 1
        assert all(s >= 0 for s in result.sigma_trace)

    def test_max_iter_respected(self, example_matrix):
        result = aggregate_awgmm(example_matrix, AwgmmOptions(max_iter=1, tol=1e-30))
        assert result.iterations == 1
        assert not result.converged

    def test_one_dm_is_its_own_aggregate(self):
        # a panel whose DMs all agree: uniform DM weights, converged at once
        W = PriorityMatrix(EXAMPLE_W[:1])
        result = aggregate_awgmm(W)
        assert result.dm_weights.tolist() == [1.0]
        assert result.converged and result.iterations == 1
        np.testing.assert_array_equal(result.weights.parts, aggregate_gmm(W).weights.parts)

    def test_option_validation(self):
        with pytest.raises(InputError):
            AwgmmOptions(max_iter=0)
        with pytest.raises(InputError, match="max_iter must be an integer, got 2.5"):
            AwgmmOptions(max_iter=2.5)
        with pytest.raises(InputError):
            AwgmmOptions(tol=0.0)

    def test_infinite_tol_rejected(self):
        # tol=inf once stopped after one iteration
        with pytest.raises(InputError, match="tol must be positive and finite"):
            AwgmmOptions(tol=math.inf)

    def test_scale_is_the_sum_of_distances_over_n_squared(self):
        # sigma^2 = sum_k d_k / n^2 with d_k = n ||clr(W_k) - g||^2, at the
        # geometric-mean start and at the returned point, where the DM weights
        # are the Welsch kernel's softmax(-d / sigma^2) to within the tolerance
        rng = np.random.default_rng(28)

        def distances(logs, g):
            clr = logs - logs.mean(axis=1, keepdims=True)
            return logs.shape[1] * ((clr - g) ** 2).sum(axis=1)

        for _ in range(200):
            K, n = int(rng.integers(2, 61)), int(rng.integers(2, 13))
            values = rng.dirichlet(np.full(n, 10 ** rng.uniform(-0.5, 1.5)), size=K)
            result = aggregate_awgmm(PriorityMatrix(values))
            assert result.converged
            logs = np.log(values)
            start = distances(logs, (logs - logs.mean(axis=1, keepdims=True)).mean(axis=0))
            assert result.sigma_trace[0] == pytest.approx(start.sum() / n**2, rel=1e-12)
            out = np.log(result.weights.parts)
            d = distances(logs, out - out.mean())
            assert result.sigma_trace[-1] == pytest.approx(d.sum() / n**2, rel=1e-12)
            alpha = np.exp(-(d - d.min()) / result.sigma_trace[-1])
            np.testing.assert_allclose(result.dm_weights, alpha / alpha.sum(), rtol=0, atol=1e-8)


class TestPareto:
    def test_unanimous_pair_on_example(self, example_matrix):
        result = aggregate_awgmm(example_matrix)
        report = dict(check_pareto(example_matrix, result))
        assert report[(1, 3)] is True  # all DMs put c2 above c4

    def test_single_dm_preserves_everything(self):
        W = PriorityMatrix(EXAMPLE_W[:1])
        report = check_pareto(W, aggregate_gmm(W))
        assert report and all(ok for _, ok in report)

    def test_random_instances(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            W = random_matrix(rng, int(rng.integers(2, 8)), int(rng.integers(2, 6)))
            for result in (aggregate_gmm(W), aggregate_awgmm(W)):
                assert all(ok for _, ok in check_pareto(W, result))


def closure(values):
    return values / values.sum(axis=-1, keepdims=True)


# seed, number of DMs, number of criteria of a Dirichlet(1) panel
panels = st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 7))


class TestSimplexEquivariance:
    """Aggregation commutes with the simplex operations (Aitchison geometry)."""

    @given(panels)
    @settings(max_examples=60, deadline=None)
    def test_perturbation(self, panel):
        seed, K, n = panel
        rng = np.random.default_rng(seed)
        W = random_matrix(rng, K, n)
        p = rng.dirichlet(np.ones(n))
        moved = PriorityMatrix(W.values * p)
        for agg in (aggregate_gmm, aggregate_awgmm):
            base, shifted = agg(W), agg(moved)
            np.testing.assert_allclose(
                shifted.weights.parts, closure(base.weights.parts * p),
                rtol=0, atol=1e-10,
            )
        # AWGMM's DM weights depend on distances only, which perturbation keeps
        np.testing.assert_allclose(
            shifted.dm_weights, base.dm_weights, rtol=0, atol=1e-10
        )

    @given(panels, st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_gmm_powering(self, panel, a):
        seed, K, n = panel
        W = random_matrix(np.random.default_rng(seed), K, n)
        powered = aggregate_gmm(PriorityMatrix(W.values**a)).weights.parts
        expected = closure(aggregate_gmm(W).weights.parts ** a)
        np.testing.assert_allclose(powered, expected, rtol=0, atol=1e-10)

    @given(panels, st.floats(min_value=0.2, max_value=3.0), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_awgmm_powering(self, panel, magnitude, negative):
        seed, K, n = panel
        a = -magnitude if negative else magnitude
        W = random_matrix(np.random.default_rng(seed), K, n)
        base, powered = aggregate_awgmm(W), aggregate_awgmm(PriorityMatrix(W.values**a))
        # the stopping rule is absolute in clr units, so only the fixed point
        # is compared, not the iteration count
        np.testing.assert_allclose(
            powered.weights.parts, closure(base.weights.parts**a), rtol=0, atol=1e-8
        )
        np.testing.assert_allclose(powered.dm_weights, base.dm_weights, rtol=0, atol=1e-8)
