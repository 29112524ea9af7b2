import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupmcdm import (
    AwgmmOptions,
    PriorityMatrix,
    aggregate_awgmm,
    average_deviation_array,
    build_average_array,
    credal_ranking,
    deviation_array_mad,
    deviation_array_robust,
    deviation_array_std,
)
from groupmcdm.errors import (
    InputError,
    InsufficientSamples,
    NumericError,
    WeightDimensionMismatch,
)

from conftest import EXAMPLE_W, WIDTHS, random_matrix


# three DMs on which AWGMM converges at iteration 502, past the default 500
SLOW_AWGMM = np.array([[0.6903, 0.1918, 0.1179], [0.6092, 0.01309, 0.3777],
                       [0.2379, 0.5797, 0.1824]])


def pair_column(values, i, j):
    return np.array([math.log(values[k, i] / values[k, j]) for k in range(len(values))])


def two_pass_std(xs):
    """Independent oracle: textbook two-pass sample standard deviation."""
    mean = sum(xs) / len(xs)
    return math.sqrt(sum((x - mean) ** 2 for x in xs) / (len(xs) - 1))


def sorted_median(xs):
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


class TestStd:
    def test_matches_two_pass_oracle(self, pair_block):
        rng = np.random.default_rng(21)
        W = random_matrix(rng, 8, 4)
        for width in WIDTHS:
            pair_block(width, W.n_dms)
            tau = deviation_array_std(W)
            for i in range(4):
                for j in range(4):
                    if i != j:
                        expected = two_pass_std(pair_column(W.values, i, j))
                        assert tau[i, j] == pytest.approx(expected, abs=1e-14)

    def test_worked_example_entries(self, example_matrix):
        tau = deviation_array_std(example_matrix)
        assert tau[0, 1] == pytest.approx(0.351, abs=2e-3)
        assert tau[0, 2] == pytest.approx(0.704, abs=2e-3)

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(22)
        W = random_matrix(rng, 6, 5)
        tau = deviation_array_std(W)
        np.testing.assert_allclose(tau, tau.T, atol=1e-12)
        np.testing.assert_array_equal(np.diag(tau), np.zeros(5))
        assert np.all(tau >= 0)

    def test_identical_rows_are_zero(self):
        W = PriorityMatrix(np.tile(EXAMPLE_W[2], (5, 1)))
        np.testing.assert_allclose(deviation_array_std(W), 0.0, atol=1e-14)

    def test_needs_two_dms(self):
        with pytest.raises(InsufficientSamples):
            deviation_array_std(PriorityMatrix(EXAMPLE_W[:1]))

    def test_scale_invariance_before_closure(self):
        rng = np.random.default_rng(23)
        raw = rng.uniform(0.1, 5.0, size=(6, 4))
        scaled = raw * rng.uniform(0.5, 20.0, size=(6, 1))
        a = deviation_array_std(PriorityMatrix(raw))
        b = deviation_array_std(PriorityMatrix(scaled))
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestMad:
    def test_matches_sort_based_oracle(self, pair_block):
        rng = np.random.default_rng(24)
        W = random_matrix(rng, 9, 4)
        for width in WIDTHS:
            pair_block(width, W.n_dms)
            tau = deviation_array_mad(W)
            for i in range(4):
                for j in range(4):
                    if i != j:
                        col = pair_column(W.values, i, j)
                        med = sorted_median(col)
                        expected = sorted_median([abs(x - med) for x in col])
                        assert tau[i, j] == pytest.approx(expected, abs=1e-12)

    def test_worked_example_entry(self, example_matrix):
        tau = deviation_array_mad(example_matrix)
        assert tau[0, 1] == pytest.approx(0.162, abs=2e-3)

    def test_identical_rows_are_zero(self):
        W = PriorityMatrix(np.tile(EXAMPLE_W[0], (4, 1)))
        np.testing.assert_allclose(deviation_array_mad(W), 0.0, atol=1e-15)

    def test_duplicating_the_whole_panel_preserves_mad(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            W = random_matrix(rng, int(rng.integers(2, 8)), 4)
            base = deviation_array_mad(W)
            doubled = PriorityMatrix(np.vstack([W.values, W.values]))
            np.testing.assert_allclose(deviation_array_mad(doubled), base, atol=1e-14)


class TestRobust:
    def test_worked_example_entry(self, example_matrix):
        # frozen from the documented pipeline: lambda from the robust
        # aggregation, spread around the weighted average array
        lam = aggregate_awgmm(example_matrix).dm_weights
        tau = deviation_array_robust(example_matrix, lam)
        assert tau[0, 1] == pytest.approx(0.10926, abs=1e-4)

    def test_concentrated_weights_give_zero(self, example_matrix):
        lam = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        tau = deviation_array_robust(example_matrix, lam)
        np.testing.assert_allclose(tau, 0.0, atol=1e-14)

    def test_uniform_weights_equal_population_std(self):
        rng = np.random.default_rng(26)
        W = random_matrix(rng, 7, 5)
        lam = np.full(7, 1.0 / 7)
        tau = deviation_array_robust(W, lam)
        logs = np.log(W.values)
        diffs = logs[:, :, None] - logs[:, None, :]
        np.testing.assert_allclose(tau, diffs.std(axis=0, ddof=0), atol=1e-12)

    def test_weight_dimension_checked(self, example_matrix):
        with pytest.raises(WeightDimensionMismatch):
            deviation_array_robust(example_matrix, [0.5, 0.5])

    @pytest.mark.parametrize("lam", [[math.nan, 0.5, 0.5], [-1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
                             ids=["nan", "negative", "sum-6"])
    def test_dm_weights_finite_non_negative_unit_sum(self, lam):
        W = PriorityMatrix(np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.6, 0.1, 0.3]]))
        with pytest.raises(InputError, match="DM weights must be finite, non-negative"):
            build_average_array(W, "weighted", dm_weights=lam)
        with pytest.raises(InputError, match="DM weights must be finite, non-negative"):
            deviation_array_robust(W, lam)

    def test_centre_is_the_weighted_average_array(self, example_matrix):
        # the centre follows the weights: no caller-supplied average array can
        # put the mean array (tau_01 = 0.189) where the weighted one belongs
        lam = aggregate_awgmm(example_matrix).dm_weights
        xi = build_average_array(example_matrix, "weighted", dm_weights=lam)
        logs = np.log(example_matrix.values)
        diffs = logs[:, :, None] - logs[:, None, :]
        expected = np.sqrt((lam[:, None, None] * (diffs - xi) ** 2).sum(axis=0))
        tau = deviation_array_robust(example_matrix, lam)
        np.testing.assert_allclose(tau, expected, rtol=0, atol=1e-14)
        about_mean = np.sqrt((lam[:, None, None] * (
            diffs - build_average_array(example_matrix, "mean")) ** 2).sum(axis=0))
        assert about_mean[0, 1] == pytest.approx(0.189, abs=1e-3)
        assert tau[0, 1] == pytest.approx(0.109, abs=1e-3)


class TestAverageDeviationArray:
    def test_mean_pairs_mean_with_std(self, example_matrix):
        ad = average_deviation_array(example_matrix, "mean")
        np.testing.assert_array_equal(ad.xi, build_average_array(example_matrix, "mean"))
        np.testing.assert_array_equal(ad.tau, deviation_array_std(example_matrix))

    def test_combined_layout(self, example_matrix):
        for estimator in ("mean", "median", "awgmm"):
            ad = average_deviation_array(example_matrix, estimator)
            combined = ad.combined
            n = combined.shape[0]
            for i in range(n):
                assert combined[i, i] == 0.0
                for j in range(n):
                    if i < j:
                        assert combined[i, j] == ad.xi[i, j]
                    elif i > j:
                        assert combined[i, j] == ad.tau[i, j]

    def test_combined_layout_various_sizes(self):
        rng = np.random.default_rng(27)
        for n in (2, 3, 6):
            ad = average_deviation_array(random_matrix(rng, 5, n), "median")
            assert ad.combined.shape == (n, n)
            np.testing.assert_array_equal(np.diag(ad.combined), np.zeros(n))

    def test_identical_rows(self):
        from groupmcdm import log_ratio_transform
        from groupmcdm.composition import pair_indices

        W = PriorityMatrix(np.tile(EXAMPLE_W[1], (4, 1)))
        for estimator in ("mean", "median", "awgmm"):
            ad = average_deviation_array(W, estimator)
            i, j = pair_indices(4)
            np.testing.assert_allclose(
                ad.xi[i, j], log_ratio_transform(W.row(0)), atol=1e-12
            )
            np.testing.assert_allclose(ad.tau, 0.0, atol=1e-12)

    def test_median_entry_on_example(self, example_matrix):
        ad = average_deviation_array(example_matrix, "median")
        assert ad.xi[0, 1] == pytest.approx(-0.518, abs=2e-3)

    def test_unknown_estimator(self, example_matrix):
        with pytest.raises(InputError):
            average_deviation_array(example_matrix, "trimmed")

    def test_unconverged_awgmm_is_a_numeric_error(self):
        # this panel needs 502 iterations; stopping at 500 would give DM
        # weights that are not the estimator's
        W = PriorityMatrix(SLOW_AWGMM)
        assert not aggregate_awgmm(W).converged
        with pytest.raises(NumericError, match="did not converge within 500 iterations"):
            average_deviation_array(W, "awgmm")
        opts = AwgmmOptions(max_iter=1000)
        got = average_deviation_array(W, "awgmm", awgmm_options=opts)
        lam = aggregate_awgmm(W, opts).dm_weights
        np.testing.assert_array_equal(
            got.xi, build_average_array(W, "weighted", dm_weights=lam))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_dm_permutation_leaves_every_ad_array(self, seed):
        rng = np.random.default_rng(seed)
        W = random_matrix(rng, int(rng.integers(2, 10)), int(rng.integers(2, 7)))
        shuffled = PriorityMatrix(W.values[rng.permutation(W.n_dms)])
        for estimator in ("mean", "median", "awgmm"):
            try:
                ad = average_deviation_array(W, estimator)
            except NumericError:
                with pytest.raises(NumericError):
                    average_deviation_array(shuffled, estimator)
                continue
            got = average_deviation_array(shuffled, estimator)
            np.testing.assert_allclose(got.xi, ad.xi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.tau, ad.tau, rtol=0, atol=1e-12)

    def test_estimator_tags(self, example_matrix):
        assert average_deviation_array(example_matrix, "mean").estimator == "mean"


class TestCriterionPermutation:
    @given(st.integers(min_value=0, max_value=10_000))
    @example(73)  # AWGMM stops unconverged at 500 iterations, permuted or not
    @settings(max_examples=30, deadline=None)
    def test_every_ad_array_permutes_with_the_criteria(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        W = random_matrix(rng, int(rng.integers(3, 10)), n)
        perm = rng.permutation(n)
        permuted = PriorityMatrix(W.values[:, perm])
        rows_cols = np.ix_(perm, perm)
        for estimator, tol in (("mean", 1e-12), ("median", 1e-12), ("awgmm", 1e-8)):
            # awgmm's stopping rule sees the permutation only through rounding
            try:
                ad = average_deviation_array(W, estimator)
            except NumericError:
                with pytest.raises(NumericError):
                    average_deviation_array(permuted, estimator)
                continue
            got = average_deviation_array(permuted, estimator)
            np.testing.assert_allclose(got.xi, ad.xi[rows_cols], rtol=0, atol=tol)
            np.testing.assert_allclose(got.tau, ad.tau[rows_cols], rtol=0, atol=tol)


class TestSimplexActions:
    """Perturbing the panel by p shifts each average by ln(p_i / p_j) and keeps
    each spread; powering it by a scales the averages by a, the spreads by |a|."""

    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.2, max_value=3.0),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_every_ad_array_follows_perturbation_and_powering(self, seed, magnitude, negative):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        W = random_matrix(rng, int(rng.integers(2, 13)), n)
        p, a = rng.dirichlet(np.ones(n)), -magnitude if negative else magnitude
        log_p = np.log(p)
        for estimator, tol in (("mean", 1e-10), ("median", 1e-10), ("awgmm", 1e-8)):
            try:
                ad, moved, powered = (average_deviation_array(V, estimator) for V in (
                    W, PriorityMatrix(W.values * p), PriorityMatrix(W.values**a)))
            except NumericError:
                # AWGMM stopped unconverged on one panel: no fixed point to compare
                continue
            np.testing.assert_allclose(moved.xi, ad.xi + log_p[:, None] - log_p, rtol=0, atol=tol)
            np.testing.assert_allclose(moved.tau, ad.tau, rtol=0, atol=tol)
            np.testing.assert_allclose(powered.xi, a * ad.xi, rtol=0, atol=tol)
            np.testing.assert_allclose(powered.tau, abs(a) * ad.tau, rtol=0, atol=tol)


class TestMemory:
    @pytest.mark.parametrize("run", [
        lambda W: average_deviation_array(W, "mean"),
        lambda W: average_deviation_array(W, "median"),
        lambda W: average_deviation_array(W, "awgmm"),
        lambda W: credal_ranking(W, test="sign"),
    ], ids=["ad-mean", "ad-median", "ad-awgmm", "sign-ranking"])
    def test_peak_stays_below_the_log_ratio_matrix(self, run):
        # the (K, n(n-1)/2) log-ratio matrix of this panel alone takes 4.2 MB;
        # blocked, each statistic keeps its temporaries to one pair block
        import scipy.special  # noqa: F401  (its first import alone traces 13 MB)

        W = random_matrix(np.random.default_rng(28), 300, 60)
        tracemalloc.start()
        try:
            run(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
