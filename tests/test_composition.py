import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from groupmcdm import (
    Composition,
    PriorityMatrix,
    aggregate_awgmm,
    aggregate_gmm,
    array_to_composition,
    build_average_array,
    close,
    credal_ranking,
    deviation_array_mad,
    deviation_array_robust,
    deviation_array_std,
    inverse_log_ratio,
    log_ratio_transform,
)
from groupmcdm import composition
from groupmcdm.composition import (
    _median,
    closed_exp,
    clr,
    consistency_violation,
    dimension_from_pairs,
    expand_log_ratios,
    pair_indices,
    pair_statistic,
)
from groupmcdm.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InconsistentArray,
    InputError,
    NonPositiveEntry,
    NumericError,
)

from conftest import EXAMPLE_W, WIDTHS, random_matrix


def brute_force_log_ratios(parts):
    """Independent oracle: explicit double loop in lexicographic pair order."""
    n = len(parts)
    return np.array(
        [math.log(parts[i] / parts[j]) for i in range(n) for j in range(i + 1, n)]
    )


positive_vectors = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.lists(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        min_size=n,
        max_size=n,
    )
)


class TestClose:
    def test_symmetric_input(self):
        assert np.array_equal(close([2, 2, 2, 2]).parts, [0.25, 0.25, 0.25, 0.25])

    def test_already_closed_row_is_untouched(self):
        row = EXAMPLE_W[0]
        np.testing.assert_allclose(close(row).parts, row, rtol=0, atol=1e-15)

    def test_two_parts(self):
        np.testing.assert_allclose(close([3, 1]).parts, [0.75, 0.25])

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            once = close(rng.uniform(0.01, 5.0, size=5))
            twice = close(once.parts)
            assert np.array_equal(once.parts, twice.parts)

    @given(positive_vectors, st.floats(min_value=1e-6, max_value=1e6))
    # its sum lies 1e-12 from 1: a closure rule that skips such a row breaks scale invariance
    @example([1.0, 999999.000001], 1e-06)
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, raw, scale):
        base = close(raw)
        scaled = close(np.asarray(raw) * scale)
        np.testing.assert_allclose(scaled.parts, base.parts, rtol=0, atol=1e-14)

    def test_rejects_zero_entry(self):
        with pytest.raises(NonPositiveEntry) as exc:
            close([0.5, 0.0, 0.5])
        assert exc.value.index == 1

    def test_rejects_negative_entry(self):
        with pytest.raises(NonPositiveEntry):
            close([0.5, -0.1, 0.6])

    def test_rejects_single_part(self):
        with pytest.raises(DimensionTooSmall):
            close([1.0])

    def test_unit_sum_invariant(self):
        c = close([0.1, 0.2, 0.7, 123.4])
        assert abs(c.parts.sum() - 1.0) <= 1e-12

    def test_parts_are_read_only(self):
        c = close([1, 2, 3])
        with pytest.raises(ValueError):
            c.parts[0] = 0.5

    def test_labels(self):
        c = close([1, 3], labels=("a", "b"))
        assert c.labels == ("a", "b")
        with pytest.raises(DimensionMismatch):
            close([1, 3], labels=("a",))


class TestLogRatioTransform:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            w = close(rng.uniform(0.01, 10.0, size=rng.integers(2, 9)))
            np.testing.assert_allclose(
                log_ratio_transform(w),
                brute_force_log_ratios(w.parts),
                rtol=0,
                atol=1e-12,
            )

    def test_worked_example_row(self):
        # the reference display is rounded to 3 decimals, hence the tolerance
        got = log_ratio_transform(close(EXAMPLE_W[0]))
        expected = [-0.681, -0.294, 1.480, 0.387, 2.161, 1.774]
        np.testing.assert_allclose(got, expected, atol=2.5e-3)

    def test_uniform_is_zero(self):
        np.testing.assert_array_equal(log_ratio_transform(close([1, 1, 1])), [0, 0, 0])

    def test_single_pair(self):
        np.testing.assert_allclose(
            log_ratio_transform(close([0.75, 0.25])), [math.log(3)]
        )

    def test_lexicographic_order(self):
        w = close([8, 4, 2, 1])
        ln2 = math.log(2)
        np.testing.assert_allclose(
            log_ratio_transform(w), [ln2, 2 * ln2, 3 * ln2, ln2, 2 * ln2, ln2]
        )

    def test_dimension(self):
        for n in range(2, 7):
            w = close(np.arange(1, n + 1, dtype=float))
            assert log_ratio_transform(w).size == n * (n - 1) // 2


class TestInverseLogRatio:
    def test_zero_vector_gives_uniform(self):
        c = inverse_log_ratio(np.zeros(6))
        np.testing.assert_allclose(c.parts, [0.25] * 4, atol=1e-15)

    def test_consistent_reference_vector(self):
        # exact inversion of this display-rounded vector, frozen from the
        # first-column readout exp([0, 0.628, 0.354, -1.546]) normalized
        v = np.array([-0.628, -0.354, 1.546, 0.274, 2.174, 1.90])
        c = inverse_log_ratio(v)
        np.testing.assert_allclose(
            c.parts, [0.221645, 0.415332, 0.315790, 0.047232], atol=1e-6
        )
        np.testing.assert_allclose(log_ratio_transform(c), v, atol=1e-8)

    def test_round_trip_on_random_compositions(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = close(rng.dirichlet(np.ones(rng.integers(2, 9))) + 1e-9)
            back = inverse_log_ratio(log_ratio_transform(w))
            np.testing.assert_allclose(back.parts, w.parts, rtol=0, atol=1e-12)

    def test_inconsistent_vector_raises(self):
        v = np.array([1.0, 0.0, 0.0])  # v12 + v23 = 1 but v13 = 0
        with pytest.raises(InconsistentArray, match="additive consistency") as exc:
            inverse_log_ratio(v)
        assert exc.value.max_violation == pytest.approx(1.0)

    def test_fraction_tolerance_in_the_message(self):
        # a Fraction has no float format before Python 3.12
        with pytest.raises(InconsistentArray, match=r"\(tolerance 1\.0e-01\)$"):
            inverse_log_ratio([1.0, 0.0, 0.0], tol=Fraction(1, 10))

    def test_inconsistency_is_a_numeric_error(self):
        # the readout's one error type, shared with array_to_composition
        with pytest.raises(NumericError):
            inverse_log_ratio([1.0, 0.0, 0.0])

    def test_vector_checked_before_tol(self):
        with pytest.raises(InputError, match="log-ratios must be finite"):
            inverse_log_ratio([math.nan], tol=-1.0)
        with pytest.raises(InputError, match="tol must be positive"):
            inverse_log_ratio([0.0], tol=-1.0)

    def test_bad_length_raises(self):
        with pytest.raises(DimensionMismatch):
            inverse_log_ratio(np.zeros(4))  # 4 is not n(n-1)/2

    def test_nan_log_ratio_rejected_as_non_finite(self):
        # NaN once passed the consistency test and was named a non-positive weight
        with pytest.raises(InputError, match="log-ratios must be finite, got nan at entry 0"):
            inverse_log_ratio([math.nan])

    def test_infinite_log_ratio_rejected_before_arithmetic(self):
        # inf once warned inf - inf in the consistency test, then underflowed a weight
        with pytest.raises(InputError, match="log-ratios must be finite, got inf at entry 1"):
            inverse_log_ratio([0.0, math.inf, 0.0])

    def test_dimension_from_pairs(self):
        assert dimension_from_pairs(1) == 2
        assert dimension_from_pairs(6) == 4
        assert dimension_from_pairs(45) == 10
        with pytest.raises(DimensionMismatch):
            dimension_from_pairs(5)
        # exact in integers: no float square root to overflow or round
        n = 3_037_000_500
        assert dimension_from_pairs(n * (n - 1) // 2) == n
        with pytest.raises(DimensionMismatch):
            dimension_from_pairs(2**61)


class TestReadoutFromLogSpace:
    """``inverse_log_ratio`` and ``array_to_composition`` read out through
    ``closed_exp``, which shifts by the row maximum before exponentiating."""

    READOUTS = (
        lambda v: inverse_log_ratio(np.array([v])),
        lambda v: array_to_composition(np.array([[0.0, v], [-v, 0.0]])),
    )

    def test_large_log_ratio_gives_a_subnormal_part(self):
        # exp(720) overflows: unshifted, the readout would divide inf by inf
        for readout in self.READOUTS:
            c = readout(-720.0)
            assert 0.0 < c.parts[0] < 1e-312
            assert c.parts[1] == 1.0

    def test_unrepresentable_part_is_rejected(self):
        for readout in self.READOUTS:
            with pytest.raises(InputError, match="entry 0 underflows to 0"):
                readout(-800.0)

    def test_inverts_clr_row_by_row(self):
        rng = np.random.default_rng(62)
        W = rng.dirichlet(np.ones(6), size=40)
        back = closed_exp(clr(W))
        np.testing.assert_allclose(back, W, rtol=1e-12, atol=0)
        for k in range(W.shape[0]):
            assert np.array_equal(back[k], closed_exp(clr(W[k])))


class TestArrayToComposition:
    def test_zero_array_gives_uniform(self):
        c = array_to_composition(np.zeros((3, 3)))
        np.testing.assert_allclose(c.parts, [1 / 3] * 3, atol=1e-15)

    def test_mean_array_of_example_reproduces_geometric_mean(self, example_matrix):
        from groupmcdm import build_average_array

        e = build_average_array(example_matrix, "mean")
        c = array_to_composition(e)
        np.testing.assert_allclose(c.parts, [0.260, 0.405, 0.269, 0.066], atol=1e-3)

    def test_rounded_display_array_is_rejected(self):
        # a 3-decimal rounding of a consistent array violates consistency by
        # ~1e-3, far beyond the 1e-8 gate
        e = np.array(
            [
                [0.0, -0.446, -0.036, 1.371],
                [0.446, 0.0, 0.411, 1.817],
                [0.036, -0.411, 0.0, 1.407],
                [-1.371, -1.817, -1.407, 0.0],
            ]
        )
        with pytest.raises(InconsistentArray):
            array_to_composition(e)

    def test_recovers_generating_composition(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = close(rng.dirichlet(np.ones(rng.integers(2, 7))) + 1e-9)
            e = expand_log_ratios(log_ratio_transform(w))
            got = array_to_composition(e)
            np.testing.assert_allclose(got.parts, w.parts, atol=1e-12)

    def test_non_antisymmetric_rejected(self):
        e = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InconsistentArray):
            array_to_composition(e)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_array_rejected(self, bad):
        with pytest.raises(InputError, match="average array must be finite, got .* at row 1"):
            array_to_composition(np.full((2, 2), bad))

    def test_consistency_violation_helper(self):
        w = close([1, 2, 3])
        e = expand_log_ratios(log_ratio_transform(w))
        assert consistency_violation(e) < 1e-14

    def test_consistency_violation_equals_broadcast_form(self):
        # reference: the (n, n, n) broadcast form, the same arithmetic per element
        rng = np.random.default_rng(60)
        for n in (2, 3, 7, 30):
            for xi in (
                rng.normal(size=(n, n)),
                expand_log_ratios(log_ratio_transform(rng.dirichlet(np.ones(n)))),
            ):
                through = xi[:, :, None] + xi[None, :, :]
                expected = float(np.max(np.abs(through - xi[:, None, :])))
                assert consistency_violation(xi) == expected

    def test_consistency_violation_memory_stays_quadratic(self):
        w = np.random.default_rng(64).uniform(0.1, 10.0, 200)
        xi = expand_log_ratios(log_ratio_transform(w))
        tracemalloc.start()
        try:
            assert consistency_violation(xi) < 1e-10
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (n, n, n) sum alone would take 64 MB here
        assert peak < 5e6

    def test_fraction_tolerance_in_the_message(self):
        # a Fraction has no float format before Python 3.12
        with pytest.raises(InconsistentArray, match=r"antisymmetry .* \(tolerance 1\.0e-01\)$"):
            array_to_composition([[0.0, 1.0], [1.0, 0.0]], tol=Fraction(1, 10))


class TestPermutationEquivariance:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_transform_commutes_with_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        w = close(rng.dirichlet(np.ones(n)) + 1e-9)
        perm = rng.permutation(n)
        permuted = close(w.parts[perm])
        # invert both and compare in the original order
        back = inverse_log_ratio(log_ratio_transform(permuted))
        np.testing.assert_allclose(back.parts[np.argsort(perm)], w.parts, atol=1e-12)


class TestPcmInLogSpace:
    """A pairwise comparison matrix (PCM) is checked as its log: reciprocity is
    antisymmetry and multiplicative transitivity is additive consistency."""

    CONSISTENT = np.array([[1, 2, 8], [0.5, 1, 4], [0.125, 0.25, 1]])

    def test_consistent_pcm_gives_its_priority_vector(self):
        c = array_to_composition(np.log(self.CONSISTENT))
        np.testing.assert_allclose(c.parts, np.array([8, 4, 1]) / 13, rtol=0, atol=1e-15)

    def test_broken_transitivity(self):
        m = self.CONSISTENT.copy()
        m[0, 2] = 7.0
        m[2, 0] = 1.0 / 7.0
        with pytest.raises(InconsistentArray, match="additive consistency") as exc:
            array_to_composition(np.log(m))
        assert exc.value.max_violation == pytest.approx(np.log(8 / 7))

    def test_non_reciprocal_rejected(self):
        m = self.CONSISTENT.copy()
        m[0, 1] = 3.0  # m[1, 0] still 0.5
        with pytest.raises(InconsistentArray, match="antisymmetry"):
            array_to_composition(np.log(m))

    def test_all_ones_gives_the_uniform_vector(self):
        c = array_to_composition(np.log(np.ones((4, 4))))
        np.testing.assert_array_equal(c.parts, np.full(4, 0.25))

    def test_non_unit_diagonal_rejected(self):
        m = self.CONSISTENT.copy()
        m[1, 1] = 2.0
        with pytest.raises(InconsistentArray, match="antisymmetry") as exc:
            array_to_composition(np.log(m))
        assert exc.value.max_violation == pytest.approx(2 * np.log(2.0))


def exact_violations(e):
    """The antisymmetry residual and the largest triple violation, from their
    definitions: the latter over the whole (n, n, n) broadcast."""
    return (float(np.max(np.abs(e + e.T))),
            float(np.max(np.abs(e[:, :, None] + e[None, :, :] - e[:, None, :]))))


def exact_readout(e, tol):
    """Oracle: the error message of the first check ``tol`` fails, or else the
    bytes of the closed exponential of the first column."""
    anti, violation = exact_violations(e)
    if anti > tol:
        return str(InconsistentArray(anti, tol, what="antisymmetry"))
    if violation > tol:
        return str(InconsistentArray(violation, tol))
    return Composition(closed_exp(e[:, 0])).parts.tobytes()


def readout(read, *args):
    """What a readout gives: its error message or its parts' bytes."""
    try:
        return read(*args).parts.tobytes()
    except InconsistentArray as exc:
        return str(exc)


class TestFastConsistencyCheck:
    """The readout clears consistency through the first column's misfit in O(n^2)
    and scans all triples only when that fails: same verdict, message and parts."""

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
           st.sampled_from(["noise", "eps", "exact"]))
    @settings(max_examples=300, deadline=None)
    def test_same_answer_as_the_exact_rule(self, seed, antisymmetric, near):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
        noise = 0.0 if near != "noise" and rng.random() < 0.5 else 10.0 ** rng.uniform(-13, -6)
        e = g[:, None] - g + noise * rng.normal(size=(n, n))
        if antisymmetric:
            e = np.triu(e, 1) - np.triu(e, 1).T
        if near == "noise":
            tol = noise * 10.0 ** rng.uniform(0, 1)
        elif near == "eps":
            tol = np.finfo(float).eps * np.max(np.abs(e)) * 10.0 ** rng.uniform(0, 2)
        else:
            # at the exact rule's own number only the rounding margin keeps the
            # O(n^2) check from clearing an array that the scan rejects
            tol = max(*exact_violations(e), 5e-324) * rng.uniform(0.5, 1.5)
        assert readout(array_to_composition, e, None, tol) == exact_readout(e, tol)
        v = e[pair_indices(n)]
        assert readout(inverse_log_ratio, v, None, tol) == exact_readout(
            expand_log_ratios(v), tol)

    def test_consistent_input_never_reaches_the_scan(self, monkeypatch):
        def scan(xi):
            raise AssertionError("the O(n^3) scan ran on a consistent array")

        monkeypatch.setattr(composition, "consistency_violation", scan)
        rng = np.random.default_rng(65)
        for _ in range(30):
            K, n = int(rng.integers(1, 40)), int(rng.integers(2, 30))
            W = random_matrix(rng, K, n)
            aggregate_gmm(W)
            aggregate_awgmm(W)
            w = close(rng.dirichlet(np.ones(n)) + 1e-9)
            back = inverse_log_ratio(log_ratio_transform(w))
            np.testing.assert_allclose(back.parts, w.parts, rtol=0, atol=1e-12)
        c = array_to_composition(np.log(TestPcmInLogSpace.CONSISTENT))
        np.testing.assert_allclose(c.parts, np.array([8, 4, 1]) / 13, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: close(np.ones((2, 3))), DimensionMismatch),
        (lambda: PriorityMatrix(EXAMPLE_W, labels=("a", "b", "c")), DimensionMismatch),
        (lambda: array_to_composition(np.zeros((2, 3))), DimensionMismatch),
        (lambda: array_to_composition(np.zeros((1, 1))), DimensionTooSmall),
    ],
    ids=["close-2d", "matrix-labels", "array-not-square", "array-1x1"],
)
def test_shape_errors(build, error):
    with pytest.raises(error):
        build()


class TestPriorityMatrix:
    def test_rows_closed_and_read_only(self):
        W = PriorityMatrix(np.array([[2.0, 2.0], [1.0, 3.0]]))
        np.testing.assert_allclose(W.values, [[0.5, 0.5], [0.25, 0.75]])
        with pytest.raises(ValueError):
            W.values[0, 0] = 1.0

    def test_log_ratios_match_per_row_transform(self, example_matrix):
        rows = [log_ratio_transform(example_matrix.row(k)) for k in range(5)]
        np.testing.assert_allclose(example_matrix.log_ratios(), rows, atol=1e-15)

    def test_pair_indices_are_lexicographic(self):
        i, j = pair_indices(4)
        assert list(zip(i, j)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize("n", [1, 2, 7, 200])
    def test_pair_indices_are_shared_and_read_only(self, n):
        i, j = pair_indices(n)
        for got, want in zip((i, j), np.triu_indices(n, 1)):
            np.testing.assert_array_equal(got, want)
            with pytest.raises(ValueError):
                got[:] = 0
        assert pair_indices(n)[0] is i

    def test_zero_row_entry_rejected(self):
        with pytest.raises(NonPositiveEntry):
            PriorityMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]))

    def test_bad_weight_named_by_row_and_column(self):
        with pytest.raises(NonPositiveEntry, match=r"-1\.0 at row 2, column 2$") as exc:
            PriorityMatrix([[0.5, 0.5], [0.2, -1.0]])
        assert exc.value.index == (1, 1)
        with pytest.raises(NonPositiveEntry, match=r"nan at entry 1$"):
            close([0.5, np.nan])


class TestPairStatistic:
    def test_blocks_are_log_ratio_columns_in_pair_order(self, pair_block):
        W = random_matrix(np.random.default_rng(46), 6, 9)
        whole = W.log_ratios()
        for width in WIDTHS:
            pair_block(width, W.n_dms)
            seen = []

            def first_row(block, pairs):
                np.testing.assert_array_equal(block, whole[:, pairs])
                seen.append(block.shape[1])
                return block[0]

            got = pair_statistic(np.log(W.values), first_row)
            np.testing.assert_array_equal(got, whole[0])
            # every block but the last is full; the default holds all 36 pairs
            assert seen[:-1] == [width] * (len(seen) - 1) and sum(seen) == 36
            assert width or seen == [36]

    @pytest.mark.parametrize("kind, n_dms, n", [("tied", 12, 9), ("random", 12, 9),
                                                ("random", 60, 5)])
    def test_every_statistic_is_bit_identical_at_every_width(self, pair_block, kind, n_dms, n):
        # 60 DMs take the sorted Walsh form, 12 the matrix-product form; the
        # column-wise statistics must equal their value on the whole
        # log_ratios() matrix, the credal ones their value at the default
        rng = np.random.default_rng(47)
        W = PriorityMatrix(rng.integers(1, 5, size=(n_dms, n)).astype(float) if kind == "tied"
                           else rng.dirichlet(np.ones(n), size=n_dms))
        L = W.log_ratios()
        lam = aggregate_awgmm(W).dm_weights
        xi = build_average_array(W, "weighted", dm_weights=lam)
        i, j = pair_indices(n)
        column_wise = {
            "median": (lambda: build_average_array(W, "median")[i, j], np.median(L, axis=0)),
            "std": (lambda: deviation_array_std(W)[i, j], L.std(axis=0, ddof=1)),
            "mad": (lambda: deviation_array_mad(W)[i, j],
                    np.median(np.abs(L - np.median(L, axis=0)), axis=0)),
            "robust": (lambda: deviation_array_robust(W, lam)[i, j],
                       np.sqrt((lam[:, None] * (L - xi[i, j]) ** 2).sum(axis=0))),
        }
        for name, (blocked, whole) in column_wise.items():
            for width in WIDTHS:
                pair_block(width, n_dms)
                np.testing.assert_array_equal(blocked(), whole, err_msg=f"{name}, width {width}")
        credal_tests = {
            "bayes": (lambda: credal_ranking(W, seed=5, mc_samples=1000),
                      (n_dms + 1) * (n_dms + 2) // 2),
            "sign": (lambda: credal_ranking(W, test="sign", prior_a=3.0, prior_b=0.5), n_dms),
        }
        for name, (rank, per_pair) in credal_tests.items():
            posteriors = []
            for width in WIDTHS:
                pair_block(width, per_pair)
                posteriors.append([o.p_greater for o in rank().orderings])
            assert posteriors[1] == posteriors[0] and posteriors[2] == posteriors[0], name


# ties, signed zeros, subnormals and magnitudes whose even-K mean overflows
MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                     1e300, -1e300, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestMedian:
    @given(arrays(np.float64, st.tuples(st.integers(1, 24), st.integers(1, 6)),
                  elements=MEDIAN_VALUES))
    @example(np.array([[-0.0, 0.0, 7.0]]))
    @example(np.array([[-0.0, -5e-324, 1e300], [-0.0, 0.0, 1.7e308]]))
    @example(np.array([[-0.0], [-0.0], [0.0], [-0.0]]))
    @settings(max_examples=500, deadline=None)
    def test_is_numpy_median_bit_for_bit(self, d):
        with np.errstate(over="ignore"):
            assert _median(d).tobytes() == np.median(d, axis=0).tobytes()
            f = np.asfortranarray(d)
            assert _median(f).tobytes() == np.median(f, axis=0).tobytes()


class TestClosureAtTheFloatingPointLimits:
    def test_overflowing_sum_is_rescaled_first(self):
        expected = [0.5, 0.5, 0.5e-308]
        np.testing.assert_allclose(
            Composition([1e308, 1e308, 1.0]).parts, expected, rtol=1e-15, atol=0
        )
        W = PriorityMatrix(np.array([[0.2, 0.3, 0.5], [1e308, 1e308, 1.0]]))
        np.testing.assert_allclose(W.values[1], expected, rtol=1e-15, atol=0)
        assert np.all(W.values > 0) and np.all(np.isfinite(W.log_ratios()))

    def test_normal_rows_are_closed_as_before(self):
        raw = np.array([0.2, 0.3, 0.6])
        assert np.array_equal(Composition(raw).parts, raw / raw.sum())
        assert np.array_equal(PriorityMatrix(raw[None]).values[0], raw / raw.sum())

    def test_matrix_rows_close_as_compositions_bit_for_bit(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            K, n = int(rng.integers(1, 8)), int(rng.integers(2, 300))
            kinds = rng.integers(0, 3, size=K)
            V = np.array([
                rng.dirichlet(np.ones(n)) if kind == 0  # closed
                else rng.uniform(0.01, 5.0, n) if kind == 1  # unclosed
                else rng.uniform(0.5, 1.0, n) * 1e308  # the sum overflows
                for kind in kinds
            ])
            for panel in (V, np.asfortranarray(V)):
                W = PriorityMatrix(panel)
                for k in range(K):
                    assert np.array_equal(W.values[k], Composition(V[k]).parts)

    def test_part_underflowing_to_zero_is_rejected(self):
        with pytest.raises(InputError, match="entry 0 underflows to 0"):
            Composition([1e-300, 1e300, 1.0])
        rows = np.array([[0.2, 0.3, 0.5], [1e-300, 1e300, 1.0]])
        with pytest.raises(InputError, match="row 2, column 1 underflows to 0"):
            PriorityMatrix(rows)
