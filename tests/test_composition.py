import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmcdm import (
    Composition,
    Pcm,
    PriorityMatrix,
    array_to_composition,
    close,
    inverse_log_ratio,
    is_fully_consistent,
    log_ratio_transform,
)
from groupmcdm.composition import (
    consistency_violation,
    dimension_from_pairs,
    expand_log_ratios,
    pair_indices,
)
from groupmcdm.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InconsistentArray,
    InconsistentLogRatios,
    InputError,
    NonPositiveEntry,
)

from conftest import EXAMPLE_W


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
        with pytest.raises(InconsistentLogRatios) as exc:
            inverse_log_ratio(v)
        assert exc.value.max_violation == pytest.approx(1.0)

    def test_bad_length_raises(self):
        with pytest.raises(DimensionMismatch):
            inverse_log_ratio(np.zeros(4))  # 4 is not n(n-1)/2

    def test_dimension_from_pairs(self):
        assert dimension_from_pairs(1) == 2
        assert dimension_from_pairs(6) == 4
        assert dimension_from_pairs(45) == 10
        with pytest.raises(DimensionMismatch):
            dimension_from_pairs(5)


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


class TestPcm:
    CONSISTENT = np.array([[1, 2, 8], [0.5, 1, 4], [0.125, 0.25, 1]])

    def test_consistent_example(self):
        assert is_fully_consistent(Pcm(self.CONSISTENT), tol=1e-12)

    def test_all_ones(self):
        assert is_fully_consistent(Pcm(np.ones((4, 4))), tol=1e-12)

    def test_broken_transitivity(self):
        m = self.CONSISTENT.copy()
        m[0, 2] = 7.0
        m[2, 0] = 1.0 / 7.0
        assert not is_fully_consistent(Pcm(m), tol=1e-12)

    def test_reciprocity_enforced(self):
        m = self.CONSISTENT.copy()
        m[0, 1] = 3.0  # m[1, 0] still 0.5
        with pytest.raises(InputError):
            Pcm(m)

    def test_unit_diagonal_enforced(self):
        m = self.CONSISTENT.copy()
        m[1, 1] = 2.0
        with pytest.raises(InputError):
            Pcm(m)

    def test_positive_entries_enforced(self):
        m = self.CONSISTENT.copy()
        m[0, 2] = -8.0
        with pytest.raises(NonPositiveEntry):
            Pcm(m)


class TestPriorityMatrix:
    def test_rows_closed_and_read_only(self):
        W = PriorityMatrix(np.array([[2.0, 2.0], [1.0, 3.0]]))
        np.testing.assert_allclose(W.values, [[0.5, 0.5], [0.25, 0.75]])
        with pytest.raises(ValueError):
            W.values[0, 0] = 1.0

    def test_log_ratios_match_per_row_transform(self, example_matrix):
        rows = [log_ratio_transform(example_matrix.row(k)) for k in range(5)]
        np.testing.assert_allclose(example_matrix.log_ratios(), rows, atol=1e-15)

    def test_from_rows_requires_shared_labels(self):
        a = Composition(np.array([0.5, 0.5]), labels=("x", "y"))
        b = Composition(np.array([0.25, 0.75]), labels=("x", "z"))
        with pytest.raises(DimensionMismatch):
            PriorityMatrix.from_rows([a, b])

    def test_pair_indices_are_lexicographic(self):
        i, j = pair_indices(4)
        assert list(zip(i, j)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_zero_row_entry_rejected(self):
        with pytest.raises(NonPositiveEntry):
            PriorityMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]))


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
