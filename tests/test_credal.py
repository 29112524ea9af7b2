import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmcdm import (
    PriorityMatrix,
    bayesian_signed_rank,
    credal,
    credal_ranking,
    sign_test,
    signed_rank_summary,
)
from groupmcdm.errors import AllZeroRatios, InputError, InsufficientSamples

from conftest import WIDTHS, random_matrix

TABLE_RANKS = [13, 9, 10, 6, 7, 12, 8, 14, 1, 2, 5, 3, 11, 15, 4]


def sort_based_ranks(values):
    """Independent oracle: average ranks via explicit sorting."""
    order = sorted(range(len(values)), key=lambda k: values[k])
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(order):
        tied = [order[pos]]
        while pos + len(tied) < len(order) and values[order[pos + len(tied)]] == values[tied[0]]:
            tied.append(order[pos + len(tied)])
        avg = sum(range(pos + 1, pos + len(tied) + 1)) / len(tied)
        for k in tied:
            ranks[k] = avg
        pos += len(tied)
    return ranks


class TestSignedRankSummary:
    def test_fifteen_dm_example(self, two_criteria_matrix):
        s = signed_rank_summary(two_criteria_matrix, 0, 1)
        np.testing.assert_array_equal(s.ranks, TABLE_RANKS)
        assert s.r_plus == 12.0
        assert s.r_minus == 108.0
        assert s.t_stat == 12.0
        assert s.dropped == 0

    def test_rank_sum_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            W = random_matrix(rng, int(rng.integers(2, 20)), int(rng.integers(2, 6)))
            s = signed_rank_summary(W, 0, 1)
            m = W.n_dms - s.dropped
            assert s.r_plus + s.r_minus == pytest.approx(m * (m + 1) / 2)

    def test_reciprocal_preferences_tie(self):
        W = PriorityMatrix(np.array([[0.75, 0.25], [0.25, 0.75]]))
        s = signed_rank_summary(W, 0, 1)
        assert s.r_plus == 1.5
        assert s.r_minus == 1.5

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(32)
        W = random_matrix(rng, 10, 3)
        s = signed_rank_summary(W, 0, 2)
        expected = sort_based_ranks(list(np.abs(s.log_ratios)))
        np.testing.assert_allclose(s.ranks, expected)

    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=30
        ).filter(lambda rows: any(a != b for a, b in rows))
    )
    @settings(max_examples=200, deadline=None)
    def test_tied_ranks_match_sort_based_oracle(self, rows):
        # integer weights repeat the same ratios across DMs, so ties are common
        W = PriorityMatrix(np.array(rows, dtype=float))
        s = signed_rank_summary(W, 0, 1)
        kept = np.flatnonzero(s.log_ratios)
        expected = np.zeros(W.n_dms)
        expected[kept] = sort_based_ranks(list(np.abs(s.log_ratios[kept])))
        np.testing.assert_array_equal(s.ranks, expected)

    def test_zero_ratios_dropped(self):
        W = PriorityMatrix(
            np.array([[0.4, 0.4, 0.2], [0.5, 0.25, 0.25], [0.2, 0.4, 0.4]])
        )
        s = signed_rank_summary(W, 0, 1)
        assert s.dropped == 1
        assert s.signed_ranks[0] == 0.0
        assert s.r_plus + s.r_minus == 3.0  # two retained DMs: 1 + 2

    def test_all_zero_ratios(self):
        W = PriorityMatrix(np.array([[0.3, 0.3, 0.4], [0.25, 0.25, 0.5]]))
        with pytest.raises(AllZeroRatios):
            signed_rank_summary(W, 0, 1)

    def test_same_criterion_rejected(self, two_criteria_matrix):
        with pytest.raises(InputError):
            signed_rank_summary(two_criteria_matrix, 1, 1)

    def test_subnormal_weights_rank_on_finite_log_ratios(self):
        # a quotient of weights overflows here; a difference of logs does not
        W = PriorityMatrix(np.array([[1e-320, 0.5, 0.5], [1e-320, 0.3, 0.7],
                                     [2e-320, 0.6, 0.4]]))
        s = signed_rank_summary(W, 1, 0)
        assert np.all(np.isfinite(s.log_ratios)) and np.all(s.log_ratios > 735)
        np.testing.assert_array_equal(s.ranks, [3.0, 1.5, 1.5])
        assert (s.r_plus, s.r_minus) == (6.0, 0.0)
        assert math.copysign(1.0, s.r_minus) == 1.0  # +0.0, not -0.0

    def test_frequentist_crosscheck(self, two_criteria_matrix):
        # K = 15: the 5% two-sided critical value for T is 25; T = 12 rejects,
        # agreeing in direction with the Bayesian confidence below
        s = signed_rank_summary(two_criteria_matrix, 0, 1)
        assert s.t_stat <= 25
        d = bayesian_signed_rank(two_criteria_matrix, 1, 0, seed=5).p_greater
        assert d > 0.95


class TestSignTest:
    def test_fifteen_dm_example(self, two_criteria_matrix):
        # exact binomial-tail oracle: P(Beta(4, 13) > 1/2) with a flat prior
        # equals P(Bin(16, 1/2) <= 3) = (1 + 16 + 120 + 560) / 2^16
        expected = Fraction(1 + 16 + 120 + 560, 2**16)
        o = sign_test(two_criteria_matrix, 0, 1)
        assert o.p_greater == pytest.approx(float(expected), abs=1e-12)
        assert o.relation == "<"
        assert o.confidence == pytest.approx(1 - float(expected), abs=1e-12)

    def test_balanced_counts_give_half(self):
        W = PriorityMatrix(np.array([[0.6, 0.4], [0.3, 0.7]]))
        assert sign_test(W, 0, 1).p_greater == 0.5

    def test_all_ties_prior_only(self):
        W = PriorityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert sign_test(W, 0, 1).p_greater == 0.5

    def test_antisymmetry_is_exact(self):
        rng = np.random.default_rng(33)
        for prior in ((1.0, 1.0), (3.0, 1.0)):
            for _ in range(50):
                W = random_matrix(rng, int(rng.integers(2, 25)), int(rng.integers(2, 6)))
                i, j = rng.choice(W.n_criteria, size=2, replace=False)
                a = sign_test(W, int(i), int(j), *prior).p_greater
                b = sign_test(W, int(j), int(i), *prior).p_greater
                assert a + b == 1.0

    def test_prior_belongs_to_the_lower_indexed_criterion(self):
        # one DM favours c1, three tie: P(Beta(3 + 1, 1 + 0) > 1/2) = 1 - 2^-4
        W = PriorityMatrix(np.array([[0.6, 0.4]] + [[0.5, 0.5]] * 3))
        assert sign_test(W, 0, 1, 3.0, 1.0).p_greater == 15 / 16
        assert sign_test(W, 1, 0, 3.0, 1.0).p_greater == 1 / 16

    def test_monotone_in_wins(self):
        # fixed losses, growing wins: confidence strictly increases
        ds = []
        for wins in range(0, 6):
            rows = [[0.6, 0.4]] * wins + [[0.4, 0.6]] * 3
            W = PriorityMatrix(np.array(rows))
            ds.append(sign_test(W, 0, 1).p_greater)
        assert all(b > a for a, b in zip(ds, ds[1:]))

    def test_same_criterion_rejected(self, two_criteria_matrix):
        with pytest.raises(InputError):
            sign_test(two_criteria_matrix, 1, 1)

    def test_prior_validation(self, two_criteria_matrix):
        with pytest.raises(InputError):
            sign_test(two_criteria_matrix, 0, 1, prior_a=0.0)


class TestBayesianSignedRank:
    def test_fifteen_dm_example_direction(self, two_criteria_matrix):
        o = bayesian_signed_rank(two_criteria_matrix, 1, 0, seed=101)
        assert o.p_greater > 0.95
        assert o.relation == ">"

    def test_mirrored_pair_is_exact_complement(self, two_criteria_matrix):
        a = bayesian_signed_rank(two_criteria_matrix, 0, 1, seed=7).p_greater
        b = bayesian_signed_rank(two_criteria_matrix, 1, 0, seed=7).p_greater
        assert a + b == 1.0

    def test_unanimous_identical_ratio(self):
        W = PriorityMatrix(np.tile([0.6, 0.4], (6, 1)))
        o = bayesian_signed_rank(W, 0, 1, seed=11)
        assert o.p_greater > 0.99

    def test_uniform_priorities_give_half(self):
        W = PriorityMatrix(np.tile([0.25, 0.25, 0.25, 0.25], (5, 1)))
        assert bayesian_signed_rank(W, 0, 1, seed=13).p_greater == 0.5

    def test_seed_determinism(self, two_criteria_matrix):
        a = bayesian_signed_rank(two_criteria_matrix, 0, 1, seed=42, mc_samples=2000)
        b = bayesian_signed_rank(two_criteria_matrix, 0, 1, seed=42, mc_samples=2000)
        assert a.p_greater == b.p_greater
        c = bayesian_signed_rank(two_criteria_matrix, 0, 1, seed=43, mc_samples=2000)
        assert a.p_greater != c.p_greater

    def test_validation(self, two_criteria_matrix):
        with pytest.raises(InputError):
            bayesian_signed_rank(two_criteria_matrix, 0, 1, mc_samples=10, seed=1)
        with pytest.raises(InputError):
            bayesian_signed_rank(two_criteria_matrix, 0, 1, prior_weight=0.0, seed=1)
        with pytest.raises(InsufficientSamples):
            bayesian_signed_rank(
                PriorityMatrix(np.array([[0.6, 0.4]])), 0, 1, seed=1
            )
        with pytest.raises(InputError):
            bayesian_signed_rank(two_criteria_matrix, 0, 0, seed=1)

    def test_scale_invariance_before_closure(self):
        rng = np.random.default_rng(34)
        raw = rng.uniform(0.05, 3.0, size=(8, 3))
        scaled = raw * rng.uniform(0.5, 9.0, size=(8, 1))
        a = bayesian_signed_rank(PriorityMatrix(raw), 0, 2, seed=3).p_greater
        b = bayesian_signed_rank(PriorityMatrix(scaled), 0, 2, seed=3).p_greater
        assert a == b


class TestCredalRanking:
    def test_one_ordering_per_pair(self):
        rng = np.random.default_rng(35)
        W = random_matrix(rng, 6, 4, labels=True)
        ranking = credal_ranking(W, seed=5, mc_samples=1000)
        pairs = {(o.i, o.j) for o in ranking.orderings}
        assert pairs == {(i, j) for i in range(4) for j in range(i + 1, 4)}

    def test_two_criteria_single_ordering(self, two_criteria_matrix):
        ranking = credal_ranking(two_criteria_matrix, seed=5, mc_samples=1000)
        assert len(ranking.orderings) == 1

    def test_uniform_priorities_all_half(self):
        W = PriorityMatrix(np.tile([1 / 3, 1 / 3, 1 / 3], (4, 1)))
        ranking = credal_ranking(W, seed=5, mc_samples=1000)
        assert all(o.p_greater == 0.5 for o in ranking.orderings)

    def test_sign_test_variant_permutation_stability(self):
        rng = np.random.default_rng(36)
        W = random_matrix(rng, 12, 4)
        perm = np.array([2, 0, 3, 1])
        permuted = PriorityMatrix(W.values[:, perm])
        base = credal_ranking(W, test="sign")
        moved = credal_ranking(permuted, test="sign")
        # ordering for permuted pair (a, b) must match the original pair
        inverse = np.argsort(perm)
        for o in moved.orderings:
            i0, j0 = int(perm[o.i]), int(perm[o.j])
            assert base.ordering(i0, j0).p_greater == pytest.approx(
                o.p_greater, abs=1e-15
            )

    def test_ordering_lookup_complements_reversed_queries(self, two_criteria_matrix):
        ranking = credal_ranking(two_criteria_matrix, test="sign")
        assert (
            ranking.ordering(0, 1).p_greater + ranking.ordering(1, 0).p_greater == 1.0
        )

    def test_ordering_lookup_every_pair(self):
        W = random_matrix(np.random.default_rng(37), 6, 5)
        ranking = credal_ranking(W, seed=5, mc_samples=1000)
        stored = {(o.i, o.j): o for o in ranking.orderings}
        n = W.n_criteria
        for i in range(n):
            for j in range(n):
                if i == j:
                    with pytest.raises(InputError):
                        ranking.ordering(i, i)
                elif i < j:
                    assert ranking.ordering(i, j) is stored[i, j]
                else:
                    got = ranking.ordering(i, j)
                    assert (got.i, got.j, got.test) == (i, j, stored[j, i].test)
                    assert got.p_greater == 1.0 - stored[j, i].p_greater
        for i, j in ((0, n), (n, 0), (-1, 0), (n, n + 1)):
            with pytest.raises(InputError):
                ranking.ordering(i, j)

    def test_unknown_test(self, two_criteria_matrix):
        with pytest.raises(InputError):
            credal_ranking(two_criteria_matrix, test="t-test")

    def test_equal_region_flag(self):
        W = PriorityMatrix(np.array([[0.52, 0.48], [0.48, 0.52]]))
        o = sign_test(W, 0, 1)
        assert o.p_greater == 0.5
        assert o.in_equal_region


def sign_sum_posterior(V, g):
    """Brute-force oracle: sum_{a<=b} g_a g_b sign(v_a + v_b) per draw.

    Builds each pair's full (K+1) x (K+1) sign matrix and keeps its upper
    triangle, the statistic the kernel must reproduce on identical draws.
    """
    out = []
    for v in V.T:
        upper = np.triu(np.sign(v[:, None] + v[None, :]))
        stat = ((g @ upper) * g).sum(axis=1)
        out.append((np.count_nonzero(stat > 0) + 0.5 * np.count_nonzero(stat == 0)) / len(g))
    return np.array(out)


def tied_log_ratios(rng, n_dms, n_pairs):
    """(K+1, pairs) augmented log-ratios with zeros and exact v_a = -v_b ties."""
    V = np.zeros((n_dms + 1, n_pairs))
    V[1:] = rng.normal(size=(n_dms, n_pairs))
    V[1:][rng.random((n_dms, n_pairs)) < 0.2] = 0.0
    half = n_dms // 2
    mirrored = rng.random((half, n_pairs)) < 0.3
    V[1 + half:1 + 2 * half][mirrored] = -V[1:1 + half][mirrored]
    V[:, 0] = 0.0  # one pair where every DM ties
    V[1:, 1] = np.where(np.arange(n_dms) % 2, 0.5, -0.5)  # mirrored halves
    return V


class TestWalshKernel:
    @pytest.mark.parametrize("n_dms", [2, 3, 6, 30, 47, 48, 100, 300])
    def test_equals_sign_matrix_oracle(self, n_dms):
        rng = np.random.default_rng(70 + n_dms)
        V = tied_log_ratios(rng, n_dms, 5)
        g = rng.dirichlet(np.r_[0.7, np.ones(n_dms)], size=1000)
        np.testing.assert_array_equal(
            credal._walsh_wins(V, g) / len(g), sign_sum_posterior(V, g)
        )

    @pytest.mark.parametrize("n_dms", [2, 5, 30, 70])
    def test_both_forms_agree(self, monkeypatch, n_dms):
        rng = np.random.default_rng(80 + n_dms)
        V = tied_log_ratios(rng, n_dms, 40)
        g = rng.dirichlet(np.ones(n_dms + 1), size=1000)
        forms = []
        for largest in (n_dms + 1, 0):  # matrix-product form, then sorted form
            monkeypatch.setattr(credal, "_MATRIX_FORM_MAX", largest)
            forms.append(credal._walsh_wins(V, g) / len(g))
        np.testing.assert_array_equal(forms[0], forms[1])

    def test_mirror_is_exact_complement(self):
        rng = np.random.default_rng(90)
        for n_dms in (4, 200):
            V = tied_log_ratios(rng, n_dms, 20)
            g = rng.dirichlet(np.ones(n_dms + 1), size=1000)
            p = credal._walsh_wins(V, g) / len(g)
            q = credal._walsh_wins(-V, g) / len(g)
            assert np.all(p + q == 1.0)
            assert p[0] == 0.5

    def test_memory_stays_linear_in_dms(self):
        # three S (K+1)-float draws; a (K+1)^2 sign matrix would be 72 MB
        rng = np.random.default_rng(91)
        W = random_matrix(rng, 3000, 3)
        draws = 1000 * (W.n_dms + 1) * 8
        tracemalloc.start()
        try:
            credal_ranking(W, seed=1, mc_samples=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * draws


class TestDrawChunks:
    @pytest.mark.parametrize("prior_weight", [0.05, 1.0, 3.0])
    @pytest.mark.parametrize("n_dms", [2, 5, 47, 48, 300])  # matrix form up to K + 1 = 48
    def test_any_chunk_size_gives_the_default_ranking(self, monkeypatch, n_dms, prior_weight):
        # integer weights give zero and mirrored log-ratios, so stat = 0 occurs
        rng = np.random.default_rng(94 + n_dms)
        W = PriorityMatrix(rng.integers(1, 4, size=(n_dms, 4)).astype(float))

        def posteriors():
            ranking = credal_ranking(W, seed=23, mc_samples=1000, prior_weight=prior_weight)
            return [o.p_greater for o in ranking.orderings]

        default = posteriors()
        for rows in (1, 7, 1001):  # one draw, an odd count, more than S
            monkeypatch.setattr(credal, "_DRAW_BLOCK", rows * (n_dms + 1))
            assert posteriors() == default

    def test_peak_memory_does_not_grow_with_draws(self):
        # one draw of all S (K+1) weights would take 24 MB at S = 10^4
        W = random_matrix(np.random.default_rng(95), 300, 3)
        peaks = []
        for mc_samples in (1000, 10_000):
            tracemalloc.start()
            try:
                credal_ranking(W, seed=1, mc_samples=mc_samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 4e6


class TestSharedStream:
    def test_ranking_equals_single_pair_test(self, pair_block):
        rng = np.random.default_rng(92)
        for n_dms, n in ((5, 4), (80, 5)):
            W = random_matrix(rng, n_dms, n)
            for width in WIDTHS:
                pair_block(width, (n_dms + 1) * (n_dms + 2) // 2)  # one Walsh sign block
                ranking = credal_ranking(W, seed=17, mc_samples=1000)
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            single = bayesian_signed_rank(W, i, j, seed=17, mc_samples=1000)
                            assert ranking.ordering(i, j).p_greater == single.p_greater

    @pytest.mark.parametrize("prior", [(1.0, 1.0), (3.0, 1.0), (0.5, 3.0), (1e-3, 1e6)])
    def test_sign_ranking_equals_single_pair_test(self, pair_block, prior):
        rng = np.random.default_rng(93)
        tied = PriorityMatrix(rng.integers(1, 4, size=(9, 4)).astype(float))
        for W, width in itertools.product((random_matrix(rng, 7, 5), tied), WIDTHS):
            pair_block(width, W.n_dms)
            ranking = credal_ranking(W, test="sign", prior_a=prior[0], prior_b=prior[1])
            for i in range(W.n_criteria):
                for j in range(W.n_criteria):
                    if i != j:
                        single = sign_test(W, i, j, *prior)
                        assert ranking.ordering(i, j).p_greater == single.p_greater

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(1, 6), min_size=n, max_size=n),
                         min_size=2, max_size=9),
                st.permutations(range(n)),
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_criterion_permutation_permutes_ranking(self, rows_perm, seed):
        # integer weights close exactly in any column order, and give many
        # zero and mirrored log-ratios
        rows, perm = rows_perm
        values = np.array(rows, dtype=float)
        base = credal_ranking(PriorityMatrix(values), seed=seed, mc_samples=1000)
        moved = credal_ranking(PriorityMatrix(values[:, perm]), seed=seed, mc_samples=1000)
        stored = {(o.i, o.j): o.p_greater for o in base.orderings}
        for o in moved.orderings:
            a, b = perm[o.i], perm[o.j]
            if a < b:
                assert o.p_greater == stored[a, b]
            else:
                assert o.p_greater + stored[b, a] == 1.0


class TestCredalValidation:
    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"mc_samples": 999}, InputError),
            # a non-integer count once escaped numpy as a bare TypeError
            ({"mc_samples": 1000.5}, InputError),
            ({"prior_weight": 0.0}, InputError),
            ({"prior_weight": -1.0}, InputError),
            ({"test": "t-test"}, InputError),
            # an infinite prior once gave p = 0.0 (Bayes) or 1.0 (sign) on every pair
            ({"prior_weight": math.inf}, InputError),
            ({"test": "sign", "prior_a": math.inf}, InputError),
            # every knob is checked, whichever test runs
            ({"test": "sign", "mc_samples": -5}, InputError),
            ({"prior_b": 0.0}, InputError),
            # a seed is None or a non-negative integer
            ({"seed": -1}, InputError),
            ({"seed": 1.5}, InputError),
            ({"seed": True}, InputError),
            # the sign test draws nothing, yet its seed is checked too
            ({"test": "sign", "seed": -5}, InputError),
            ({"test": "sign", "seed": "abc"}, InputError),
        ],
    )
    def test_rejected_before_any_draw(self, monkeypatch, two_criteria_matrix, kwargs, error):
        def refuse(*args, **kw):
            raise AssertionError("drew before validating")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(error):
            credal_ranking(two_criteria_matrix, **{"seed": 1, **kwargs})

    def test_one_dm_rejected_before_any_draw(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("drew before validating")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(InsufficientSamples):
            credal_ranking(PriorityMatrix(np.array([[0.6, 0.3, 0.1]])), seed=1)

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, -3), (0, 3), (3, 0), (1, 1), (1.0, 2),
                                      (True, 2)])
    @pytest.mark.parametrize(
        "pair_call",
        [signed_rank_summary, sign_test, lambda W, i, j: bayesian_signed_rank(W, i, j, seed=1)],
        ids=["signed_rank_summary", "sign_test", "bayesian_signed_rank"],
    )
    def test_pair_index_outside_the_criteria_rejected(self, pair_call, i, j):
        # a negative index must not wrap, one past n must not escape as IndexError
        W = PriorityMatrix(np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.6, 0.1, 0.3]]))
        with pytest.raises(InputError, match=r"need two distinct criteria in \[0, 3\)"):
            pair_call(W, i, j)
