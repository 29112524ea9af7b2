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


def leaning_log_ratios(rng, n_dms, n_pairs):
    """``tied_log_ratios`` whose pairs lean one way, so that the sorted form's
    bucket bounds decide draws: pair 1 puts three DMs in four at 0.5 and the
    rest at -0.5 (exact v_a = -v_b ties in straddling buckets), later pairs
    shift their nonzero log-ratios, and pair 0 still ties for every DM."""
    V = tied_log_ratios(rng, n_dms, n_pairs)
    V[1:, 1] = np.where(np.arange(n_dms) % 4, 0.5, -0.5)
    V[1:, 2:] += np.where(V[1:, 2:] != 0, rng.normal(scale=2.0, size=n_pairs - 2), 0.0)
    return V


def three_group_panel(rng, n_dms, n_criteria):
    """Three tight Dirichlet groups plus 3% uniform deviants, shuffled."""
    centres = rng.dirichlet(np.full(n_criteria, 3.0), size=3)
    deviants = n_dms * 3 // 100
    sizes = np.diff(np.linspace(0, n_dms - deviants, 4).astype(int))
    rows = [rng.dirichlet(200 * c + 1, size=k) for c, k in zip(centres, sizes)]
    rows.append(rng.dirichlet(np.ones(n_criteria), size=deviants))
    return PriorityMatrix(rng.permutation(np.concatenate(rows)))


def prefix_sum_rows(monkeypatch):
    """Draws the sorted form sends to its prefix sums, counted as they pass:
    rows of more than 32 weights, as the bounds sum at most 32 bucket masses."""
    rows, cumsum = [], np.cumsum

    def counting(a, *args, **kwargs):
        rows.append(len(a) if a.shape[1] > 32 else 0)
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counting)
    return rows


class TestWalshKernel:
    @pytest.mark.parametrize("n_dms", [2, 3, 6, 30, 47, 48, 100, 300])
    def test_equals_sign_matrix_oracle(self, n_dms):
        rng = np.random.default_rng(70 + n_dms)
        V = tied_log_ratios(rng, n_dms, 5)
        g = rng.dirichlet(np.r_[0.7, np.ones(n_dms)], size=1000)
        # each size runs the form the ranking runs at its K + 1
        if n_dms + 1 <= credal._MATRIX_FORM_MAX:
            wins = credal._matrix_wins(V, credal._walsh_weights(g))
        else:
            wins = credal._sorted_wins(V, [g])
        np.testing.assert_array_equal(wins / len(g), sign_sum_posterior(V, g))

    @pytest.mark.parametrize("n_dms", [2, 5, 30, 70])
    def test_both_forms_agree(self, n_dms):
        rng = np.random.default_rng(80 + n_dms)
        V = tied_log_ratios(rng, n_dms, 40)
        g = rng.dirichlet(np.ones(n_dms + 1), size=1000)
        np.testing.assert_array_equal(credal._matrix_wins(V, credal._walsh_weights(g)) / len(g),
                                      credal._sorted_wins(V, [g]) / len(g))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           m=st.sampled_from([3, 6, 17, 31, 33]) | st.integers(49, 400),
           prior_weight=st.sampled_from([0.05, 1.0, 3.0]))
    def test_bounded_sorted_form_is_exact(self, seed, m, prior_weight):
        # m = K + 1 below, at and above the 32 buckets and the matrix form; bounds from 128
        rng = np.random.default_rng(seed)
        V = np.hstack((tied_log_ratios(rng, m - 1, 3), leaning_log_ratios(rng, m - 1, 5)))
        g = rng.dirichlet(np.r_[prior_weight, np.ones(m - 1)], size=300)
        wins = credal._sorted_wins(V, [g])  # the sorted form at every m
        np.testing.assert_array_equal(wins / len(g), sign_sum_posterior(V, g))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 200))
    def test_bucket_bounds_hold_for_every_draw(self, seed, m):
        # twice the stat lies within the sure part +- (straddling mass + sum g^2)
        rng = np.random.default_rng(seed)
        scale = rng.choice([0.3, 1.0, 3.0])
        v = np.r_[0.0, rng.normal(loc=rng.normal(), scale=scale, size=m - 1)]
        g = rng.dirichlet(np.ones(m), size=200)
        order = np.argsort(v, kind="stable")
        first = np.arange(min(m, 32)) * m // min(m, 32)
        lo, hi = v[order][first], v[order][np.r_[first[1:], m] - 1]
        up, down = np.searchsorted(lo, -lo, side="right"), np.searchsorted(hi, -hi, side="left")
        M = np.add.reduceat(g[:, order], first, axis=1)
        (certain,), (straddle,) = credal._bucket_bounds(M.T[None], up[None], down[None])
        twice = (np.einsum("sa,ab,sb->s", g, np.sign(v[:, None] + v), g)
                 + (g * g * np.sign(v)).sum(axis=1))
        assert np.all(np.abs(twice - certain) <= straddle + (g * g).sum(axis=1) + 1e-12)

    def test_bounds_decide_most_draws(self, monkeypatch):
        W = three_group_panel(np.random.default_rng(101), 1000, 6)
        rows = prefix_sum_rows(monkeypatch)
        credal_ranking(W, seed=7, mc_samples=1000)
        assert sum(rows) < 0.1 * 1000 * 15

    def test_all_zero_pair_takes_the_prefix_sums(self, monkeypatch):
        g = np.random.default_rng(102).dirichlet(np.ones(1001), size=200)
        rows = prefix_sum_rows(monkeypatch)
        assert credal._sorted_wins(np.zeros((1001, 1)), [g])[0] == 100.0
        assert sum(rows) == 200

    def test_sorted_form_sorts_each_pair_once(self, monkeypatch):
        # one plan per pair serves every block of draws: 32 blocks at S = 1000
        calls, argsort = [], np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
        credal_ranking(three_group_panel(np.random.default_rng(103), 1000, 6), seed=2,
                       mc_samples=1000)
        assert len(calls) == 15

    def test_mirror_is_exact_complement(self):
        rng = np.random.default_rng(90)
        for n_dms in (4, 200):  # the matrix form, then the sorted form
            V = tied_log_ratios(rng, n_dms, 20)
            g = rng.dirichlet(np.ones(n_dms + 1), size=1000)
            if n_dms == 4:
                w = credal._walsh_weights(g)
                p, q = (credal._matrix_wins(U, w) / len(g) for U in (V, -V))
            else:
                p, q = (credal._sorted_wins(U, [g]) / len(g) for U in (V, -V))
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


def draw_elements(n_dms):
    """Elements one draw takes in a block: in the matrix form its (K+1)(K+2)/2
    pairwise products, or its stats over a pair tile if more; in the sorted
    form its K+1 weights, held drawn and transposed, in a quarter block."""
    m = n_dms + 1
    if m <= credal._MATRIX_FORM_MAX:
        return max(m * (m + 1) // 2, credal._PAIR_TILE)
    return 4 * m


def tied_matrix(rng, n_dms, n_criteria):
    """Integer weights: zero and mirrored log-ratios, so stat = 0 occurs."""
    return PriorityMatrix(rng.integers(1, 4, size=(n_dms, n_criteria)).astype(float))


def traced_peak(W, mc_samples):
    tracemalloc.start()
    try:
        credal_ranking(W, seed=1, mc_samples=mc_samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDrawChunks:
    @pytest.mark.parametrize("prior_weight", [0.05, 1.0, 3.0])
    @pytest.mark.parametrize("n_dms", [2, 5, 47, 48, 300])  # matrix form up to K + 1 = 48
    def test_any_chunk_size_gives_the_default_ranking(self, monkeypatch, n_dms, prior_weight):
        W = tied_matrix(np.random.default_rng(94 + n_dms), n_dms, 4)

        def posteriors():
            ranking = credal_ranking(W, seed=23, mc_samples=1000, prior_weight=prior_weight)
            return [o.p_greater for o in ranking.orderings]

        default = posteriors()
        for rows in (1, 7, 1001):  # one draw, an odd count, more than S
            monkeypatch.setattr(credal, "_DRAW_BLOCK", rows * draw_elements(n_dms))
            assert posteriors() == default

    @pytest.mark.parametrize("n_dms", [2, 5, 47])  # the matrix form
    def test_any_pair_tile_gives_the_default_ranking(self, monkeypatch, n_dms):
        W = tied_matrix(np.random.default_rng(96 + n_dms), n_dms, 9)

        def posteriors():
            return [o.p_greater for o in credal_ranking(W, seed=29, mc_samples=1000).orderings]

        default = posteriors()
        # one pair, a width that leaves a short last tile, all 36 pairs; each
        # with one draw, an odd count and more than S per block
        for tile, rows in itertools.product((1, 7, 36), (1, 7, 1001)):
            monkeypatch.setattr(credal, "_PAIR_TILE", tile)
            monkeypatch.setattr(credal, "_DRAW_BLOCK", rows * draw_elements(n_dms))
            assert posteriors() == default

    def test_peak_memory_does_not_grow_with_draws(self):
        # one draw of all S (K+1) weights would take 24 MB at S = 10^4
        W = random_matrix(np.random.default_rng(95), 300, 3)
        peaks = [traced_peak(W, mc_samples) for mc_samples in (1000, 10_000)]
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 4e6

    @pytest.mark.parametrize("make", [three_group_panel, tied_matrix])
    def test_blocks_of_the_stream_score_as_one_draw(self, make):
        # K + 1 = 150 > 128: bounds run; 1000 draws are 4 blocks of 218 and one of 128
        W = make(np.random.default_rng(104), 149, 4)
        rows = credal._DRAW_BLOCK // (4 * 150)
        assert 1000 // rows >= 3 and 1000 % rows
        x = np.vstack((np.zeros(4), np.log(W.values)))
        i, j = np.triu_indices(4, k=1)
        g = np.random.default_rng(9).dirichlet(np.r_[0.5, np.ones(149)], size=1000)
        ranking = credal_ranking(W, seed=9, mc_samples=1000, prior_weight=0.5)
        np.testing.assert_array_equal([o.p_greater for o in ranking.orderings],
                                      sign_sum_posterior(x[:, i] - x[:, j], g))

    def test_sorted_form_peak_memory(self):
        # K + 1 = 1001: pair plans, one block of draws and its transpose
        W = three_group_panel(np.random.default_rng(101), 1000, 6)
        for mc_samples in (1000, 10_000):
            assert traced_peak(W, mc_samples) <= 2.15e6

    def test_sorted_form_peak_memory_where_bounds_start(self):
        # K + 1 = 128: a pair block's bucket masses lie outside the draw budget
        # and set the peak, near 43 MB (README)
        W = three_group_panel(np.random.default_rng(101), 127, 20)
        assert traced_peak(W, 1000) <= 45e6

    def test_matrix_form_memory_is_flat_in_draws_and_pairs(self):
        # K + 1 = 31: one block of products and one pair tile, whatever S and n
        rng = np.random.default_rng(97)
        narrow, wide = random_matrix(rng, 30, 40), random_matrix(rng, 30, 100)
        base = traced_peak(narrow, 1000)
        for peak in (traced_peak(narrow, 10_000), traced_peak(wide, 1000)):
            assert 0.9 * base <= peak <= 1.1 * base
            assert peak < 2.5e6


class TestPowering:
    """W^a, rows closed again, scales every log-ratio by a: the ranking of W
    for a > 0 and its complement for a < 0. Continuous panels have no ties
    that rounding could break, so the counts behind both tests are equal."""

    @pytest.mark.parametrize("test", [credal.BAYES_WILCOXON, credal.SIGN_TEST])
    @pytest.mark.parametrize("n_dms", [12, 60])  # the matrix form, the sorted form
    def test_powered_panel_ranks_alike_or_reversed(self, test, n_dms):
        W = random_matrix(np.random.default_rng(98 + n_dms), n_dms, 5)

        def posteriors(values):
            ranking = credal_ranking(PriorityMatrix(values), test=test, seed=31, mc_samples=1000)
            return np.array([o.p_greater for o in ranking.orderings])

        base = posteriors(W.values)
        for power in (0.5, 2.0, -1.0, -2.5):
            powered = W.values ** power
            p = posteriors(powered / powered.sum(axis=1, keepdims=True))
            if power > 0:
                np.testing.assert_array_equal(p, base)
            else:  # up to the rounding of 1 - p
                np.testing.assert_allclose(p, 1.0 - base, rtol=0, atol=1e-15)


class TestSharedStream:
    def test_ranking_equals_single_pair_test(self, monkeypatch, pair_block):
        rng, default_tile = np.random.default_rng(92), credal._PAIR_TILE
        for n_dms, n in ((5, 4), (80, 5)):  # the matrix form, the sorted form
            W = random_matrix(rng, n_dms, n)
            for width in WIDTHS:
                # pairs per tile of the matrix form, per pair block of the sorted
                # form, which plans K + 1 elements per pair
                monkeypatch.setattr(credal, "_PAIR_TILE", width or default_tile)
                pair_block(width, n_dms + 1)
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
