"""Pairwise statistical comparison of criteria importance across a group.

Raw weights of two criteria must never be subtracted: only the ratio carries
information. Every test here therefore works on the per-DM log-ratios
ln(W_ki / W_kj).

* ``signed_rank_summary``: classic signed-rank bookkeeping (ranks of absolute
  log-ratios, positive/negative rank sums, T statistic) for frequentist use.
* ``bayesian_signed_rank``: posterior probability that criterion i outweighs
  criterion j, via Dirichlet weighting of the log-ratios augmented with one
  pseudo-observation at zero, scored on Walsh averages (the Bayesian
  counterpart of the signed-rank test).
* ``sign_test``: beta-binomial posterior from win/loss counts.
* ``credal_ranking``: one credal ordering per criterion pair.

Both tests score (min(i, j), max(i, j)) and complement a reversed pair, so
for either test the pair call equals ``credal_ranking(...).ordering(i, j)``.

Determinism: the Bayesian test's Dirichlet weights index the DMs, not the
criterion pairs, so a panel makes one stream of S weight vectors from
``default_rng(seed)`` and scores every pair against it. A pair's posterior
thus depends only on its log-ratios, the seed, S and the prior, and
relabelling the criteria permutes the ranking exactly. Drawn in blocks of at
most ``_DRAW_BLOCK`` elements (in the matrix form, of the draws' pairwise
products; in the sorted form, a quarter as many draws), the stream needs no
memory growing with S and gives the seeded output of one draw: the blocks
continue it exactly. ``_bayes_posteriors`` picks the form by K + 1: the matrix
form, ``_matrix_wins``, scores every pair on each block; the sorted form,
``_sorted_wins``, plans a block of pairs once and replays the stream for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .composition import PriorityMatrix, block_width, pair_indices, pair_statistic
from .errors import (AllZeroRatios, InputError, InsufficientSamples, NumericError,
                     _check_choice, _check_integer, _check_positive, _check_seed, _is_integer)

BAYES_WILCOXON = "bayes-wilcoxon"
SIGN_TEST = "sign"

#: Confidence band treated as "no practical difference" in displays.
EQUAL_REGION = (0.45, 0.55)


@dataclass(frozen=True, eq=False)
class SignedRankSummary:
    """Rank bookkeeping for one criterion pair.

    ``signed_ranks`` is aligned with the DM rows; a zero marks a DM whose two
    weights are exactly equal (dropped before ranking, classic convention).
    ``r_plus``/``r_minus`` sum the ranks of positive/negative log-ratios and
    always satisfy r_plus + r_minus = m(m+1)/2 with m = K - dropped.
    """

    i: int
    j: int
    log_ratios: np.ndarray
    signed_ranks: np.ndarray
    r_plus: float
    r_minus: float
    t_stat: float
    dropped: int

    @property
    def ranks(self) -> np.ndarray:
        """Unsigned ranks in DM order (zero where dropped)."""
        return np.abs(self.signed_ranks)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; each run of equal values shares its mean position."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _check_pair(W: PriorityMatrix, i: int, j: int) -> None:
    """The one pair-index rule: i != j, both integers in [0, n)."""
    if not (_is_integer(i) and _is_integer(j) and i != j
            and 0 <= i < W.n_criteria and 0 <= j < W.n_criteria):
        raise InputError(f"need two distinct criteria in [0, {W.n_criteria}), got {i} and {j}")


def signed_rank_summary(W: PriorityMatrix, i: int, j: int) -> SignedRankSummary:
    """Rank the per-DM log-ratios of criteria i and j by absolute magnitude.

    Ties receive the average rank. Raises AllZeroRatios when every DM weighs
    the two criteria identically.
    """
    _check_pair(W, i, j)
    lr = np.log(W.values[:, i]) - np.log(W.values[:, j])
    keep = lr != 0.0
    if not keep.any():
        raise AllZeroRatios(f"criteria {i} and {j} tie for every decision-maker")
    ranks = _average_ranks(np.abs(lr[keep]))
    signed = np.zeros(W.n_dms)
    signed[keep] = ranks * np.sign(lr[keep])
    r_plus = float(signed[signed > 0].sum())
    r_minus = float((-signed[signed < 0]).sum())
    return SignedRankSummary(
        i=i,
        j=j,
        log_ratios=lr,
        signed_ranks=signed,
        r_plus=r_plus,
        r_minus=r_minus,
        t_stat=min(r_plus, r_minus),
        dropped=int((~keep).sum()),
    )


@dataclass(frozen=True)
class CredalOrdering:
    """Pairwise importance relation with its confidence.

    ``p_greater`` is the posterior probability that criterion ``i`` is more
    important than criterion ``j``; the two directions of a pair carry
    complementary values. ``confidence`` is the probability of the reported
    relation, i.e. max(p, 1 - p).
    """

    i: int
    j: int
    p_greater: float
    test: str

    @property
    def relation(self) -> str:
        if self.p_greater > 0.5:
            return ">"
        if self.p_greater < 0.5:
            return "<"
        return "="

    @property
    def confidence(self) -> float:
        return max(self.p_greater, 1.0 - self.p_greater)

    @property
    def in_equal_region(self) -> bool:
        lo, hi = EQUAL_REGION
        return lo <= self.p_greater <= hi


#: Largest K + 1 scored by the matrix-product form: (K+1)(K+2)/2 multiply-adds per
#: draw and pair, in BLAS. Above it the sorted form runs: a sort per pair, bucket
#: bounds from K + 1 = 128, then O(K) prefix sums per draw and pair they leave open.
#: The pair count matters too: the matrix form builds its products once per block
#: for all pairs and fills its GEMMs with up to _PAIR_TILE pairs, so at S = 2000 on
#: one BLAS thread the sorted form wins from K + 1 = 40 with 3 pairs and near 96
#: with 45, while with 435 the matrix form is still 1.2 times faster at 96.
_MATRIX_FORM_MAX = 48
#: Elements per block of the S Dirichlet draws, or in the matrix form of their
#: products, so memory does not grow with S. The sorted form takes a quarter, held
#: as drawn and transposed. Its bucket masses lie outside this budget: 32 floats
#: per pair and draw of a pair block, 8.4 MB at K + 1 = 128, 131 kB at K = 1000.
_DRAW_BLOCK = 1 << 17
#: Pairs per sign tile of the matrix form: enough columns for an efficient GEMM.
_PAIR_TILE = 128
#: np.triu_indices(m), made once per m: the matrix form asks for it on every tile
_upper = cache(np.triu_indices)


def _walsh_weights(g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """What ``_matrix_wins`` scores draws g (S, m) on: the (m(m+1)/2, S) products
    g_a g_b, a <= b, rows in np.triu_indices(m) order, into the flat ``out`` if given."""
    S, m = g.shape
    size = m * (m + 1) // 2 * S
    w = (np.empty(size) if out is None else out[:size]).reshape(-1, S)
    gt, k = g.T.copy(), 0
    for a in range(m):
        np.multiply(gt[a], gt[a:], out=w[k:k + m - a])
        k += m - a
    return w


def _bucket_bounds(M: np.ndarray, up: np.ndarray, down: np.ndarray) -> tuple:
    """For bucket masses M (pairs, B, draws) and bucket indices up, down (pairs, B):
    twice the Walsh stat's sure part, and the mass straddling 0, per pair and draw."""
    prefix = np.zeros((M.shape[0], M.shape[1] + 1, M.shape[2]))
    np.cumsum(M, axis=1, out=prefix[:, 1:])
    # whole rows of the flat prefix sums, B + 1 per pair
    at_up, at_down = prefix.reshape(-1, M.shape[2]).take(
        np.stack((up, down)) + prefix.shape[1] * np.arange(len(M))[:, None], axis=0)
    return (np.einsum("pbr,pbr->pr", M, prefix[:, -1:] - at_up - at_down),
            np.einsum("pbr,pbr->pr", M, at_up - at_down))


def _matrix_wins(V: np.ndarray, w: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Draws with stat > 0, plus half those with stat = 0, per column of V.

    V (K+1, pairs) holds each pair's log-ratios below the pseudo-observation
    0, w = _walsh_weights(g) the products of draws g (S, K+1), and
    stat = sum_{a<=b} g_a g_b sign(v_a + v_b). All pairs are signed at once and
    scored in one product with w, in ``work``: (2, max(m(m+1)/2, S) * pairs)
    scratch that calls share, as fresh megabyte temporaries would fault pages in
    anew. Counting exact zeros as one half maps all-equal data to S/2, makes the
    counts of V and -V sum to exactly S, and makes counts add exactly over
    blocks of draws.
    """
    m, c = V.shape
    (a, b), S = _upper(m), w.shape[1]
    one, two = np.empty((2, max(a.size, S) * c)) if work is None else work
    lo, hi = (f[:a.size * c].reshape(-1, c) for f in (one, two))
    np.take(V, a, axis=0, out=lo, mode="clip")
    np.take(V, b, axis=0, out=hi, mode="clip")
    # a sign written in place runs many times slower: each goes to the other array
    signs = np.sign(np.add(lo, hi, out=lo), out=hi)
    stat = np.matmul(signs.T, w, out=one[:c * S].reshape(c, S))
    # (stat > 0) + (stat = 0) / 2 = (1 + sign(stat)) / 2, summed exactly
    return 0.5 * (S + np.sign(stat, out=two[:c * S].reshape(c, S)).sum(axis=1))


def _sorted_wins(V: np.ndarray, blocks) -> np.ndarray:
    """``_matrix_wins`` of V, summed over ``blocks``, any iterable of (S, K+1)
    draws g: each pair is planned once, then every block is scored on the plans."""
    m, c = V.shape
    wins, B = np.zeros(c), min(m, 32)
    # Bounds decide most draws first. Cut sorted v into B <= 32 equal-count
    # buckets [lo_I, hi_I] of g-mass M_I: bucket I meets buckets J >= up_I
    # (lo_I + lo_J > 0) and J < down_I (hi_I + hi_J < 0) at a known sign, the
    # rest at most at their mass, and a = b adds at most g_a^2. For rows of g
    # summing to 1 and u = eps / 2, the prefix-sum stat is off by at most
    # (5m + 6)u. A sum of k terms is off by at most (k - 1)u times their
    # magnitudes in whatever order it adds, so with at most L = ceil(m / B)
    # DMs per bucket the bounds are off by at most (m + 7L + 7B)u
    # <= (9m + 8B + 20)u: past 64 m eps, signs agree.
    first = np.arange(B) * m // B  # B <= m bucket starts, increasing
    size = np.diff(first, append=m)
    # a bucket's members fill the first of its ceil(m / B) slots, the rest a zero row
    fill = np.arange(-(-m // B)) < size[:, None]
    plans, pads, ends = [], [], []
    for v in V.T:
        order = np.argsort(v, kind="stable")
        ordered = v[order]
        lo, hi = ordered[first], ordered[first + size - 1]
        up, down = np.searchsorted(lo, -lo, side="right"), np.searchsorted(hi, -hi, side="left")
        certain, spread = _bucket_bounds((size / m)[None, :, None], up[None], down[None])
        # bounds pay with buckets of 4 DMs or more (with 2, at K + 1 = 64, summing the
        # masses cost as much as the prefix sums) that decide the draw of equal weights
        bounded = m >= 4 * 32 and abs(certain.item()) > spread.item()
        if bounded:
            pad = np.full(fill.shape, m)
            pad[fill] = order
            pads.append(pad.T.ravel())  # slot-major: sums run over whole rows
            ends.append((up, down))
        below, upto = np.empty((2, m), dtype=np.intp)
        below[order[::-1]] = np.searchsorted(ordered, -ordered[::-1], side="left")
        upto[order[::-1]] = np.searchsorted(ordered, -ordered[::-1], side="right")
        plans.append(((order, below, upto, np.sign(v)), len(pads) - 1 if bounded else None))
    pads, ends = np.array(pads), np.array(ends)
    for g in blocks:
        if len(pads):
            # masses of all bounded pairs from whole rows of the block transposed
            gt = np.zeros((m + 1, len(g)))
            gt[:m] = g.T
            M = np.empty((len(pads), B * len(g)))
            for pad, into in zip(pads, M):
                gt.take(pad, axis=0).reshape(-1, B * len(g)).sum(axis=0, out=into)
            del gt
            certain, spread = _bucket_bounds(M.reshape(-1, B, len(g)), ends[:, 0], ends[:, 1])
            spread += np.einsum("sa,sa->s", g, g) + 64 * m * np.finfo(float).eps
        for p, (plan, k) in enumerate(plans):
            if k is None:
                wins[p] += _prefix_wins(g, *plan)
            else:
                wins[p] += np.count_nonzero(certain[k] > spread[k]) + _prefix_wins(
                    g[np.abs(certain[k]) <= spread[k]], *plan)
        del g  # freed before the next block is drawn
    return wins


def _prefix_wins(rows: np.ndarray, order, below, upto, sign) -> float:
    """``_sorted_wins`` of draws ``rows`` on one pair, exactly: twice stat, as
    each a weighs the g-mass above -v_a minus the mass below it, read off
    prefix sums of g in ``order``, the ascending order of v, at ``upto`` and
    ``below``, the count of v at most and below -v_a; ``sign`` is sign(v)."""
    wins, m = 0.0, len(order)
    step = block_width(m)
    for s in range(0, len(rows), step):
        chunk = rows[s:s + step]
        prefix = np.zeros((chunk.shape[0], m + 1))
        np.cumsum(np.take(chunk, order, axis=1), axis=1, out=prefix[:, 1:])
        # in place, in the order of total - upto - below + chunk * sign
        mass = prefix.take(upto, axis=1)
        np.subtract(prefix[:, -1:], mass, out=mass)
        mass -= prefix.take(below, axis=1)
        mass += chunk * sign
        stat = np.einsum("sa,sa->s", chunk, mass)
        wins += (stat > 0).sum() + 0.5 * (stat == 0).sum()
    return wins


def _check_knobs(mc_samples: int = 1000, seed=None, prior_weight: float = 1.0,
                 prior_a: float = 1.0, prior_b: float = 1.0) -> None:
    """The one range rule of each credal knob, checked whichever test uses it."""
    _check_integer(mc_samples, "mc_samples", 1000)
    _check_seed(seed)
    _check_positive(prior_weight, "prior_weight")
    _check_positive(prior_a, "beta prior parameters")
    _check_positive(prior_b, "beta prior parameters")


def _bayes_posteriors(values: np.ndarray, mc_samples: int, seed,
                      prior_weight: float) -> np.ndarray:
    """P(column i outweighs column j), i < j, of (K, n) ``values``, on one stream."""
    K = values.shape[0]
    if K < 2:
        raise InsufficientSamples("the Bayesian signed-rank test needs K >= 2")
    _check_knobs(mc_samples=mc_samples, seed=seed, prior_weight=prior_weight)
    alpha = np.concatenate(([prior_weight], np.ones(K)))
    start = np.random.SeedSequence(seed)  # drawn once, also for seed=None

    def draws(rows):
        """The one stream of S draws, from its start, in blocks of ``rows``."""
        rng = np.random.default_rng(start)
        for s in range(0, mc_samples, rows):
            yield rng.dirichlet(alpha, size=min(rows, mc_samples - s))

    m, P = K + 1, (K + 1) * (K + 2) // 2
    # a zero first row heads each block with the pseudo-observation 0
    x = np.vstack((np.zeros(values.shape[1]), np.log(values)))
    if m > _MATRIX_FORM_MAX:
        # each pair block, whose plans take about 5 PAIR_BLOCK elements, is
        # planned once and scores the whole stream, replayed from its seed
        rows = max(1, _DRAW_BLOCK // (4 * m))
        return pair_statistic(x, lambda V, _: _sorted_wins(V, draws(rows))) / mc_samples
    # each block's products are made once and every pair tile is scored on
    # them; the products and one tile's stats each fit in _DRAW_BLOCK
    width = min(_PAIR_TILE, values.shape[1] * (values.shape[1] - 1) // 2)
    rows = max(1, min(mc_samples, _DRAW_BLOCK // max(P, _PAIR_TILE)))
    block, work = np.empty(P * rows), np.empty((2, max(P, rows) * width))
    wins = 0.0
    for g in draws(rows):
        w = _walsh_weights(g, block)
        del g  # freed before the next block is drawn
        wins += pair_statistic(x, lambda V, _: _matrix_wins(V, w, work), width)
    return wins / mc_samples


def _sign_posteriors(values: np.ndarray, prior_a: float, prior_b: float) -> np.ndarray:
    """``sign_test``'s P(column i outweighs column j) for each pair i < j of
    the (K, n) ``values``, one ``betainc`` call per pair block. The only
    function that imports scipy, on call: other commands load numpy alone."""
    from scipy.special import betainc

    _check_knobs(prior_a=prior_a, prior_b=prior_b)
    # P(Beta(a + s, b + f) > 1/2) = I_{1/2}(b + f, a + s)
    p = pair_statistic(values, lambda d, _: betainc(
        prior_b + (d < 0).sum(axis=0), prior_a + (d > 0).sum(axis=0), 0.5))
    if not np.isfinite(p).all():  # scipy's betainc is NaN with both priors near 1e16
        raise NumericError("sign test posterior is not finite at beta priors"
                           f" prior_a={prior_a!r}, prior_b={prior_b!r}")
    return p


def _one_pair(W: PriorityMatrix, i: int, j: int, test: str, posteriors, *args) -> CredalOrdering:
    """Score (min(i, j), max(i, j)) by ``posteriors(values, *args)`` of its
    (K, 2) columns of ``W.values``; a reversed pair gets the exact complement."""
    _check_pair(W, i, j)
    lo, hi = sorted((i, j))
    p = posteriors(W.values[:, [lo, hi]], *args).item()
    return CredalOrdering(i=i, j=j, p_greater=p if i == lo else 1.0 - p, test=test)


def bayesian_signed_rank(
    W: PriorityMatrix,
    i: int,
    j: int,
    mc_samples: int = 10_000,
    seed: int | None = None,
    prior_weight: float = 1.0,
) -> CredalOrdering:
    """Bayesian signed-rank comparison of criteria i and j.

    Deterministic for a fixed seed and equal to ``credal_ranking`` on this
    pair: both score (min, max) on the panel's one draw, and a reversed pair
    gets the exact complement.
    """
    return _one_pair(W, i, j, BAYES_WILCOXON, _bayes_posteriors, mc_samples, seed, prior_weight)


def sign_test(
    W: PriorityMatrix,
    i: int,
    j: int,
    prior_a: float = 1.0,
    prior_b: float = 1.0,
) -> CredalOrdering:
    """Beta-binomial comparison from per-DM win counts.

    The pair is scored as (lo, hi) = (min(i, j), max(i, j)): with s DMs
    favoring lo and f favoring hi (ties excluded from both counts), the
    confidence that lo outweighs hi is P(p > 1/2) under
    Beta(prior_a + s, prior_b + f), evaluated with the regularized incomplete
    beta function. The prior thus belongs to the lower-indexed criterion, as
    in ``credal_ranking``, and a reversed pair gets the exact complement.
    """
    return _one_pair(W, i, j, SIGN_TEST, _sign_posteriors, prior_a, prior_b)


@dataclass(frozen=True)
class CredalRanking:
    """Credal orderings for every unordered criterion pair."""

    orderings: tuple[CredalOrdering, ...]
    test: str
    mc_samples: int | None = None
    seed: int | None = None

    @cached_property
    def _by_pair(self) -> dict:
        return {(o.i, o.j): o for o in self.orderings}

    def ordering(self, i: int, j: int) -> CredalOrdering:
        """The stored ordering for a pair, complemented if queried reversed."""
        if (i, j) in self._by_pair:
            return self._by_pair[i, j]
        if (j, i) in self._by_pair:
            o = self._by_pair[j, i]
            return CredalOrdering(i=i, j=j, p_greater=1.0 - o.p_greater, test=o.test)
        raise InputError(f"no ordering for pair ({i}, {j})")


def credal_ranking(
    W: PriorityMatrix,
    test: str = BAYES_WILCOXON,
    mc_samples: int = 10_000,
    seed: int | None = None,
    prior_weight: float = 1.0,
    prior_a: float = 1.0,
    prior_b: float = 1.0,
) -> CredalRanking:
    """One credal ordering per unordered criterion pair, i < j.

    Every knob is validated, used or not, before the Bayesian test's one draw.
    """
    _check_knobs(mc_samples, seed, prior_weight, prior_a, prior_b)
    _check_choice(test, (BAYES_WILCOXON, SIGN_TEST), "test")
    if test == BAYES_WILCOXON:
        p = _bayes_posteriors(W.values, mc_samples, seed, prior_weight)
    else:
        p = _sign_posteriors(W.values, prior_a, prior_b)
    i, j = pair_indices(W.n_criteria)
    return CredalRanking(
        orderings=tuple(CredalOrdering(i=a, j=b, p_greater=q, test=test)
                        for a, b, q in zip(i.tolist(), j.tolist(), p.tolist())),
        test=test,
        mc_samples=mc_samples if test == BAYES_WILCOXON else None,
        seed=seed if test == BAYES_WILCOXON else None,
    )
