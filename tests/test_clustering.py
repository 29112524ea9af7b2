import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmcdm import (
    PriorityMatrix,
    aggregate_awgmm,
    aggregate_gmm,
    aitchison_distance,
    build_average_array,
    close,
    inverse_log_ratio,
    kmeans_compositional,
    kmeans_standard_baseline,
    madc_distance,
)
from groupmcdm.clustering import _dist_matrix
from groupmcdm.composition import clr, log_ratio_transform
from groupmcdm.errors import DimensionMismatch, InputError, TooManyClusters

from conftest import random_matrix


def two_blobs(rng, per_blob=20, n=4, spread=0.05):
    """Jitter two well-separated base compositions in log space."""
    base_a = close(np.linspace(1.0, 4.0, n)).parts
    base_b = close(np.linspace(4.0, 1.0, n)).parts
    rows, truth = [], []
    for blob, base in enumerate((base_a, base_b)):
        logs = np.log(base)
        for _ in range(per_blob):
            w = np.exp(logs + rng.normal(0.0, spread, size=n))
            rows.append(w / w.sum())
            truth.append(blob)
    return PriorityMatrix(np.array(rows)), np.array(truth), (base_a, base_b)


def purity(assignments, truth):
    a0 = set(assignments[truth == 0])
    a1 = set(assignments[truth == 1])
    return len(a0) == 1 and len(a1) == 1 and a0 != a1


class TestDistances:
    def test_identity(self):
        w = close([0.4, 0.35, 0.25])
        assert aitchison_distance(w, w) == 0.0
        assert madc_distance(w, w) == 0.0

    def test_two_part_closed_form(self):
        a, b = close([0.75, 0.25]), close([0.25, 0.75])
        assert aitchison_distance(a, b) == pytest.approx(2 * math.log(3), abs=1e-12)
        assert madc_distance(a, b) == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_aitchison_equals_log_ratio_norm(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            a = close(rng.dirichlet(np.ones(n)) + 1e-9)
            b = close(rng.dirichlet(np.ones(n)) + 1e-9)
            expected = np.linalg.norm(log_ratio_transform(a) - log_ratio_transform(b))
            assert aitchison_distance(a, b) == pytest.approx(expected, abs=1e-14)

    def test_metric_axioms_aitchison(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            x, y, z = (close(rng.dirichlet(np.ones(n)) + 1e-9) for _ in range(3))
            dxy = aitchison_distance(x, y)
            assert dxy == pytest.approx(aitchison_distance(y, x), abs=1e-12)
            assert dxy <= aitchison_distance(x, z) + aitchison_distance(z, y) + 1e-12

    def test_triangle_inequality_madc(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            x, y, z = (close(rng.dirichlet(np.ones(4)) + 1e-9) for _ in range(3))
            assert madc_distance(x, y) <= madc_distance(x, z) + madc_distance(z, y) + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(44)
        a = rng.uniform(0.1, 2.0, size=5)
        b = rng.uniform(0.1, 2.0, size=5)
        assert aitchison_distance(a, b) == pytest.approx(
            aitchison_distance(7.3 * a, 0.2 * b), abs=1e-12
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(45)
        a = close(rng.dirichlet(np.ones(5)) + 1e-9)
        b = close(rng.dirichlet(np.ones(5)) + 1e-9)
        perm = rng.permutation(5)
        assert aitchison_distance(a, b) == pytest.approx(
            aitchison_distance(a.parts[perm], b.parts[perm]), abs=1e-12
        )
        assert madc_distance(a, b) == pytest.approx(
            madc_distance(a.parts[perm], b.parts[perm]), abs=1e-12
        )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_common_criterion_permutation_keeps_both_distances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a, b = rng.dirichlet(np.ones(n), size=2) + 1e-9
        perm = rng.permutation(n)
        for distance in (aitchison_distance, madc_distance):
            assert distance(a[perm], b[perm]) == pytest.approx(distance(a, b), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            aitchison_distance(close([0.5, 0.5]), close([0.3, 0.3, 0.4]))
        with pytest.raises(DimensionMismatch):
            madc_distance(close([0.5, 0.5]), close([0.3, 0.3, 0.4]))


def log_space_lloyd(reprs, init_idx, max_iter=300):
    """Independent oracle: plain Euclidean K-means in log-ratio coordinates."""
    centroids = reprs[list(init_idx)].copy()
    assignments = np.full(reprs.shape[0], -1)
    for _ in range(max_iter):
        d = np.linalg.norm(reprs[:, None, :] - centroids[None, :, :], axis=2)
        new = d.argmin(axis=1)
        if np.array_equal(new, assignments):
            break
        assignments = new
        for c in range(len(init_idx)):
            members = reprs[assignments == c]
            assert members.size, "oracle hit an empty cluster; pick another fixture"
            centroids[c] = members.mean(axis=0)
    return centroids, assignments


@pytest.mark.parametrize(
    "init", [(0,), (0, 1, 2), (0, 5), (-1, 0), (0.5, 1.0), ("0", "1"), (True, False)],
    ids=["short", "long", "past-the-end", "negative", "float", "str", "bool"])
def test_init_indices_validated(init):
    W = PriorityMatrix(np.array([[0.2, 0.8], [0.5, 0.5], [0.7, 0.3], [0.9, 0.1], [0.4, 0.6]]))
    for fit in (kmeans_compositional, kmeans_standard_baseline):
        with pytest.raises(InputError, match="init_indices"):
            fit(W, 2, seed=0, init_indices=init)


class TestKmeansCompositional:
    def test_two_blob_separation(self):
        rng = np.random.default_rng(46)
        W, truth, (base_a, base_b) = two_blobs(rng)
        model = kmeans_compositional(W, 2, seed=6)
        assert purity(model.assignments, truth)
        # each centroid near the geometric-mean center of its blob
        for base in (base_a, base_b):
            best = min(aitchison_distance(c, base) for c in model.centroids)
            assert best < 0.1
        np.testing.assert_allclose(model.centroid_sums, 1.0, atol=1e-12)

    def test_each_dm_its_own_cluster(self):
        rng = np.random.default_rng(47)
        W = random_matrix(rng, 6, 4)
        model = kmeans_compositional(W, 6, seed=2)
        assert sorted(model.assignments) == list(range(6))
        assert model.inertia == pytest.approx(0.0, abs=1e-20)

    def test_centroids_are_unit_sum(self):
        rng = np.random.default_rng(48)
        for seed in range(5):
            W = random_matrix(rng, 20, 5)
            for distance in ("aitchison", "madc"):
                model = kmeans_compositional(W, 4, distance=distance, seed=seed)
                np.testing.assert_allclose(model.centroid_sums, 1.0, atol=1e-12)

    def test_inertia_trace_non_increasing(self):
        rng = np.random.default_rng(49)
        for seed in range(10):
            W = random_matrix(rng, 40, 4)
            model = kmeans_compositional(W, 3, seed=seed, restarts=2)
            trace = np.array(model.inertia_trace)
            assert np.all(np.diff(trace) <= 1e-10)

    def test_matches_log_space_kmeans_on_pinned_init(self):
        rng = np.random.default_rng(50)
        W, _, _ = two_blobs(rng, per_blob=12, n=5)
        init = (0, 12)
        model = kmeans_compositional(W, 2, seed=0, init_indices=init)
        reprs = W.log_ratios()
        oracle_centroids, oracle_assign = log_space_lloyd(reprs, init)
        np.testing.assert_array_equal(model.assignments, oracle_assign)
        for c in range(2):
            mapped = inverse_log_ratio(oracle_centroids[c])
            np.testing.assert_allclose(
                model.centroids[c], mapped.parts, rtol=0, atol=1e-10
            )

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(51)
        W = random_matrix(rng, 25, 4)
        a = kmeans_compositional(W, 3, seed=9)
        b = kmeans_compositional(W, 3, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_empty_cluster_reseeded(self):
        rows = np.array(
            [[0.7, 0.2, 0.1], [0.7, 0.2, 0.1], [0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]
        )
        W = PriorityMatrix(rows)
        model = kmeans_compositional(W, 2, seed=1, init_indices=(0, 1))
        assert set(model.assignments) == {0, 1}
        assert model.n_reseeds >= 1

    def test_cluster_count_validation(self):
        rng = np.random.default_rng(52)
        W = random_matrix(rng, 4, 3)
        with pytest.raises(TooManyClusters):
            kmeans_compositional(W, 5, seed=1)
        with pytest.raises(TooManyClusters):
            kmeans_compositional(W, 0, seed=1)
        with pytest.raises(InputError):
            kmeans_compositional(W, 2, distance="euclidean", seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_is_none_or_a_non_negative_integer(self, seed):
        W = random_matrix(np.random.default_rng(52), 4, 3)
        for fit in (kmeans_compositional, kmeans_standard_baseline):
            with pytest.raises(InputError, match="seed must be None or a non-negative integer"):
                fit(W, 2, seed=seed)

    def test_iteration_and_restart_validation(self):
        rng = np.random.default_rng(57)
        W = random_matrix(rng, 5, 3)
        for fit in (kmeans_compositional, kmeans_standard_baseline):
            for bad in ({"max_iter": 0}, {"restarts": 0}, {"restarts": -3}):
                with pytest.raises(InputError, match="must be at least 1"):
                    fit(W, 2, seed=1, **bad)

    def test_integer_knobs_reject_non_integers(self):
        # a float once escaped as a bare TypeError from range()
        W = random_matrix(np.random.default_rng(57), 5, 3)
        for fit in (kmeans_compositional, kmeans_standard_baseline):
            for o, bad, name in ((2.0, {}, "o"), (2, {"restarts": 2.5}, "restarts"),
                                 (2, {"max_iter": 2.5}, "max_iter"), (None, {}, "o"),
                                 ("2", {}, "o"), (True, {}, "o"),
                                 (2, {"restarts": True}, "restarts")):
                with pytest.raises(InputError, match=f"{name} must be an integer"):
                    fit(W, o, seed=1, **bad)

    def test_one_distance_matrix_per_centroid_set(self, monkeypatch):
        from groupmcdm import clustering

        calls = []
        dist_matrix = clustering._dist_matrix
        monkeypatch.setattr(
            clustering, "_dist_matrix", lambda *args: calls.append(1) or dist_matrix(*args)
        )
        rng = np.random.default_rng(56)
        W, _, _ = two_blobs(rng, per_blob=30)
        for fit in (kmeans_compositional, kmeans_standard_baseline):
            calls.clear()
            model = fit(W, 3, seed=1, init_indices=(0, 1, 2))
            assert model.iterations > 2
            # the initial centroids plus one set per update
            assert len(calls) == 1 + len(model.inertia_trace)

    def test_madc_variant_runs_and_separates_blobs(self):
        rng = np.random.default_rng(53)
        W, truth, _ = two_blobs(rng, per_blob=10)
        model = kmeans_compositional(W, 2, distance="madc", seed=4)
        assert purity(model.assignments, truth)
        assert model.distance == "madc"


class TestKmeansBaseline:
    def test_constant_compositions_recovered(self):
        rows = np.array([[0.6, 0.3, 0.1]] * 3 + [[0.2, 0.3, 0.5]] * 3)
        model = kmeans_standard_baseline(PriorityMatrix(rows), 2, seed=8)
        got = {tuple(np.round(c, 12)) for c in model.centroids}
        assert got == {(0.6, 0.3, 0.1), (0.2, 0.3, 0.5)}
        np.testing.assert_allclose(model.centroid_sums, 1.0, atol=1e-12)

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(54)
        W = random_matrix(rng, 18, 5)
        a = kmeans_standard_baseline(W, 3, seed=77)
        b = kmeans_standard_baseline(W, 3, seed=77)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_distance_tag(self):
        rng = np.random.default_rng(55)
        W = random_matrix(rng, 10, 3)
        assert kmeans_standard_baseline(W, 2, seed=1).distance == "euclidean"


def canonical(assignments):
    """Relabel clusters in order of first appearance (the partition only)."""
    first = {}
    return [first.setdefault(int(a), len(first)) for a in assignments]


class TestClrRepresentation:
    """Means and distances run on the n clr coordinates, not on the pairs."""

    # seed, number of rows, number of centroids, number of criteria
    @given(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 4),
                     st.integers(2, 12)))
    @settings(max_examples=100, deadline=None)
    def test_kernels_equal_pairwise_norms(self, case):
        seed, K, o, n = case
        rng = np.random.default_rng(seed)
        X = PriorityMatrix(rng.dirichlet(np.ones(n), size=K))
        C = PriorityMatrix(rng.dirichlet(np.ones(n), size=o))
        delta = X.log_ratios()[:, None, :] - C.log_ratios()[None, :, :]
        np.testing.assert_allclose(
            _dist_matrix(clr(X.values), clr(C.values), "aitchison"),
            np.sqrt((delta**2).sum(axis=2)), rtol=1e-12, atol=0,
        )
        np.testing.assert_allclose(
            _dist_matrix(clr(X.values), clr(C.values), "madc"),
            np.abs(delta).sum(axis=2), rtol=1e-12, atol=0,
        )

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["aitchison", "madc"]))
    @settings(max_examples=30, deadline=None)
    def test_assignments_invariant_under_perturbation(self, seed, distance):
        rng = np.random.default_rng(seed)
        W, _, _ = two_blobs(rng, per_blob=8, n=5, spread=0.3)
        p = rng.dirichlet(np.ones(5))
        moved = PriorityMatrix(W.values * p)
        for restarts in (1, 5):
            base = kmeans_compositional(W, 3, distance, seed=2, restarts=restarts)
            shifted = kmeans_compositional(moved, 3, distance, seed=2, restarts=restarts)
            # restarts reaching one partition tie up to rounding, so only the
            # partition is compared once there are several
            if restarts == 1:
                np.testing.assert_array_equal(shifted.assignments, base.assignments)
            assert canonical(shifted.assignments) == canonical(base.assignments)

    # seed, number of rows, number of criteria, |power|, sign of the power
    @given(st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 6),
                     st.floats(0.2, 3.0), st.booleans()),
           st.sampled_from(["aitchison", "madc"]))
    @settings(max_examples=40, deadline=None)
    def test_equivariant_under_powering_and_perturbation(self, case, distance):
        # clr(w**a) = a clr(w) and clr(w p) = clr(w) + clr(p): the same seeded
        # fit finds the same partition, with the acted-on centroids
        seed, K, n, magnitude, negative = case
        rng = np.random.default_rng(seed)
        W = random_matrix(rng, K, n)
        o = int(rng.integers(1, K + 1))
        a = -magnitude if negative else magnitude
        p = rng.dirichlet(np.ones(n))
        base = kmeans_compositional(W, o, distance, seed=3, restarts=1)
        for values, act in ((W.values**a, lambda c: c**a), (W.values * p, lambda c: c * p)):
            moved = kmeans_compositional(PriorityMatrix(values), o, distance, seed=3, restarts=1)
            np.testing.assert_array_equal(moved.assignments, base.assignments)
            expected = act(base.centroids)
            np.testing.assert_allclose(
                moved.centroids, expected / expected.sum(axis=1, keepdims=True), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("distance", ["aitchison", "madc"])
    def test_kmeans_memory_stays_linear(self, distance):
        rng = np.random.default_rng(58)
        W = random_matrix(rng, 200, 200)
        tracemalloc.start()
        try:
            kmeans_compositional(W, 3, distance, seed=1, restarts=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (K, n(n-1)/2) pair matrix alone would take 32 MB here
        assert peak < 10e6

    def test_no_pairwise_log_ratio_matrix_needed(self, monkeypatch):
        def refuse(self):
            raise AssertionError("pairwise log-ratio matrix requested")

        rng = np.random.default_rng(59)
        W = random_matrix(rng, 12, 5)
        monkeypatch.setattr(PriorityMatrix, "log_ratios", refuse)
        aggregate_gmm(W)
        lam = aggregate_awgmm(W).dm_weights
        build_average_array(W, "mean")
        build_average_array(W, "weighted", dm_weights=lam)
        aitchison_distance(W.row(0), W.row(1))
        madc_distance(W.row(0), W.row(1))
        kmeans_compositional(W, 3, seed=1)
        kmeans_compositional(W, 3, distance="madc", seed=1)
        kmeans_standard_baseline(W, 3, seed=1)
