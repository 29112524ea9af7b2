"""Output checks for the CLI benchmark, computed apart from the program.

Every check re-derives the expected output from the panel the benchmark
wrote, with plain numpy and the standard library, and never compares against
a stored copy of an earlier output. Each raises ``CheckFailed`` with a
message naming the quantity that disagrees.

Tolerances, stated once here:

* ``EXACT``: quantities the program builds by the same algebra (closure,
  antisymmetry, means of log-ratios). They differ from the oracle only by
  rounding in another order, far below 1e-9.
* ``FIXED_POINT``: AWGMM stops when the group vector moves less than 1e-10
  in the max norm, so its weights satisfy the fixed-point equations only to
  the size of that last step times the weights' sensitivity to it.
* ``MC_Z``: the Bayesian test is a Monte Carlo estimate; program and oracle
  are compared within 5 standard errors of the difference of two estimates,
  sqrt(p(1-p) (1/S_program + 1/S_oracle)), with p kept at least 10 draws
  away from 0 and 1, where the normal approximation fails.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EXACT = 1e-9
FIXED_POINT = 1e-6
MC_Z = 5.0
MC_MIN_EVENTS = 10
ORACLE_MC_SAMPLES = 4000
ORACLE_CHUNK = 500
RANK_SAMPLE_PAIRS = 6
DEVIANT_THRESHOLD = 0.01
AWGMM_MAX_ITER = 500
CLUSTER_MAX_ITER = 300


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def _expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close_to(actual, expected, what: str, tol: float = EXACT) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    _expect(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    err = float(np.max(np.abs(actual - expected) / (1.0 + np.abs(expected)), initial=0.0))
    _expect(err <= tol, f"{what}: off by {err:.3g} (tolerance {tol:g})")


def _pairs(n: int):
    return np.triu_indices(n, k=1)


def _log_ratios(W: np.ndarray) -> np.ndarray:
    """(K, n(n-1)/2) per-DM log-ratios ln(W_ki / W_kj), i < j lexicographic."""
    i, j = _pairs(W.shape[1])
    return np.log(W[:, i] / W[:, j])


def _clr(W: np.ndarray) -> np.ndarray:
    logs = np.log(W)
    return logs - logs.mean(axis=-1, keepdims=True)


def _closed(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / v.sum(axis=-1, keepdims=True)


def _geometric_mean(W: np.ndarray) -> np.ndarray:
    return _closed(np.exp(np.log(W).mean(axis=0)))


def _labels_match(out: dict, W: np.ndarray) -> None:
    expected = [f"c{i + 1}" for i in range(W.shape[1])]
    res = out["results"]
    labels = res["labels"] if "labels" in res else res["weights"]["labels"]
    _expect(labels == expected, "labels differ from the CSV header")


# -- aggregate ---------------------------------------------------------------

def check_gmm(out: dict, W: np.ndarray) -> None:
    """GMM equals the closed column-wise geometric mean."""
    res = out["results"]
    _expect(res["method"] == "gmm", f"method {res['method']!r} is not gmm")
    _labels_match(out, W)
    _close_to(res["weights"]["values"], _geometric_mean(W), "gmm weights")


def check_awgmm(out: dict, W: np.ndarray) -> np.ndarray:
    """AWGMM weights and DM weights satisfy the method's equations.

    Returns the DM weights, which the weighted AD array check reuses.
    """
    res = out["results"]
    _expect(res["method"] == "awgmm", f"method {res['method']!r} is not awgmm")
    _labels_match(out, W)
    K, n = W.shape
    lam = np.asarray(res["dm_weights"], dtype=float)
    _expect(lam.shape == (K,), f"{lam.size} DM weights for {K} DMs")
    _expect(bool(np.all(lam >= 0.0)), "negative DM weight")
    _close_to(lam.sum(), 1.0, "sum of DM weights")
    _expect(res["converged"] is True, "AWGMM reports no convergence")
    _expect(1 <= res["iterations"] < AWGMM_MAX_ITER,
            f"AWGMM took {res['iterations']} iterations (max {AWGMM_MAX_ITER})")
    weights = np.asarray(res["weights"]["values"], dtype=float)
    # the group vector is the closed weighted product prod_k W_k^lambda_k
    _close_to(weights, _closed(np.exp(lam @ np.log(W))), "awgmm weights vs weighted product")
    # fixed point: lambda = softmax(-d / sigma2) with d_k the squared
    # log-ratio distance of DM k to the group vector, sigma2 = sum_k d_k / n^2
    d = ((_log_ratios(W) - _log_ratios(weights[None, :])) ** 2).sum(axis=1)
    sigma2 = d.sum() / (n * n)
    _expect(sigma2 > 0, "AWGMM scale is zero")
    alpha = np.exp(-(d - d.min()) / sigma2)
    _close_to(lam, alpha / alpha.sum(), "DM weights vs fixed point", FIXED_POINT)
    deviants = [k + 1 for k in range(K) if lam[k] < DEVIANT_THRESHOLD]
    _expect(res["deviants"] == deviants, "deviant list differs from the DM weights")
    return lam


# -- describe ----------------------------------------------------------------

def check_describe(out: dict, W: np.ndarray, lam: np.ndarray) -> None:
    """The three AD arrays match a per-pair recomputation.

    ``lam`` holds the AWGMM DM weights of the same panel, already checked
    against their fixed-point equations by ``check_awgmm``.
    """
    _labels_match(out, W)
    n = W.shape[1]
    i, j = _pairs(n)
    Z = _log_ratios(W)
    mean_log = np.log(W).mean(axis=0)
    med = np.median(Z, axis=0)
    w_mean = lam @ Z
    expected = {
        # mean xi is ln(g_i / g_j), g the column-wise geometric means
        "mean": (mean_log[i] - mean_log[j], Z.std(axis=0, ddof=1)),
        "median": (med, np.median(np.abs(Z - med), axis=0)),
        "awgmm": (w_mean, np.sqrt(lam @ (Z - w_mean) ** 2)),
    }
    arrays = out["results"]["ad_arrays"]
    _expect(sorted(arrays) == sorted(expected), f"AD arrays {sorted(arrays)}")
    for name, (xi_pairs, tau_pairs) in expected.items():
        xi = np.asarray(arrays[name]["xi"], dtype=float)
        tau = np.asarray(arrays[name]["tau"], dtype=float)
        combined = np.asarray(arrays[name]["combined"], dtype=float)
        _expect(xi.shape == (n, n) and tau.shape == (n, n), f"{name}: array shape")
        _close_to(xi, -xi.T, f"{name} xi antisymmetry")
        _close_to(tau, tau.T, f"{name} tau symmetry")
        _close_to(np.diag(xi), np.zeros(n), f"{name} xi diagonal")
        _close_to(np.diag(tau), np.zeros(n), f"{name} tau diagonal")
        _close_to(xi[i, j], xi_pairs, f"{name} xi")
        _close_to(tau[i, j], tau_pairs, f"{name} tau")
        _close_to(combined, np.triu(xi, 1) + np.tril(tau, -1), f"{name} combined")


# -- rank --------------------------------------------------------------------

def walsh_posterior(z: np.ndarray, samples: int, rng: np.random.Generator,
                    prior_weight: float = 1.0) -> float:
    """P(pseudo-median of z > 0) under the Bayesian signed-rank test.

    z is augmented with a pseudo-observation at zero; each draw g from
    Dirichlet(prior_weight, 1, ..., 1) scores sum_{a<=b} g_a g_b
    sign(v_a + v_b). This evaluates the statistic by sorting v once and
    taking prefix sums of g in sorted order, O(S K) per pair, where the
    program forms the (K+1)^2 sign matrix; exact-zero statistics count one
    half.
    """
    v = np.concatenate(([0.0], z))
    alpha = np.concatenate(([prior_weight], np.ones(z.size)))
    order = np.argsort(v, kind="stable")
    vs = v[order]
    below = np.searchsorted(vs, -v, side="left")   # count of b with v_b < -v_a
    upto = np.searchsorted(vs, -v, side="right")   # count of b with v_b <= -v_a
    wins = 0.0
    done = 0
    while done < samples:
        size = min(ORACLE_CHUNK, samples - done)
        g = rng.dirichlet(alpha, size=size)
        prefix = np.concatenate((np.zeros((size, 1)), np.cumsum(g[:, order], axis=1)), axis=1)
        mass_neg = prefix[:, below]
        mass_pos = prefix[:, -1:] - prefix[:, upto]
        # sum over all ordered (a, b) plus the diagonal = 2 * sum over a <= b
        stat = (g * (mass_pos - mass_neg)).sum(axis=1) + (g * g) @ np.sign(v)
        wins += (stat > 0).sum() + 0.5 * (stat == 0).sum()
        done += size
    return wins / samples


def _check_orderings(res: dict, n: int) -> list:
    orderings = res["orderings"]
    i, j = _pairs(n)
    _expect(len(orderings) == i.size, f"{len(orderings)} orderings for {i.size} pairs")
    for o, a, b in zip(orderings, i, j):
        p = o["p_greater"]
        _expect((o["i"], o["j"]) == (a, b), f"pair order ({o['i']}, {o['j']})")
        _expect(o["pair"] == [f"c{a + 1}", f"c{b + 1}"], f"pair labels {o['pair']}")
        _expect(0.0 <= p <= 1.0, f"p = {p} outside [0, 1]")
        _expect(o["relation"] == (">" if p > 0.5 else "<" if p < 0.5 else "="),
                f"relation {o['relation']!r} for p = {p}")
        _expect(o["confidence"] == max(p, 1.0 - p), f"confidence {o['confidence']} for p = {p}")
        _expect(o["equal_region"] == (0.45 <= p <= 0.55), f"equal region flag for p = {p}")
    return orderings


def check_rank_bayes(out: dict, W: np.ndarray, mc_samples: int, seed: int,
                     rng: np.random.Generator) -> int:
    """Bayesian signed-rank posteriors; returns the number of unanimous pairs.

    Unanimous pairs must give exactly p = 1 (or 0); a sample of pairs drawn
    with ``rng`` is re-estimated by ``walsh_posterior`` on draws that share
    nothing with the program's stream.
    """
    res = out["results"]
    _expect(res["test"] == "bayes-wilcoxon", f"test {res['test']!r}")
    _expect(res["mc_samples"] == mc_samples and res["seed"] == seed, "config echo")
    _labels_match(out, W)
    n = W.shape[1]
    orderings = _check_orderings(res, n)
    i, j = _pairs(n)
    unanimous = 0
    for o, a, b in zip(orderings, i, j):
        if np.all(W[:, a] > W[:, b]) or np.all(W[:, a] < W[:, b]):
            unanimous += 1
            want = 1.0 if W[0, a] > W[0, b] else 0.0
            _expect(o["p_greater"] == want, f"unanimous pair ({a}, {b}) has p = {o['p_greater']}")
    picks = rng.choice(i.size, size=min(RANK_SAMPLE_PAIRS, i.size), replace=False)
    for k in sorted(picks):
        a, b = i[k], j[k]
        mine = walsh_posterior(np.log(W[:, a] / W[:, b]), ORACLE_MC_SAMPLES, rng)
        p = orderings[k]["p_greater"]
        # near 0 or 1 the counts are Poisson-small: keep at least
        # MC_MIN_EVENTS expected events in the variance
        floor = MC_MIN_EVENTS / min(mc_samples, ORACLE_MC_SAMPLES)
        q = min(max((p + mine) / 2, floor), 1.0 - floor)
        tol = MC_Z * math.sqrt(q * (1 - q) * (1 / mc_samples + 1 / ORACLE_MC_SAMPLES))
        _expect(abs(p - mine) <= tol,
                f"pair ({a}, {b}): p = {p:.4f}, oracle {mine:.4f}, tolerance {tol:.4f}")
    return unanimous


def sign_posterior(s: int, f: int) -> float:
    """P(Beta(s+1, f+1) > 1/2) = P(Bin(s+f+1, 1/2) >= f+1), exactly."""
    N = s + f + 1
    return float(Fraction(sum(math.comb(N, k) for k in range(f + 1, N + 1)), 2 ** N))


def check_rank_sign(out: dict, W: np.ndarray) -> None:
    """Sign-test posteriors equal the binomial tail under a uniform prior."""
    res = out["results"]
    _expect(res["test"] == "sign", f"test {res['test']!r}")
    _labels_match(out, W)
    orderings = _check_orderings(res, W.shape[1])
    for o in orderings:
        a, b = o["i"], o["j"]
        s = int((W[:, a] > W[:, b]).sum())
        f = int((W[:, a] < W[:, b]).sum())
        _close_to(o["p_greater"], sign_posterior(s, f), f"sign test pair ({a}, {b})")


# -- cluster -----------------------------------------------------------------

def _check_model(m: dict, W: np.ndarray, o: int, distance: str) -> None:
    K, n = W.shape
    C = np.asarray(m["centroids"], dtype=float)
    a = np.asarray(m["assignments"])
    _expect(m["distance"] == distance, f"distance {m['distance']!r}")
    _expect(C.shape == (o, n), f"centroids shape {C.shape}")
    _expect(a.shape == (K,) and a.min() >= 0 and a.max() < o, "assignments out of range")
    _expect(m["iterations"] < CLUSTER_MAX_ITER,
            f"{m['iterations']} Lloyd iterations: no convergence before --max-iter")
    _close_to(m["centroid_sums"], C.sum(axis=1), f"{distance} centroid sums")
    for c in range(o):
        members = W[a == c]
        _expect(members.shape[0] > 0, f"cluster {c} is empty")
        if distance == "euclidean":
            _close_to(C[c], members.mean(axis=0), f"baseline centroid {c}")
        else:
            _close_to(C[c], _geometric_mean(members), f"{distance} centroid {c}")
    if distance == "aitchison":
        _close_to(C.sum(axis=1), np.ones(o), "centroids sum to 1")
        # pairwise log-ratio norm^2 = n * clr norm^2
        d = n * ((_clr(W)[:, None, :] - _clr(C)[None, :, :]) ** 2).sum(axis=2)
        inertia = d[np.arange(K), a].sum()
    elif distance == "madc":
        d = np.abs(_log_ratios(W)[:, None, :] - _log_ratios(C)[None, :, :]).sum(axis=2)
        inertia = d[np.arange(K), a].sum()
    else:
        d = ((W[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        inertia = d[np.arange(K), a].sum()
    own = d[np.arange(K), a]
    nearest = d.min(axis=1)
    _expect(bool(np.all(own <= nearest + EXACT * (1.0 + nearest))),
            f"{distance}: {int((own > nearest + EXACT * (1.0 + nearest)).sum())} DMs "
            f"not at their nearest centroid")
    _close_to(m["inertia"], inertia, f"{distance} inertia")


def check_cluster(out: dict, W: np.ndarray, o: int, distance: str = "aitchison",
                  baseline: bool = False) -> None:
    """Every DM at its nearest centroid; centroids are the right means."""
    res = out["results"]
    _labels_match(out, W)
    _check_model(res["compositional"], W, o, distance)
    _expect(("baseline" in res) == baseline, "baseline presence")
    if baseline:
        _expect(res["baseline"]["fallacious_baseline"] is True, "baseline not flagged")
        _check_model(res["baseline"], W, o, "euclidean")
