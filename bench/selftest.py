"""Show that the output checks pass on right oracles and fail on wrong ones.

    python3 bench/selftest.py

Runs each CLI path the benchmark checks once on the shipped 5x4 example,
then feeds every check the true panel (it must pass) and deliberately wrong
oracle inputs (each must raise ``CheckFailed``, with the one exception
below):

* ``swapped``: the panel with criteria c2 and c4 swapped, a pair every DM
  ranks the same way;
* ``scaled``: the panel with c1 multiplied by 1.3 and rows re-closed. No
  DM's order between two criteria changes, so unanimous pairs stay
  unanimous and only the Monte Carlo comparison can catch it in the
  Bayesian test; the sign test, which sees only those orders, must pass.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run
from panels import read_csv

SEED = 5
CLUSTERS = 2


def main() -> int:
    if not (run.SRC / "groupmcdm" / "cli.py").is_file():
        print(f"error: no groupmcdm sources under {run.SRC}", file=sys.stderr)
        return 2
    panel = run.Panel(None, CLUSTERS)
    W = read_csv(run.SHIPPED)
    outputs = {}
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for key in run.TIMED + run.TRACED_EXTRA:
            args = run.cli_args(key, run.SHIPPED, panel, SEED, 10_000)
            out, _, _, code = run.spawn([sys.executable, "-m", "groupmcdm.cli", *args],
                                        Path(tmp) / "err")
            if code != 0:
                print(f"{key} exited {code}", file=sys.stderr)
                return 1
            outputs[key] = json.loads(out)

    swapped = W[:, [0, 3, 2, 1]]
    scaled = W * [1.3, 1.0, 1.0, 1.0]
    scaled /= scaled.sum(axis=1, keepdims=True)
    i, j = np.triu_indices(W.shape[1], k=1)
    if not np.array_equal(W[:, i] > W[:, j], scaled[:, i] > scaled[:, j]):
        print("error: the scaled oracle changes an order between criteria", file=sys.stderr)
        return 1
    lam = checks.check_awgmm(outputs["aggregate"], W)

    def rank(oracle):
        return checks.check_rank_bayes(outputs["rank"], oracle, 10_000, SEED,
                                       np.random.default_rng([SEED, 1]))

    cases = {
        "gmm": lambda o: checks.check_gmm(outputs["aggregate_gmm"], o),
        "awgmm": lambda o: checks.check_awgmm(outputs["aggregate"], o),
        "describe": lambda o: checks.check_describe(outputs["describe"], o, lam),
        "rank bayes": rank,
        "rank sign": lambda o: checks.check_rank_sign(outputs["rank_sign"], o),
        "cluster aitchison": lambda o: checks.check_cluster(outputs["cluster"], o, CLUSTERS),
        "cluster madc + baseline": lambda o: checks.check_cluster(
            outputs["cluster_madc"], o, CLUSTERS, "madc", baseline=True),
    }
    wrong = {"swapped": swapped, "scaled": scaled}
    not_caught = {("rank sign", "scaled")}
    bad = 0
    for name, check in cases.items():
        try:
            check(W)
            verdict = "passes on the true panel"
        except checks.CheckFailed as exc:
            verdict = f"FAILS on the true panel: {exc}"
            bad += 1
        print(f"{name:24s} {verdict}")
        for label, oracle in wrong.items():
            expected = "passes" if (name, label) in not_caught else "caught"
            try:
                check(oracle)
                seen = "passes"
            except checks.CheckFailed as exc:
                seen = f"caught ({exc})"
            ok = seen.startswith(expected)
            bad += not ok
            print(f"{'':24s} {label}: {seen}{'' if ok else f'; expected {expected}'}")
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
