"""End-to-end benchmark of the ``groupmcdm`` CLI.

    python3 bench/run.py --workload fixture|tall|wide --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark generates the
workload's priority panels from ``--seed``, writes them as CSV and runs the
real CLI from ``src/`` on them as fresh processes, in whole rounds, for
about ``--seconds``. Each subcommand's time is
the median, over the run, of its invocations' wall time from spawn to exit
with stdout read in full; its memory is the largest peak resident set
(``ru_maxrss`` from ``wait4``). Every output is then checked against
computations made apart from the program (see ``checks.py``).

With ``--trace 1`` each invocation starts through ``shim.py`` instead, which
times the program's public functions from outside it; the run then reports
per-layer metrics. The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results and spans are
written under ``bench/out/``.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and every child: on a small shared machine
# OpenBLAS's extra threads spin and add noise without saving wall time
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from panels import PanelSpec, generate, read_csv, write_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SHIPPED = ROOT / "data" / "example_priorities.csv"
SETUP_REPEATS = 3

TIMED = ("aggregate", "describe", "rank", "cluster")
# traced runs also cover these paths, for their per-layer numbers and checks
TRACED_EXTRA = ("aggregate_gmm", "rank_sign", "cluster_madc")


@dataclass(frozen=True)
class Panel:
    """One input file of a workload; ``spec`` None is the shipped example."""

    spec: PanelSpec | None
    clusters: int

    @property
    def name(self) -> str:
        return self.spec.name if self.spec else "example5x4"


@dataclass(frozen=True)
class Workload:
    panels: tuple[Panel, ...]
    mc_samples: int


WORKLOADS = {
    # group-AHP sizes: process start and imports dominate every subcommand
    "fixture": Workload(
        panels=(
            Panel(None, clusters=2),
            Panel(PanelSpec("ahp30x7", 30, 7, groups=2, concentration=40.0, deviants=2), 3),
        ),
        mc_samples=10_000,
    ),
    # many DMs: work growing with K (Lloyd distances, median arrays, the
    # (K+1)^2 sign matrix of each pair) dominates
    "tall": Workload(
        panels=(Panel(PanelSpec("tall1000x6", 1000, 6, groups=3, concentration=200.0,
                                deviants=30), 4),),
        mc_samples=1000,
    ),
    # many criteria: work growing with the n(n-1)/2 pairs dominates; n^2/K
    # stays far below the point where AWGMM's weights underflow
    "wide": Workload(
        panels=(Panel(PanelSpec("wide30x60", 30, 60, groups=2, concentration=200.0,
                                deviants=2), 3),),
        mc_samples=1000,
    ),
}

# metric names and units come from the benchmark's fixed form
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def cli_args(key: str, csv: Path, panel: Panel, seed: int, mc_samples: int) -> list[str]:
    base = ["--input", str(csv)]
    return {
        "aggregate": ["aggregate", *base, "--method", "awgmm"],
        "aggregate_gmm": ["aggregate", *base, "--method", "gmm"],
        "describe": ["describe", *base],
        "rank": ["rank", *base, "--seed", str(seed), "--mc-samples", str(mc_samples)],
        "rank_sign": ["rank", *base, "--test", "sign"],
        "cluster": ["cluster", *base, "--clusters", str(panel.clusters), "--seed", str(seed)],
        "cluster_madc": ["cluster", *base, "--clusters", str(panel.clusters), "--seed",
                         str(seed), "--distance", "madc", "--with-baseline"],
    }[key]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Call:
    key: str
    panel: str
    wall_s: float
    rss_mb: float
    returncode: int
    digest: str
    stdout: bytes | None = None
    stderr_path: Path | None = None
    stderr_tail: str = ""


def spawn(argv: list[str], stderr_path: Path) -> tuple[bytes, float, float, int]:
    """Run one process; return stdout, wall seconds, peak RSS in MB, exit code."""
    env = child_env()
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return out, wall, usage.ru_maxrss / 1024.0, proc.returncode


def set_up(workload: Workload, seed: int, work: Path) -> tuple[dict, float]:
    """Generate and write the panels, then make one untimed warm-up start."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    paths = {}
    for panel in workload.panels:
        if panel.spec is None:
            paths[panel.name] = SHIPPED
        else:
            paths[panel.name] = work / f"{panel.name}.csv"
            write_csv(paths[panel.name], generate(panel.spec, rng))
    last = paths[workload.panels[-1].name]
    _, _, _, code = spawn([sys.executable, "-m", "groupmcdm.cli", "aggregate", "--input",
                           str(last), "--method", "gmm"], work / "warmup.err")
    if code != 0:
        raise RuntimeError(f"warm-up start of the CLI exited {code}; see {work / 'warmup.err'}")
    return paths, time.perf_counter() - start


def one_round(workload: Workload, keys: tuple, index: int) -> list:
    """(key, panel) pairs of round ``index``: subcommands interleaved, and
    rotated each round so that every one of them takes every position."""
    shift = index % len(keys)
    order = keys[shift:] + keys[:shift]
    return [(key, panel) for panel in workload.panels for key in order]


def measure(workload, keys, paths, seed, seconds, work, traced) -> tuple[list, int]:
    """Run whole rounds while another one, at the mean round time so far,
    still fits in ``seconds``; at least one round."""
    calls = []
    seen = {}
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for key, panel in one_round(workload, keys, rounds):
            args = cli_args(key, paths[panel.name], panel, seed, workload.mc_samples)
            n = len(calls)
            err = work / (f"call{n}.err" if traced else "call.err")
            if traced:
                argv = [sys.executable, "-X", "importtime", str(BENCH / "shim.py"),
                        str(work / f"call{n}.spans.json"), *args]
            else:
                argv = [sys.executable, "-m", "groupmcdm.cli", *args]
            out, wall, rss, code = spawn(argv, err)
            call = Call(key, panel.name, wall, rss, code, hashlib.sha256(out).hexdigest(),
                        stderr_path=err)
            if code == 0 and (key, panel.name) not in seen:
                call.stdout = out
                seen[key, panel.name] = call
            elif code != 0:
                tail = err.read_text(errors="replace").strip().splitlines()[-3:]
                call.stderr_tail = " | ".join(tail)
            calls.append(call)
        rounds += 1
    return calls, rounds


def check_outputs(workload, keys, calls, paths, seed) -> tuple[list, int]:
    """Check every invocation: no operation of a workload may fail, so a
    non-zero exit is a failure, and so is a subcommand and panel of the run
    with no successful invocation to check.

    Returns the failures found and the number of unanimous pairs the rank
    check met (those must give p exactly 1 or 0).
    """
    problems = []
    firsts = {}
    for call in calls:
        if call.returncode != 0:
            problems.append(f"{call.key} on {call.panel} exited {call.returncode}: "
                            f"{call.stderr_tail}")
            continue
        first = firsts.setdefault((call.key, call.panel), call)
        if call.digest != first.digest:
            problems.append(f"{call.key} on {call.panel}: stdout differs between invocations")
    rng = np.random.default_rng([seed, 1])
    unanimous = 0
    for panel in workload.panels:
        W = read_csv(paths[panel.name])
        lam = None  # this panel's AWGMM DM weights, once checked
        # aggregate first: the weighted AD array check reuses its DM weights
        for key in TIMED + TRACED_EXTRA:
            if key not in keys:
                continue
            call = firsts.get((key, panel.name))
            if call is None:
                problems.append(f"{key} on {panel.name}: no invocation succeeded")
                continue
            try:
                out = json.loads(call.stdout)
                if key == "aggregate":
                    lam = checks.check_awgmm(out, W)
                elif key == "aggregate_gmm":
                    checks.check_gmm(out, W)
                elif key == "describe":
                    if lam is None:
                        raise checks.CheckFailed("no checked AWGMM output for the weighted array")
                    checks.check_describe(out, W, lam)
                elif key == "rank":
                    unanimous += checks.check_rank_bayes(out, W, workload.mc_samples, seed, rng)
                elif key == "rank_sign":
                    checks.check_rank_sign(out, W)
                elif key == "cluster":
                    checks.check_cluster(out, W, panel.clusters)
                else:
                    checks.check_cluster(out, W, panel.clusters, "madc", baseline=True)
            except (checks.CheckFailed, ValueError, KeyError, TypeError) as exc:
                problems.append(f"{key} on {panel.name}: {type(exc).__name__}: {exc}")
    return problems, unanimous


def import_scipy_seconds(stderr_text: str) -> float:
    """Scipy's share of the imports, from ``python -X importtime`` output.

    Lines are printed children first, indented by nesting depth; reading them
    in reverse gives each import before its children, so the outermost scipy
    imports (those whose parent is not scipy) can be summed.
    """
    stack = []  # (depth, module name)
    total_us = 0
    for line in reversed(stderr_text.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total_us += int(parts[1])
        stack.append((depth, name))
    return total_us / 1e6


def layer_metrics(calls: list, work: Path, label: str) -> tuple[dict, list, list]:
    """Per-layer metrics from the spans of every traced invocation.

    Times are self times (a span's duration minus its children's). Times
    and counts are summed per invocation, then averaged over the
    invocations that recorded them: a mean, not a median, so that a layer
    every subcommand passes through (rendering) reflects its largest users.
    Peaks are the largest over the run. Every layer must be recorded by some
    invocation: a layer the shim could no longer wrap would otherwise read 0,
    the best value there is, so it is returned as a problem instead.
    """
    per_call = []
    all_spans = []
    unwrapped = set()
    for n, call in enumerate(calls):
        spans_path = work / f"call{n}.spans.json"
        if call.returncode != 0 or not spans_path.is_file():
            continue
        trace = json.loads(spans_path.read_text())
        spans = trace["spans"]
        unwrapped.update(trace["unwrapped"])
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        values = {"cli.import_scipy_s": import_scipy_seconds(call.stderr_path.read_text())}
        peaks = {}
        for s in spans:
            module = s["name"].split(".")[0]
            key = f"{s['name']}_s"
            values[key] = values.get(key, 0.0) + s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for count, v in s["counts"].items():
                values[f"{module}.{count}"] = values.get(f"{module}.{count}", 0) + v
            if "peak_bytes" in s:
                for key in (f"{module}.peak_mb", f"{s['name']}_peak_mb"):
                    peaks[key] = max(peaks.get(key, 0.0), s["peak_bytes"] / 2**20)
            all_spans.append({"invocation": f"{label}-{n}", "command": call.key,
                              "panel": call.panel, **s})
        per_call.append((values, peaks))
    metrics = {}
    problems = []
    for name, _ in PER_LAYER:
        source = 1 if name.endswith("peak_mb") else 0
        found = [values[source][name] for values in per_call if name in values[source]]
        if not found:
            problems.append(f"layer {name}: no invocation recorded it; the shim could not "
                            f"wrap: {', '.join(sorted(unwrapped)) or 'nothing'}")
            continue
        metrics[name] = max(found) if source else statistics.fmean(found)
    return metrics, all_spans, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the groupmcdm CLI on seeded panels.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "groupmcdm" / "cli.py").is_file():
        print(f"error: no groupmcdm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        paths, seconds = set_up(workload, args.seed, work)
        setup_times.append(seconds)
    keys = TIMED + TRACED_EXTRA if traced else TIMED
    calls, rounds = measure(workload, keys, paths, args.seed, args.seconds, work, traced)
    problems, unanimous = check_outputs(workload, keys, calls, paths, args.seed)

    # every round runs every subcommand, so no list below is empty; a failed
    # invocation makes the whole run incorrect, whatever it did to a median
    walls = {key: [c.wall_s for c in calls if c.key == key] for key in TIMED}
    timed_medians = {key: statistics.median(walls[key]) for key in TIMED}
    if traced:
        metrics, spans, layer_problems = layer_metrics(calls, work, label)
        problems += layer_problems
        units = dict(PER_LAYER)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    else:
        metrics = {"setup_s": statistics.median(setup_times)}
        for key in TIMED:
            metrics[f"{key}_s"] = timed_medians[key]
            metrics[f"{key}_rss_mb"] = max(c.rss_mb for c in calls if c.key == key)
        units = dict(END_TO_END)
    result = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": sum(c.returncode != 0 for c in calls),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {rounds} rounds, "
          f"{result['attempted']} invocations attempted, {result['failed']} failed, "
          f"{len(problems)} check failures, {unanimous} unanimous pairs checked")
    print("setup runs (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    for key in TIMED:
        print(f"{'traced' if traced else 'timed'} {key}: n={len(walls[key])} median "
              f"{timed_medians[key]:.4f} s, runs " + " ".join(f"{w:.3f}" for w in walls[key]))
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    (OUT / f"result-{label}.json").write_text(json.dumps(result, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
