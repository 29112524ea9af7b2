"""Command-line front end: CSV in, JSON/text/DOT reports out.

Subcommands: ``aggregate``, ``describe``, ``rank``, ``cluster``. Input is a
UTF-8 CSV whose header names the criteria and whose K data rows hold one
decision-maker's weights each. Stochastic subcommands (rank with the Bayesian
test, cluster) require an explicit --seed; identical configuration and seed
produce byte-identical JSON.

Exit codes: 0 success, 2 input or parse error, 3 numeric or convergence
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .composition import PriorityMatrix
from .errors import (
    GroupMcdmError,
    InputError,
    NonPositiveEntry,
    NumericError,
    ParseError,
    RaggedRow,
)

ROW_SUM_WARN_TOL = 1e-6
DEFAULT_ZERO_EPS = 1e-6
DEVIANT_THRESHOLD = 0.01
# the estimator modules' names, copied so that parsing imports none of them: a
# command imports its modules when it runs (tests keep each copy equal)
_METHODS, _TESTS = ("amm", "gmm", "awgmm"), ("bayes-wilcoxon", "sign")
_DISTANCES = ("aitchison", "madc")

AMM_WARNING = (
    "arithmetic-mean aggregation ignores the ratio scale of priority weights "
    "and should be avoided; reported as a reference baseline only"
)
BASELINE_WARNING = (
    "standard K-means on raw weights is a fallacious baseline: its centroids "
    "are not guaranteed to be valid priority vectors"
)


def load_priorities(path, zero_policy: str = "reject", zero_eps: float = DEFAULT_ZERO_EPS):
    """Read a priorities CSV into a PriorityMatrix.

    Returns (matrix, warnings). Rows are re-normalized; a warning is recorded
    for any row whose sum deviates from 1 by more than 1e-6 and for replaced
    zeros under the ``replace`` policy. Negative weights, non-finite cells,
    repeated header labels, non-UTF-8 bytes and fields past the csv module's
    limit are always rejected; a UTF-8 byte-order mark is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    rows = [(lineno, row) for lineno, row in enumerate(lines, start=1) if row]
    if not rows:
        raise ParseError("empty file")
    header_line, header = rows[0]
    labels = tuple(cell.strip() for cell in header)
    if len(labels) < 2:
        raise ParseError("header must name at least two criteria", line=header_line)
    duplicates = sorted({l for l in labels if labels.count(l) > 1})
    if duplicates:
        raise ParseError(f"duplicate criterion labels {duplicates}", line=header_line)
    notes = []
    data = []
    replaced = 0
    for lineno, row in rows[1:]:
        if len(row) != len(labels):
            raise RaggedRow(
                f"expected {len(labels)} fields, got {len(row)}", line=lineno
            )
        values = []
        for col, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(
                    f"column {col + 1} is not a finite number: {cell!r}", line=lineno
                )
            if value == 0.0 and zero_policy == "replace":
                value = zero_eps
                replaced += 1
            if value <= 0.0:
                raise NonPositiveEntry(col, value, line=lineno)
            values.append(value)
        total = sum(values)
        if abs(total - 1.0) > ROW_SUM_WARN_TOL:
            notes.append(
                f"row {len(data) + 1} sums to {total:.6g}; re-normalized"
            )
        data.append(values)
    if not data:
        raise ParseError("no data rows")
    if replaced:
        notes.append(f"replaced {replaced} zero weight(s) with {zero_eps:g}")
    return PriorityMatrix(np.array(data), labels), notes


@dataclass(frozen=True)
class RunConfig:
    """Echoable configuration of one CLI invocation: the one home of the option
    defaults, checked on construction whether built in code or from argv."""

    command: str
    input: str
    zero_policy: str = "reject"
    zero_eps: float = DEFAULT_ZERO_EPS
    output_format: str = "json"
    seed: int | None = None
    # aggregate
    method: str = _METHODS[1]
    max_iter: int = 500
    tol: float = 1e-10
    deviant_threshold: float = DEVIANT_THRESHOLD
    # rank
    test: str = _TESTS[0]
    mc_samples: int = 10_000
    prior_weight: float = 1.0
    prior_a: float = 1.0
    prior_b: float = 1.0
    # cluster
    clusters: int = 3
    distance: str = _DISTANCES[0]
    restarts: int = 10
    with_baseline: bool = False

    def __post_init__(self):
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                option = "zero-policy" if name == "zero_eps" else name.replace("_", "-")
                raise InputError(f"--{option} must be a finite number, got {value}")
        if not 0.0 <= self.deviant_threshold <= 1.0:
            raise InputError("--deviant-threshold must lie in [0, 1]")
        if self.seed is not None and self.seed < 0:
            raise InputError("--seed must be non-negative")
        needs_seed = self.command == "cluster" or (
            self.command == "rank" and self.test == _TESTS[0]
        )
        if needs_seed and self.seed is None:
            raise InputError(f"--seed is required for this {self.command} invocation")


@dataclass
class Report:
    """Config echo, per-pipeline results, and accumulated warnings."""

    config: dict
    results: dict
    warnings: list = field(default_factory=list)

    def to_json(self) -> str:
        # plain data already, no copy; compact, since CPython's C encoder serves no indent
        plain = {"config": self.config, "results": self.results, "warnings": self.warnings}
        return json.dumps(plain, sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.config['command']}"]
        lines.extend(_text_body(self.results))
        for note in self.warnings:
            lines.append(f"warning: {note}")
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        lines = ["digraph credal {"]
        for label in self.results["labels"]:
            lines.append(f"  {_dot_id(label)};")
        for o in self.results["orderings"]:
            a, b = map(_dot_id, o["pair"])
            src, dst = (a, b) if o["p_greater"] >= 0.5 else (b, a)
            style = ", style=dashed" if o["equal_region"] else ""
            lines.append(f'  {src} -> {dst} [label="{o["confidence"]:.2f}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _awgmm_options(config: RunConfig):
    """The AWGMM knobs of ``config``, for `aggregate` and `describe` alike."""
    from . import aggregation
    return aggregation.AwgmmOptions(config.max_iter, config.tol)


def cmd_aggregate(W: PriorityMatrix, config: RunConfig, notes: list) -> dict:
    from . import aggregation
    opts = _awgmm_options(config)  # checked whichever method runs
    if config.method == aggregation.AMM:
        result = aggregation.aggregate_amm(W)
        notes.append(AMM_WARNING)
    elif config.method == aggregation.GMM:
        result = aggregation.aggregate_gmm(W)
    elif config.method == aggregation.AWGMM:
        result = aggregation._converged(aggregation.aggregate_awgmm(W, opts))
    else:
        raise InputError(f"unknown aggregation method {config.method!r}")

    results = {
        "method": result.method,
        "weights": {"labels": list(W.labels), "values": result.weights.parts.tolist()},
    }
    if result.method == aggregation.AWGMM:
        lam = result.dm_weights
        deviants = [k + 1 for k, v in enumerate(lam) if v < config.deviant_threshold]
        results.update(
            {
                "dm_weights": lam.tolist(),
                "iterations": result.iterations,
                "converged": result.converged,
                "deviants": deviants,
            }
        )
        for k in deviants:
            notes.append(
                f"DM{k} carries near-zero weight (deviant); a candidate for "
                f"negotiation before aggregating"
            )
    return results


def cmd_describe(W: PriorityMatrix, config: RunConfig, notes: list) -> dict:
    from . import dispersion
    arrays, opts = {}, _awgmm_options(config)
    for estimator in (dispersion.AD_MEAN, dispersion.AD_MEDIAN, dispersion.AD_AWGMM):
        ad = dispersion.average_deviation_array(W, estimator, opts)
        arrays[estimator] = {
            "xi": ad.xi.tolist(),
            "tau": ad.tau.tolist(),
            "combined": ad.combined.tolist(),
        }
    return {"labels": list(W.labels), "ad_arrays": arrays}


def cmd_rank(W: PriorityMatrix, config: RunConfig, notes: list) -> dict:
    from . import credal
    ranking = credal.credal_ranking(
        W,
        test=config.test,
        mc_samples=config.mc_samples,
        seed=config.seed,
        prior_weight=config.prior_weight,
        prior_a=config.prior_a,
        prior_b=config.prior_b,
    )
    orderings = []
    for o in ranking.orderings:
        orderings.append(
            {
                "i": o.i,
                "j": o.j,
                "pair": [W.labels[o.i], W.labels[o.j]],
                "p_greater": o.p_greater,
                "relation": o.relation,
                "confidence": o.confidence,
                "equal_region": o.in_equal_region,
            }
        )
    return {
        "test": ranking.test,
        "labels": list(W.labels),
        "mc_samples": ranking.mc_samples,
        "seed": ranking.seed,
        "orderings": orderings,
    }


def cmd_cluster(W: PriorityMatrix, config: RunConfig, notes: list) -> dict:
    from . import clustering

    def model_dict(model):
        return {
            "distance": model.distance,
            "centroids": model.centroids.tolist(),
            "centroid_sums": model.centroid_sums.tolist(),
            "assignments": model.assignments.tolist(),
            "inertia": model.inertia,
            "iterations": model.iterations,
            "reseeded_clusters": model.n_reseeds,
        }

    models = {
        "compositional": clustering.kmeans_compositional(
            W,
            config.clusters,
            distance=config.distance,
            seed=config.seed,
            restarts=config.restarts,
            max_iter=config.max_iter,
        )
    }
    if config.with_baseline:
        models["baseline"] = clustering.kmeans_standard_baseline(
            W,
            config.clusters,
            seed=config.seed,
            restarts=config.restarts,
            max_iter=config.max_iter,
        )
        notes.append(BASELINE_WARNING)
    results = {"labels": list(W.labels)}
    for key, model in models.items():
        results[key] = model_dict(model)
        if model.n_reseeds:
            notes.append(f"{key} K-means re-seeded {model.n_reseeds} empty cluster(s)")
    if config.with_baseline:
        results["baseline"]["fallacious_baseline"] = True
    return results


def _finite(value) -> bool:
    """Whether every float in ``value``, a tree of dicts and lists, is finite."""
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _text_table(columns, rows) -> list:
    """Right-aligned table; ``rows`` holds (row label, formatted cells) pairs.

    Columns are one wider than the longest label or cell, so cells never touch.
    """
    width = 1 + max(7, *(len(str(c)) for c in columns),
                    *(len(c) for _, cells in rows for c in cells))
    lines = [" " * width + "".join(f"{c:>{width}}" for c in columns)]
    for label, cells in rows:
        lines.append(f"{label:<{width}}" + "".join(f"{c:>{width}}" for c in cells))
    return lines


def _text_body(results) -> list:
    lines = []
    if "weights" in results:
        lines.append(f"method: {results['method']}")
        pairs = zip(results["weights"]["labels"], results["weights"]["values"])
        lines.append(
            "weights: " + "  ".join(f"{l}={_fmt(v)}" for l, v in pairs)
        )
        if "dm_weights" in results:
            lines.append(
                "dm_weights: "
                + "  ".join(
                    f"DM{k + 1}={_fmt(v)}"
                    for k, v in enumerate(results["dm_weights"])
                )
            )
            lines.append(f"iterations: {results['iterations']}")
            if results["deviants"]:
                lines.append(
                    "deviants: " + ", ".join(f"DM{k}" for k in results["deviants"])
                )
    if "ad_arrays" in results:
        labels = results["labels"]
        for name, arrays in results["ad_arrays"].items():
            lines.append(f"AD array ({name}); averages above diagonal, deviations below:")
            rows = [(l, [*map(_fmt, row)]) for l, row in zip(labels, arrays["combined"])]
            lines.extend(_text_table(labels, rows))
    if "orderings" in results:
        lines.append(f"test: {results['test']}")
        for o in results["orderings"]:
            a, b = o["pair"]
            lines.append(
                f"{a} {o['relation']} {b}   confidence {o['confidence']:.2f}"
                + ("   (no practical difference)" if o["equal_region"] else "")
            )
    if "compositional" in results:
        labels = results["labels"]
        for key in ("compositional", "baseline"):
            if key not in results:
                continue
            m = results[key]
            lines.append(f"{key} K-means ({m['distance']}), inertia {m['inertia']:.6g}:")
            rows = [
                (f"l{c + 1}", [*map(_fmt, row), f"{s:.4f}"])
                for c, (row, s) in enumerate(zip(m["centroids"], m["centroid_sums"]))
            ]
            lines.extend(_text_table([*labels, "sum"], rows))
            lines.append(
                "assignments: " + " ".join(str(a) for a in m["assignments"])
            )
    return lines


def _dot_id(label: str) -> str:
    """A label as a quoted DOT identifier."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupmcdm",
        description=(
            "Compositional analysis of group decision-maker priorities: "
            "aggregation, dispersion description, credal ranking, clustering."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, summary, formats=("json", "text")):
        # an omitted flag stays out of the Namespace: RunConfig's default applies
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--input", required=True, help="priorities CSV (header + one row per DM)")
        p.add_argument(
            "--zero-policy",
            help="reject (default) or replace:<eps> to substitute zero weights",
        )
        p.add_argument("--format", choices=formats, dest="output_format")
        p.add_argument("--seed", type=int)
        return p

    p = add_parser("aggregate", "aggregate the DM priorities into one vector")
    p.add_argument("--method", choices=_METHODS)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--deviant-threshold", type=float)

    add_parser("describe", "average-deviation arrays (mean, median, robust)")

    p = add_parser("rank", "credal ranking of criteria", formats=("json", "text", "dot"))
    p.add_argument("--test", choices=_TESTS)
    p.add_argument("--mc-samples", type=int)
    p.add_argument("--prior-weight", type=float)
    p.add_argument("--prior-a", type=float)
    p.add_argument("--prior-b", type=float)

    p = add_parser("cluster", "group the DMs by priority similarity")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--distance", choices=_DISTANCES)
    p.add_argument("--restarts", type=int)
    # Lloyd's cap, not AWGMM's: the one default that differs by subcommand
    p.add_argument("--max-iter", type=int, default=300)
    p.add_argument("--with-baseline", action="store_true")

    return parser


def _parse_zero_policy(text: str):
    if text == "reject":
        return "reject", DEFAULT_ZERO_EPS
    if text == "replace":
        return "replace", DEFAULT_ZERO_EPS
    if text.startswith("replace:"):
        try:
            eps = float(text.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad zero policy {text!r}") from None
        if not eps > 0:
            raise InputError("zero replacement eps must be positive")
        return "replace", eps
    raise InputError(f"bad zero policy {text!r} (use reject or replace:<eps>)")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # each subcommand's parser holds only the RunConfig fields given on argv
    given = dict(vars(args))
    if "zero_policy" in given:
        given["zero_policy"], given["zero_eps"] = _parse_zero_policy(given["zero_policy"])
    return RunConfig(**given)


# each command maps (panel, config, loader notes) to its results, adding notes
COMMANDS = {
    "aggregate": cmd_aggregate,
    "describe": cmd_describe,
    "rank": cmd_rank,
    "cluster": cmd_cluster,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        W, notes = load_priorities(config.input, config.zero_policy, config.zero_eps)
        results = COMMANDS[config.command](W, config, notes)
        # one rule for every format: no NaN or infinity reaches stdout
        if not _finite(results):
            raise NumericError("non-finite value in the report")
        report = Report(config=asdict(config), results=results, warnings=notes)
        if config.output_format == "json":
            sys.stdout.write(report.to_json())
        elif config.output_format == "dot":
            sys.stdout.write(report.to_dot())
        else:
            sys.stdout.write(report.to_text())
    except GroupMcdmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
