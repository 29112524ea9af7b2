"""Traced entry point: ``python -X importtime shim.py SPANS_OUT CLI_ARGS...``.

Imports ``groupmcdm.cli`` (timing the import), wraps the public functions of
each module in spans, runs ``groupmcdm.cli.main(CLI_ARGS)`` under
``tracemalloc`` and exits with its code. Spans stay in memory and are written
to SPANS_OUT as one JSON object when the invocation ends:
``{"spans": [...], "unwrapped": [...]}``.

A span records its name, start, end, parent span, peak traced memory above
its start (children included) and counts taken from the wrapped call. Only
module attributes are replaced; the program's files are not touched. An
attribute a later version of the program no longer has is listed under
``unwrapped``; the benchmark refuses a traced run in which a layer it
reports was never recorded.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import tracemalloc
from functools import wraps


class Tracer:
    """In-memory span recorder with nested tracemalloc peaks."""

    def __init__(self):
        self.spans = []
        self.unwrapped = []  # "owner.attr" names that could not be found
        self._open = []  # (span, peak seen so far, traced bytes at start)

    def start(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._open[-1][0]["id"] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "counts": {},
        }
        self.spans.append(span)
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._open:
                # a child resets the peak: fold the parent's peak so far first
                self._open[-1][1] = max(self._open[-1][1], peak)
            tracemalloc.reset_peak()
            self._open.append([span, current, current])
        else:
            self._open.append([span, 0, 0])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        frame = self._open.pop()
        if tracemalloc.is_tracing():
            peak = max(frame[1], tracemalloc.get_traced_memory()[1])
            span["peak_bytes"] = peak - frame[2]
            if self._open:
                self._open[-1][1] = max(self._open[-1][1], peak)

    def wrap(self, owner, attr: str, name, counts=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``name`` is a span name, or a function of the bound call arguments
        that returns one; ``counts(arguments, result)`` returns a dict of
        counts recorded on the span.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.unwrapped.append(f"{owner.__name__}.{attr}")
            return
        sig = inspect.signature(fn)
        tracer = self

        @wraps(fn)
        def spanned(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span = tracer.start(name(bound.arguments) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span["counts"].update(counts(bound.arguments, result))
            finally:
                tracer.end(span)
            return result

        setattr(owner, attr, spanned)


def _draws(args, result) -> dict:
    pairs = len(result.orderings)
    if args["test"] != "bayes-wilcoxon":
        return {"pairs": pairs}
    W = args["W"]
    return {"pairs": pairs, "dirichlet_draws": pairs * args["mc_samples"] * (W.n_dms + 1)}


def instrument(tracer: Tracer) -> None:
    from groupmcdm import aggregation, cli, clustering, composition, credal, dispersion

    tracer.wrap(cli, "load_priorities", "cli.load_priorities")
    for method in ("to_json", "to_text", "to_dot"):
        tracer.wrap(cli.Report, method, "cli.render",
                    lambda args, out: {"output_bytes": len(out.encode())})
    tracer.wrap(composition.PriorityMatrix, "__post_init__", "composition.priority_matrix")
    tracer.wrap(aggregation, "inverse_log_ratio", "composition.inverse_log_ratio")
    tracer.wrap(aggregation, "aggregate_gmm", "aggregation.aggregate_gmm")
    for owner in (aggregation, dispersion):
        tracer.wrap(owner, "aggregate_awgmm", "aggregation.aggregate_awgmm",
                    lambda args, out: {"awgmm_iterations": out.iterations})
    tracer.wrap(dispersion, "average_deviation_array",
                lambda args: f"dispersion.ad_{args['estimator']}")
    tracer.wrap(credal, "credal_ranking",
                lambda args: "credal.bayes_ranking" if args["test"] == "bayes-wilcoxon"
                else "credal.sign_ranking",
                _draws)
    tracer.wrap(clustering, "kmeans_compositional",
                lambda args: f"clustering.kmeans_{args['distance']}",
                lambda args, out: {"iterations": out.iterations})
    tracer.wrap(clustering, "kmeans_standard_baseline", "clustering.baseline")


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    span = tracer.start("cli.import")
    import groupmcdm.cli

    tracer.end(span)
    instrument(tracer)
    tracemalloc.start()
    span = tracer.start("cli.main")
    try:
        code = groupmcdm.cli.main(argv)
    finally:
        tracer.end(span)
        tracemalloc.stop()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "unwrapped": tracer.unwrapped}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
