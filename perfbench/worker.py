"""One kleinnet CLI call, run in-process through `kleinnet.cli.main`.

    python worker.py --result FILE --trace 0|1 -- <kleinnet arguments>

With `--trace 1`, the layer functions that the CLI reaches through a module
attribute (LAYER_CALLS, per subcommand) are replaced in this process by
wrappers that record a span (name, start, end, parent, run id) around each
call and counts taken from the call's arguments and return value.  Then
`cli.main(argv)` runs the program's own code path, so stdout and output
files are those of the CLI.  With `--trace 0` nothing is wrapped and only
the total is timed, so the two totals differ by the tracing overhead.  Spans
stay in memory until the call ends and are then written to the result file
as JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext

from kleinnet import cli, degeneration, dessin, limitset, netgraph, qnet, sl2, words


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _words_visited(rank: int, max_len: int) -> int:
    # reduced words the depth-first search visits: 2r (2r-1)^(k-1) of each length k
    return sum(2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, max_len + 1))


# subcommand -> (module, function, span name, counts); counts maps the
# call's positional arguments and return value to {count name: value}
LAYER_CALLS = {
    "graph": [
        (netgraph, "load_network", "netgraph.load", None),
        (netgraph, "loop_basis", "netgraph.loop_basis",
         lambda a, r: {"netgraph.rank": r.rank}),
        (netgraph, "walk_to_word", "netgraph.walk", None),
    ],
    "character": [
        (sl2, "load_rep", "sl2.load_rep", None),
        (sl2, "make_rep", "sl2.load_rep", None),
        (sl2, "evaluate", "sl2.character", None),
        (sl2, "classify", "sl2.character", None),
        (sl2, "morgan_shalen_vector", "sl2.character", None),
    ],
    "degenerate": [
        (words, "enumerate_classes", "words.enumerate_classes",
         lambda a, r: {"words.classes": len(r), "words.visited": _words_visited(a[0], a[1])}),
        (degeneration, "sweep", "degeneration.sweep",
         lambda a, r: {"sl2.evaluations": len(a[1]) * len(a[2])}),
        (degeneration, "format_sweep_csv", "degeneration.csv", None),
        (degeneration, "tree_limit_check", "degeneration.report", None),
    ],
    "limitset": [
        (limitset, "enumerate_limit_set", "limitset.enumerate",
         lambda a, r: {"limitset.points": len(r)}),
        (limitset, "render", "limitset.render", lambda a, r: {"limitset.ppm_bytes": len(r)}),
        (limitset, "write_cloud_csv", "limitset.csv",
         lambda a, r: {"limitset.csv_bytes": os.path.getsize(a[0])}),
        (limitset, "circle_deviation", "limitset.circle_fit", None),
        (limitset, "box_dimension", "limitset.box_dim", None),
        (limitset, "cloud_group_invariance", "limitset.invariance", None),
    ],
    "dessin": [
        (dessin, "fold_subgroup", "dessin.fold", lambda a, r: {"dessin.index": r.n_vertices}),
        (dessin, "coset_permutations", "dessin.build", None),
        (dessin, "build_dessin", "dessin.build", None),
        (dessin, "export_dessin", "dessin.export", None),
    ],
    "qnet": [
        (qnet, "parse_circuit_text", "qnet.parse", None),
        (qnet, "run_circuit", "qnet.run", None),
        (qnet, "format_amplitudes_csv", "qnet.csv", None),
    ],
}


def traced(tracer: Tracer, fn, span: str, counts):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tracer.span(span):
            result = fn(*args, **kwargs)
        if counts is not None:
            for name, value in counts(args, result).items():
                tracer.count(name, value)
        return result
    return call


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="JSON file for spans and counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- kleinnet arguments")
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv
    subcommand = argv[0]
    tracer = Tracer(f"{os.getpid()}-{subcommand}")
    if opts.trace:
        for module, name, span, counts in LAYER_CALLS[subcommand]:
            setattr(module, name, traced(tracer, getattr(module, name), span, counts))

    start = time.perf_counter()
    with tracer.span("cli") if opts.trace else nullcontext():
        code = cli.main(argv)
        sys.stdout.flush()
    total = time.perf_counter() - start

    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump({"total_s": total, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
