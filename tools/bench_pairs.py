"""Run alternated pairs of benchmark runs on two checkouts and summarize them.

Run from the repository root:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W ...]
        [--pairs 10] [--seed 1] [--seconds 10] [--section pairs] --out BENCH_N.json

PARENT_DIR and CHANGE_DIR are checkouts of the two commits, made with
`git clone` so that the benchmark can name their commits.  Each pair runs
`python3 perfbench/run.py --workload W --seed S --seconds T` once in each
checkout, one after the other and never in parallel: the parent first in
even pairs and the change first in odd ones.  A run that exits nonzero
stops the tool.

`--section pairs` writes the file's top level: the settings, the two
commits, the host, the benchmark's environment record and, per workload and
end-to-end metric of BENCHMARK.json, each side's runs with their median and
quartiles, the pairs the change won (ties count for neither) and the ratio
of the parent's median over the change's.  `--section confirmation` adds
the same summaries under `confirmation` to an existing file of the same two
commits.  `--section traced` runs with `--trace 1` and adds, under
`traced`, each side's runs of every per-layer metric that either side reads
nonzero, with the median over pairs of the change's value over the
parent's.  Raw per-layer times move with the host from run to run, so the
ratio within each pair compares the two commits better than the two sides'
medians do.

For each end-to-end metric the tool prints whether the change gains (it
wins at least nine tenths of the pairs, and its median is better than the
parent's by more than the parent's interquartile range) and whether its
median is worse than the parent's by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# fields of the benchmark's environment record that name a side's checkout
_COMMIT = ("commit", "source_sha256")
_PER_SIDE = (*_COMMIT, "kleinnet_file")


def summarize(parent: list[float], change: list[float], unit: str, better: str) -> dict:
    """The summary of one metric over pairs of runs, pair i being
    (parent[i], change[i])."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs of runs")
    out: dict = {"unit": unit, "better": better}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        out[side] = {"median": median, "q1": q1, "q3": q3, "runs": list(runs)}
    sign = 1 if better == "lower" else -1
    out["change_better_in_pairs"] = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    out["ratio_parent_over_change"] = out["parent"]["median"] / out["change"]["median"]
    return out


def traced_summary(parent: list[float], change: list[float]) -> dict:
    """Each side's runs of one per-layer metric, pair i being (parent[i],
    change[i]), and the median over pairs of change / parent (None when the
    parent reads 0 in some pair)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one or more pairs of runs")
    ratio = None
    if all(parent):
        ratio = statistics.median(c / p for p, c in zip(parent, change))
    return {"parent": list(parent), "change": list(change),
            "median_change_over_parent": ratio}


def gains(summary: dict) -> bool:
    """The change wins at least nine tenths of the pairs, and its median is
    better than the parent's by more than the parent's interquartile range."""
    parent, change = summary["parent"], summary["change"]
    pairs = len(parent["runs"])
    sign = 1 if summary["better"] == "lower" else -1
    return (
        10 * summary["change_better_in_pairs"] >= 9 * pairs
        and sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"]
    )


def worse_by(summary: dict) -> float:
    """How much worse the change's median is than the parent's, as a
    fraction of the parent's; negative when it is better."""
    parent, change = summary["parent"]["median"], summary["change"]["median"]
    sign = 1 if summary["better"] == "lower" else -1
    return sign * (change - parent) / parent


def verdict(name: str, summary: dict, bound: float) -> str:
    p, c = summary["parent"], summary["change"]
    worse = worse_by(summary)
    text = (
        f"{name}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}], "
        f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}], "
        f"change better in {summary['change_better_in_pairs']}/{len(p['runs'])} pairs, "
        f"{'gain' if gains(summary) else 'no gain'}; "
        f"worse by {100 * worse:+.2f}% (bound {100 * bound:g}%)"
    )
    return text + (": REGRESSION" if worse > bound else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict, dict]:
    """(metric values, result line, environment record) of one run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("environment "))
    return {k: m["value"] for k, m in result["metrics"].items()}, result, env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--section", choices=("pairs", "confirmation", "traced"),
                        default="pairs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    trace = int(args.section == "traced")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    doc = json.loads(args.out.read_text()) if args.section != "pairs" else {}

    runs: dict = {w: {side: [] for side in SIDES} for w in args.workload}
    envs: dict = {}
    for w in args.workload:
        for p in range(args.pairs):
            for side in SIDES if p % 2 == 0 else SIDES[::-1]:
                values, result, env = run_once(getattr(args, side), w, args.seed,
                                               args.seconds, trace)
                runs[w][side].append((values, result))
                envs.setdefault(side, env)

    commits = {side: {k: envs[side][k] for k in _COMMIT} for side in SIDES}
    if doc and any(doc[side] != commits[side] for side in SIDES):
        raise SystemExit(f"{args.out} holds other commits: {doc['parent']}, {doc['change']}")
    command = (f"python3 perfbench/run.py --workload W --seed {args.seed} "
               f"--seconds {args.seconds:g}" + (" --trace 1" if trace else ""))
    summaries: dict = {}
    for w, sides in runs.items():
        summaries[w] = {}
        for m in metrics:
            per_side = [[values[m["name"]] for values, _ in sides[s]] for s in SIDES]
            if trace:
                if any(v for side_runs in per_side for v in side_runs):
                    summary = summaries[w][m["name"]] = traced_summary(*per_side)
                    ratio = summary["median_change_over_parent"]
                    print(f"{w} {m['name']}: parent median "
                          f"{statistics.median(per_side[0]):.6g}, change median "
                          f"{statistics.median(per_side[1]):.6g}, median change/parent "
                          + ("n/a" if ratio is None else f"{ratio:.4f}"))
                continue
            summary = summarize(*per_side, m["unit"], m["better"])
            summaries[w][m["name"]] = summary
            print(f"{w} {verdict(m['name'], summary, m['bound'])}")
        if not trace:
            summaries[w]["attempted_per_run"] = {
                s: statistics.median(r["attempted"] for _, r in sides[s]) for s in SIDES}
            summaries[w]["failed"] = {s: sum(r["failed"] for _, r in sides[s]) for s in SIDES}
            print(f"{w} failed: {summaries[w]['failed']}")

    pairs_text = f"{args.pairs} alternated pairs"
    if args.section == "pairs":
        doc = {
            "what": f"{pairs_text} of cold-CLI benchmark runs per workload, parent and "
                    "change. Pair p ran the parent first when p is even and the change "
                    "first when p is odd.",
            "command": command,
            "settings": {"seed": args.seed, "seconds": args.seconds, "trace": trace},
            **commits,
            "host": {"vcpus": os.cpu_count(), "machine": platform.machine()},
            "environment": {k: v for k, v in envs["parent"].items() if k not in _PER_SIDE},
            "workloads": summaries,
        }
    elif args.section == "confirmation":
        doc["confirmation"] = {
            "what": f"The end-to-end metrics on a seed not used while the change was "
                    f"written: {pairs_text}.",
            "command": command,
            **summaries,
        }
    else:
        doc["traced"] = {
            "what": f"Per-layer metrics of {pairs_text} of traced runs (--trace 1, "
                    f"seed {args.seed}, {args.seconds:g} s); each value is one run's median, "
                    "and median_change_over_parent is the median over pairs of the "
                    "change's value over the parent's.",
            "workloads": summaries,
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
