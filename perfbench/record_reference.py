"""Record `reference.json`: the outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every invocation of every workload (full and reduced size) once under
the default seed, from the checkout this file sits in, and records the
limit-set statistics, sweep-table summaries, exact graph and dessin text, and
a sha256 of every output.  Run it only at a commit whose outputs are trusted:
every later run is judged against what it writes.
"""

from __future__ import annotations

import json
import shutil

import checks
import run


def main() -> int:
    work = run.WORK / "record-reference"
    work.mkdir(parents=True, exist_ok=True)
    ref: dict = {"limitset": {}, "degenerate": {}, "text": {}, "sha256": {}}
    try:
        run.probe_environment(work)
        for workload in run.WORKLOADS.values():
            for small in (False, True):
                for inv in workload.build(work, run.DEFAULT_SEED, small, {}):
                    sample = run.run_invocation(inv, work)
                    stdout = (work / f"{inv.key}.stdout").read_text()
                    if any(e.startswith(("exit code", "traceback")) for e in sample.errors):
                        raise run.BenchError(f"{inv.key} failed: {sample.errors}")
                    for name, digest in sample.digests.items():
                        ref["sha256"][f"{inv.key}/{name}"] = digest
                    command = inv.argv[0]
                    if command == "limitset":
                        ref["limitset"][inv.key] = checks.limitset_stats(stdout)
                    elif command == "degenerate" and "csv" in inv.outputs:
                        summary = checks.sweep_summary(inv.outputs["csv"].read_text())
                        summary["passed"] = json.loads(stdout)["passed"]
                        ref["degenerate"][inv.key] = summary
                    elif command == "degenerate":
                        ref["degenerate"][inv.key] = checks.sweep_summary(stdout)
                    elif command in ("graph", "dessin"):
                        ref["text"][inv.key] = stdout
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
