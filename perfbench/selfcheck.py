"""Quick self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload once at reduced size, untraced and traced, and asserts
that each metric named in BENCHMARK.json is reported with its unit and that
every output check passes.  Then it flips the sign of one amplitude in a qnet
output and asserts that the run counts a failure, and it runs the benchmark
in a directory without the kleinnet source and asserts that it exits nonzero
without printing a result.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def flip_largest_amplitude(inv, stdout: bytes, files: dict[str, bytes]):
    lines = files["csv"].decode().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    i = max(range(len(rows)), key=lambda k: abs(float(rows[k][1])) + abs(float(rows[k][2])))
    index, re_, im = rows[i]
    lines[i + 1] = "%s,%.9g,%.9g" % (index, -float(re_), -float(im))
    return stdout, {**files, "csv": ("\n".join(lines) + "\n").encode()}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = {w["name"] for w in spec["workloads"]}
    if names != set(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(names)} != {sorted(run.WORKLOADS)}")

    for name in sorted(run.WORKLOADS):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(name, run.DEFAULT_SEED, 0.0, trace, small=True)["result"]
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != {want}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: output check failed")
            print(f"{name} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['failed']} of {result['attempted']} failed")

    result = run.run("qnet-wide", run.DEFAULT_SEED, 0.0, False, small=True,
                     tamper=flip_largest_amplitude)["result"]
    failed_frac = result["failed"] / result["attempted"]
    print(f"qnet-wide with one flipped amplitude: failed_frac {failed_frac}")
    if not failed_frac > 0:
        problems.append("a flipped amplitude was not caught")

    bare = run.WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload",
                               "cold-start", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"without kleinnet source: exit {proc.returncode}")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the benchmark ran or printed a result without the kleinnet source")

    for p in problems:
        print("FAIL:", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
