"""End-to-end benchmark of the kleinnet CLI, with an optional traced run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a kleinnet checkout.  Set-up writes the seeded inputs
and checks that `kleinnet` imports from this checkout's `src/`.  Then, for
`--seconds`, it runs rounds.  Each round times `python -c "import
kleinnet.cli"` cold once (`setup_s`) and a fixed calibration task once, and
runs the workload's invocations, each one a cold `python -m kleinnet ...`
child started one at a time, and checks every output.  Reported times are
scaled by the calibration, so that the host's drift cancels.  With
`--trace 1` each round also runs the same calls in-process through
`worker.py`, with and without spans, and the import layer is read from
`python -X importtime`.  The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`; the lines before it are a
readable summary and the environment record.  See README.md for workloads,
metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402

DEFAULT_SEED = 0
IMPORTTIME_SAMPLES = 3
INVOCATION_TIMEOUT_S = 60.0
# measuring stops by this many seconds after it starts, so that a run ends
# within three minutes even if every call hangs
MEASURE_LIMIT_S = 150.0
# unset in every child, so each commit runs with kleinnet's own defaults
UNSET_ENV = (
    "KLEINNET_BACKEND", "KLEINNET_THREADS", "PYTHONDONTWRITEBYTECODE",
    "PYTHONOPTIMIZE", "PYTHONPROFILEIMPORTTIME",
)
# set in every child: one BLAS thread.  With one per core (the default) a
# 2,000-gate qnet call on a 2-vCPU host took 2.3 s alone and 6.5-9.2 s while
# one other process ran; with one thread, 1.9-2.8 s either way
BLAS_ENV = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput": "1/s",
}

PER_LAYER = {
    "import.kleinnet_cli_ms": "ms",
    "import.scipy_ms": "ms",
    "import.numpy_ms": "ms",
    "import.modules": "count",
    "limitset.enumerate_ms": "ms",
    "limitset.points": "count",
    "limitset.circle_fit_ms": "ms",
    "limitset.box_dim_ms": "ms",
    "limitset.invariance_ms": "ms",
    "limitset.render_ms": "ms",
    "limitset.csv_ms": "ms",
    "limitset.csv_bytes": "bytes",
    "limitset.ppm_bytes": "bytes",
    "words.enumerate_classes_ms": "ms",
    "words.classes": "count",
    "words.classes_per_word_visited": "ratio",
    "degeneration.sweep_ms": "ms",
    "sl2.evaluations": "count",
    "degeneration.report_ms": "ms",
    "degeneration.csv_ms": "ms",
    "sl2.load_rep_ms": "ms",
    "sl2.character_ms": "ms",
    "qnet.parse_ms": "ms",
    "qnet.run_ms": "ms",
    "qnet.us_per_gate": "us",
    "qnet.gates_su2": "count",
    "qnet.gates_cnot": "count",
    "qnet.gates_not": "count",
    "qnet.csv_ms": "ms",
    "dessin.fold_ms": "ms",
    "dessin.build_ms": "ms",
    "dessin.export_ms": "ms",
    "dessin.index": "count",
    "netgraph.load_ms": "ms",
    "netgraph.loop_basis_ms": "ms",
    "netgraph.walk_ms": "ms",
    "netgraph.rank": "count",
    "cli.invocations": "count",
    "cli.cold_wall_ms": "ms",
    "cli.setup_ms": "ms",
    "cli.glue_ms": "ms",
    "cli.outputs_byte_identical": "count",
    "cli.outputs_compared": "count",
    "cli.tracing_overhead_ms": "ms",
}

# spans recorded by worker.py; span NAME's self time is metric NAME_ms
LAYER_SPANS = (
    "limitset.enumerate", "limitset.circle_fit", "limitset.box_dim", "limitset.invariance",
    "limitset.render", "limitset.csv", "words.enumerate_classes", "degeneration.sweep",
    "degeneration.report", "degeneration.csv", "sl2.load_rep", "sl2.character",
    "qnet.parse", "qnet.run", "qnet.csv", "dessin.fold", "dessin.build", "dessin.export",
    "netgraph.load", "netgraph.loop_basis", "netgraph.walk",
)


class BenchError(Exception):
    """The benchmark cannot run here (no kleinnet source in this checkout)."""


# -- workloads ---------------------------------------------------------------


@dataclass
class Invocation:
    key: str  # names the reference entries of this call
    argv: list[str]  # arguments after `python -m kleinnet`
    check: Callable[[str, dict[str, bytes]], list[str]]
    outputs: dict[str, Path] = field(default_factory=dict)  # files the call writes
    units: float = 1.0  # work units, for throughput
    seeded: bool = False  # outputs depend on the seed
    gates: dict[str, int] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    why: str
    unit: str  # what one work unit of `throughput` is
    build: Callable[[Path, int, bool, dict], list[Invocation]]


def _limitset(key, traces, eps, work, ref, files=True) -> Invocation:
    argv = ["limitset", "--traces", traces, "--eps", eps]
    outputs = {}
    if files:
        outputs = {"ppm": work / f"{key}.ppm", "csv": work / f"{key}.csv"}
        argv += ["--out", str(outputs["ppm"]), "--csv", str(outputs["csv"])]
    stats = ref.get("limitset", {}).get(key, {})
    return Invocation(key, argv, lambda out, f: checks.check_limitset(out, f, stats),
                      outputs, units=stats.get("points", 1))


def _degenerate(key, t_values, max_len, work, ref, to_file=True) -> Invocation:
    argv = ["degenerate", "--t-values", t_values, "--max-len", str(max_len)]
    summary = ref.get("degenerate", {}).get(key, {"rows": []})
    units = sum(row["n"] for row in summary["rows"]) or 1
    if not to_file:
        return Invocation(key, argv, lambda out, f: checks.check_sweep(out, None, summary),
                          units=units)
    outputs = {"csv": work / f"{key}.csv"}
    argv += ["--csv", str(outputs["csv"]), "--report"]
    return Invocation(
        key, argv, lambda out, f: checks.check_sweep(f["csv"].decode(), out, summary),
        outputs, units=units)


def _qnet(key, work, rng, sizes, to_file=True) -> Invocation:
    circuit = inputs.write_circuit(work / f"{key}.txt", rng, *sizes)
    expected = checks.simulate(circuit)
    argv = ["qnet", "--circuit", str(work / f"{key}.txt")]
    gates = {kind: circuit.count(kind) for kind in ("SU2", "CNOT", "NOT")}
    if not to_file:
        return Invocation(key, argv, lambda out, f: checks.check_amplitudes(out, expected),
                          units=len(circuit.gates), seeded=True, gates=gates)
    outputs = {"csv": work / f"{key}.csv"}
    argv += ["--out", str(outputs["csv"])]
    return Invocation(
        key, argv, lambda out, f: checks.check_amplitudes(f["csv"].decode(), expected),
        outputs, units=len(circuit.gates), seeded=True, gates=gates)


def build_limitset_fractal(work, seed, small, ref):
    if small:
        return [_limitset("limitset-fractal.small", "3,3,3", "1e-3", work, ref)]
    return [_limitset("limitset-fractal", "3+0.5i,3", "5e-5", work, ref)]


def build_degenerate_deep(work, seed, small, ref):
    key = "degenerate-deep" + (".small" if small else "")
    return [_degenerate(key, "5,10,15,20", 4 if small else 9, work, ref)]


def build_qnet_wide(work, seed, small, ref):
    rng = random.Random(seed)
    if small:
        return [_qnet("qnet-wide.small", work, rng, (5, 25, 20, 5))]
    return [_qnet("qnet-wide", work, rng, (16, 1000, 900, 100))]


def build_cold_start(work, seed, small, ref):
    rng = random.Random(seed)
    net = inputs.write_network(work / "network.txt", rng)
    rep = inputs.write_rep(work / "rep.txt", rng)
    graph_text = ref.get("text", {}).get("cold.graph") if seed == DEFAULT_SEED else None
    dessin_text = ref.get("text", {}).get("cold.dessin")

    def check_graph(out, files):
        errors = checks.check_graph(out, net)
        if graph_text is not None and out != graph_text:
            errors.append("graph: stdout differs from the recorded text")
        return errors

    def check_dessin(out, files):
        return [] if out == dessin_text else ["dessin: stdout differs from the recorded text"]

    word_list = ",".join(inputs.word_text(list(w)) for w in rep.words)
    walk = ",".join(map(str, net.walk))
    invocations = [
        Invocation("cold.graph", ["graph", "--file", str(work / "network.txt"),
                                  f"--walk={walk}"], check_graph, seeded=True),
        Invocation("cold.character", ["character", "--rep", str(work / "rep.txt"),
                                      "--words", word_list, "--classify", "--theta"],
                   lambda out, f: checks.check_character(out, rep), seeded=True),
        Invocation("cold.dessin", ["dessin", "--subgroup", "aa,b,abA"], check_dessin),
        _limitset("cold.limitset", "3,3,3", "1e-3", work, ref, files=False),
        _degenerate("cold.degenerate", "5,10", 4, work, ref, to_file=False),
        _qnet("cold.qnet", work, rng, (5, 25, 20, 5), to_file=False),
    ]
    for inv in invocations:
        inv.units = 1.0  # throughput counts invocations here
    return invocations


WORKLOADS = {w.name: w for w in (
    Workload("limitset-fractal",
             "the limit-set kernel does most of the work (86,426 points), then "
             "invariance, PPM and CSV output",
             "points", build_limitset_fractal),
    Workload("degenerate-deep",
             "class enumeration and SL(2,C) word evaluation do most of the work "
             "(3,582 classes x 4 t values); the limit-set layer does none",
             "class x t evaluations", build_degenerate_deep),
    Workload("qnet-wide",
             "statevector gates do most of the work (16 areas, 2,000 seeded gates); "
             "the other numeric layers do none",
             "gates", build_qnet_wide),
    Workload("cold-start",
             "six small calls, one per subcommand, where import is most of each call",
             "invocations", build_cold_start),
)}


# -- child processes ---------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], cwd: Path, stdout_path: Path, stderr_path: Path,
              deadline: float | None = None) -> tuple[int, float, object]:
    """Start one child, wait for it with os.wait4, and return (exit code,
    wall seconds, rusage).  A child is killed after INVOCATION_TIMEOUT_S, or
    at `deadline` (a perf_counter time) if that comes first."""
    timeout = INVOCATION_TIMEOUT_S
    if deadline is not None:
        timeout = max(1.0, min(timeout, deadline - time.perf_counter()))
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


# (invocation, stdout, output files) -> (stdout, output files)
Tamper = Callable[[Invocation, bytes, dict[str, bytes]], tuple[bytes, dict[str, bytes]]]


@dataclass
class Sample:
    key: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    errors: list[str]
    digests: dict[str, str]


def run_invocation(inv: Invocation, work: Path, tamper: Tamper | None = None,
                   deadline: float | None = None) -> Sample:
    """One cold `python -m kleinnet` call, with its output check.  `tamper`
    may rewrite the outputs before the check (the self-check uses it)."""
    for path in inv.outputs.values():
        path.unlink(missing_ok=True)
    out_path, err_path = work / f"{inv.key}.stdout", work / f"{inv.key}.stderr"
    code, wall, usage = run_child([sys.executable, "-m", "kleinnet", *inv.argv],
                                  work, out_path, err_path, deadline)
    stdout, stderr = out_path.read_bytes(), err_path.read_text(errors="replace")
    files = {name: p.read_bytes() for name, p in inv.outputs.items() if p.exists()}
    if tamper is not None:
        stdout, files = tamper(inv, stdout, files)
    errors = []
    if code != 0:
        errors.append(f"exit code {code}" + (" (killed: timeout)" if code < 0 else ""))
    if "Traceback" in stderr:
        errors.append("traceback on stderr")
    missing = sorted(set(inv.outputs) - set(files))
    if missing:
        errors.append(f"missing outputs {missing}")
    if not errors:
        try:
            errors += inv.check(stdout.decode(), files)
        except (KeyError, ValueError, IndexError) as exc:
            errors.append(f"output check raised {exc!r}")
    digests = {"stdout": checks.sha256(stdout)}
    digests.update({name: checks.sha256(data) for name, data in files.items()})
    return Sample(inv.key, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, errors, digests)


PROBE = """
import json, sys, importlib.metadata as md
import kleinnet, kleinnet.cli
from kleinnet import limitset
import numpy
def version(name):
    try:
        return md.version(name)
    except md.PackageNotFoundError:
        return None
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({
    "kleinnet_file": kleinnet.__file__,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": version("scipy"),
    "kernel_backend": getattr(limitset, "kernel_backend", None),
    "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
}))
"""


def probe_environment(work: Path) -> dict:
    """Import kleinnet once (this also writes its bytecode cache) and record
    the environment.  Fails unless kleinnet comes from this checkout."""
    if not (SRC / "kleinnet" / "cli.py").is_file():
        raise BenchError(f"no kleinnet source under {SRC}")
    code, _, _ = run_child([sys.executable, "-c", PROBE], work,
                           work / "probe.stdout", work / "probe.stderr")
    if code != 0:
        raise BenchError("kleinnet does not import: "
                         + (work / "probe.stderr").read_text(errors="replace")[-500:])
    env = json.loads((work / "probe.stdout").read_text())
    if not Path(env["kleinnet_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"kleinnet imports from {env['kleinnet_file']}, not {SRC}")
    env["nproc"] = os.cpu_count()
    env["commit"] = _commit()
    env["source_sha256"] = _source_digest()
    env["unset_in_children"] = list(UNSET_ENV)
    env["set_in_children"] = BLAS_ENV
    return env


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kleinnet").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# A fixed task of the benchmark's own (interpreter start, numpy import, a
# dict loop and 2x2 complex products), timed once per round next to the
# calls.  The host's speed drifts by up to 1.8x for minutes at a time, and
# this task slows with it, so times are reported scaled to CALIBRATION_REF_S
# of it.  It does not import kleinnet, so no change to the program moves it.
CALIBRATION = """
import numpy as np
d = {}
s = 0
for i in range(300_000):
    s = (s * 31 + i) % 1000003
    d[s & 4095] = i
r = np.array([[0.6, -0.8j], [-0.8j, 0.6]])
a = np.eye(2, dtype=complex)
for _ in range(20_000):
    a = r @ a
"""
# the calibration's wall time in a quiet phase of a 2-vCPU Xeon host
CALIBRATION_REF_S = 0.3


def time_calibration(work: Path, deadline: float) -> float:
    code, wall, _ = run_child([sys.executable, "-c", CALIBRATION], work,
                              work / "calibration.stdout", work / "calibration.stderr", deadline)
    if code != 0:
        raise BenchError("the calibration task failed")
    return wall


def time_setup(work: Path, deadline: float) -> float:
    code, wall, _ = run_child([sys.executable, "-c", "import kleinnet.cli"], work,
                              work / "setup.stdout", work / "setup.stderr", deadline)
    if code != 0:
        raise BenchError("import kleinnet.cli failed")
    return wall


# -- tracing -----------------------------------------------------------------

IMPORTTIME_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative ms of the outermost kleinnet, scipy and numpy imports, and
    the number of modules imported."""
    entries = []
    for line in stderr.splitlines():
        m = IMPORTTIME_LINE.match(line)
        if m:
            entries.append((int(m.group(2)), (len(m.group(3)) - 1) // 2, m.group(4)))
    totals = {"kleinnet": 0.0, "scipy": 0.0, "numpy": 0.0}
    # entries are listed children first; walking backwards gives each
    # entry after its ancestors, so a stack of open ancestors suffices
    stack: list[tuple[int, str]] = []
    for cumulative_us, depth, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for _, a in stack):
            totals[top] += cumulative_us / 1000.0
        stack.append((depth, name))
    return {
        "import.kleinnet_cli_ms": totals["kleinnet"],
        "import.scipy_ms": totals["scipy"],
        "import.numpy_ms": totals["numpy"],
        "import.modules": float(len(entries)),
    }


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of each span not covered by its child spans, by span name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(i, [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return out


def run_worker(inv: Invocation, work: Path, trace: int, deadline: float,
               digests: dict[str, str] | None) -> dict:
    """One in-process call through worker.py.  Its stdout and output files
    must be byte-identical to those of the cold call (`digests`), unless that
    call failed (None); the failure is counted there."""
    for path in inv.outputs.values():
        path.unlink(missing_ok=True)
    result = work / f"{inv.key}.t{trace}.json"
    out_path, err_path = work / f"{inv.key}.worker.stdout", work / f"{inv.key}.worker.stderr"
    code, _, _ = run_child(
        [sys.executable, str(BENCH / "worker.py"), "--result", str(result),
         "--trace", str(trace), "--", *inv.argv], work, out_path, err_path, deadline)
    if code != 0:
        raise BenchError(f"in-process run of {inv.key} failed: "
                         + err_path.read_text(errors="replace")[-500:])
    got = {"stdout": checks.sha256(out_path.read_bytes())}
    got.update({name: checks.sha256(p.read_bytes())
                for name, p in inv.outputs.items() if p.exists()})
    if digests is not None and got != digests:
        raise BenchError(f"in-process run of {inv.key} (trace {trace}) wrote other "
                         "outputs than the cold call")
    return json.loads(result.read_text())


# -- measurement -------------------------------------------------------------


@dataclass
class Round:
    setup_s: float
    calibration_s: float
    samples: list[Sample] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    untraced_total_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.samples)


def measure(invocations: list[Invocation], work: Path, seconds: float, trace: bool,
            tamper: Tamper | None = None) -> list[Round]:
    """Rounds of one set-up sample, one calibration sample and the cold
    calls (and, traced, in-process calls) until `seconds` pass; a round
    starts only if a typical round still fits."""
    rounds: list[Round] = []
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    hard_deadline = time.perf_counter() + MEASURE_LIMIT_S
    while not rounds or time.perf_counter() + statistics.median(durations) <= deadline:
        start = time.perf_counter()
        rnd = Round(time_setup(work, hard_deadline), time_calibration(work, hard_deadline))
        for inv in invocations:
            sample = run_invocation(inv, work, tamper, hard_deadline)
            rnd.samples.append(sample)
            if trace:
                digests = None if sample.errors else sample.digests
                rnd.traced.append(run_worker(inv, work, 1, hard_deadline, digests))
                rnd.untraced_total_s += run_worker(inv, work, 0, hard_deadline,
                                                   digests)["total_s"]
        rounds.append(rnd)
        durations.append(time.perf_counter() - start)
    return rounds


def end_to_end_metrics(rounds: list[Round], units: float) -> dict:
    """Times are medians over the rounds of the round's time scaled by
    CALIBRATION_REF_S / the round's calibration time; peak_rss_mb is a
    plain median."""
    n = len(rounds[0].samples)

    def calibrated(seconds: Callable[[Round], float]) -> float:
        return statistics.median(seconds(r) * CALIBRATION_REF_S / r.calibration_s
                                 for r in rounds)

    wall = calibrated(lambda r: r.wall_s)
    return {
        "wall_s": wall / n,
        "cpu_s": calibrated(lambda r: sum(s.cpu_s for s in r.samples)) / n,
        "setup_s": calibrated(lambda r: r.setup_s),
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in r.samples) for r in rounds),
        "throughput": units / wall,
    }


def per_layer_metrics(rounds: list[Round], importtime: list[dict],
                      invocations: list[Invocation], identical: tuple[int, int]) -> dict:
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in importtime[0]:
        metrics[name] = statistics.median(it[name] for it in importtime)

    per_round = []
    for rnd in rounds:
        selfs: dict[str, float] = {}
        for result in rnd.traced:
            for name, sec in self_times(result["spans"]).items():
                if name != "cli" and name not in LAYER_SPANS:
                    raise BenchError(f"worker span {name!r} is not in LAYER_SPANS")
                selfs[name] = selfs.get(name, 0.0) + sec
        per_round.append(selfs)
    for span in LAYER_SPANS:
        metrics[f"{span}_ms"] = statistics.median(r.get(span, 0.0) for r in per_round) * 1000.0
    layer_s = [sum(sec for name, sec in r.items() if name in LAYER_SPANS) for r in per_round]

    counts: dict[str, float] = {}
    for result in rounds[0].traced:
        for name, value in result["counts"].items():
            counts[name] = counts.get(name, 0) + value
    metrics.update({name: float(v) for name, v in counts.items() if name in PER_LAYER})
    if counts.get("words.visited"):
        metrics["words.classes_per_word_visited"] = counts["words.classes"] / counts["words.visited"]
    gates = {kind: sum(inv.gates.get(kind, 0) for inv in invocations)
             for kind in ("SU2", "CNOT", "NOT")}
    metrics["qnet.gates_su2"] = float(gates["SU2"])
    metrics["qnet.gates_cnot"] = float(gates["CNOT"])
    metrics["qnet.gates_not"] = float(gates["NOT"])
    if sum(gates.values()):
        metrics["qnet.us_per_gate"] = metrics["qnet.run_ms"] * 1000.0 / sum(gates.values())

    n = len(invocations)
    metrics["cli.invocations"] = float(n)
    metrics["cli.cold_wall_ms"] = statistics.median(r.wall_s for r in rounds) * 1000.0
    metrics["cli.setup_ms"] = statistics.median(r.setup_s for r in rounds) * 1000.0
    # per round, so that the set-up sample and the cold calls it is
    # subtracted from are taken at the same time
    metrics["cli.glue_ms"] = statistics.median(
        r.wall_s - n * r.setup_s - layer for r, layer in zip(rounds, layer_s)
    ) * 1000.0
    metrics["cli.outputs_byte_identical"] = float(identical[0])
    metrics["cli.outputs_compared"] = float(identical[1])
    metrics["cli.tracing_overhead_ms"] = statistics.median(
        sum(t["total_s"] for t in r.traced) - r.untraced_total_s for r in rounds
    ) * 1000.0
    return metrics


def byte_identity(samples: list[Sample], invocations: list[Invocation], seed: int,
                  ref: dict) -> tuple[int, int]:
    """(identical, compared) outputs against the digests recorded for the
    default seed; seeded outputs are compared only under that seed."""
    recorded = ref.get("sha256", {})
    identical = compared = 0
    for sample, inv in zip(samples, invocations):
        if inv.seeded and seed != DEFAULT_SEED:
            continue
        for name, digest in sample.digests.items():
            want = recorded.get(f"{inv.key}/{name}")
            if want is not None:
                compared += 1
                identical += digest == want
    return identical, compared


# -- entry point -------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False,
        tamper: Tamper | None = None) -> dict:
    """Set up, measure and check one workload; return the run record."""
    ref = checks.load_reference()
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = probe_environment(work)
        invocations = WORKLOADS[workload].build(work, seed, small, ref)
        importtime = []
        if trace:
            for _ in range(IMPORTTIME_SAMPLES):
                run_child([sys.executable, "-X", "importtime", "-c", "import kleinnet.cli"],
                          work, work / "importtime.stdout", work / "importtime.stderr")
                importtime.append(parse_importtime((work / "importtime.stderr").read_text()))
        rounds = measure(invocations, work, seconds, trace, tamper)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = [s for r in rounds for s in r.samples]
    failed = sum(1 for s in samples if s.errors)
    units = sum(inv.units for inv in invocations)
    identical = byte_identity(rounds[0].samples, invocations, seed, ref)
    if trace:
        metrics = per_layer_metrics(rounds, importtime, invocations, identical)
        units_of = PER_LAYER
    else:
        metrics = end_to_end_metrics(rounds, units)
        units_of = END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": env,
        "setup_s": [r.setup_s for r in rounds],
        "calibration_s": [r.calibration_s for r in rounds],
        "rounds": [[s.__dict__ for s in r.samples] for r in rounds],
        "spans": [t for r in rounds for t in r.traced],
        "byte_identical": identical,
        "result": {
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
        },
    }


def summary_lines(record: dict) -> list[str]:
    res = record["result"]
    walls = [sum(s["wall_s"] for s in r) for r in record["rounds"]]
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{len(walls)} rounds, round wall median {statistics.median(walls):.4f} s "
        f"(min {min(walls):.4f}, max {max(walls):.4f}), uncalibrated; "
        f"setup median {statistics.median(record['setup_s']):.4f} s, uncalibrated; "
        f"calibration median {statistics.median(record['calibration_s']):.4f} s "
        f"(reference {CALIBRATION_REF_S} s)",
        f"output check: {'PASS' if res['correct'] else 'FAIL'}, "
        f"failed_frac {res['failed'] / res['attempted']:.4g} "
        f"({res['failed']} of {res['attempted']}); byte-identical outputs "
        f"{record['byte_identical'][0]} of {record['byte_identical'][1]} compared",
    ]
    for r in record["rounds"]:
        for s in r:
            for err in s["errors"]:
                lines.append(f"  {s['key']}: {err}")
    for name, m in res["metrics"].items():
        note = f" ({WORKLOADS[record['workload']].unit} per second)" if name == "throughput" else ""
        lines.append(f"  {name:32s} {m['value']:.6g} {m['unit']}{note}")
    lines.append("environment " + json.dumps(record["environment"], sort_keys=True))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print("\n".join(summary_lines(record)))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
