"""Output checks for every kleinnet invocation the benchmark makes.

Each check returns a list of error strings; an empty list means the output is
correct.  Values recorded from the program (limit-set statistics, sweep
tables, dessin text) come from `reference.json`, written by
`record_reference.py`; everything seeded is checked against an independent
computation made here (union-find, 2x2 products, a statevector simulator).
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from inputs import CircuitInput, NetworkInput, RepInput, free_reduce, word_text

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# limit-set statistics and sweep values are printed with 9 significant
# digits; these tolerances admit a last-digit change and nothing larger
STAT_REL_TOL = 1e-6
STAT_ABS_TOL = 1e-9
SWEEP_ABS_TOL = 1e-8
SWEEP_SUM_REL_TOL = 1e-8
# amplitudes agree within 1e-9 beyond the rounding of their 9-digit print
# (half a unit in the 9th digit, at most 5e-9 relative), and the norm within
# 1e-9 beyond what that rounding can move a sum of squares (1e-8)
AMP_TOL = 1e-9
PRINT_REL = 5e-9
NORM_TOL = 1e-9 + 2 * PRINT_REL


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(x: float, ref: float, rel: float, abs_: float) -> bool:
    return abs(x - ref) <= max(abs_, rel * abs(ref))


# -- limitset ----------------------------------------------------------------


def limitset_stats(stdout: str) -> dict:
    """The checked statistics of a `kleinnet limitset` stdout, as numbers."""
    stats = dict(line.partition(" ")[::2] for line in stdout.splitlines())
    out: dict = {"points": int(stats["points"]), "truncated": int(stats["truncated"])}
    for key in ("circle_deviation", "box_dimension", "invariance"):
        if key in stats:
            out[key] = float(stats[key])
    return out


def check_limitset(stdout: str, files: dict[str, bytes], ref: dict) -> list[str]:
    try:
        got = limitset_stats(stdout)
    except (KeyError, ValueError) as exc:
        return [f"limitset stdout unparsable: {exc!r}"]
    errors = []
    for key, want in ref.items():
        if key not in got:
            errors.append(f"limitset: {key} missing")
        elif key in ("points", "truncated"):
            if got[key] != want:
                errors.append(f"limitset: {key} {got[key]} != {want}")
        elif not _close(got[key], want, STAT_REL_TOL, STAT_ABS_TOL):
            errors.append(f"limitset: {key} {got[key]!r} not within tolerance of {want!r}")
    if "csv" in files:
        lines = files["csv"].decode().splitlines()
        if not lines or lines[0] != "re,im,chart" or len(lines) - 1 != got["points"]:
            errors.append(f"limitset: csv has {len(lines) - 1} rows for {got['points']} points")
    if "ppm" in files:
        header = b"P6\n800 800\n255\n"
        ppm = files["ppm"]
        if not ppm.startswith(header) or len(ppm) != len(header) + 800 * 800 * 3:
            errors.append(f"limitset: bad ppm header or size {len(ppm)}")
    return errors


# -- degenerate --------------------------------------------------------------


def sweep_summary(csv_text: str) -> dict:
    """Header digest, and per row t, lambda, the value count, the value sum
    and about a hundred sampled values."""
    lines = csv_text.splitlines()
    rows = []
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        values = cells[2:]
        step = max(1, len(values) // 100)
        rows.append({
            "t": cells[0],
            "lambda": cells[1],
            "n": len(values),
            "sum": math.fsum(values),
            "step": step,
            "samples": values[::step],
        })
    return {"header_sha256": sha256(lines[0].encode()), "rows": rows}


def check_sweep(csv_text: str, report_text: str | None, ref: dict) -> list[str]:
    try:
        got = sweep_summary(csv_text)
    except (IndexError, ValueError) as exc:
        return [f"degenerate csv unparsable: {exc!r}"]
    errors = []
    if got["header_sha256"] != ref["header_sha256"]:
        errors.append("degenerate: class header differs")
    if len(got["rows"]) != len(ref["rows"]):
        return errors + [f"degenerate: {len(got['rows'])} rows, want {len(ref['rows'])}"]
    for g, w in zip(got["rows"], ref["rows"]):
        if g["t"] != w["t"] or g["n"] != w["n"]:
            errors.append(f"degenerate: row t={g['t']} has {g['n']} values, want {w['n']}")
            continue
        if not _close(g["lambda"], w["lambda"], SWEEP_SUM_REL_TOL, 0.0):
            errors.append(f"degenerate: lambda {g['lambda']!r} != {w['lambda']!r}")
        if not _close(g["sum"], w["sum"], SWEEP_SUM_REL_TOL, SWEEP_ABS_TOL):
            errors.append(f"degenerate: row t={g['t']} sums to {g['sum']!r}, want {w['sum']!r}")
        if any(abs(x - y) > SWEEP_ABS_TOL for x, y in zip(g["samples"], w["samples"])):
            errors.append(f"degenerate: row t={g['t']} sampled values differ")
    if "passed" in ref:
        try:
            passed = json.loads(report_text or "")["passed"]
        except (ValueError, KeyError, TypeError):
            return errors + ["degenerate: report JSON unparsable"]
        if passed is not ref["passed"]:
            errors.append(f"degenerate: report passed={passed}, want {ref['passed']}")
    return errors


# -- graph -------------------------------------------------------------------


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def check_graph(stdout: str, net: NetworkInput) -> list[str]:
    """The printed counts must match the network; the printed generators must
    be exactly the complement of a spanning forest; the walk word must be the
    reduced product of generator letters along the walk."""
    uf = _UnionFind(net.vertices)
    for _, t, h in net.edges:
        uf.union(t, h)
    components = len({uf.find(v) for v in net.vertices})
    n_v, n_e = len(net.vertices), len(net.edges)
    rank = n_e - n_v + components
    expected_head = [f"vertices {n_v}", f"edges {n_e}", f"components {components}", f"rank {rank}"]
    lines = stdout.splitlines()
    if lines[:4] != expected_head:
        return [f"graph: header {lines[:4]} != {expected_head}"]
    gen_lines, walk_lines = lines[4:4 + rank], lines[4 + rank:]
    try:
        gens = [int(line.split()[3]) for line in gen_lines]
    except (IndexError, ValueError):
        return [f"graph: bad generator lines {gen_lines}"]
    errors = []
    for i, line in enumerate(gen_lines):
        if not line.startswith(f"generator {word_text([i + 1])} edge "):
            errors.append(f"graph: bad generator line {line!r}")
    ids = {eid for eid, _, _ in net.edges}
    if gens != sorted(gens) or len(set(gens)) != rank or not set(gens) <= ids:
        errors.append(f"graph: generator edges {gens} invalid")
    forest = _UnionFind(net.vertices)
    if not all(forest.union(t, h) for eid, t, h in net.edges if eid not in gens):
        errors.append("graph: non-generator edges contain a cycle")
    index = {eid: i + 1 for i, eid in enumerate(gens)}
    letters = [(1 if s > 0 else -1) * index[abs(s)] for s in net.walk if abs(s) in index]
    want = f"walk_word {word_text(free_reduce(letters))}"
    if walk_lines != [want]:
        errors.append(f"graph: walk line {walk_lines} != [{want!r}]")
    return errors


# -- character ---------------------------------------------------------------


def _mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def check_character(stdout: str, rep: RepInput) -> list[str]:
    """Trace, isometry kind, translation length and theta per word, from
    products of the generator matrices computed here."""
    images = {}
    for k, (a, b, c, d) in enumerate(rep.matrices, start=1):
        images[k], images[-k] = (a, b, c, d), (d, -b, -c, a)
    lines = stdout.splitlines()
    if lines[:1] != ["word,re,im,kind,length,theta"] or len(lines) != len(rep.words) + 1:
        return [f"character: bad header or row count in {lines[:1]}"]
    errors = []
    for word, line in zip(rep.words, lines[1:]):
        m = (1, 0, 0, 1)
        for letter in word:
            m = _mul(m, images[letter])
        tr = m[0] + m[3]
        cells = line.split(",")
        scale = max(1.0, abs(tr))
        try:
            ok = (
                cells[0] == word_text(list(word))
                and abs(float(cells[1]) - tr.real) <= 1e-7 * scale
                and abs(float(cells[2]) - tr.imag) <= 1e-7 * scale
                and _close(float(cells[5]), math.log(abs(tr) + 2.0), 1e-7, 1e-9)
            )
        except (IndexError, ValueError):
            ok = False
        # classification is only certain away from the real segment [-2, 2]
        if ok and (abs(tr.imag) > 1e-6 or abs(tr.real) > 2.0 + 1e-6):
            length = 2.0 * abs(cmath.acosh(tr / 2.0).real)
            ok = cells[3] == "loxodromic" and _close(float(cells[4]), length, 1e-6, 1e-9)
        if not ok:
            errors.append(f"character: row {line!r} disagrees with trace {tr!r}")
    return errors


# -- qnet --------------------------------------------------------------------


def _pair_view(psi: np.ndarray, n: int, first: int, second: int) -> np.ndarray:
    """View with axis 1 = bit of area `first`, axis 3 = bit of area `second`
    (first < second; area 1 is the most significant bit)."""
    return psi.reshape(2 ** (first - 1), 2, 2 ** (second - first - 1), 2, 2 ** (n - second))


def simulate(circuit: CircuitInput) -> np.ndarray:
    """Reference statevector: normalized product state, then in-place
    amplitude-pair updates, one gate at a time."""
    n = circuit.n_areas
    psi = np.ones(1, dtype=np.complex128)
    for a, b in circuit.inits:
        norm = math.hypot(abs(a), abs(b))
        psi = np.kron(psi, np.array([a / norm, b / norm]))
    for gate in circuit.gates:
        if gate[0] in ("SU2", "NOT"):
            k = gate[1]
            v = psi.reshape(2 ** (k - 1), 2, 2 ** (n - k))
            lo, hi = v[:, 0, :].copy(), v[:, 1, :].copy()
            if gate[0] == "NOT":
                v[:, 0, :], v[:, 1, :] = hi, lo
            else:
                a, b, c, d = gate[2]
                v[:, 0, :] = a * lo + b * hi
                v[:, 1, :] = c * lo + d * hi
        else:
            _, control, target = gate
            if control < target:
                v = _pair_view(psi, n, control, target)
                zero, one = (slice(None), 1, slice(None), 0), (slice(None), 1, slice(None), 1)
            else:
                v = _pair_view(psi, n, target, control)
                zero, one = (slice(None), 0, slice(None), 1), (slice(None), 1, slice(None), 1)
            tmp = v[zero].copy()
            v[zero] = v[one]
            v[one] = tmp
    return psi


def check_amplitudes(csv_text: str, expected: np.ndarray) -> list[str]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != "basis_index,re,im" or len(lines) - 1 != expected.size:
        return [f"qnet: bad header or {len(lines) - 1} rows for {expected.size} amplitudes"]
    try:
        table = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
    except ValueError as exc:
        return [f"qnet: csv unparsable: {exc}"]
    errors = []
    if not np.array_equal(table[:, 0], np.arange(expected.size)):
        errors.append("qnet: basis indices out of order")
    amps = table[:, 1] + 1j * table[:, 2]
    worst = float(np.max(np.abs(amps - expected) - PRINT_REL * np.abs(expected)))
    if worst > AMP_TOL:
        errors.append(f"qnet: amplitude off by {worst:.3g} beyond print rounding "
                      "from the reference simulator")
    norm_err = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
    if norm_err > NORM_TOL:
        errors.append(f"qnet: norm off by {norm_err:.3g}")
    return errors
