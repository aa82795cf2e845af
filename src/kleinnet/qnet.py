"""Tensor statevector simulation of small area circuits.

Each area holds a two-level state a|0> + b|1>.  A network of n areas is a
single vector of 2^n complex amplitudes, basis ordered with area 1 as the
most significant bit, so index 0b10 on two areas means area 1 excited and
area 2 resting.  Gates are NOT, arbitrary SU(2) on one area, and CNOT
between two areas.  States are vectors, not rays: global phase is kept, and
`states_allclose` offers an up-to-phase mode for comparisons that should
ignore it.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence, TextIO, Union

import numpy as np

from ._record import Record
from .errors import QnetError
from .sl2 import Matrix2C, mul_entries

MAX_AREAS = 20
# most gates random_circuit draws: the CLI holds each as an object, plus a
# line of circuit text only with --emit
MAX_RANDOM_GATES = 1 << 16
# most gates x 2^areas one run may apply: about 6 s of SU2 gates at 5.5 ns per
# amplitude (20 areas take 5.7 ms per gate on a 2-vCPU host), and 8x
# qnet-wide's 2,000 x 2^16
MAX_GATE_WORK = 1 << 30
NORM_TOL = 1e-9
UNITARY_TOL = 1e-9


class AreaState(Record):
    """Raw two-level state of one area; not necessarily normalized."""

    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex) -> None:
        super().__init__(complex(a), complex(b))

    @property
    def norm(self) -> float:
        try:
            return math.hypot(abs(self.a), abs(self.b))
        except OverflowError:
            return math.inf

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm - 1.0) <= NORM_TOL


def normalize(state: AreaState) -> AreaState:
    """Divide both amplitudes by sqrt(|a|^2 + |b|^2), preserving the ray.

    The components are pre-scaled by a power of two so subnormal and huge
    inputs normalize without losing precision in the division."""
    m = max(
        abs(state.a.real), abs(state.a.imag), abs(state.b.real), abs(state.b.imag)
    )
    if m == 0.0:
        raise QnetError("unnormalizable: both amplitudes are zero")
    exp = math.frexp(m)[1]
    a = complex(math.ldexp(state.a.real, -exp), math.ldexp(state.a.imag, -exp))
    b = complex(math.ldexp(state.b.real, -exp), math.ldexp(state.b.imag, -exp))
    n = math.hypot(abs(a), abs(b))
    return AreaState(a / n, b / n)


class NotGate(Record):
    __slots__ = ("area",)

    def __init__(self, area: int) -> None:
        _check_area_field(area)
        super().__init__(area)


class SU2Gate(Record):
    __slots__ = ("area", "matrix")

    def __init__(self, area: int, matrix: Matrix2C) -> None:
        _check_area_field(area)
        a, b, c, d = matrix.entries()
        adjoint = (a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate())
        p, q, r, s = mul_entries((a, b, c, d), adjoint)
        # compared one by one against the identity, since max would keep an
        # earlier number over a later NaN
        if not all(x <= UNITARY_TOL for x in (abs(p - 1.0), abs(q), abs(r), abs(s - 1.0))):
            raise QnetError("SU2 gate matrix is not unitary")
        if not abs(matrix.det - 1.0) <= UNITARY_TOL:
            raise QnetError("SU2 gate matrix does not have unit determinant")
        super().__init__(area, matrix)


class CNOTGate(Record):
    __slots__ = ("control", "target")

    def __init__(self, control: int, target: int) -> None:
        _check_area_field(control)
        _check_area_field(target)
        if control == target:
            raise QnetError("CNOT control and target must be distinct areas")
        super().__init__(control, target)


Gate = Union[NotGate, SU2Gate, CNOTGate]


def _check_area_field(area: int) -> None:
    if not isinstance(area, int) or isinstance(area, bool) or area < 1:
        raise QnetError(f"area index must be a positive integer, got {area!r}")


def hadamard_gate(area: int) -> SU2Gate:
    """Hadamard up to global phase: (i/sqrt(2)) [[1, 1], [1, -1]] has det 1."""
    s = 1j / math.sqrt(2.0)
    return SU2Gate(area, Matrix2C(s, s, s, -s))


class TensorState(Record):
    """Joint state of `n_areas` areas as 2^n amplitudes, area 1 = MSB.
    States compare by identity."""

    __slots__ = ("n_areas", "amplitudes")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n_areas: int, amplitudes: np.ndarray) -> None:
        if not 1 <= n_areas <= MAX_AREAS:
            raise QnetError(f"area count must be in 1..{MAX_AREAS}")
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (2**n_areas,):
            raise QnetError(
                f"amplitude vector must have length {2**n_areas}, "
                f"got shape {amps.shape}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        super().__init__(n_areas, amps)

    @property
    def norm(self) -> float:
        amps = self.amplitudes
        return math.sqrt(float((amps.real * amps.real + amps.imag * amps.imag).sum()))


def _check_work(n_areas: int, n_gates: int) -> None:
    work = n_gates << n_areas
    if work > MAX_GATE_WORK:
        raise QnetError(
            f"{n_gates} gates on {n_areas} areas exceed the work budget: "
            f"gates x 2^areas is {work}, at most {MAX_GATE_WORK}"
        )


def _product_rows(states: Sequence[AreaState], n_gates: int = 0) -> np.ndarray:
    """Kronecker product of raw area amplitudes as (2, 2^n) float rows, for a
    run of `n_gates` gates: refused before it is made when the areas or the
    run's work are over budget."""
    if not 1 <= len(states) <= MAX_AREAS:
        raise QnetError(f"need between 1 and {MAX_AREAS} area states")
    _check_work(len(states), n_gates)
    rows = np.array([[1.0], [0.0]])
    for s in states:
        out, tmp = np.empty((2, rows.shape[1], 2)), np.empty_like(rows)
        for j, z in enumerate((s.a, s.b)):
            _cmul(out[:, :, j], tmp, z, rows)
        rows = out.reshape(2, -1)
    return rows


def _to_complex(rows: np.ndarray) -> np.ndarray:
    amps = np.empty(rows.shape[1], dtype=np.complex128)
    amps.real = rows[0]
    amps.imag = rows[1]
    return amps


def kron_amplitudes(states: Sequence[AreaState]) -> np.ndarray:
    """Kronecker product of raw (possibly unnormalized) area amplitudes."""
    return _to_complex(_product_rows(states))


def _check_normalized(states: Sequence[AreaState]) -> None:
    for i, s in enumerate(states, start=1):
        if not s.is_normalized:
            raise QnetError(
                f"area {i} state has norm {s.norm!r}; normalize it first"
            )


def tensor(states: Sequence[AreaState]) -> TensorState:
    """Product state of normalized areas, in order (area 1 first = MSB)."""
    _check_normalized(states)
    return TensorState(len(states), kron_amplitudes(states))


# -- gate kernel -------------------------------------------------------------------
#
# The state is one (2, 2^n) float64 array, row 0 the real parts and row 1 the
# imaginary parts.  Complex products are spelled out on the rows, one ufunc
# call per real multiply, subtract or add, re = p*u - q*v and im = q*u + p*v,
# as in limitset._image_lifts: float multiply and add never fuse, so no BLAS
# or SIMD complex kernel decides the bits, and the amplitudes do not depend
# on the CPU.
#
# NOT and CNOT move no amplitude.  The array phi holds the state psi
# relabelled, phi[G(i)] = psi[i], where G(i) = B.i ^ d is affine over GF(2)
# on the amplitude index: B is one column bitmask per area and d one bitmask.
# NOT(k) is d ^= col[k] and CNOT(c, t) is col[c] ^= col[t] (Aaronson and
# Gottesman, Phys. Rev. A 70, 052328, 2004).  An SU2 gate on area k runs on
# phi in place when G leaves bit k alone (col[k] is k's own bit and no other
# column holds it); if d flips bit k it takes the matrix with rows and
# columns swapped, which gives each pair the same products, added in the
# other order.  Otherwise, and once at the end, phi is gathered through G
# into a second array and G starts again from the identity.
#
# A gather may also put the areas' bits in any order at no extra cost, and an
# SU2 gate costs less the more significant its bit: on 16 areas, a gate on
# area 14 (runs of 4 amplitudes) took 1.7x one on area 1 on a 2-vCPU host.
# So the gates are read once, one segment at a time: from the start or a
# gather up to the first SU2 gate whose bit G moves.  While a segment is
# read, G is kept in area bits, since which bit G moves does not depend on
# where the areas are stored, with B's rows beside its columns, so that
# whether G moves a bit is two comparisons; and its SU2 gates are recorded
# with their entries already swapped.  When it ends, on states of
# _LAYOUT_AREAS or more, the gather before it stores the segment's SU2
# targets on the most significant bits, in first-use order, and the other
# areas after them in area order (after Haener and Steiger, SC17, 2017);
# then its SU2 gates run at their areas' storage positions, and G is
# re-expressed in the storage bits for the next gather.  The gather at the
# end returns to area order.  Only where a pair is stored changes, so every
# pair gets the same products in the same order.
#
# numpy runs a ufunc or a copy fast only along a long inner axis, and a ufunc
# only when its operands can be walked as one run.  So an SU2 gate gathers
# its strided views into contiguous scratch, does its arithmetic on flat
# rows, and writes back through a ufunc whose inputs are contiguous: numpy
# then keeps the axis order it is given, where np.copyto would re-sort by the
# destination.  Each block is one copy and 18 ufunc calls on views that are
# made once per block shape and run and kept in _Scratch: on a small state a
# sliced and reshaped view costs about a third of a ufunc call (0.36 against
# 0.96 us on 4 amplitudes, 2-vCPU host).

# amplitude pairs per SU2 block, so that a block's scratch stays in cache
_BLOCK = 8192
# states of at least this many areas are laid out for the SU2 gates at each
# gather: on 12 areas the slowest position costs 1.26x the fastest, and the
# layout and G's re-expression cost more than the layout saves
_LAYOUT_AREAS = 13
# a pair view whose inner axis is shorter than this is walked along its outer
# axis when that one is longer
_MIN_RUN = 8


def _pairs(psi: np.ndarray, n: int, target: int) -> np.ndarray:
    """View of the amplitude pairs that differ in the bit of `target`:
    target bit first, rows second.  When its inner axis is short, the
    longer of the last two is moved there."""
    v = psi.reshape(2, 1 << (target - 1), 2, 1 << (n - target))
    if v.shape[3] < min(v.shape[1], _MIN_RUN):
        return v.transpose(2, 0, 3, 1)
    return v.transpose(2, 0, 1, 3)


def _blocks(pairs: np.ndarray) -> list[np.ndarray]:
    """`pairs`, with two axes after the rows, cut into blocks of at most
    _BLOCK pairs."""
    outer, inner = pairs.shape[2:]
    step_in = min(inner, _BLOCK)
    step_out = _BLOCK // step_in
    return [
        pairs[:, :, i : i + step_out, j : j + step_in]
        for i in range(0, outer, step_out)
        for j in range(0, inner, step_in)
    ]


class _Scratch:
    """Preallocated buffers for the gates on one (2, n_amps) state: `x`
    holds one SU2 block, `u`, `w` and `t` the rows of one block, and `y` and
    `index` a gathered state and the index it is gathered through.  `views`
    keeps the views of these buffers for each block shape met, built once
    by _block_views."""

    def __init__(self, n_amps: int) -> None:
        rows = 2 * min(n_amps // 2, _BLOCK)
        self.x = np.empty(2 * rows)
        self.u = np.empty(rows)
        self.w = np.empty(rows)
        self.t = np.empty(rows)
        self.y = np.empty((2, n_amps))
        self.index = np.empty(n_amps, dtype=np.intp)
        self.views: dict[tuple, tuple] = {}


def _cmul(out: np.ndarray, tmp: np.ndarray, z: complex, rows: np.ndarray) -> None:
    """out = z * rows, with rows and out as (re, im) rows."""
    np.multiply(rows, z.real, out=out)
    np.multiply(rows, z.imag, out=tmp)
    np.subtract(out[0], tmp[1], out=out[0])
    np.add(out[1], tmp[0], out=out[1])


def _block_views(scratch: _Scratch, shape: tuple) -> tuple:
    """The views an SU2 block of `shape` runs on: its copy `old` in
    scratch.x, the halves `lo` and `hi` of `old` as rows, the rows `u`, `w`
    and `t` with each of their two rows, and `u` and `w` in the block's
    shape after its first axis."""
    old = scratch.x[: math.prod(shape)].reshape(shape)
    h = old.size // 4
    lo, hi = old.reshape(2, 2, h)
    u, w, t = (arr[: 2 * h].reshape(2, h) for arr in (scratch.u, scratch.w, scratch.t))
    u_out, w_out = u.reshape(shape[1:]), w.reshape(shape[1:])
    return old, lo, hi, u, w, t, *u, *w, *t, u_out, w_out


def _apply_su2(pairs: np.ndarray, entries: tuple, scratch: _Scratch) -> None:
    """Apply the matrix with row-major `entries` (a, b, c, d) to `pairs`:
    each matrix row (z, y) gives out = z * lo + y * hi, each product as
    re = p*u - q*v and im = q*u + p*v."""
    blocks = _blocks(pairs)
    shape = blocks[0].shape
    views = scratch.views.get(shape)
    if views is None:
        views = scratch.views[shape] = _block_views(scratch, shape)
    old, lo, hi, u, w, t, u0, u1, w0, w1, t0, t1, u_out, w_out = views
    a, b, c, d = ((z.real, z.imag) for z in entries)
    mul, sub, add = np.multiply, np.subtract, np.add
    for block in blocks:
        np.copyto(old, block)
        for out, (zr, zi), (yr, yi) in ((block[0], a, b), (block[1], c, d)):
            mul(lo, zr, out=u)
            mul(lo, zi, out=t)
            sub(u0, t1, out=u0)
            add(u1, t0, out=u1)
            mul(hi, yr, out=w)
            mul(hi, yi, out=t)
            sub(w0, t1, out=w0)
            add(w1, t0, out=w1)
            add(u_out, w_out, out=out)


def _gather(phi: np.ndarray, cols: list[int], flip: int, scratch: _Scratch) -> np.ndarray:
    """The rows psi with psi[:, i] = phi[:, G(i)], G(i) = B.i ^ flip, where
    B has column cols[p - 1] for bit position p of i, position 1 the most
    significant.  psi is scratch.y, and phi becomes scratch.y for the next
    gather."""
    index, psi = scratch.index, scratch.y
    # doubling from the least significant area: index[:m] covers the last
    # log2(m) areas
    index[0] = flip
    m = 1
    for col in reversed(cols):
        np.bitwise_xor(index[:m], col, out=index[m : 2 * m])
        m *= 2
    for row in range(2):
        np.take(phi[row], index, out=psi[row], mode="clip")
    scratch.y = phi
    return psi


def _check_area(area: int, n: int, role: str) -> int:
    if not 1 <= area <= n:
        raise QnetError(f"{role} area {area} out of range for {n} areas")
    return area


def _bit_areas(m: int, n: int) -> Iterator[int]:
    """The index k - 1 of each area k whose bit, 1 << (n - k), is set in m."""
    while m:
        low = m & -m
        yield n - low.bit_length()
        m ^= low


def _segments(
    gates: Sequence[Gate], n: int, identity: list[int]
) -> Iterator[tuple[list, list[int], int]]:
    """Read `gates` once, in circuit order, and yield each segment, from the
    start or a gather up to the first SU2 gate whose bit G moves: its SU2
    gates as (area, entries), with the entries swapped where G flips the
    area's bit, and G's columns and flip at its end, in area bits."""
    # rows[k - 1] holds the bit of each area whose column holds bit k
    cols, rows, flip, segment = identity[:], identity[:], 0, []
    for gate in gates:
        if isinstance(gate, SU2Gate):
            k = _check_area(gate.area, n, "target")
            bit = identity[k - 1]
            # G moves bit k unless col[k] is bit k and no other column holds it
            if cols[k - 1] != bit or rows[k - 1] != bit:
                yield segment, cols, flip
                cols, rows, flip, segment = identity[:], identity[:], 0, []
            a, b, c, d = gate.matrix.entries()
            segment.append((k, (d, c, b, a) if flip & bit else (a, b, c, d)))
        elif isinstance(gate, CNOTGate):
            control = _check_area(gate.control, n, "control")
            target = _check_area(gate.target, n, "target")
            cols[control - 1] ^= cols[target - 1]
            for j in _bit_areas(cols[target - 1], n):
                rows[j] ^= identity[control - 1]
        elif isinstance(gate, NotGate):
            flip ^= cols[_check_area(gate.area, n, "target") - 1]
        else:
            raise QnetError(f"unknown gate {gate!r}")
    yield segment, cols, flip


def _apply_gates(psi: np.ndarray, n: int, gates: Sequence[Gate]) -> np.ndarray:
    """Apply `gates` to the C-contiguous rows `psi` and return the final
    rows, which may be `psi` itself or a new array; `psi` is overwritten."""
    scratch = _Scratch(psi.shape[1])
    identity = [1 << (n - k) for k in range(1, n + 1)]
    # the areas by storage position, each area's position, and the gather
    # due before the next segment, in storage bits
    order = areas = list(range(1, n + 1))
    pos, gather = areas, None
    for segment, cols, flip in _segments(gates, n, identity):
        if gather:
            if n >= _LAYOUT_AREAS:
                order = list(dict.fromkeys(k for k, _ in segment))
                order += [k for k in areas if k not in order]
                pos = [order.index(k) + 1 for k in areas]
            # the previous segment's G, its columns by storage position
            psi = _gather(psi, [gather[0][k - 1] for k in order], gather[1], scratch)
        for k, entries in segment:
            _apply_su2(_pairs(psi, n, pos[k - 1]), entries, scratch)
        if order != areas:
            # G's columns and flip re-expressed in the storage bits
            bits = [1 << (n - p) for p in pos]
            *cols, flip = [
                sum(bits[j] for j in _bit_areas(m, n)) for m in (*cols, flip)
            ]
        gather = cols, flip
    cols, flip = gather
    if flip or cols != identity:
        psi = _gather(psi, cols, flip, scratch)
    return psi


def apply_gate(state: TensorState, gate: Gate) -> TensorState:
    amps = state.amplitudes
    psi = np.stack([amps.real, amps.imag])
    return TensorState(state.n_areas, _to_complex(_apply_gates(psi, state.n_areas, [gate])))


def run_circuit(
    initial: Sequence[AreaState],
    circuit: Sequence[Gate],
) -> TensorState:
    _check_normalized(initial)
    psi = _apply_gates(_product_rows(initial, len(circuit)), len(initial), circuit)
    return TensorState(len(initial), _to_complex(psi))


def states_allclose(
    x: TensorState,
    y: TensorState,
    tol: float = 1e-12,
    up_to_phase: bool = False,
) -> bool:
    if x.n_areas != y.n_areas:
        return False
    ax, ay = x.amplitudes, y.amplitudes
    if up_to_phase:
        i = int(np.argmax(np.abs(ax)))
        if abs(ax[i]) == 0.0:
            return float(np.max(np.abs(ay))) <= tol
        phase = ay[i] / ax[i]
        mod = abs(phase)
        if mod == 0.0:
            return False
        ay = ay * ((phase / mod).conjugate())
    return float(np.max(np.abs(ay - ax))) <= tol


def random_su2(rng: np.random.Generator) -> Matrix2C:
    """Haar-ish SU(2) sample from a normalized quaternion."""
    w, x, y, z = rng.normal(size=4)
    r = math.sqrt(w * w + x * x + y * y + z * z)
    alpha = complex(w / r, x / r)
    beta = complex(y / r, z / r)
    return Matrix2C(alpha, beta, -beta.conjugate(), alpha.conjugate())


def random_circuit(
    rng: np.random.Generator, n_areas: int, n_gates: int
) -> list[Gate]:
    """Random mix of SU2 and (when possible) CNOT gates."""
    if not 1 <= n_areas <= MAX_AREAS:
        raise QnetError(f"area count must be in 1..{MAX_AREAS}")
    if n_gates < 0:
        raise QnetError("gate count must be nonnegative")
    if n_gates > MAX_RANDOM_GATES:
        raise QnetError(
            f"random gate count must be at most {MAX_RANDOM_GATES}, got {n_gates}"
        )
    _check_work(n_areas, n_gates)
    gates: list[Gate] = []
    for _ in range(n_gates):
        if n_areas >= 2 and rng.random() < 0.5:
            control, target = rng.choice(n_areas, size=2, replace=False)
            gates.append(CNOTGate(int(control) + 1, int(target) + 1))
        else:
            gates.append(SU2Gate(int(rng.integers(n_areas)) + 1, random_su2(rng)))
    return gates


# -- circuit files -----------------------------------------------------------------
#
# Line oriented; blank lines and lines starting with # are skipped:
#   init <area> <a_re> <a_im> <b_re> <b_im>
#   NOT <area>
#   SU2 <area> <a_re> <a_im> <b_re> <b_im> <c_re> <c_im> <d_re> <d_im>
#   CNOT <control> <target>
# All init lines come first and must cover areas 1..n exactly once.


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise QnetError(f"line {lineno}: expected an integer, got {token!r}")


def _parse_floats(tokens: Sequence[str], lineno: int) -> list[float]:
    out = []
    for t in tokens:
        try:
            value = float(t)
        except ValueError:
            raise QnetError(f"line {lineno}: expected a number, got {t!r}")
        if not math.isfinite(value):
            raise QnetError(f"line {lineno}: numbers must be finite")
        out.append(value)
    return out


def parse_circuit_text(text: str) -> tuple[list[AreaState], list[Gate]]:
    inits: dict[int, AreaState] = {}
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        if keyword == "init":
            if gates:
                raise QnetError(
                    f"line {lineno}: init lines must precede all gates"
                )
            if len(args) != 5:
                raise QnetError(f"line {lineno}: init needs area plus 4 reals")
            area = _parse_int(args[0], lineno)
            if area < 1:
                raise QnetError(f"line {lineno}: area must be positive")
            if area in inits:
                raise QnetError(f"line {lineno}: area {area} initialized twice")
            ar, ai, br, bi = _parse_floats(args[1:], lineno)
            inits[area] = AreaState(complex(ar, ai), complex(br, bi))
        elif keyword == "NOT":
            if len(args) != 1:
                raise QnetError(f"line {lineno}: NOT needs one area")
            gates.append(NotGate(_parse_int(args[0], lineno)))
        elif keyword == "SU2":
            if len(args) != 9:
                raise QnetError(f"line {lineno}: SU2 needs area plus 8 reals")
            area = _parse_int(args[0], lineno)
            v = _parse_floats(args[1:], lineno)
            m = Matrix2C(
                complex(v[0], v[1]),
                complex(v[2], v[3]),
                complex(v[4], v[5]),
                complex(v[6], v[7]),
            )
            try:
                gates.append(SU2Gate(area, m))
            except QnetError as exc:
                raise QnetError(f"line {lineno}: {exc}")
        elif keyword == "CNOT":
            if len(args) != 2:
                raise QnetError(f"line {lineno}: CNOT needs control and target")
            control = _parse_int(args[0], lineno)
            target = _parse_int(args[1], lineno)
            try:
                gates.append(CNOTGate(control, target))
            except QnetError as exc:
                raise QnetError(f"line {lineno}: {exc}")
        else:
            raise QnetError(
                f"line {lineno}: unknown keyword {keyword!r} "
                "(expected init, NOT, SU2, or CNOT)"
            )
    if not inits:
        raise QnetError("circuit has no init lines")
    n = max(inits)
    missing = sorted(set(range(1, n + 1)) - set(inits))
    if missing:
        raise QnetError(f"missing init lines for areas {missing}")
    states = [inits[k] for k in range(1, n + 1)]
    for g in gates:
        areas = (g.control, g.target) if isinstance(g, CNOTGate) else (g.area,)
        for a in areas:
            if a > n:
                raise QnetError(
                    f"gate {g!r} references area {a} but only {n} areas "
                    "are initialized"
                )
    return states, gates


def format_circuit_text(
    states: Sequence[AreaState], gates: Sequence[Gate]
) -> str:
    """Canonical circuit text; floats via repr so parsing is exact."""
    lines = []
    for i, s in enumerate(states, start=1):
        lines.append(
            f"init {i} {s.a.real!r} {s.a.imag!r} {s.b.real!r} {s.b.imag!r}"
        )
    for g in gates:
        if isinstance(g, NotGate):
            lines.append(f"NOT {g.area}")
        elif isinstance(g, SU2Gate):
            parts = []
            for e in g.matrix.entries():
                parts.append(repr(e.real))
                parts.append(repr(e.imag))
            lines.append(f"SU2 {g.area} " + " ".join(parts))
        elif isinstance(g, CNOTGate):
            lines.append(f"CNOT {g.control} {g.target}")
        else:
            raise QnetError(f"unknown gate {g!r}")
    return "\n".join(lines) + "\n"


def load_circuit(fp: TextIO) -> tuple[list[AreaState], list[Gate]]:
    return parse_circuit_text(fp.read())


def run_circuit_text(text: str) -> TensorState:
    """Parse, normalize every init state, and run; the file bridge."""
    states, gates = parse_circuit_text(text)
    return run_circuit([normalize(s) for s in states], gates)


def format_amplitudes_csv(state: TensorState) -> str:
    # imported here, so only a call that formats builds the formatter's tables
    from ._csvfmt import csv_bytes

    amps = state.amplitudes
    columns = [np.arange(amps.size), amps.real, amps.imag]
    return csv_bytes("basis_index,re,im", columns).decode("ascii")


def write_amplitudes_csv(fp: TextIO, state: TensorState) -> None:
    fp.write(format_amplitudes_csv(state))
