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
from dataclasses import dataclass
from typing import Iterator, Sequence, TextIO, Union

import numpy as np

from .errors import QnetError
from .sl2 import Matrix2C

MAX_AREAS = 20
NORM_TOL = 1e-9
UNITARY_TOL = 1e-9


@dataclass(frozen=True)
class AreaState:
    """Raw two-level state of one area; not necessarily normalized."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))

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


@dataclass(frozen=True)
class NotGate:
    area: int

    def __post_init__(self) -> None:
        _check_area_field(self.area)


@dataclass(frozen=True)
class SU2Gate:
    area: int
    matrix: Matrix2C

    def __post_init__(self) -> None:
        _check_area_field(self.area)
        m = self.matrix
        adjoint = Matrix2C(
            m.a.conjugate(), m.c.conjugate(), m.b.conjugate(), m.d.conjugate()
        )
        if not (m @ adjoint).max_abs_diff(Matrix2C.identity()) <= UNITARY_TOL:
            raise QnetError("SU2 gate matrix is not unitary")
        if not abs(m.det - 1.0) <= UNITARY_TOL:
            raise QnetError("SU2 gate matrix does not have unit determinant")


@dataclass(frozen=True)
class CNOTGate:
    control: int
    target: int

    def __post_init__(self) -> None:
        _check_area_field(self.control)
        _check_area_field(self.target)
        if self.control == self.target:
            raise QnetError("CNOT control and target must be distinct areas")


Gate = Union[NotGate, SU2Gate, CNOTGate]


def _check_area_field(area: int) -> None:
    if not isinstance(area, int) or isinstance(area, bool) or area < 1:
        raise QnetError(f"area index must be a positive integer, got {area!r}")


def hadamard_gate(area: int) -> SU2Gate:
    """Hadamard up to global phase: (i/sqrt(2)) [[1, 1], [1, -1]] has det 1."""
    s = 1j / math.sqrt(2.0)
    return SU2Gate(area, Matrix2C(s, s, s, -s))


@dataclass(frozen=True, eq=False)
class TensorState:
    """Joint state of `n_areas` areas as 2^n amplitudes, area 1 = MSB."""

    n_areas: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_areas <= MAX_AREAS:
            raise QnetError(f"area count must be in 1..{MAX_AREAS}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.n_areas,):
            raise QnetError(
                f"amplitude vector must have length {2**self.n_areas}, "
                f"got shape {amps.shape}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def kron_amplitudes(states: Sequence[AreaState]) -> np.ndarray:
    """Kronecker product of raw (possibly unnormalized) area amplitudes."""
    if not 1 <= len(states) <= MAX_AREAS:
        raise QnetError(f"need between 1 and {MAX_AREAS} area states")
    out = np.ones(1, dtype=np.complex128)
    for s in states:
        out = np.kron(out, np.array([s.a, s.b], dtype=np.complex128))
    return out


def tensor(states: Sequence[AreaState]) -> TensorState:
    """Product state of normalized areas, in order (area 1 first = MSB)."""
    for i, s in enumerate(states, start=1):
        if not s.is_normalized:
            raise QnetError(
                f"area {i} state has norm {s.norm!r}; normalize it first"
            )
    return TensorState(len(states), kron_amplitudes(states))


def _axis(state: TensorState, area: int, role: str) -> int:
    if not 1 <= area <= state.n_areas:
        raise QnetError(
            f"{role} area {area} out of range for {state.n_areas} areas"
        )
    return area - 1


def apply_gate(state: TensorState, gate: Gate) -> TensorState:
    n = state.n_areas
    view = state.amplitudes.reshape((2,) * n)
    if isinstance(gate, NotGate):
        out = np.flip(view, axis=_axis(state, gate.area, "target")).copy()
    elif isinstance(gate, SU2Gate):
        ax = _axis(state, gate.area, "target")
        m = gate.matrix
        u = np.array([[m.a, m.b], [m.c, m.d]], dtype=np.complex128)
        out = np.moveaxis(np.tensordot(u, view, axes=([1], [ax])), 0, ax)
    elif isinstance(gate, CNOTGate):
        c_ax = _axis(state, gate.control, "control")
        t_ax = _axis(state, gate.target, "target")
        out = view.copy()
        idx = [slice(None)] * n
        idx[c_ax] = 1
        # indexing removed the control axis, so later axes shift down by one
        t_sub = t_ax - 1 if t_ax > c_ax else t_ax
        out[tuple(idx)] = np.flip(view[tuple(idx)], axis=t_sub)
    else:
        raise QnetError(f"unknown gate {gate!r}")
    return TensorState(n, out.reshape(-1))


def run_circuit(
    initial: Sequence[AreaState],
    circuit: Sequence[Gate],
) -> TensorState:
    state = tensor(initial)
    for gate in circuit:
        state = apply_gate(state, gate)
    return state


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


def _csv_rows(state: TensorState) -> Iterator[str]:
    yield "basis_index,re,im"
    for i, amp in enumerate(state.amplitudes):
        yield "%d,%.9g,%.9g" % (i, amp.real, amp.imag)


def format_amplitudes_csv(state: TensorState) -> str:
    return "\n".join(_csv_rows(state)) + "\n"


def write_amplitudes_csv(fp: TextIO, state: TensorState) -> None:
    fp.write(format_amplitudes_csv(state))
