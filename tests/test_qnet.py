import io
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kleinnet.errors import QnetError
from kleinnet.qnet import (
    MAX_AREAS,
    MAX_GATE_WORK,
    MAX_RANDOM_GATES,
    AreaState,
    CNOTGate,
    NotGate,
    SU2Gate,
    TensorState,
    apply_gate,
    format_amplitudes_csv,
    format_circuit_text,
    hadamard_gate,
    kron_amplitudes,
    load_circuit,
    normalize,
    parse_circuit_text,
    random_circuit,
    random_su2,
    run_circuit,
    run_circuit_text,
    states_allclose,
    tensor,
    write_amplitudes_csv,
)
from kleinnet.sl2 import Matrix2C
from test_cli import _env_with_src

INV_SQRT2 = 2 ** -0.5

UP = AreaState(1, 0)
DOWN = AreaState(0, 1)


def random_area_state(rng):
    return normalize(
        AreaState(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
    )


def basis_state(n, index):
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[index] = 1.0
    return TensorState(n, amps)


# -- states ------------------------------------------------------------------------


def test_normalize_three_four():
    s = normalize(AreaState(3, 4))
    assert s.a == 0.6 and s.b == 0.8


def test_normalize_keeps_normalized_state():
    assert normalize(UP) == UP


def test_normalize_preserves_phase():
    s = normalize(AreaState(0, 3j))
    assert s.b == 1j


def test_zero_state_is_unnormalizable():
    with pytest.raises(QnetError, match="unnormalizable"):
        normalize(AreaState(0, 0))


@given(
    st.tuples(
        *(st.floats(allow_nan=False, allow_infinity=False) for _ in range(4))
    )
)
def test_normalize_always_lands_on_the_unit_sphere(vals):
    # full double range, subnormals included
    s = AreaState(complex(vals[0], vals[1]), complex(vals[2], vals[3]))
    if s.a == 0 and s.b == 0:
        return
    assert abs(normalize(s).norm - 1.0) <= 1e-12


def test_normalize_extreme_magnitudes():
    tiny = normalize(AreaState(complex(5e-324, 5e-324), 0))
    assert abs(tiny.norm - 1.0) <= 1e-12
    huge = AreaState(complex(1.5e308, 1.5e308), 1.5e308)
    assert huge.norm == math.inf  # |a| alone exceeds the double range
    assert abs(normalize(huge).norm - 1.0) <= 1e-12


def test_tensor_basis_states():
    assert np.array_equal(tensor([UP, UP]).amplitudes, [1, 0, 0, 0])
    assert np.array_equal(tensor([DOWN]).amplitudes, [0, 1])


def test_tensor_kronecker_by_hand():
    t = tensor([AreaState(INV_SQRT2, INV_SQRT2), UP])
    assert np.allclose(t.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-15)


def test_tensor_rejects_unnormalized_input():
    with pytest.raises(QnetError, match="normalize"):
        tensor([AreaState(3, 4)])


def test_tensor_area_count_bounds():
    with pytest.raises(QnetError):
        tensor([])
    with pytest.raises(QnetError):
        kron_amplitudes([UP] * (MAX_AREAS + 1))


def test_tensor_state_length_checked():
    with pytest.raises(QnetError, match="length"):
        TensorState(2, np.zeros(3, dtype=np.complex128))


def test_kron_norm_is_multiplicative_before_normalization():
    rng = np.random.default_rng(3)
    for _ in range(50):
        states = [
            AreaState(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        k = kron_amplitudes(states)
        expected = math.prod(s.norm for s in states)
        assert np.linalg.norm(k) == pytest.approx(expected, rel=1e-12)


# -- gates -------------------------------------------------------------------------


def test_not_swaps_one_area():
    out = apply_gate(tensor([AreaState(0.6, 0.8)]), NotGate(1))
    assert np.array_equal(out.amplitudes, [0.8, 0.6])


def test_not_truth_table_two_areas():
    # NOT on area 1 toggles the most significant bit
    for index in range(4):
        out = apply_gate(basis_state(2, index), NotGate(1))
        assert np.array_equal(out.amplitudes, basis_state(2, index ^ 2).amplitudes)
        out = apply_gate(basis_state(2, index), NotGate(2))
        assert np.array_equal(out.amplitudes, basis_state(2, index ^ 1).amplitudes)


def test_cnot_truth_table():
    # control area 1 (MSB), target area 2: flips LSB when MSB set
    expected = {0: 0, 1: 1, 2: 3, 3: 2}
    for before, after in expected.items():
        out = apply_gate(basis_state(2, before), CNOTGate(1, 2))
        assert np.array_equal(out.amplitudes, basis_state(2, after).amplitudes)


def test_cnot_reversed_orientation():
    expected = {0: 0, 1: 3, 2: 2, 3: 1}
    for before, after in expected.items():
        out = apply_gate(basis_state(2, before), CNOTGate(2, 1))
        assert np.array_equal(out.amplitudes, basis_state(2, after).amplitudes)


def test_cnot_on_superposed_control():
    st0 = tensor([AreaState(INV_SQRT2, INV_SQRT2), UP])
    out = apply_gate(st0, CNOTGate(1, 2))
    assert np.allclose(out.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)


def test_su2_validation():
    with pytest.raises(QnetError, match="unitary"):
        SU2Gate(1, Matrix2C(1, 1, 0, 1))
    # plain Hadamard is unitary but has determinant -1
    h = INV_SQRT2
    with pytest.raises(QnetError, match="determinant"):
        SU2Gate(1, Matrix2C(h, h, h, -h))


@pytest.mark.parametrize("slot", range(4))
def test_su2_validation_rejects_nonfinite_entries(slot):
    entries = [1.0, 0.0, 0.0, 1.0]
    entries[slot] = math.nan
    with pytest.raises(QnetError):
        SU2Gate(1, Matrix2C(*entries))


def test_gate_index_validation():
    with pytest.raises(QnetError):
        NotGate(0)
    with pytest.raises(QnetError, match="distinct"):
        CNOTGate(2, 2)
    with pytest.raises(QnetError, match="out of range"):
        apply_gate(tensor([UP]), NotGate(2))
    with pytest.raises(QnetError, match="control"):
        apply_gate(tensor([UP, UP]), CNOTGate(3, 1))


def test_gates_preserve_norm():
    rng = np.random.default_rng(11)
    st0 = tensor([random_area_state(rng) for _ in range(4)])
    for gate in [
        NotGate(2),
        CNOTGate(1, 4),
        SU2Gate(3, random_su2(rng)),
        hadamard_gate(1),
    ]:
        out = apply_gate(st0, gate)
        assert abs(out.norm - st0.norm) <= 1e-12


def test_not_and_cnot_are_involutions():
    rng = np.random.default_rng(17)
    st0 = tensor([random_area_state(rng) for _ in range(3)])
    twice = apply_gate(apply_gate(st0, NotGate(3)), NotGate(3))
    assert np.array_equal(st0.amplitudes, twice.amplitudes)
    twice = apply_gate(apply_gate(st0, CNOTGate(2, 1)), CNOTGate(2, 1))
    assert np.array_equal(st0.amplitudes, twice.amplitudes)


def test_disjoint_gates_commute():
    rng = np.random.default_rng(23)
    st0 = tensor([random_area_state(rng) for _ in range(4)])
    pairs = [
        (SU2Gate(1, random_su2(rng)), SU2Gate(3, random_su2(rng))),
        (NotGate(2), CNOTGate(3, 4)),
        (CNOTGate(1, 2), CNOTGate(3, 4)),
    ]
    for g1, g2 in pairs:
        oneway = apply_gate(apply_gate(st0, g1), g2)
        other = apply_gate(apply_gate(st0, g2), g1)
        assert np.max(np.abs(oneway.amplitudes - other.amplitudes)) <= 1e-12


def test_random_su2_members():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = random_su2(rng)
        adj = Matrix2C(
            m.a.conjugate(), m.c.conjugate(), m.b.conjugate(), m.d.conjugate()
        )
        assert (m @ adj).max_abs_diff(Matrix2C.identity()) <= 1e-12
        assert abs(m.det - 1.0) <= 1e-12


# -- circuits ----------------------------------------------------------------------


def test_empty_circuit_is_tensor():
    rng = np.random.default_rng(41)
    states = [random_area_state(rng) for _ in range(3)]
    out = run_circuit(states, [])
    assert np.array_equal(out.amplitudes, tensor(states).amplitudes)


def test_bell_circuit():
    out = run_circuit([UP, UP], [hadamard_gate(1), CNOTGate(1, 2)])
    target = TensorState(2, np.array([INV_SQRT2, 0, 0, INV_SQRT2]))
    assert states_allclose(out, target, tol=1e-12, up_to_phase=True)
    # the det-1 Hadamard convention leaves a global phase of i
    assert not states_allclose(out, target, tol=1e-12)


def test_gate_by_gate_matches_the_whole_circuit():
    # apply_gate and run_circuit share one kernel, so their bytes agree
    rng = np.random.default_rng(53)
    states = [random_area_state(rng) for _ in range(6)]
    gates = random_circuit(rng, 6, 60) + [NotGate(k) for k in range(1, 7)]
    state = tensor(states)
    for gate in gates:
        state = apply_gate(state, gate)
    whole = run_circuit(states, gates)
    assert state.amplitudes.tobytes() == whole.amplitudes.tobytes()


# Prints the sha256 of the raw amplitude bytes of a seeded 12-area, 500-gate
# circuit, of a Kronecker product of raw area states, and of a CNOT-heavy
# 15-area circuit whose rounds force a gather with a CNOT and an SU(2) gate on
# its target, then put SU(2) gates on the last areas.
_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from kleinnet import qnet
rng = np.random.default_rng(2024)
raw = [qnet.AreaState(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
       for _ in range(12)]
gates = qnet.random_circuit(rng, 12, 500)
final = qnet.run_circuit([qnet.normalize(s) for s in raw], gates)
wide_raw = [qnet.AreaState(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            for _ in range(15)]
wide = []
for _ in range(20):
    c, t = (int(a) + 1 for a in rng.choice(15, size=2, replace=False))
    wide += [qnet.CNOTGate(c, t), qnet.NotGate(t), qnet.SU2Gate(t, qnet.random_su2(rng))]
    wide += [qnet.SU2Gate(k, qnet.random_su2(rng)) for k in (15, 14, 13)]
wide_final = qnet.run_circuit([qnet.normalize(s) for s in wide_raw], wide)
for amps in (final.amplitudes, qnet.kron_amplitudes(raw), wide_final.amplitudes):
    print(hashlib.sha256(amps.tobytes()).hexdigest())
"""


def _amplitude_digests(env):
    proc = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _plain_cpu_env():
    """The test environment with OpenBLAS's oldest x86-64 kernel and every
    numpy SIMD dispatch target this CPU has switched off."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    env = _env_with_src()
    env["OPENBLAS_CORETYPE"] = "Prescott"
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(
        f for f in __cpu_dispatch__ if __cpu_features__.get(f)
    )
    return env


def test_amplitude_bytes_do_not_depend_on_cpu_kernels():
    default = _amplitude_digests(_env_with_src())
    assert len(default) == 3
    assert _amplitude_digests(_plain_cpu_env()) == default


def test_hundred_random_gates_on_ten_areas():
    rng = np.random.default_rng(43)
    start = time.perf_counter()
    out = run_circuit([UP] * 10, random_circuit(rng, 10, 100))
    elapsed = time.perf_counter() - start
    assert abs(out.norm - 1.0) <= 1e-9
    assert elapsed < 1.0


def test_circuit_cap():
    with pytest.raises(QnetError, match=f"between 1 and {MAX_AREAS}"):
        run_circuit([UP] * (MAX_AREAS + 1), [])


def test_random_circuit_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(QnetError):
        random_circuit(rng, 0, 5)
    with pytest.raises(QnetError):
        random_circuit(rng, 2, -1)
    gates = random_circuit(rng, 1, 20)
    assert all(isinstance(g, SU2Gate) for g in gates)


def test_random_circuit_refuses_a_count_over_the_budget_before_drawing(monkeypatch):
    def no_draw(rng):
        raise AssertionError("a gate was drawn")

    # on one area every gate is an SU(2) draw, so a draw would raise first
    monkeypatch.setattr("kleinnet.qnet.random_su2", no_draw)
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    for n in (MAX_RANDOM_GATES + 1, 10**11):
        with pytest.raises(QnetError, match=f"at most {MAX_RANDOM_GATES}, got {n}"):
            random_circuit(rng, 1, n)
    assert rng.bit_generator.state == state
    with pytest.raises(AssertionError, match="drawn"):
        random_circuit(rng, 1, MAX_RANDOM_GATES)


def test_work_budget_is_checked_before_the_run_or_the_draw(monkeypatch):
    n_gates = MAX_GATE_WORK >> MAX_AREAS
    # a NOT pair on area 1 cancels, so the run at the budget gathers nothing
    out = run_circuit([UP] * MAX_AREAS, [NotGate(1)] * n_gates)
    assert out.amplitudes[0] == 1.0
    message = f"{n_gates + 1} gates on {MAX_AREAS} areas exceed the work budget"
    with pytest.raises(QnetError, match=message):
        run_circuit([UP] * MAX_AREAS, [NotGate(1)] * (n_gates + 1))

    def no_draw(rng):
        raise AssertionError("a gate was drawn")

    monkeypatch.setattr("kleinnet.qnet.random_su2", no_draw)
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(QnetError, match="work budget"):
        random_circuit(rng, MAX_AREAS, n_gates + 1)
    assert rng.bit_generator.state == state


def test_states_allclose_modes():
    a = tensor([UP])
    b = TensorState(1, np.array([1j, 0]))
    assert states_allclose(a, b, up_to_phase=True)
    assert not states_allclose(a, b)
    assert not states_allclose(a, tensor([UP, UP]))
    assert not states_allclose(a, tensor([DOWN]), up_to_phase=True)


# -- files -------------------------------------------------------------------------


def test_circuit_text_round_trip():
    rng = np.random.default_rng(47)
    states = [random_area_state(rng) for _ in range(3)]
    gates = [
        NotGate(1),
        SU2Gate(2, random_su2(rng)),
        CNOTGate(3, 1),
        hadamard_gate(2),
    ]
    text = format_circuit_text(states, gates)
    parsed_states, parsed_gates = parse_circuit_text(text)
    assert parsed_states == states
    assert parsed_gates == gates
    assert load_circuit(io.StringIO(text)) == (states, gates)


def test_circuit_text_comments_and_blanks():
    states, gates = parse_circuit_text(
        "# two areas\n\ninit 1 1 0 0 0\ninit 2 0 0 1 0\n\nCNOT 2 1\n"
    )
    assert states == [UP, DOWN]
    assert gates == [CNOTGate(2, 1)]


def test_run_circuit_text_normalizes_init_lines():
    out = run_circuit_text("init 1 3 0 4 0\nNOT 1\n")
    assert np.array_equal(out.amplitudes, [0.8, 0.6])


@pytest.mark.parametrize(
    "text,match",
    [
        ("flip 1", "unknown keyword"),
        ("init 1 1 0 0 0\nNOT 1\ninit 2 1 0 0 0\n", "precede"),
        ("init 1 1 0 0 0\ninit 1 0 0 1 0\n", "twice"),
        ("init 2 1 0 0 0\n", "missing init"),
        ("NOT 1\n", "no init"),
        ("init 1 1 0 0 0\nNOT 2\n", "references area 2"),
        ("init 1 1 0\n", "init needs"),
        ("init 1 1 0 0 x\n", "expected a number"),
        ("init 0 1 0 0 0\n", "positive"),
        ("init 1 1 0 0 0\nSU2 1 1 0 0 0\n", "SU2 needs"),
        ("init 1 1 0 0 0\nSU2 1 1 0 1 0 0 0 1 0\n", "unitary"),
        ("init 1 1 0 0 0\nCNOT 1 1\n", "distinct"),
        ("init 1 1 0 0 0\nNOT one\n", "expected an integer"),
    ],
)
def test_circuit_text_errors(text, match):
    with pytest.raises(QnetError, match=match):
        parse_circuit_text(text)


def test_amplitudes_csv():
    out = apply_gate(tensor([DOWN, UP]), CNOTGate(1, 2))
    csv = format_amplitudes_csv(out)
    lines = csv.splitlines()
    assert lines[0] == "basis_index,re,im"
    assert lines[1:] == ["0,0,0", "1,0,0", "2,0,0", "3,1,0"]


def test_amplitudes_csv_nine_significant_digits(tmp_path):
    state = TensorState(1, np.array([0.123456789123, 0.987654321987]))
    path = tmp_path / "amps.csv"
    with open(path, "w") as fp:
        write_amplitudes_csv(fp, state)
    body = path.read_text()
    assert "0.123456789" in body and "0.987654322" in body
    assert "0.1234567891" not in body
