"""Byte guards for the qnet gate kernel on circuits with NOT gates.

The qnet goldens in test_golden.py and the digest script in test_qnet.py run
circuits from `random_circuit`, which draws no NOT gate.  The cases here pin
the sha256 of `run_circuit(...).amplitudes.tobytes()` for seeded circuits
that mix NOT, CNOT and SU(2) gates: CNOT-heavy ones on 12 to 16 areas that
force gathers of the relabelled index (12 and 13 lie on either side of the
layout threshold, and a 14-area state is exactly one SU(2) block), and a
long one on 2 areas, where every SU(2) gate is one block of two pairs.  They
also check NOT/CNOT-only circuits against a plain-Python permutation of the
basis indices.  On wide states, the cases at the end check the layout that
each gather picks: the SU(2) gates after it run on the first storage
positions, the gate loop reads each gate once by any route, the gathers
follow the move rule, and a gate out of range still raises in circuit order.
On the benchmark's `qnet-wide` circuit, the last test counts the gathers,
the SU(2) kernel calls and the kernel's view sets.
"""

import hashlib
import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kleinnet import qnet
from kleinnet.errors import QnetError
from kleinnet.qnet import (
    AreaState,
    CNOTGate,
    NotGate,
    SU2Gate,
    apply_gate,
    normalize,
    random_circuit,
    random_su2,
    run_circuit,
    tensor,
)


def _digest(state):
    return hashlib.sha256(state.amplitudes.tobytes()).hexdigest()


def _initial(rng, n):
    return [
        normalize(AreaState(complex(*rng.normal(size=2)), complex(*rng.normal(size=2))))
        for _ in range(n)
    ]


def _area(rng, n):
    return int(rng.integers(n)) + 1


def _mixed(rng, n, n_gates, p_not, p_cnot):
    """Seeded gates: NOT with probability p_not, CNOT with p_cnot (NOT on
    one area), SU(2) otherwise."""
    gates = []
    for _ in range(n_gates):
        r = rng.random()
        if r < p_not or (r < p_not + p_cnot and n == 1):
            gates.append(NotGate(_area(rng, n)))
        elif r < p_not + p_cnot:
            control, target = rng.choice(n, size=2, replace=False)
            gates.append(CNOTGate(int(control) + 1, int(target) + 1))
        else:
            gates.append(SU2Gate(_area(rng, n), random_su2(rng)))
    return gates


def _not_heavy(n):
    rng = np.random.default_rng(100 + n)
    return _initial(rng, n), _mixed(rng, n, 60, 0.4, 0.3)


def _not_before_su2():
    # a NOT right before an SU(2) gate on the same area, on every area and
    # after a CNOT that moves the SU(2) gate's area
    rng = np.random.default_rng(7)
    initial = _initial(rng, 3)
    gates = []
    for k in (2, 1, 3, 2):
        gates += [NotGate(k), SU2Gate(k, random_su2(rng))]
    gates += [CNOTGate(1, 3), NotGate(3), SU2Gate(3, random_su2(rng))]
    gates += [NotGate(1), NotGate(1), SU2Gate(1, random_su2(rng))]
    return initial, gates


def _cnot_cancels():
    rng = np.random.default_rng(8)
    initial = _initial(rng, 3)
    gates = [CNOTGate(1, 2), CNOTGate(1, 2), SU2Gate(1, random_su2(rng))]
    gates += [SU2Gate(2, random_su2(rng))]
    return initial, gates


def _gathers_then_last_areas(n):
    """CNOT-heavy gates on n areas.  Each round ends with a CNOT onto an area
    and an SU(2) gate on it, which forces a gather, and then SU(2) gates on
    the last areas, so those run right after the gather."""
    rng = np.random.default_rng(300 + n)
    initial = _initial(rng, n)
    gates = []
    for _ in range(12):
        gates += _mixed(rng, n, 8, 0.1, 0.8)
        control, target = (int(a) + 1 for a in rng.choice(n, size=2, replace=False))
        gates += [CNOTGate(control, target), SU2Gate(target, random_su2(rng))]
        gates += [SU2Gate(k, random_su2(rng)) for k in (n, n - 1, n - 3)]
    return initial, gates


def _small_state_mixed():
    rng = np.random.default_rng(600)
    return _initial(rng, 2), _mixed(rng, 2, 4000, 0.2, 0.4)


def _permutations_only(n):
    rng = np.random.default_rng(200 + n)
    return _initial(rng, n), _mixed(rng, n, 40, 0.5, 0.5)


CASES = {
    **{f"not-heavy-{n}": (_not_heavy, (n,)) for n in range(1, 9)},
    "not-before-su2": (_not_before_su2, ()),
    "cnot-cancels": (_cnot_cancels, ()),
    **{
        f"gathers-then-last-areas-{n}": (_gathers_then_last_areas, (n,))
        for n in range(12, 17)
    },
    "small-state-mixed": (_small_state_mixed, ()),
    **{f"permutations-only-{n}": (_permutations_only, (n,)) for n in range(1, 7)},
}

DIGESTS = {
    "not-heavy-1": "233c780a38fa3b16aab2b5a2b150265d8afa40e555f5a444476955e7cf311558",
    "not-heavy-2": "21445e08867a3b1c6d2b46e928dcabaa8d395a1866735a4c021ea10f477616a0",
    "not-heavy-3": "a6ca9680573ed2d66ffc2e4315d55c3f21e1ce1d2fa92e6fc6b7ff1cb6e643a1",
    "not-heavy-4": "18eb2472638c9cd883e26b264bc446b2390e967e575cde9b782a8ca853705211",
    "not-heavy-5": "d685190369fa87103cb58058565f1c256cb6c57bf698fa74e41ade423032fcfd",
    "not-heavy-6": "4de269736919d074ac60abc61522546dbe0bb36bcc37c8d3dcbabb0f29cb3231",
    "not-heavy-7": "1988d77ce7d8a0b18ec4dd9ef1898f0e47fc7a4751d1302c2dc74ccc5f691306",
    "not-heavy-8": "952b1ea5a1519dcc0a4d5f198f6bda75272caa6aefd51fbc09442c87e712aa6d",
    "not-before-su2": "a6196fe9d86a7abb264c43dc4bc41563b0e3d6fd1143ac1a838adef83493a897",
    "cnot-cancels": "486721d0fc1de04d0fca2cad28815fd3b4d6f66d2fc5546f2da8c4540bb53d35",
    "gathers-then-last-areas-12": "96cadfb112eaaf3ab603e0bc87bb57cea1bcf1ae719249833c80c6fb225b72ff",
    "gathers-then-last-areas-13": "b8d8ae412568eabca7ea93537dbd4154ca30d92bd60a4cec3b44bb5c81586f3e",
    "gathers-then-last-areas-14": "1cc4a1e07244dec35e3c58009e3db8ad0ccbc5febeb1ec49b80498ce761089fe",
    "gathers-then-last-areas-15": "6554e19ab6da18f86ace22dbabd724fb4fc1add920a7305330d2e7bc911dbecd",
    "gathers-then-last-areas-16": "0d90c22c8dbf919458929153267e9bdae1f396ca9d20ef75d34260b2618f8c3d",
    "small-state-mixed": "d6b18584cc3364450f4396a243e0fe7b3c7bed45f3429b730bf64c19e71dddee",
    "permutations-only-1": "06e3f9ee70272cc121d72900d80c7045801734a84f99a7cea0ad9af7b49f552d",
    "permutations-only-2": "e682a6ce020e0bd4566cdcfab2506d70bfee81e24ede0a2b594496b3ec404d32",
    "permutations-only-3": "8db078d92fc15fae730231082f401ecbf19928caa0ef801140097af8ab2f3b5f",
    "permutations-only-4": "dcf6c0885a82494e6a393183fe4fc89d151b07ed8c2d2c6af01c98a94e2bd5c6",
    "permutations-only-5": "225904d6adcab35d7223a2168f3c1307f55fa2a56054c77c6d58284225204666",
    "permutations-only-6": "cc420d07b30a9d5c22590dac9a7f7ef4453c3860697162706aac74625f41d0b0",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_circuit_bytes(name):
    make, args = CASES[name]
    initial, gates = make(*args)
    assert _digest(run_circuit(initial, gates)) == DIGESTS[name]


def _apply_gate_states():
    rng = np.random.default_rng(9)
    state = tensor(_initial(rng, 4))
    gates = {
        "NOT": NotGate(3),
        "CNOT": CNOTGate(4, 2),
        "SU2": SU2Gate(1, random_su2(rng)),
    }
    return {kind: apply_gate(state, gate) for kind, gate in gates.items()}


APPLY_GATE_DIGESTS = {
    "NOT": "a35b978cfab4db7e46bd66f1a2db8c1864ce94bef02811210d47252e586b37c9",
    "CNOT": "c1eeb68849494d16956a2339fca8b74b11524af8a87bc21e1058ed2e49d13e3e",
    "SU2": "747be030cbdd1fd9e73864ad912d2f3ab8a0a9be5d3751351482109dcd3087f9",
}


def test_apply_gate_bytes():
    states = _apply_gate_states()
    assert {kind: _digest(s) for kind, s in states.items()} == APPLY_GATE_DIGESTS


def _permuted_index(i, n, gates):
    """Where the amplitude at basis index i ends after `gates`, by its bits."""
    bits = [(i >> (n - k)) & 1 for k in range(1, n + 1)]
    for g in gates:
        if isinstance(g, NotGate):
            bits[g.area - 1] ^= 1
        elif bits[g.control - 1]:
            bits[g.target - 1] ^= 1
    return int("".join(map(str, bits)), 2)


@st.composite
def _permutation_circuits(draw):
    n = draw(st.integers(1, 6))
    area = st.integers(1, n)
    not_gate = area.map(NotGate)
    gate = not_gate
    if n >= 2:
        cnot = st.tuples(area, area).filter(lambda p: p[0] != p[1])
        gate = st.one_of(not_gate, cnot.map(lambda p: CNOTGate(*p)))
    return n, draw(st.lists(gate, max_size=30)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_permutation_circuits())
def test_permutation_circuits_move_amplitudes_by_index_bits(case):
    n, gates, seed = case
    initial = _initial(np.random.default_rng(seed), n)
    start = tensor(initial).amplitudes
    expected = np.empty_like(start)
    for i in range(start.size):
        expected[_permuted_index(i, n, gates)] = start[i]
    assert np.array_equal(run_circuit(initial, gates).amplitudes, expected)


# -- layouts chosen at the gathers -------------------------------------------------


class _CountedGates(list):
    """A gate list that counts the reads of each gate, by index, by slice
    and by iteration."""

    def __init__(self, gates):
        super().__init__(gates)
        self.reads = [0] * len(gates)

    def __getitem__(self, i):
        at = range(len(self))[i]
        for j in at if isinstance(i, slice) else [at]:
            self.reads[j] += 1
        return super().__getitem__(i)

    def __iter__(self):
        for j, gate in enumerate(super().__iter__()):
            self.reads[j] += 1
            yield gate


def _segments(monkeypatch, initial, gates):
    """Run `gates` as a _CountedGates list and return it, with the SU(2)
    gates applied before the first gather and after each gather, as lists
    of (area, storage position)."""
    areas = iter([g.area for g in gates if isinstance(g, SU2Gate)])
    segments = [[]]
    pairs, gather = qnet._pairs, qnet._gather

    def record_pairs(psi, n, position):
        segments[-1].append((next(areas), position))
        return pairs(psi, n, position)

    def record_gather(*args):
        segments.append([])
        return gather(*args)

    monkeypatch.setattr(qnet, "_pairs", record_pairs)
    monkeypatch.setattr(qnet, "_gather", record_gather)
    counted = _CountedGates(gates)
    run_circuit(initial, counted)
    return counted, segments


def _gather_at_every_su2(n, rounds):
    """A CNOT onto an area, then an SU(2) gate on it, which forces a gather,
    round after round; area n is never a target."""
    rng = np.random.default_rng(400 + n)
    gates = []
    for r in range(rounds):
        target = r % (n - 1) + 1
        gates += [CNOTGate(target % (n - 1) + 1, target), SU2Gate(target, random_su2(rng))]
    return _initial(rng, n), gates


def _seeded_wide(n):
    rng = np.random.default_rng(500 + n)
    return _initial(rng, n), random_circuit(rng, n, 300)


@pytest.mark.parametrize(
    "make, args", [(_seeded_wide, (16,)), (_gather_at_every_su2, (16, 60))]
)
def test_su2_gates_after_a_gather_run_on_the_first_positions(monkeypatch, make, args):
    initial, gates = make(*args)
    gates, segments = _segments(monkeypatch, initial, gates)
    assert len(segments) > 10
    # the gates before the first gather run in area order
    for segment in segments[1:]:
        distinct = len({area for area, _ in segment})
        assert all(p <= distinct for _, p in segment)
    assert set(gates.reads) == {1}


def _gathers_by_the_rule(n, gates):
    """The gathers a run of `gates` makes: one before each SU(2) gate whose
    bit G moves, that is, whose column or row of B is not the bit alone,
    after which G starts again from the identity, and one at the end unless
    G is the identity."""
    identity = [1 << (n - k) for k in range(1, n + 1)]
    cols, flip, count = identity[:], 0, 0
    for g in gates:
        if isinstance(g, SU2Gate):
            bit = identity[g.area - 1]
            row = [bool(col & bit) for col in cols]
            if cols[g.area - 1] != bit or row != [a == bit for a in identity]:
                cols, flip, count = identity[:], 0, count + 1
        elif isinstance(g, CNOTGate):
            cols[g.control - 1] ^= cols[g.target - 1]
        else:
            flip ^= cols[g.area - 1]
    return count + (flip != 0 or cols != identity)


@pytest.mark.parametrize("n", [2, 3, 5, 13])
def test_gathers_follow_the_move_rule(monkeypatch, n):
    # CNOT-heavy, so that CNOTs often cancel before an SU(2) gate
    rng = np.random.default_rng(700 + n)
    initial, gates = _initial(rng, n), _mixed(rng, n, 400, 0.1, 0.6)
    _, segments = _segments(monkeypatch, initial, gates)
    assert len(segments) - 1 == _gathers_by_the_rule(n, gates)


def _gathers_then(bad):
    """15 areas: two forced gathers, then the gates `bad`."""
    rng = np.random.default_rng(12)

    def su2(k):
        return SU2Gate(k, random_su2(rng))

    gates = [CNOTGate(1, 2), su2(2), su2(15), CNOTGate(3, 4), su2(14)]
    gates += [su2(4), NotGate(5), *bad, su2(15)]
    return _initial(rng, 15), gates


_M = random_su2(np.random.default_rng(0))


@pytest.mark.parametrize(
    "bad, message",
    [
        ([SU2Gate(16, _M), CNOTGate(17, 1)], "target area 16 out of range for 15 areas"),
        ([CNOTGate(2, 16), NotGate(17)], "target area 16 out of range for 15 areas"),
        ([CNOTGate(16, 2), CNOTGate(2, 17)], "control area 16 out of range for 15 areas"),
        ([NotGate(16), SU2Gate(17, _M)], "target area 16 out of range for 15 areas"),
        ([SU2Gate(3, _M), "H", NotGate(16)], "unknown gate 'H'"),
    ],
)
def test_gates_out_of_range_after_a_gather_raise_in_circuit_order(bad, message):
    # `bad` lies in the segment after the second gather, which the loop
    # reads to its end before that segment's SU(2) gates run
    initial, gates = _gathers_then(bad)
    with pytest.raises(QnetError, match=message):
        run_circuit(initial, gates)


# -- work counts on the benchmark's circuit ----------------------------------------

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def _qnet_wide_circuit(monkeypatch, path):
    """qnet-wide's seed-0 circuit (16 areas; 1,000 SU(2), 900 CNOT and 100
    NOT gates), written by the benchmark's own input generator."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    inputs.write_circuit(path, random.Random(0), 16, 1000, 900, 100)
    states, gates = qnet.parse_circuit_text(path.read_text(encoding="utf-8"))
    return [normalize(s) for s in states], gates


def test_qnet_wide_work_counts(monkeypatch, tmp_path):
    calls = {"gather": 0, "su2": 0}
    shapes, built = set(), []
    gather, apply_su2, block_views = qnet._gather, qnet._apply_su2, qnet._block_views

    def count_gather(*args):
        calls["gather"] += 1
        return gather(*args)

    def count_su2(pairs, entries, scratch):
        calls["su2"] += 1
        shapes.add(qnet._blocks(pairs)[0].shape)
        return apply_su2(pairs, entries, scratch)

    def count_views(scratch, shape):
        built.append(shape)
        return block_views(scratch, shape)

    monkeypatch.setattr(qnet, "_gather", count_gather)
    monkeypatch.setattr(qnet, "_apply_su2", count_su2)
    monkeypatch.setattr(qnet, "_block_views", count_views)
    initial, gates = _qnet_wide_circuit(monkeypatch, tmp_path / "qnet-wide.txt")
    run_circuit(initial, gates)
    assert calls == {"gather": 221, "su2": 1000}
    # each block shape's views are built once per run, not once per gate
    assert sorted(built) == sorted(shapes)
