"""The record classes behave as frozen value records: a field-order repr,
equality and hashing by the field tuple within one class, no assignment,
and copies and pickles that compare equal.  The two array-holding records
compare by identity."""

import copy
import pickle

import numpy as np
import pytest

from kleinnet.degeneration import LengthVector, RepFamily, TreeLimitReport
from kleinnet.dessin import Dessin, SubgroupGraph, build_dessin
from kleinnet.errors import (
    DegenerationError,
    DessinError,
    QnetError,
    RepresentationError,
    WordError,
)
from kleinnet.limitset import LimitPointCloud
from kleinnet.netgraph import LoopBasis, Network
from kleinnet.qnet import AreaState, CNOTGate, NotGate, SU2Gate, TensorState
from kleinnet.sl2 import IsometryClass, Matrix2C, ModuliPoint, Representation
from kleinnet.words import ConjugacyClassList, Word

from test_cli import run_module


def _two_diagonals(t):
    return [Matrix2C.diagonal(t, 1.0 / t), Matrix2C.diagonal(1.0 / t, t)]


A = Word((1,))
B = Word((2,))
CLASSES = ConjugacyClassList((A, B), 1, 2)
SHEAR = Matrix2C(1.0, 0.5j, 0.0, 1.0)
DIAG = Matrix2C.diagonal(2.0, 0.5)
HADAMARD = Matrix2C(
    0.7071067811865476j, 0.7071067811865476j, 0.7071067811865476j, -0.7071067811865476j
)

# (class, keyword arguments, the same with one field changed, repr)
VALUE_RECORDS = [
    (Word, {"letters": (1, -2)}, {"letters": (1, 2)}, "Word(letters=(1, -2))"),
    (
        ConjugacyClassList,
        {"representatives": (A, B), "max_length": 1, "rank": 2, "folded": False},
        {"representatives": (A, B), "max_length": 1, "rank": 2, "folded": True},
        "ConjugacyClassList(representatives=(Word(letters=(1,)), Word(letters=(2,))), "
        "max_length=1, rank=2, folded=False)",
    ),
    (
        Matrix2C,
        {"a": 1.0, "b": 0.5j, "c": 0.0, "d": 1.0},
        {"a": 1.0, "b": 0.5j, "c": 0.0, "d": 2.0},
        "Matrix2C(a=1.0, b=0.5j, c=0.0, d=1.0)",
    ),
    (
        Representation,
        {"images": (DIAG,), "inverses": (DIAG.inverse(),)},
        {"images": (SHEAR,), "inverses": (SHEAR.inverse(),)},
        "Representation(images=(Matrix2C(a=(2+0j), b=0.0, c=0.0, d=(0.5+0j)),), "
        "inverses=(Matrix2C(a=(0.5+0j), b=-0.0, c=-0.0, d=(2+0j)),))",
    ),
    (
        IsometryClass,
        {"kind": "loxodromic", "translation_length": 1.5},
        {"kind": "loxodromic", "translation_length": 2.5},
        "IsometryClass(kind='loxodromic', translation_length=1.5)",
    ),
    (
        ModuliPoint,
        {"words": (A, B), "traces": (3 + 0j, 3 - 1j)},
        {"words": (A, B), "traces": (3 + 0j, 3 + 1j)},
        "ModuliPoint(words=(Word(letters=(1,)), Word(letters=(2,))), "
        "traces=((3+0j), (3-1j)))",
    ),
    (
        Network,
        {"vertices": (1, 2), "edges": ((1, 1, 2),), "areas": (("all", (1, 2)),)},
        {"vertices": (1, 2), "edges": ((1, 2, 1),), "areas": (("all", (1, 2)),)},
        "Network(vertices=(1, 2), edges=((1, 1, 2),), areas=(('all', (1, 2)),))",
    ),
    (
        LoopBasis,
        {"spanning_tree": frozenset({1}), "generators": (2, 3), "n_components": 1},
        {"spanning_tree": frozenset({2}), "generators": (1, 3), "n_components": 1},
        "LoopBasis(spanning_tree=frozenset({1}), generators=(2, 3), n_components=1)",
    ),
    (
        SubgroupGraph,
        {"n_vertices": 2, "out_a": (0, 2, 1), "out_b": (0, 1, 0)},
        {"n_vertices": 2, "out_a": (0, 2, 1), "out_b": (0, 1, 2)},
        "SubgroupGraph(n_vertices=2, out_a=(0, 2, 1), out_b=(0, 1, 0))",
    ),
    (
        Dessin,
        {
            "n_darts": 2,
            "sigma0": (0, 2, 1),
            "sigma1": (0, 1, 2),
            "black_cycles": ((1, 2),),
            "white_cycles": ((1,), (2,)),
            "face_cycles": ((1, 2),),
        },
        {
            "n_darts": 2,
            "sigma0": (0, 1, 2),
            "sigma1": (0, 2, 1),
            "black_cycles": ((1,), (2,)),
            "white_cycles": ((1, 2),),
            "face_cycles": ((1, 2),),
        },
        "Dessin(n_darts=2, sigma0=(0, 2, 1), sigma1=(0, 1, 2), black_cycles=((1, 2),), "
        "white_cycles=((1,), (2,)), face_cycles=((1, 2),))",
    ),
    (
        LengthVector,
        {"classes": CLASSES, "values": (1.0, 0.5), "scale": 2.0},
        {"classes": CLASSES, "values": (1.0, 0.5), "scale": 1.0},
        "LengthVector(classes=ConjugacyClassList(representatives=(Word(letters=(1,)), "
        "Word(letters=(2,))), max_length=1, rank=2, folded=False), values=(1.0, 0.5), "
        "scale=2.0)",
    ),
    (
        RepFamily,
        {"name": "diagonals", "rank": 2, "builder": _two_diagonals},
        {"name": "diagonals", "rank": 1, "builder": _two_diagonals},
        f"RepFamily(name='diagonals', rank=2, builder={_two_diagonals!r})",
    ),
    (
        TreeLimitReport,
        {
            "deltas": (0.25, 0.125),
            "converged": True,
            "oracle_distance": 0.01,
            "oracle_ok": True,
            "symmetry_residual": 0.0,
            "symmetry_ok": True,
            "homogeneity_residual": 1e-12,
            "homogeneity_ok": True,
        },
        {
            "deltas": (0.25, 0.125),
            "converged": True,
            "oracle_distance": 0.01,
            "oracle_ok": False,
            "symmetry_residual": 0.0,
            "symmetry_ok": True,
            "homogeneity_residual": 1e-12,
            "homogeneity_ok": True,
        },
        "TreeLimitReport(deltas=(0.25, 0.125), converged=True, oracle_distance=0.01, "
        "oracle_ok=True, symmetry_residual=0.0, symmetry_ok=True, "
        "homogeneity_residual=1e-12, homogeneity_ok=True)",
    ),
    (AreaState, {"a": 1, "b": 0.5j}, {"a": 1, "b": -0.5j}, "AreaState(a=(1+0j), b=0.5j)"),
    (NotGate, {"area": 3}, {"area": 2}, "NotGate(area=3)"),
    (
        SU2Gate,
        {"area": 1, "matrix": HADAMARD},
        {"area": 2, "matrix": HADAMARD},
        "SU2Gate(area=1, matrix=Matrix2C(a=0.7071067811865476j, b=0.7071067811865476j, "
        "c=0.7071067811865476j, d=(-0-0.7071067811865476j)))",
    ),
    (
        CNOTGate,
        {"control": 1, "target": 2},
        {"control": 2, "target": 1},
        "CNOTGate(control=1, target=2)",
    ),
]


def _ids(records):
    return [entry[0].__name__ for entry in records]


@pytest.mark.parametrize("cls,fields,other,text", VALUE_RECORDS, ids=_ids(VALUE_RECORDS))
def test_value_record(cls, fields, other, text):
    x = cls(**fields)
    assert repr(x) == text
    assert cls(*fields.values()) == x
    assert x != cls(**other)
    assert hash(x) == hash(tuple(fields.values()))
    assert x.__eq__(tuple(fields.values())) is NotImplemented
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(x, name, other[name])
    assert getattr(x, name) == fields[name]
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x and hash(y) == hash(x)


def test_value_records_keep_their_defaults():
    assert Word() == Word(())
    assert ConjugacyClassList((A,), 1, 1) == ConjugacyClassList((A,), 1, 1, False)
    assert IsometryClass("parabolic") == IsometryClass("parabolic", 0.0)
    assert LengthVector(CLASSES, (1.0, 0.5)) == LengthVector(CLASSES, (1.0, 0.5), 1.0)


@pytest.mark.parametrize("cls,fields,other,text", VALUE_RECORDS, ids=_ids(VALUE_RECORDS))
def test_value_record_misbinding_raises_type_error(cls, fields, other, text):
    values = list(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError, match="were given"):
        cls(*values, values[-1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        cls(**fields, no_such_field=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(values[0], **fields)
    if cls is not Word:  # a Word's only field defaults to the empty word
        with pytest.raises(TypeError, match=f"missing .*'{first}'"):
            cls(**{k: v for k, v in fields.items() if k != first})


def test_record_binds_positional_keyword_and_default_fields():
    assert ConjugacyClassList((A, B), 1, rank=2) == CLASSES
    assert Matrix2C(1.0, 0.5j, d=1.0, c=0.0) == SHEAR
    cloud = _cloud()
    by_keyword = LimitPointCloud(cloud.values, cloud.charts, epsilon=0.001, max_depth=30)
    assert by_keyword.truncated is False and by_keyword.max_depth == 30
    with pytest.raises(TypeError):
        LimitPointCloud(cloud.values, cloud.charts, 0.001)


def test_value_records_keep_their_checks():
    with pytest.raises(WordError, match="not freely reduced"):
        Word((1, -1))
    with pytest.raises(RepresentationError, match="unknown isometry kind"):
        IsometryClass("rotation")
    with pytest.raises(DegenerationError, match="does not match"):
        LengthVector(CLASSES, (1.0,))
    with pytest.raises(DessinError, match="not folded"):
        SubgroupGraph(2, (0, 1, 1), (0, 0, 0))
    with pytest.raises(QnetError, match="positive integer"):
        NotGate(0)
    with pytest.raises(QnetError, match="not unitary"):
        SU2Gate(1, DIAG)
    with pytest.raises(QnetError, match="distinct"):
        CNOTGate(2, 2)
    with pytest.raises(QnetError, match="area count"):
        TensorState(0, np.ones(1))
    assert build_dessin((0, 2, 1), (0, 1, 2)) == Dessin(**VALUE_RECORDS[9][1])


def _cloud():
    return LimitPointCloud(
        np.array([1 + 2j, -0.5 + 0j]), np.array([0, 1], dtype=np.int8), 0.001, 30
    )


def _state():
    return TensorState(1, [1, 0])


# (factory, repr, field names)
IDENTITY_RECORDS = [
    (
        _cloud,
        "LimitPointCloud(values=array([ 1. +2.j, -0.5+0.j]), charts=array([0, 1], "
        "dtype=int8), epsilon=0.001, max_depth=30, truncated=False)",
        ("values", "charts", "epsilon", "max_depth", "truncated"),
    ),
    (
        _state,
        "TensorState(n_areas=1, amplitudes=array([1.+0.j, 0.+0.j]))",
        ("n_areas", "amplitudes"),
    ),
]


@pytest.mark.parametrize(
    "factory,text,names", IDENTITY_RECORDS, ids=["LimitPointCloud", "TensorState"]
)
def test_identity_record(factory, text, names):
    x = factory()
    assert repr(x) == text
    assert x == x and x != factory()
    assert hash(x) == object.__hash__(x)
    with pytest.raises(AttributeError):
        setattr(x, names[0], None)
    for y in (copy.copy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y != x
        for name in names:
            assert np.array_equal(getattr(y, name), getattr(x, name))


def test_tensor_state_holds_a_read_only_copy():
    amps = np.array([0.6, 0.8j])
    state = TensorState(1, amps)
    assert state.amplitudes is not amps and state.amplitudes.dtype == np.complex128
    assert not state.amplitudes.flags.writeable


def test_gate_repr_in_the_area_count_message(tmp_path):
    path = tmp_path / "circuit.txt"
    path.write_text("init 1 1 0 0 0\ninit 2 1 0 0 0\nNOT 3\n")
    code, out, err = run_module("qnet", "--circuit", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "error: gate NotGate(area=3) references area 3 but only 2 areas are initialized\n"
    )
