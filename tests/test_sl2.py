import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinnet.errors import NotUnimodularError, RepresentationError
from kleinnet.sl2 import (
    Matrix2C,
    _dist_to_plus_minus_identity,
    check_unimodular,
    classify,
    character,
    conjugate_rep,
    evaluate,
    format_rep_text,
    make_rep,
    moduli_point,
    morgan_shalen_vector,
    parse_rep_text,
    random_loxodromic,
    random_sl2,
    translation_length_arccosh,
)
from kleinnet.words import Word, random_word


# integer triple with all three traces equal to 3; the commutator trace is
# exactly -2 in integer arithmetic
A333 = Matrix2C(1, 1, 1, 2)
B333 = Matrix2C(1, -1, -1, 2)

LOG5 = 1.6094379124341003
E_PLUS_INV = 3.0861612696304874
LOG_E_PLUS_INV_PLUS_2 = 1.6265233750364456


def schottky_pair(t):
    a = Matrix2C.diagonal(math.exp(t), math.exp(-t))
    b = Matrix2C(math.cosh(t), math.sinh(t), math.sinh(t), math.cosh(t))
    return a, b


def test_matmul_inverse_identity():
    m = Matrix2C(2.0, 1.0, 3.0, 2.0)  # det 1
    assert m.det == 1.0
    prod = m @ m.inverse()
    assert prod.max_abs_diff(Matrix2C.identity()) == 0.0
    assert (Matrix2C.identity() @ m).entries() == m.entries()


def test_unimodular_gate_rejects_and_scales():
    with pytest.raises(NotUnimodularError):
        make_rep([Matrix2C(2.0, 0.0, 0.0, 1.0), B333])
    # at t=20 cosh and sinh coincide in doubles, so the float det of the
    # second generator is 0.0; the entry-scaled tolerance must accept it
    a, b = schottky_pair(20.0)
    assert b.det == 0.0
    rep = make_rep([a, b])
    assert rep.rank == 2


@pytest.mark.parametrize("entry", [math.nan, math.inf, 1e200])
def test_unimodular_gate_names_no_nonfinite_determinant(entry):
    # 1e200 is finite, but its square overflows the determinant
    with pytest.raises(NotUnimodularError) as info:
        check_unimodular(Matrix2C(entry, 1.0, 1.0, entry))
    assert "not finite" in str(info.value)
    assert "nan" not in str(info.value) and "inf" not in str(info.value)


def test_triple_3_3_3_is_exact():
    rep = make_rep([A333, B333])
    wa, wb = Word((1,)), Word((2,))
    assert character(rep, wa) == 3
    assert character(rep, wb) == 3
    assert character(rep, wa * wb) == 3
    comm = Word((1, 2, -1, -2))
    assert character(rep, comm) == -2


def test_commutator_trace_identity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        rep = make_rep([random_sl2(rng, 0.8), random_sl2(rng, 0.8)])
        x = character(rep, Word((1,)))
        y = character(rep, Word((2,)))
        z = character(rep, Word((1, 2)))
        got = character(rep, Word((1, 2, -1, -2)))
        want = x * x + y * y + z * z - x * y * z - 2.0
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_trace_sum_identity_random_words():
    # tr(UV) + tr(UV^-1) = tr(U) tr(V) for any pair of group elements
    rng = np.random.default_rng(5)
    for _ in range(200):
        rep = make_rep([random_sl2(rng, 0.7), random_sl2(rng, 0.7)])
        u = random_word(rng, 2, int(rng.integers(1, 6)))
        v = random_word(rng, 2, int(rng.integers(1, 6)))
        lhs = character(rep, u * v) + character(rep, u * v.inverse())
        rhs = character(rep, u) * character(rep, v)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


def test_character_is_conjugation_invariant():
    rng = np.random.default_rng(23)
    rep = make_rep([random_sl2(rng), random_sl2(rng)])
    g = random_sl2(rng)
    crep = conjugate_rep(rep, g)
    for text in ("a", "b", "ab", "abAB", "aabAB"):
        w = Word.from_text(text)
        assert abs(character(rep, w) - character(crep, w)) <= 1e-7


def test_evaluate_is_a_homomorphism():
    rng = np.random.default_rng(40)
    rep = make_rep([random_sl2(rng, 0.6), random_sl2(rng, 0.6)])
    for _ in range(50):
        u = random_word(rng, 2, int(rng.integers(0, 5)))
        v = random_word(rng, 2, int(rng.integers(0, 5)))
        lhs = evaluate(rep, u * v)
        rhs = evaluate(rep, u) @ evaluate(rep, v)
        assert lhs.max_abs_diff(rhs) <= 1e-9 * max(1.0, rhs.scale())


def test_classify_identity_and_minus_identity():
    assert classify(Matrix2C.identity()).kind == "identity"
    assert classify(Matrix2C(-1.0, 0.0, 0.0, -1.0)).kind == "identity"


def test_classify_parabolic_elliptic():
    assert classify(Matrix2C(1.0, 1.0, 0.0, 1.0)).kind == "parabolic"
    assert classify(Matrix2C(-1.0, 5.0, 0.0, -1.0)).kind == "parabolic"
    c, s = math.cos(0.7), math.sin(0.7)
    rot = Matrix2C(c, -s, s, c)
    assert classify(rot).kind == "elliptic"
    assert classify(rot).translation_length == 0.0


def test_classify_loxodromic_exact_length():
    m = Matrix2C.diagonal(math.e, 1.0 / math.e)
    cls = classify(m)
    assert cls.kind == "loxodromic"
    assert cls.translation_length == 2.0
    assert abs(m.trace - E_PLUS_INV) == 0.0


def test_classify_complex_trace_is_loxodromic():
    # screw motion: rotation plus translation, trace off the real axis
    mu = complex(math.cos(1.0), math.sin(1.0)) * math.exp(0.5)
    m = Matrix2C.diagonal(mu, 1.0 / mu)
    cls = classify(m)
    assert cls.kind == "loxodromic"
    assert abs(cls.translation_length - 1.0) <= 1e-12


def test_huge_trace_length_branch():
    a, b = schottky_pair(20.0)
    rep = make_rep([a, b])
    m = evaluate(rep, Word((1, 1, 1, 1)))
    assert classify(m).translation_length == 160.0
    # the arccosh route handles the same magnitudes without overflow
    assert abs(translation_length_arccosh(m) - 160.0) <= 1e-9 * 160.0


def test_length_formulas_agree_random():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        m = random_loxodromic(rng)
        cls = classify(m)
        assert cls.kind == "loxodromic"
        other = translation_length_arccosh(m)
        assert math.isclose(cls.translation_length, other, rel_tol=1e-8, abs_tol=1e-8)


def test_length_is_a_class_function():
    rng = np.random.default_rng(78)
    rep = make_rep([random_loxodromic(rng), random_sl2(rng)])
    for _ in range(50):
        w = random_word(rng, 2, int(rng.integers(1, 5)))
        u = random_word(rng, 2, int(rng.integers(1, 4)))
        conj = u * w * u.inverse()
        lw = classify(evaluate(rep, w)).translation_length
        lc = classify(evaluate(rep, conj)).translation_length
        assert abs(lw - lc) <= 1e-8 * max(1.0, lw)


def test_length_power_law():
    rng = np.random.default_rng(79)
    for _ in range(60):
        m = random_loxodromic(rng)
        base = classify(m).translation_length
        p = m
        for n in range(2, 6):
            p = p @ m
            assert abs(classify(p).translation_length - n * base) <= 1e-6 * max(
                1.0, n * base
            )


def test_character_of_inverse_equals_character():
    rng = np.random.default_rng(80)
    rep = make_rep([random_sl2(rng), random_sl2(rng)])
    for _ in range(50):
        w = random_word(rng, 2, int(rng.integers(0, 6)))
        assert abs(character(rep, w) - character(rep, w.inverse())) <= 1e-9


@settings(max_examples=60)
@given(st.floats(min_value=0.1, max_value=5.0))
def test_diagonal_length_matches_parameter(t):
    m = Matrix2C.diagonal(math.exp(t), math.exp(-t))
    assert math.isclose(classify(m).translation_length, 2.0 * t, rel_tol=1e-12)


def test_log_trace_coordinates_frozen_values():
    rep = make_rep([A333, B333])
    words = [Word((1,)), Word((2,)), Word((1, 2))]
    vec = morgan_shalen_vector(rep, words)
    assert vec == [LOG5, LOG5, LOG5]

    m = Matrix2C.diagonal(math.e, 1.0 / math.e)
    rep1 = make_rep([m])
    assert morgan_shalen_vector(rep1, [Word((1,))]) == [LOG_E_PLUS_INV_PLUS_2]


def test_trivial_rep_values():
    ident = Matrix2C.identity()
    rep = make_rep([ident, ident])
    words = [Word((1,)), Word((2,)), Word((1, 2))]
    assert moduli_point(rep).traces == (2.0 + 0j, 2.0 + 0j, 2.0 + 0j)
    log4 = 1.3862943611198906
    assert morgan_shalen_vector(rep, words) == [log4, log4, log4]
    assert classify(evaluate(rep, Word((1, 2, -1)))).kind == "identity"


def test_evaluate_diagonal_powers():
    rep = make_rep([Matrix2C.diagonal(math.e, 1.0 / math.e)])
    m = evaluate(rep, Word.from_text("aa"))
    assert abs(m.a - math.e**2) <= 1e-12
    assert abs(m.d - math.e**-2) <= 1e-15
    assert m.b == 0.0 and m.c == 0.0
    assert evaluate(rep, Word(())).entries() == Matrix2C.identity().entries()


def test_moduli_point_default_and_agreement():
    rep = make_rep([A333, B333])
    mp = moduli_point(rep)
    assert [w.text() for w in mp.words] == ["a", "b", "ab"]
    assert mp.traces == (3.0 + 0j, 3.0 + 0j, 3.0 + 0j)

    rng = np.random.default_rng(9)
    crep = conjugate_rep(rep, random_sl2(rng))
    assert moduli_point(crep).agrees(mp, tol=1e-7)

    other = make_rep([B333, A333])
    assert moduli_point(other).agrees(mp, tol=1e-7)  # same traces by symmetry

    rep1 = make_rep([A333])
    with pytest.raises(RepresentationError):
        moduli_point(rep1)


def test_rep_text_round_trip_is_exact():
    rng = np.random.default_rng(101)
    mats = [random_sl2(rng), random_loxodromic(rng)]
    text = format_rep_text(mats)
    back = parse_rep_text(text)
    assert len(back) == 2
    for m, n in zip(mats, back):
        assert m.entries() == n.entries()
    assert format_rep_text(back) == text


def test_rep_file_io(tmp_path):
    from kleinnet.sl2 import load_rep, save_rep

    path = tmp_path / "rep.txt"
    save_rep(path, [A333, B333])
    mats = load_rep(path)
    assert mats[0].entries() == A333.entries()
    assert mats[1].entries() == B333.entries()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a 1,0 0,0 0,0\n",  # three entries
        "q 1,0 0,0 0,0 1,0 extra\n",
        "a 1;0 0,0 0,0 1,0\n",
        "a 1,0 0,0 0,0 1,0\na 1,0 0,0 0,0 1,0\n",  # duplicate
        "b 1,0 0,0 0,0 1,0\n",  # skips a
        "a x,0 0,0 0,0 1,0\n",
        "a nan,0 0,0 0,0 1,0\n",
        "a 1,0 0,inf 0,0 1,0\n",
        "a 1,0 0,0 1e400,0 1,0\n",
    ],
)
def test_rep_parse_errors(text):
    with pytest.raises(RepresentationError):
        parse_rep_text(text)


def test_rep_text_ignores_comments_and_blanks():
    text = "# sample\n\na 1.0,0.0 1.0,0.0 1.0,0.0 2.0,0.0  # upper\n"
    mats = parse_rep_text(text)
    assert mats[0].entries() == A333.entries()


def test_random_sl2_is_unimodular():
    rng = np.random.default_rng(55)
    for _ in range(300):
        m = random_sl2(rng)
        assert abs(m.det - 1.0) <= 1e-12


def test_random_loxodromic_classifies():
    rng = np.random.default_rng(56)
    for _ in range(100):
        assert classify(random_loxodromic(rng)).kind == "loxodromic"


def test_evaluate_rejects_out_of_rank_letters():
    rep = make_rep([A333])
    with pytest.raises(RepresentationError):
        evaluate(rep, Word((2,)))


def test_make_rep_rejects_empty_list():
    with pytest.raises(RepresentationError, match="at least one generator"):
        make_rep([])


def test_rep_rank_is_generator_count():
    assert make_rep([A333]).rank == 1
    assert make_rep([A333, B333, A333]).rank == 3


# Python's max and min keep an earlier number over a later NaN, so a NaN in
# any entry position must still reach the result.
@pytest.mark.parametrize("position", range(4), ids=["a", "b", "c", "d"])
def test_entry_differences_propagate_nan(position):
    entries = [1.0, 0.0, 0.0, 1.0]
    entries[position] = math.nan
    m = Matrix2C(*entries)
    assert math.isnan(m.max_abs_diff(Matrix2C.identity()))
    assert math.isnan(Matrix2C.identity().max_abs_diff(m))
    assert math.isnan(_dist_to_plus_minus_identity(m))
