import json
import math

import numpy as np
import pytest

from kleinnet import degeneration
from kleinnet.degeneration import (
    LengthVector,
    RepFamily,
    cyclic_length_oracle,
    format_sweep_csv,
    laurent_family,
    length_vector,
    projectivize,
    schottky_family,
    sup_delta,
    sweep,
    tree_limit_check,
    write_sweep_csv,
)
from kleinnet.degeneration import _axiom_residuals, _class_matrices, _trie_walk
from kleinnet.errors import DegenerationError, RepresentationError
from kleinnet.sl2 import (
    Matrix2C,
    conjugate_rep,
    evaluate,
    make_rep,
    random_loxodromic,
    random_sl2,
)
from kleinnet.words import ConjugacyClassList, Word, enumerate_classes, necklace

T_GRID = [5.0, 10.0, 15.0, 20.0]

# cyclic lengths 1, 1, 2 sup-normalized
ABAB_CLASSES = ConjugacyClassList(
    representatives=(Word((1,)), Word((2,)), Word((1, 2))),
    max_length=2,
    rank=2,
    folded=False,
)


def diag_rep(x):
    return make_rep([Matrix2C.diagonal(x, 1.0 / x)])


def test_length_vector_diagonal_powers():
    rep = diag_rep(math.e)
    classes = ConjugacyClassList(
        representatives=(Word((1,)), Word((1, 1))), max_length=2, rank=1, folded=True
    )
    vec = length_vector(rep, classes)
    assert vec.values[0] == 2.0
    assert abs(vec.values[1] - 4.0) <= 1e-12
    assert vec.scale == 1.0


def test_length_vector_trivial_rep_is_zero():
    rep = make_rep([Matrix2C.identity(), Matrix2C.identity()])
    vec = length_vector(rep, ABAB_CLASSES)
    assert vec.values == (0.0, 0.0, 0.0)
    with pytest.raises(DegenerationError, match="vanishes"):
        projectivize(vec)


def test_length_vector_is_a_class_invariant():
    rng = np.random.default_rng(31)
    fam = schottky_family()
    rep = fam.build(2.0)
    crep = conjugate_rep(rep, random_sl2(rng))
    classes = enumerate_classes(2, 3)
    a = length_vector(rep, classes)
    b = length_vector(crep, classes)
    assert sup_delta(a, b) <= 1e-8 * max(a.values)


def _entry_bits(z):
    """The value and the sign of each part of an entry, so that 0.0 and -0.0
    differ; its type as well, since entries may be floats or complex."""
    z_type = type(z)
    z = complex(z)
    return (
        z_type, z.real, math.copysign(1.0, z.real), z.imag, math.copysign(1.0, z.imag)
    )


def _identity_cases():
    rng = np.random.default_rng(1992)
    schottky = schottky_family()
    for fold in (False, True):
        rank2 = enumerate_classes(2, 8, fold_inverses=fold)
        yield make_rep([random_loxodromic(rng), random_loxodromic(rng)]), rank2
        yield schottky.build(5.0), rank2
        yield schottky.build(20.0), rank2
        rank3 = enumerate_classes(3, 5, fold_inverses=fold)
        yield make_rep([random_loxodromic(rng) for _ in range(3)]), rank3


def test_class_matrices_are_evaluate_bit_for_bit():
    for rep, classes in _identity_cases():
        seen = set()
        for i, m in _class_matrices(rep, classes, _trie_walk(classes)):
            want = evaluate(rep, classes[i])
            want_entries = (want.a, want.b, want.c, want.d)
            assert list(map(_entry_bits, m)) == list(map(_entry_bits, want_entries))
            seen.add(i)
        assert seen == set(range(len(classes)))


def test_length_vector_names_a_generator_beyond_the_rank():
    rep = schottky_family().build(1.0)
    with pytest.raises(RepresentationError, match="'c' uses generator 3 beyond rank 2"):
        length_vector(rep, enumerate_classes(3, 2))


def test_projectivize_basics():
    classes = ABAB_CLASSES
    vec = LengthVector(classes, (2.0, 2.0, 4.0), 1.0)
    p = projectivize(vec)
    assert p.values == (0.5, 0.5, 1.0)
    assert p.scale == 4.0
    assert projectivize(p).values == p.values
    assert max(p.values) == 1.0


def test_schottky_limit_small_list():
    fam = schottky_family()
    vecs = sweep(fam, ABAB_CLASSES, [10.0, 20.0])
    final = vecs[-1]
    target = (0.5, 0.5, 1.0)
    assert all(abs(x - y) < 0.01 for x, y in zip(final.values, target))
    # the a entry approaches 0.5 from above at rate ln2/(4t)
    assert abs(final.values[0] - 0.50877) < 1e-4


def test_square_class_tracks_product_class():
    fam = schottky_family()
    classes = ConjugacyClassList(
        representatives=(Word((1,)), Word((1, 1)), Word((1, 2))),
        max_length=2,
        rank=2,
        folded=False,
    )
    gaps = []
    for t in (10.0, 20.0):
        v = sweep(fam, classes, [t / 2.0, t])[-1]
        gaps.append(abs(v.values[1] - v.values[2]))
    assert gaps[-1] < 0.02
    assert gaps[1] < gaps[0]


def test_constant_family_has_zero_deltas():
    mats = [Matrix2C.diagonal(math.e, 1.0 / math.e), Matrix2C(2.0, 1.0, 3.0, 2.0)]
    fam = RepFamily("constant", 2, lambda t: mats)
    vecs = sweep(fam, ABAB_CLASSES, [1.0, 2.0, 3.0])
    report = tree_limit_check(vecs, ABAB_CLASSES)
    assert report.deltas == (0.0, 0.0)
    assert report.converged


def test_deltas_decrease_along_the_grid():
    fam = schottky_family()
    classes = enumerate_classes(2, 4)
    vecs = sweep(fam, classes, T_GRID)
    report = tree_limit_check(vecs, classes)
    assert len(report.deltas) == 3
    assert report.deltas[0] > report.deltas[1] > report.deltas[2]
    expected = (0.0346664398, 0.0115524532, 0.0057762265)
    for got, want in zip(report.deltas, expected):
        assert abs(got - want) < 1e-9
    assert report.converged  # final delta 0.0058 < 1e-2


def test_final_vector_matches_cyclic_length_oracle():
    fam = schottky_family()
    classes = enumerate_classes(2, 4)
    # spacing 5 keeps the final Cauchy delta (0.0058) under the 1e-2 gate;
    # the t=10 to t=20 gap alone is 0.0173
    vecs = sweep(fam, classes, [15.0, 20.0])
    report = tree_limit_check(vecs, classes)
    # distance decays like ln2/(2t): ~0.0173 at t=20
    assert abs(report.oracle_distance - math.log(2.0) / 40.0) < 1e-9
    assert report.oracle_ok
    assert report.symmetry_ok and report.symmetry_residual <= 1e-3
    assert report.homogeneity_ok and report.homogeneity_residual <= 1e-3
    assert report.converged
    assert report.passed


def test_oracle_vector_small_list():
    oracle = cyclic_length_oracle(ABAB_CLASSES)
    assert oracle.values == (0.5, 0.5, 1.0)
    assert oracle.scale == 2.0


def test_single_generator_family_is_linear():
    fam = RepFamily(
        "diag",
        1,
        lambda t: [Matrix2C.diagonal(math.exp(t), math.exp(-t))],
    )
    classes = enumerate_classes(1, 4, fold_inverses=True)
    assert classes.words_text() == ["a", "aa", "aaa", "aaaa"]
    final = sweep(fam, classes, [1.0, 2.0])[-1]
    assert final.values == (0.25, 0.5, 0.75, 1.0)


def test_rescaled_limit_ignores_parameter_scaling():
    fam = schottky_family()
    double = RepFamily("stretched", fam.rank, lambda t: fam.builder(2.0 * t))
    classes = enumerate_classes(2, 4)
    a = sweep(fam, classes, [10.0, 20.0])[-1]
    b = sweep(double, classes, [5.0, 10.0])[-1]
    assert a.scale != b.scale or True  # scales may differ; the point is below
    assert sup_delta(a, b) < 0.01


def test_laurent_family_reproduces_builtin():
    half = 0.5
    lf = laurent_family(
        "stretch-pair",
        [
            [[{1: 1.0}, {}], [{}, {-1: 1.0}]],
            [
                [{1: half, -1: half}, {1: half, -1: -half}],
                [{1: half, -1: -half}, {1: half, -1: half}],
            ],
        ],
    )
    fam = schottky_family()
    for t in (0.5, 3.0, 10.0):
        got = lf.build(t)
        want = fam.build(t)
        assert all(
            g.max_abs_diff(w) == 0.0 for g, w in zip(got.images, want.images)
        )


def test_laurent_family_validation():
    with pytest.raises(DegenerationError):
        laurent_family("bad", [[[{0: 1.0}]]])
    with pytest.raises(DegenerationError):
        laurent_family("empty", [])


def test_family_rejects_nonpositive_parameter():
    fam = schottky_family()
    with pytest.raises(DegenerationError):
        fam.build(0.0)
    with pytest.raises(DegenerationError):
        fam.build(-1.0)
    for t in (math.inf, math.nan):
        with pytest.raises(DegenerationError, match="must be finite"):
            fam.build(t)


def test_family_rejects_builder_of_wrong_rank():
    fam = RepFamily("short", 2, lambda t: [Matrix2C.identity()])
    with pytest.raises(DegenerationError, match="rank 2, got 1"):
        fam.build(1.0)


def test_sweep_validates_grid():
    fam = schottky_family()
    with pytest.raises(DegenerationError):
        sweep(fam, ABAB_CLASSES, [1.0])
    with pytest.raises(DegenerationError):
        sweep(fam, ABAB_CLASSES, [2.0, 1.0])
    with pytest.raises(DegenerationError):
        sweep(fam, ABAB_CLASSES, [1.0, 1.0])
    for ts in ([5.0, math.nan], [math.nan, 5.0], [1.0, math.inf]):
        with pytest.raises(DegenerationError, match="must be finite"):
            sweep(fam, ABAB_CLASSES, ts)


def test_sup_delta_requires_matching_classes():
    u = cyclic_length_oracle(ABAB_CLASSES)
    v = cyclic_length_oracle(enumerate_classes(2, 2))
    with pytest.raises(DegenerationError):
        sup_delta(u, v)


def test_report_json_round_trip():
    fam = schottky_family()
    classes = enumerate_classes(2, 3)
    report = tree_limit_check(sweep(fam, classes, [5.0, 10.0]), classes)
    data = json.loads(report.to_json())
    assert set(data) == {
        "deltas",
        "converged",
        "oracle_distance",
        "oracle_ok",
        "symmetry_residual",
        "symmetry_ok",
        "homogeneity_residual",
        "homogeneity_ok",
        "passed",
    }
    assert data["passed"] == report.passed
    assert len(data["deltas"]) == 1


def _axiom_residuals_reference(final):
    """The residuals with each inverse class found through its necklace."""
    classes = final.classes
    values = final.values
    index = {w.letters: i for i, w in enumerate(classes)}
    sym = hom = 0.0
    for i, w in enumerate(classes):
        j = index.get(necklace(tuple(-l for l in reversed(w.letters))))
        if j is not None:
            sym = max(sym, abs(values[i] - values[j]))
        for n in range(2, classes.max_length // len(w) + 1):
            j = index.get(w.letters * n)
            if j is not None:
                hom = max(hom, abs(values[j] - n * values[i]))
    return sym, hom


@pytest.mark.parametrize(
    "rank, max_len, fold",
    [(1, 6, False), (2, 6, False), (3, 5, False), (2, 6, True)],
)
def test_axiom_residuals_match_the_necklace_reference(rank, max_len, fold):
    classes = enumerate_classes(rank, max_len, fold_inverses=fold)
    rng = np.random.default_rng(rank * 100 + max_len)
    for _ in range(3):
        values = tuple(float(x) for x in rng.random(len(classes)))
        vec = LengthVector(classes, values, 1.0)
        want = _axiom_residuals_reference(vec)
        assert [x.hex() for x in _axiom_residuals(vec)] == [x.hex() for x in want]
        # a folded list holds no class together with its inverse
        assert (want[0] == 0.0) == fold and want[1] > 0.0


def test_sweep_makes_one_product_per_prefix_per_t(monkeypatch):
    classes = enumerate_classes(2, 9)
    prefixes = {w.letters[:k] for w in classes for k in range(1, len(w) + 1)}
    products = []
    mul = degeneration.mul_entries

    def counted(m, g):
        products.append(1)
        return mul(m, g)

    monkeypatch.setattr(degeneration, "mul_entries", counted)
    sweep(schottky_family(), classes, T_GRID)
    assert 0 < len(products) <= len(T_GRID) * len(prefixes)


@pytest.mark.parametrize("fold", [False, True])
def test_report_lookups_are_linear_in_the_letters(monkeypatch, fold):
    classes = enumerate_classes(2, 9, fold_inverses=fold)
    lookups = []

    class Counted(dict):
        def get(self, key, default=None):
            lookups.append(1)
            return super().get(key, default)

    class_index = degeneration._class_index
    monkeypatch.setattr(degeneration, "_class_index", lambda c: Counted(class_index(c)))
    values = tuple(float(len(w)) for w in classes)
    _axiom_residuals(LengthVector(classes, values, 1.0))
    letters = sum(len(w) for w in classes)
    powers = sum(classes.max_length // len(w) - 1 for w in classes)
    # at most one rotation per letter of w^-1, plus one lookup per power;
    # an inverse pair is looked up from one of its two classes only, and an
    # unfolded list holds both classes of every pair
    assert len(lookups) <= (letters if fold else letters // 2) + powers


def test_sweep_csv_format(tmp_path):
    fam = schottky_family()
    ts = [10.0, 20.0]
    vecs = sweep(fam, ABAB_CLASSES, ts)
    text = format_sweep_csv(ts, vecs)
    lines = text.splitlines()
    assert lines[0] == "t,lambda,a,b,ab"
    first = lines[1].split(",")
    assert first[0] == "10"
    # lambda at t=10 over [a, b, ab] is the ab length 4t - 2 ln 2
    assert abs(float(first[1]) - (40.0 - 2.0 * math.log(2.0))) < 1e-6
    assert float(first[2]) == float(first[3])

    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, ts, vecs)
    assert path.read_text(encoding="utf-8") == text


def test_csv_values_use_nine_significant_digits():
    vec = LengthVector(ABAB_CLASSES, (0.123456789123, 0.5, 1.0), 3.0)
    text = format_sweep_csv([1.0], [vec])
    assert "0.123456789" in text
    assert "0.1234567891" not in text
