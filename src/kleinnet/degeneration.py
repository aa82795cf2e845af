"""One-parameter families of representations pushed toward infinity.

The observable is the per-class translation-length vector, rescaled by its
sup-norm.  For the built-in stretched pair the rescaled vectors converge to
the projectivized cyclic word length, which is the translation length
function of an action on a tree; `tree_limit_check` measures the distance to
that oracle and the length-function axioms on the final sample.

The class matrices come from the prefix trie of the representatives: each
distinct prefix costs one product M(w l) = M(w) @ g_l, which is the product
`sl2.evaluate` makes at that step, so every matrix is bit for bit the same.
Each is classified through `sl2.classify_entries`, the path `sl2.classify`
takes.  The report finds the inverse class of w by looking up the rotations
of w^-1's letters in the class index, which holds only necklaces, and the
power w^n of a necklace w by w repeated, so it makes no `Word` and takes no
least rotation per lookup.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Sequence

from ._record import Record
from .errors import DegenerationError, RepresentationError
from .sl2 import Entries, Matrix2C, Representation, make_rep
from .sl2 import classify_entries, mul_entries
from .words import ConjugacyClassList, cyclically_reduce

__all__ = [
    "LengthVector",
    "RepFamily",
    "TreeLimitReport",
    "length_vector",
    "projectivize",
    "sup_delta",
    "sweep",
    "cyclic_length_oracle",
    "tree_limit_check",
    "schottky_family",
    "laurent_family",
    "format_sweep_csv",
    "write_sweep_csv",
]

CAUCHY_TOL = 1e-2
AXIOM_TOL = 1e-3
ORACLE_TOL = 2e-2


class LengthVector(Record):
    """Translation lengths per conjugacy class, with the scale divided out.

    `scale` is 1 for raw vectors; after `projectivize` it holds the sup-norm
    of the raw values and the values have sup-norm 1.
    """

    __slots__ = ("classes", "values", "scale")

    def __init__(
        self, classes: ConjugacyClassList, values: tuple[float, ...], scale: float = 1.0
    ) -> None:
        if len(values) != len(classes):
            raise DegenerationError("length vector does not match its class list")
        if any(v < 0.0 for v in values):
            raise DegenerationError("translation lengths are nonnegative")
        super().__init__(classes, values, scale)

    def sup(self) -> float:
        return max(self.values) if self.values else 0.0


def _trie_walk(classes: ConjugacyClassList) -> list[tuple[int, int]]:
    """The class representatives in depth-first order of their prefix trie,
    as (class index, letters shared with the previous word in that order).
    Lexicographic order puts each prefix's extensions together, so a walk
    that keeps the products of the current word's prefixes makes exactly
    one product per distinct prefix."""
    letters = [w.letters for w in classes]
    walk = []
    prev: tuple[int, ...] = ()
    for i in sorted(range(len(letters)), key=letters.__getitem__):
        w = letters[i]
        n = min(len(w), len(prev))
        k = 0
        while k < n and w[k] == prev[k]:
            k += 1
        walk.append((i, k))
        prev = w
    return walk


def _class_matrices(
    rep: Representation, classes: ConjugacyClassList, walk: list[tuple[int, int]]
) -> Iterator[tuple[int, Entries]]:
    """(class index, entries a, b, c, d of its image) for every class, in
    the order of `walk`, the class list's `_trie_walk`.  M(w l) = M(w) @ g_l
    is taken once per distinct prefix, from the identity, with
    `sl2.mul_entries` on the operands `sl2.evaluate` gives it, so each
    matrix is bit for bit `evaluate(rep, w)`.  Only the products along the
    current word are held."""
    gens: dict[int, Entries] = {}
    for k, (g, h) in enumerate(zip(rep.images, rep.inverses), start=1):
        gens[k] = (g.a, g.b, g.c, g.d)
        gens[-k] = (h.a, h.b, h.c, h.d)
    path: list[Entries] = [(1.0, 0.0, 0.0, 1.0)]
    try:
        for i, shared in walk:
            del path[shared + 1:]
            m = path[-1]
            for letter in classes[i].letters[shared:]:
                m = mul_entries(m, gens[letter])
                path.append(m)
            yield i, m
    except KeyError:
        w = next(w for w in classes if w.max_index() > rep.rank)
        raise RepresentationError(
            f"word {w.text()!r} uses generator {w.max_index()} beyond rank {rep.rank}"
        ) from None


def _length_vector(
    rep: Representation, classes: ConjugacyClassList, walk: list[tuple[int, int]]
) -> LengthVector:
    if len(classes) == 0:
        raise DegenerationError("empty class list")
    values = [0.0] * len(classes)
    failed: tuple[int, RepresentationError] | None = None
    for i, m in _class_matrices(rep, classes, walk):
        try:
            values[i] = classify_entries(*m)[1]
        except RepresentationError as exc:
            # report the first failing class in class order, as a loop
            # over the classes would
            if failed is None or i < failed[0]:
                failed = (i, exc)
    if failed is not None:
        raise failed[1]
    return LengthVector(classes, tuple(values), 1.0)


def length_vector(rep: Representation, classes: ConjugacyClassList) -> LengthVector:
    return _length_vector(rep, classes, _trie_walk(classes))


def projectivize(v: LengthVector) -> LengthVector:
    top = v.sup()
    if top == 0.0:
        raise DegenerationError("fixed point: length function vanishes")
    if top == 1.0:
        return v
    return LengthVector(v.classes, tuple(x / top for x in v.values), v.scale * top)


def sup_delta(u: LengthVector, v: LengthVector) -> float:
    if u.classes.representatives != v.classes.representatives:
        raise DegenerationError("length vectors use different class lists")
    return max(abs(x - y) for x, y in zip(u.values, v.values))


class RepFamily(Record):
    """A rule t -> Representation for positive t, validated at each sample:
    `builder(t)` returns the `rank` generator matrices of the family `name`."""

    __slots__ = ("name", "rank", "builder")

    def build(self, t: float) -> Representation:
        if not math.isfinite(t):
            raise DegenerationError("family parameter must be finite")
        if not t > 0.0:
            raise DegenerationError(f"family parameter must be positive, got {t}")
        try:
            matrices = list(self.builder(t))
        except OverflowError:
            raise DegenerationError(
                f"family {self.name!r} overflows at t = {t:g}"
            ) from None
        if len(matrices) != self.rank:
            raise DegenerationError(
                f"family {self.name!r} has rank {self.rank}, "
                f"got {len(matrices)} matrices"
            )
        return make_rep(matrices)


def schottky_family() -> RepFamily:
    """The built-in stretched pair: a diagonal stretch and its 45-degree
    rotation.  Ping-pong applies for large t, so the group is free and the
    limiting length function is exactly the cyclic word length."""

    def builder(t: float) -> list[Matrix2C]:
        a = Matrix2C.diagonal(math.exp(t), math.exp(-t))
        b = Matrix2C(math.cosh(t), math.sinh(t), math.sinh(t), math.cosh(t))
        return [a, b]

    return RepFamily("schottky", 2, builder)


LaurentEntry = Mapping[int, complex]


def laurent_family(
    name: str,
    entries: Sequence[Sequence[Sequence[LaurentEntry]]],
) -> RepFamily:
    """Family with matrix entries given as Laurent polynomials in e^t.

    `entries[g][i][j]` maps integer powers k to coefficients c, meaning the
    (i,j) entry of generator g is sum c * e^(k t).
    """
    gens = []
    for g, rows in enumerate(entries):
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise DegenerationError(f"generator {g + 1}: expected a 2x2 entry table")
        gens.append(tuple(tuple(dict(cell) for cell in row) for row in rows))
    if not gens:
        raise DegenerationError("family needs at least one generator")

    def builder(t: float) -> list[Matrix2C]:
        mats = []
        for rows in gens:
            cells = [
                sum((c * math.exp(k * t) for k, c in cell.items()), 0j)
                for row in rows
                for cell in row
            ]
            mats.append(Matrix2C(*cells))
        return mats

    return RepFamily(name, len(gens), builder)


def sweep(
    family: RepFamily,
    classes: ConjugacyClassList,
    t_values: Sequence[float],
) -> list[LengthVector]:
    """Projectivized length vector at each t, in the order of t_values."""
    ts = list(t_values)
    if len(ts) < 2:
        raise DegenerationError("sweep needs at least two parameter values")
    if not all(map(math.isfinite, ts)):
        raise DegenerationError("sweep parameter values must be finite")
    if any(not b > a for a, b in zip(ts, ts[1:])):
        raise DegenerationError("sweep parameter values must increase")

    walk = _trie_walk(classes)
    return [projectivize(_length_vector(family.build(t), classes, walk)) for t in ts]


def cyclic_length_oracle(classes: ConjugacyClassList) -> LengthVector:
    """Projectivized cyclically-reduced word length: the translation length
    function of the free action on the Cayley tree."""
    lengths = [float(len(cyclically_reduce(w))) for w in classes]
    raw = LengthVector(classes, tuple(lengths), 1.0)
    return projectivize(raw)


def _class_index(classes: ConjugacyClassList) -> dict[tuple[int, ...], int]:
    return {w.letters: i for i, w in enumerate(classes)}


class TreeLimitReport(Record):
    """Convergence evidence for one sweep: Cauchy deltas, distance of the
    final vector to the cyclic-length oracle, and the two length-function
    axioms checked on the final vector.  `deltas` holds the sup-norm
    distances between consecutive vectors; `converged` and each `*_ok` flag
    say whether the value before it is within its tolerance."""

    __slots__ = (
        "deltas",
        "converged",
        "oracle_distance",
        "oracle_ok",
        "symmetry_residual",
        "symmetry_ok",
        "homogeneity_residual",
        "homogeneity_ok",
    )

    @property
    def passed(self) -> bool:
        return (
            self.converged and self.oracle_ok and self.symmetry_ok
            and self.homogeneity_ok
        )

    def to_json(self) -> str:
        # imported here: a sweep without --report loads no json
        import json

        payload = {name: getattr(self, name) for name in self.__slots__}
        payload["passed"] = self.passed
        return json.dumps(payload, sort_keys=True, indent=2)


def _axiom_residuals(final: LengthVector) -> tuple[float, float]:
    """Largest |l(w) - l(w^-1)| and |l(w^n) - n l(w)| over the classes whose
    inverse or power is in the list.  The representatives are necklaces, so
    the necklace of w^n is w repeated n times, and the index holds no other
    rotation: the first rotation of w^-1 found in it is w^-1's necklace.
    Each inverse pair is looked up once, from its first class."""
    classes = final.classes
    values = final.values
    index = _class_index(classes)
    paired = set()
    sym = 0.0
    hom = 0.0
    for i, w in enumerate(classes):
        letters = w.letters
        if not letters:
            continue
        x = values[i]
        if i not in paired:
            inverse = tuple([-l for l in reversed(letters)])
            for k in range(len(inverse)):
                j = index.get(inverse[k:] + inverse[:k])
                if j is not None:
                    sym = max(sym, abs(x - values[j]))
                    paired.add(j)
                    break
        n = 2
        while n * len(letters) <= classes.max_length:
            j = index.get(letters * n)
            if j is not None:
                hom = max(hom, abs(values[j] - n * x))
            n += 1
    return sym, hom


def tree_limit_check(
    vectors: Sequence[LengthVector],
    classes: ConjugacyClassList,
) -> TreeLimitReport:
    if len(vectors) < 2:
        raise DegenerationError("need at least two vectors to check convergence")
    deltas = tuple(
        sup_delta(u, v) for u, v in zip(vectors, vectors[1:])
    )
    final = vectors[-1]
    oracle = cyclic_length_oracle(classes)
    distance = sup_delta(final, oracle)
    sym, hom = _axiom_residuals(final)
    return TreeLimitReport(
        deltas=deltas,
        converged=deltas[-1] < CAUCHY_TOL,
        oracle_distance=distance,
        oracle_ok=distance < ORACLE_TOL,
        symmetry_residual=sym,
        symmetry_ok=sym <= AXIOM_TOL,
        homogeneity_residual=hom,
        homogeneity_ok=hom <= AXIOM_TOL,
    )


def format_sweep_csv(
    t_values: Sequence[float], vectors: Sequence[LengthVector]
) -> str:
    if len(t_values) != len(vectors):
        raise DegenerationError("one vector per parameter value required")
    if not vectors:
        raise DegenerationError("empty sweep")
    words = vectors[0].classes.words_text()
    lines = ["t,lambda," + ",".join(words)]
    for t, vec in zip(t_values, vectors):
        row = ",".join(["%.9g"] * (len(vec.values) + 2))
        lines.append(row % (t, vec.scale, *vec.values))
    return "\n".join(lines) + "\n"


def write_sweep_csv(path, t_values, vectors) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_sweep_csv(t_values, vectors))
