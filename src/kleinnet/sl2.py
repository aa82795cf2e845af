"""SL(2,C) matrices, representations of free groups, characters, and
isometry classification for the hyperbolic 3-space action.

Unimodularity is checked with a tolerance that scales with the squared entry
magnitude: the float determinant of a matrix with entries of size s carries
O(s^2) ulp noise, so an absolute gate would reject exactly unimodular
matrices that are merely large (stretched families hit this by t ~ 20).
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

from ._record import Record
from .errors import NotUnimodularError, RepresentationError
from .words import ConjugacyClassList, Word

__all__ = [
    "Matrix2C",
    "Representation",
    "IsometryClass",
    "ModuliPoint",
    "make_rep",
    "mul_entries",
    "evaluate",
    "character",
    "classify",
    "classify_entries",
    "translation_length_arccosh",
    "morgan_shalen_coordinate",
    "morgan_shalen_vector",
    "moduli_point",
    "conjugate_rep",
    "random_sl2",
    "random_loxodromic",
    "parse_rep_text",
    "format_rep_text",
    "load_rep",
    "save_rep",
]

# the entries a, b, c, d of a 2x2 matrix, row-major
Entries = tuple[complex, complex, complex, complex]

UNIMODULAR_TOL = 1e-9
CLASSIFY_TOL = 1e-9


def mul_entries(m: Entries, g: Entries) -> Entries:
    """The entries of the product of two 2x2 matrices given by their
    entries a, b, c, d: the one product formula of the package."""
    a, b, c, d = m
    ga, gb, gc, gd = g
    return (a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd)


class Matrix2C(Record):
    """A 2x2 complex matrix, row-major entries a b / c d (complex numbers or
    floats)."""

    __slots__ = ("a", "b", "c", "d")

    @classmethod
    def identity(cls) -> "Matrix2C":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def diagonal(cls, x: complex, y: complex) -> "Matrix2C":
        return cls(complex(x), 0.0, 0.0, complex(y))

    @property
    def trace(self) -> complex:
        return self.a + self.d

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def scale(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def __matmul__(self, other: "Matrix2C") -> "Matrix2C":
        if not isinstance(other, Matrix2C):
            return NotImplemented
        return Matrix2C(*mul_entries(
            (self.a, self.b, self.c, self.d), (other.a, other.b, other.c, other.d)
        ))

    def inverse(self) -> "Matrix2C":
        """Inverse assuming det = 1 (the adjugate)."""
        return Matrix2C(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.a), complex(self.b), complex(self.c), complex(self.d))

    def max_abs_diff(self, other: "Matrix2C") -> float:
        """Largest entry difference in modulus; NaN if any of them is NaN."""
        diffs = (
            abs(self.a - other.a),
            abs(self.b - other.b),
            abs(self.c - other.c),
            abs(self.d - other.d),
        )
        # max keeps an earlier number over a later NaN; a sum of moduli is
        # NaN exactly when one of them is
        if math.isnan(sum(diffs)):
            return math.nan
        return max(diffs)


def check_unimodular(m: Matrix2C) -> None:
    _check_unimodular_entries(m.a, m.b, m.c, m.d)


def _check_unimodular_entries(a: complex, b: complex, c: complex, d: complex) -> None:
    det = a * d - b * c
    if not cmath.isfinite(det):
        raise NotUnimodularError("not unimodular: det is not finite")
    s = max(abs(a), abs(b), abs(c), abs(d))
    bound = UNIMODULAR_TOL * max(1.0, s * s)
    if not abs(det - 1.0) <= bound:
        raise NotUnimodularError(
            f"not unimodular: det = {det:.6g} (tolerance {bound:.3g})"
        )


def _dist_to_plus_minus_identity(m: Matrix2C) -> float:
    ident = Matrix2C.identity()
    neg = Matrix2C(-1.0, 0.0, 0.0, -1.0)
    # a NaN entry makes both distances NaN, so min's order does not matter
    return min(m.max_abs_diff(ident), m.max_abs_diff(neg))


class Representation(Record):
    """A representation of a free group: `images`, the tuple of unimodular
    `Matrix2C` images of its generators, and `inverses`, their inverses
    precomputed in the same order."""

    __slots__ = ("images", "inverses")

    @property
    def rank(self) -> int:
        return len(self.images)


def make_rep(matrices: Sequence[Matrix2C]) -> Representation:
    if not matrices:
        raise RepresentationError("a representation needs at least one generator")
    for i, m in enumerate(matrices):
        try:
            check_unimodular(m)
        except NotUnimodularError as exc:
            raise NotUnimodularError(f"generator {i + 1}: {exc}") from None
    return Representation(tuple(matrices), tuple(m.inverse() for m in matrices))


def evaluate(rep: Representation, word: Word) -> Matrix2C:
    """The word's image, multiplied letter by letter from the identity."""
    m: Entries = (1.0, 0.0, 0.0, 1.0)
    for letter in word.letters:
        k = abs(letter)
        if k > rep.rank:
            raise RepresentationError(
                f"word {word.text()!r} uses generator {k} beyond rank {rep.rank}"
            )
        g = rep.images[k - 1] if letter > 0 else rep.inverses[k - 1]
        m = mul_entries(m, (g.a, g.b, g.c, g.d))
    return Matrix2C(*m)


def character(rep: Representation, word: Word) -> complex:
    """The trace of the word's image (a conjugation invariant)."""
    return evaluate(rep, word).trace


class IsometryClass(Record):
    """Isometry type of the hyperbolic 3-space action, with the translation
    length along the axis (zero unless loxodromic)."""

    __slots__ = ("kind", "translation_length")

    def __init__(
        self,
        kind: str,  # "identity" | "parabolic" | "elliptic" | "loxodromic"
        translation_length: float = 0.0,
    ) -> None:
        if kind not in ("identity", "parabolic", "elliptic", "loxodromic"):
            raise RepresentationError(f"unknown isometry kind {kind!r}")
        if kind != "loxodromic" and translation_length != 0.0:
            raise RepresentationError("only loxodromics translate")
        super().__init__(kind, translation_length)


def _length_from_trace(tr: complex) -> float:
    """2*ln|mu| for the eigenvalue mu of larger modulus, det = 1."""
    w = tr / 2.0
    if abs(w) > 1e8:
        # mu = w(1 + sqrt(1 - 1/w^2)) ~ 2w; the correction is below 1 ulp
        return 2.0 * (math.log(abs(w)) + math.log(2.0))
    s = cmath.sqrt(w * w - 1.0)
    mu = w + s
    if abs(mu) < 1.0:
        mu = w - s
    return abs(2.0 * math.log(abs(mu)))


def translation_length_arccosh(m: Matrix2C) -> float:
    """Cross-check formula: 2*|Re arccosh(tr/2)|."""
    return _length_arccosh(m.trace)


def _length_arccosh(tr: complex) -> float:
    return 2.0 * abs(cmath.acosh(tr / 2.0).real)


def classify(m: Matrix2C) -> IsometryClass:
    """Classify a unimodular matrix by trace; loxodromic length is 2*ln|mu|
    with the arccosh form asserted to agree."""
    return IsometryClass(*classify_entries(m.a, m.b, m.c, m.d))


def classify_entries(
    a: complex, b: complex, c: complex, d: complex
) -> tuple[str, float]:
    """`classify` on the entries a b / c d of a matrix: its kind and
    translation length, without building a `Matrix2C` or an `IsometryClass`.
    Bulk callers such as the degeneration sweep use it directly."""
    _check_unimodular_entries(a, b, c, d)
    # the gate leaves every entry finite, so testing b and c first changes
    # no outcome; it spares the full distance for all but diagonal matrices
    if abs(b) <= CLASSIFY_TOL and abs(c) <= CLASSIFY_TOL and (
        _dist_to_plus_minus_identity(Matrix2C(a, b, c, d)) <= CLASSIFY_TOL
    ):
        return "identity", 0.0
    tr = a + d
    if abs(tr.imag) <= CLASSIFY_TOL:
        x = tr.real
        if abs(abs(x) - 2.0) <= CLASSIFY_TOL:
            return "parabolic", 0.0
        if -2.0 < x < 2.0:
            return "elliptic", 0.0
    length = _length_from_trace(tr)
    cross = _length_arccosh(tr)
    if not math.isclose(length, cross, rel_tol=1e-6, abs_tol=1e-9):
        raise RepresentationError(
            f"translation length formulas disagree: {length!r} vs {cross!r}"
        )
    return "loxodromic", length


def morgan_shalen_coordinate(chi: complex) -> float:
    """log(|chi| + 2) for the character chi of a class."""
    return math.log(abs(chi) + 2.0)


def morgan_shalen_vector(
    rep: Representation, classes: ConjugacyClassList | Iterable[Word]
) -> list[float]:
    """`morgan_shalen_coordinate` per class: the coordinates whose
    projectivization compactifies the character variety."""
    return [morgan_shalen_coordinate(character(rep, w)) for w in classes]


class ModuliPoint(Record):
    """Trace coordinates of a representation: the characters of a fixed tuple
    of coordinate words (for rank 2: a, b, ab, which determine the character).
    `traces[i]` is the complex character of `words[i]`."""

    __slots__ = ("words", "traces")

    def agrees(self, other: "ModuliPoint", tol: float = 1e-8) -> bool:
        if self.words != other.words:
            return False
        return all(abs(x - y) <= tol for x, y in zip(self.traces, other.traces))


_RANK2_COORDS = (Word((1,)), Word((2,)), Word((1, 2)))


def moduli_point(rep: Representation) -> ModuliPoint:
    if rep.rank != 2:
        raise RepresentationError("trace coordinates exist only for rank 2")
    return ModuliPoint(_RANK2_COORDS, tuple(character(rep, w) for w in _RANK2_COORDS))


def conjugate_rep(rep: Representation, g: Matrix2C) -> Representation:
    check_unimodular(g)
    gi = g.inverse()
    return make_rep([g @ m @ gi for m in rep.images])


def random_sl2(rng, spread: float = 1.0) -> Matrix2C:
    """Random unimodular matrix: draw a, b, c (|a| bounded away from 0) and
    solve for d, so det = 1 to machine precision."""

    def draw() -> complex:
        return complex(rng.normal(0.0, spread), rng.normal(0.0, spread))

    a = draw()
    while abs(a) < 0.3:
        a = draw()
    b, c = draw(), draw()
    d = (1.0 + b * c) / a
    return Matrix2C(a, b, c, d)


def random_loxodromic(rng, spread: float = 1.0) -> Matrix2C:
    """Conjugate of diag(mu, 1/mu) with |mu| in [e^0.2, e^1.5]: loxodromic
    with translation length in [0.4, 3.0]."""
    u = rng.uniform(0.2, 1.5)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    mu = cmath.exp(complex(u, theta))
    g = random_sl2(rng, spread)
    return g @ Matrix2C.diagonal(mu, 1.0 / mu) @ g.inverse()


# -- representation files ----------------------------------------------------
#
# One line per generator letter, four complex entries as re,im pairs:
#
#     a 1.0,0.0 0.0,0.0 0.0,0.0 1.0,0.0
#
# Floats are written with repr() so a parse/format cycle is byte-stable.


def parse_rep_text(text: str) -> list[Matrix2C]:
    found: dict[int, Matrix2C] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5 or len(parts[0]) != 1 or not "a" <= parts[0] <= "z":
            raise RepresentationError(
                f"line {lineno}: expected '<letter> re,im re,im re,im re,im'"
            )
        index = ord(parts[0]) - ord("a") + 1
        if index in found:
            raise RepresentationError(f"line {lineno}: duplicate generator {parts[0]!r}")
        entries = []
        for token in parts[1:]:
            pieces = token.split(",")
            if len(pieces) != 2:
                raise RepresentationError(f"line {lineno}: bad entry {token!r}")
            try:
                entry = complex(float(pieces[0]), float(pieces[1]))
            except ValueError as exc:
                raise RepresentationError(f"line {lineno}: {exc}") from exc
            if not cmath.isfinite(entry):
                raise RepresentationError(f"line {lineno}: entries must be finite")
            entries.append(entry)
        found[index] = Matrix2C(*entries)
    if not found:
        raise RepresentationError("rep file defines no generators")
    rank = max(found)
    missing = [chr(ord("a") + i) for i in range(rank) if i + 1 not in found]
    if missing:
        raise RepresentationError(f"rep file skips generator(s) {', '.join(missing)}")
    return [found[i + 1] for i in range(rank)]


def format_rep_text(matrices: Sequence[Matrix2C]) -> str:
    lines = []
    for i, m in enumerate(matrices):
        letter = chr(ord("a") + i)
        cells = " ".join(f"{e.real!r},{e.imag!r}" for e in m.entries())
        lines.append(f"{letter} {cells}")
    return "\n".join(lines) + "\n"


def load_rep(path) -> list[Matrix2C]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rep_text(fh.read())


def save_rep(path, matrices: Sequence[Matrix2C]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_rep_text(matrices))
