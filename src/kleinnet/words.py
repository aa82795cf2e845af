"""Free-group word algebra: reduction, cyclic canonical forms, conjugacy classes.

A word is a tuple of nonzero signed integers: +k is generator k, -k its
inverse (1-based).  Text syntax uses lowercase letters a-z for generators
1-26 and the matching uppercase letter for the inverse, so "abAB" is the
commutator of the first two generators; "1" (or the empty string) is the
identity.  Letter order for all lexicographic comparisons is
a < a^-1 < b < b^-1 < ...
"""

from __future__ import annotations

from operator import neg
from typing import Iterable, Iterator, Sequence

from ._record import Record
from .errors import WordError

__all__ = [
    "Word",
    "ConjugacyClassList",
    "reduce_word",
    "cyclically_reduce",
    "canonical_cyclic",
    "necklace",
    "enumerate_classes",
    "random_word",
]

# the most letters, summed over all reduced words of length <= max_length,
# that enumerate_classes accepts: the class list and the walk are bounded by
# that sum, so a larger one could exhaust memory
MAX_LETTERS = 1 << 24


def _check_letter(letter: int, rank: int | None = None) -> None:
    if not isinstance(letter, int) or isinstance(letter, bool) or letter == 0:
        raise WordError(f"letter {letter!r} is not a nonzero integer")
    if rank is not None and abs(letter) > rank:
        raise WordError(f"generator index {abs(letter)} out of range for rank {rank}")


def _letter_key(letter: int) -> int:
    """a, A, b, B, ... -> 0, 1, 2, 3, ...: the letter order as an integer."""
    return 2 * letter - 2 if letter > 0 else -2 * letter - 1


# text of each letter: a-z for generators 1-26, A-Z for their inverses
_LETTER_TEXT = {
    sign * k: chr(base + k - 1)
    for k in range(1, 27)
    for sign, base in ((1, ord("a")), (-1, ord("A")))
}


def _reduce(letters: Iterable[int], rank: int | None = None) -> tuple[int, ...]:
    out: list[int] = []
    for letter in letters:
        _check_letter(letter, rank)
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class Word(Record):
    """A freely reduced word.  Construct via `reduce_word` or `Word.from_text`;
    the constructor rejects unreduced letter sequences."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()) -> None:
        for i, letter in enumerate(letters):
            _check_letter(letter)
            if i and letters[i - 1] == -letter:
                raise WordError(
                    f"letters {letters!r} are not freely reduced at position {i}"
                )
        super().__init__(letters)

    @classmethod
    def from_text(cls, text: str) -> "Word":
        text = text.strip()
        if text in ("", "1"):
            return cls(())
        letters = []
        for ch in text:
            if "a" <= ch <= "z":
                letters.append(ord(ch) - ord("a") + 1)
            elif "A" <= ch <= "Z":
                letters.append(-(ord(ch) - ord("A") + 1))
            else:
                raise WordError(f"bad character {ch!r} in word text {text!r}")
        return cls(_reduce(letters))

    def text(self) -> str:
        if not self.letters:
            return "1"
        try:
            return "".join(map(_LETTER_TEXT.__getitem__, self.letters))
        except KeyError:
            raise WordError("word text syntax only covers 26 generators") from None

    def __str__(self) -> str:
        return self.text()

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        # free reduction is confluent, so reducing the n copies at once gives
        # the word that n - 1 products give
        base = self if n >= 0 else self.inverse()
        return Word(_reduce(base.letters * abs(n)))

    def max_index(self) -> int:
        return max((abs(l) for l in self.letters), default=0)

    def shortlex_key(self) -> tuple:
        return (len(self.letters), tuple(_letter_key(l) for l in self.letters))


def _trusted_word(letters: tuple[int, ...]) -> Word:
    """A `Word` on letters its caller built nonzero and freely reduced,
    without the constructor's checks.  Pickling still calls `Word`."""
    word = object.__new__(Word)
    object.__setattr__(word, "letters", letters)
    return word


def reduce_word(letters: Sequence[int], rank: int | None = None) -> Word:
    """Freely reduce a letter sequence; validates indices against `rank` if given."""
    return Word(_reduce(letters, rank))


def cyclically_reduce(word: Word) -> Word:
    letters = word.letters
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i, j = i + 1, j - 1
    return Word(letters[i:j + 1]) if i else word


def necklace(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of a letter tuple under the letter order; for a
    cyclically reduced word, its conjugacy class's canonical representative.
    It takes O(len(letters)) comparisons of integer letter keys: the
    least-rotation form of Duval's Lyndon factorization (1983)."""
    n = len(letters)
    if n <= 1:
        return letters
    s = [_letter_key(l) for l in letters] * 2
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return letters[start:] + letters[:start]


def canonical_cyclic(word: Word) -> Word:
    """Canonical conjugacy-class representative: cyclically reduce, then take
    the lexicographically least rotation."""
    return Word(necklace(cyclically_reduce(word).letters))


class ConjugacyClassList(Record):
    """Canonical representatives of the nontrivial conjugacy classes with
    cyclic length <= max_length, in shortlex order: `representatives` is a
    tuple of `Word`s in the free group of the given `rank`, and `folded`
    says that each class was merged with its inverse class."""

    __slots__ = ("representatives", "max_length", "rank", "folded")
    _defaults = {"folded": False}

    def __len__(self) -> int:
        return len(self.representatives)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.representatives)

    def __getitem__(self, i: int) -> Word:
        return self.representatives[i]

    def words_text(self) -> list[str]:
        return [w.text() for w in self.representatives]


def _inverse_came_first(w: tuple[int, ...], emitted: set) -> bool:
    """Whether the necklace of w^-1 came before the necklace w at their
    length, given the set of the necklaces `emitted` so far there.

    A necklace starts with its least letter, and w^-1's letters are the
    inverses of w's.  When w[0] is an inverse, w^-1 holds -w[0], which
    comes before every letter of w, so its necklace came first.  When w
    does not hold -w[0], every letter of w^-1 comes after w[0], and so
    does its necklace.  Otherwise the necklace of w^-1 starts with w[0],
    and the rotations of w^-1 that do are looked up among those emitted:
    the set holds only necklaces, so a rotation found there is it."""
    first = w[0]
    if first < 0:
        return True
    if -first not in w:
        return False
    inverse = tuple(map(neg, reversed(w))) * 2
    n = len(w)
    at = inverse.index(first)
    while at < n:
        if inverse[at:at + n] in emitted:
            return True
        at = inverse.index(first, at + 1)
    return False


def enumerate_classes(
    rank: int, max_length: int = 4, fold_inverses: bool = False
) -> ConjugacyClassList:
    """Enumerate conjugacy classes of the free group of the given rank up to
    cyclic word length max_length.

    Each class is emitted once, as its necklace: the cyclically reduced word
    least among its rotations.  The search visits only reduced prenecklaces
    (prefixes of necklaces), level by level, with the rule of Fredricksen,
    Kessler and Maiorana (Ruskey, Savage and Wang 1992): a prenecklace w of
    length n whose longest Lyndon prefix has length p extends by a letter l
    exactly when l >= w[n-p].  Extending each level in alphabet order keeps
    every level in lexicographic order, so the result is in shortlex order.
    The words visited are about twice the classes emitted: 7,379 for the
    3,582 classes of rank 2 up to length 9.  The alphabet is listed in
    letter order, so the letters that may follow a prefix are one slice of
    it, cut at the key of w[n-p], and each representative is made from the
    letters as generated, without `Word`'s checks.

    `fold_inverses` merges each class with its inverse class, keeping the
    smaller representative.  A level is emitted in lexicographic order, so
    w^-1's class came first exactly when some rotation of w^-1 is among
    the necklaces already emitted at w's length; the set of them holds
    only necklaces, so a rotation found there is w^-1's necklace, and no
    least rotation is computed.
    """
    if rank < 1:
        raise WordError("rank must be >= 1")
    if max_length < 1:
        raise WordError("max_length must be >= 1: an empty class list is useless")
    letters = 0
    for n in range(1, max_length + 1):
        letters += n * 2 * rank * (2 * rank - 1) ** (n - 1)
        if letters > MAX_LETTERS:
            raise WordError(
                f"max_length {max_length} is too large for rank {rank}: the reduced "
                f"words up to length {n} hold more than {MAX_LETTERS} letters"
            )
    alphabet = [l for k in range(1, rank + 1) for l in (k, -k)]
    level = [((l,), 1) for l in alphabet]
    reps: list[Word] = []
    for n in range(1, max_length + 1):
        # the necklaces emitted at this length, for fold_inverses
        emitted: set[tuple[int, ...]] = set()
        for w, p in level:
            if n % p == 0 and w[0] != -w[-1]:
                if fold_inverses:
                    if _inverse_came_first(w, emitted):
                        continue
                    emitted.add(w)
                # the letters are nonzero and freely reduced by
                # construction: each comes from the alphabet, and no
                # extension below appends the inverse of the last one
                reps.append(_trusted_word(w))
        if n < max_length:
            level = [
                (w + (l,), p if l == w[n - p] else n + 1)
                for w, p in level
                for l in alphabet[_letter_key(w[n - p]):]
                if l != -w[-1]
            ]
    return ConjugacyClassList(tuple(reps), max_length, rank, fold_inverses)


def random_word(rng, rank: int, length: int) -> Word:
    """A uniformly random freely reduced word of exactly `length` letters
    (nonbacktracking walk on the generator alphabet)."""
    if rank < 1 or length < 0:
        raise WordError("rank must be >= 1 and length >= 0")
    alphabet = [l for k in range(1, rank + 1) for l in (k, -k)]
    letters: list[int] = []
    for _ in range(length):
        choices = [l for l in alphabet if not letters or l != -letters[-1]]
        letters.append(choices[int(rng.integers(len(choices)))])
    return Word(tuple(letters))
