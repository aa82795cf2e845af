from __future__ import annotations

import hashlib
import itertools
import math
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kleinnet import words
from kleinnet.errors import WordError
from kleinnet.words import (
    ConjugacyClassList,
    Word,
    canonical_cyclic,
    cyclically_reduce,
    enumerate_classes,
    random_word,
    reduce_word,
)


# -- independent oracle: enumerate classes by brute-force rotation bucketing --

def _oracle_classes(rank: int, max_length: int) -> set[tuple[int, ...]]:
    alphabet = [l for k in range(1, rank + 1) for l in (k, -k)]
    classes: set[frozenset] = set()
    reps: set[tuple[int, ...]] = set()
    for n in range(1, max_length + 1):
        for combo in itertools.product(alphabet, repeat=n):
            # keep only cyclically reduced words
            ok = all(combo[i] != -combo[(i + 1) % n] for i in range(n))
            if not ok:
                continue
            orbit = frozenset(combo[i:] + combo[:i] for i in range(n))
            if orbit not in classes:
                classes.add(orbit)
                reps.add(min(orbit))  # any canonical choice works for counting
    return reps


def test_reduce_examples():
    assert reduce_word([1, -1]).letters == ()
    assert reduce_word([1, 2, -2, -1]).letters == ()
    assert reduce_word([1, 2, -2, 1]).letters == (1, 1)
    assert Word.from_text("abB").text() == "a"


def test_reduce_rank_check():
    with pytest.raises(WordError):
        reduce_word([1, 3], rank=2)
    with pytest.raises(WordError):
        reduce_word([0])


def test_word_constructor_rejects_unreduced():
    with pytest.raises(WordError):
        Word((1, -1))


def test_text_round_trip():
    w = Word.from_text("abAB")
    assert w.letters == (1, 2, -1, -2)
    assert w.text() == "abAB"
    assert Word.from_text("1").letters == ()
    assert Word.from_text("").text() == "1"


def test_text_covers_26_generators():
    assert Word((26,)).text() == "z"
    assert Word((-26,)).text() == "Z"
    assert Word((1, -26, 2)).text() == "aZb"
    for letters in ((27,), (-27,), (1, 27)):
        with pytest.raises(WordError, match="^word text syntax only covers 26 generators$"):
            Word(letters).text()


def test_text_rejects_garbage():
    with pytest.raises(WordError):
        Word.from_text("a b")
    with pytest.raises(WordError):
        Word.from_text("a2")


def test_cyclic_reduction_example():
    # aba^-1 is conjugate to b
    assert canonical_cyclic(Word.from_text("abA")).text() == "b"


def test_canonical_picks_least_rotation():
    # ba rotates to ab, which is smaller under a < A < b < B
    assert canonical_cyclic(Word.from_text("ba")).text() == "ab"
    assert canonical_cyclic(Word.from_text("bA")).text() == "Ab"


def test_canonical_fixed_point():
    w = canonical_cyclic(Word.from_text("Babab"))
    assert canonical_cyclic(w) == w


def _least_rotation_by_brute_force(letters):
    rotations = [letters[i:] + letters[:i] for i in range(len(letters))]
    return min(rotations, key=lambda r: [words._letter_key(l) for l in r], default=())


def test_necklace_is_the_least_rotation():
    rng = np.random.default_rng(2024)
    samples = [Word.from_text(t) for t in ("abab", "aBaBaB", "AAAA", "abAB" * 3, "a")]
    for _ in range(1500):
        w = random_word(rng, int(rng.integers(1, 5)), int(rng.integers(0, 31)))
        samples.append(w)
        # a power of a cyclically reduced word is periodic and still reduced
        core = cyclically_reduce(w)
        if core:
            samples.append(Word(core.letters * int(rng.integers(2, 4))))
    for w in samples:
        core = cyclically_reduce(w).letters
        want = _least_rotation_by_brute_force(core)
        assert words.necklace(core) == want
        assert canonical_cyclic(w).letters == want


def test_cyclically_reduce_strips_conjugating_letters():
    assert cyclically_reduce(Word.from_text("abbaBA")).text() == "ba"
    assert cyclically_reduce(Word.from_text("abA")).text() == "b"
    w = Word.from_text("abAB")
    assert cyclically_reduce(w) is w


def test_cyclically_reduce_of_a_long_conjugate_is_fast():
    # trimming by re-slicing once per cancelled pair is quadratic here
    k = 40_000
    w = Word((1,) * k + (2,) + (-1,) * k)
    start = time.perf_counter()
    core = cyclically_reduce(w)
    assert time.perf_counter() - start < 1.0
    assert core == Word((2,))


def test_rank1_class_list_is_shortlex():
    classes = enumerate_classes(1, 2)
    assert classes.words_text() == ["a", "A", "aa", "AA"]


def test_rank2_length1():
    assert enumerate_classes(2, 1).words_text() == ["a", "A", "b", "B"]


def test_rank2_length2_count_matches_oracle():
    classes = enumerate_classes(2, 2)
    length2 = [w for w in classes if len(w) == 2]
    assert len(length2) == 8
    assert len(classes) == len(_oracle_classes(2, 2)) == 12


@pytest.mark.parametrize("rank,L", [(1, 4), (2, 3), (2, 4), (3, 3)])
def test_class_enumeration_matches_oracle(rank, L):
    classes = enumerate_classes(rank, L)
    oracle = _oracle_classes(rank, L)
    assert len(classes) == len(oracle)
    # every representative is its own canonical form and cyclically reduced
    for w in classes:
        assert canonical_cyclic(w) == w
        assert cyclically_reduce(w) == w


def test_class_list_sorted_and_deduplicated():
    classes = enumerate_classes(2, 4)
    keys = [w.shortlex_key() for w in classes]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


# sha256 of the newline-joined class list, recorded with an exhaustive search
# (canonical form of every reduced word, deduped and sorted); any change to the
# representatives or their order shows here.
_CLASS_LIST_DIGESTS = {
    (1, 12, False): "2ddec1ba136951c830c2abb20b17944de58f817eb666a7e8f974639b81a58e1d",
    (1, 12, True): "5caefbe6df3ebf7d896e9fbef9ec2cf7d6bcb6609584b521d88e1e213d60a93a",
    (2, 8, False): "8c93a32b0e467a4e39634a0987c4bddebb2a9e05768dd66781e04b9c9f9bb972",
    (2, 8, True): "89dff0523670039c67db9f5373d5deb4412b3f35cb4fe37586d0e5b8a6a9bfe3",
    (3, 5, False): "95487b723ea734e35886b5c1017fe0cb6a9d61a03600c1928297c19b00804a44",
    (3, 5, True): "9a8fb75bcd6f34ffbfd92113283730aca51ad0a9f70af3c9f3dfc84daeac3f28",
    (4, 4, False): "78022914cb89cb15b3b75327ffe0ee42173755b9985b6708e4201e5bab008030",
    (4, 4, True): "a3076decb020fda0360c9cd5da9f7a29354c46b64ce22cbd07e8a39ce73bdff2",
}


@pytest.mark.parametrize("rank,L,fold", sorted(_CLASS_LIST_DIGESTS))
def test_class_list_digest(rank, L, fold):
    text = "\n".join(enumerate_classes(rank, L, fold).words_text())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _CLASS_LIST_DIGESTS[rank, L, fold]


def _burnside_class_count(rank: int, n: int) -> int:
    """Conjugacy classes of cyclic length exactly n in the free group of the
    given rank: necklaces of cyclically reduced words, counted by Burnside's
    lemma over the rotation group."""

    def cyclically_reduced(d: int) -> int:
        return (2 * rank - 1) ** d + 1 + (rank - 1) * (1 + (-1) ** d)

    def phi(m: int) -> int:
        return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)

    total = sum(phi(n // d) * cyclically_reduced(d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


@pytest.mark.parametrize("rank,L", [(1, 12), (2, 10), (3, 7), (4, 5)])
def test_class_counts_match_burnside(rank, L):
    counts = [0] * (L + 1)
    for w in enumerate_classes(rank, L):
        counts[len(w)] += 1
    assert counts[1:] == [_burnside_class_count(rank, n) for n in range(1, L + 1)]


def test_zero_max_length_rejected():
    with pytest.raises(WordError):
        enumerate_classes(2, 0)


def test_class_lists_past_the_letter_budget_are_refused(monkeypatch):
    # one past the largest accepted length at each rank
    for rank, length in ((1, 4096), (2, 13), (3, 9), (26, 4)):
        with pytest.raises(WordError, match="too large"):
            enumerate_classes(rank, length)
    # the reduced words of rank 2 up to lengths 1, 2, 3 hold 4, 28, 136 letters
    monkeypatch.setattr(words, "MAX_LETTERS", 28)
    assert len(enumerate_classes(2, 2)) == len(_oracle_classes(2, 2))
    with pytest.raises(WordError, match="up to length 3 hold more than 28"):
        enumerate_classes(2, 3)


def test_fold_inverses_merges_mutually_inverse_classes():
    plain = enumerate_classes(2, 2)
    folded = enumerate_classes(2, 2, fold_inverses=True)
    assert len(folded) < len(plain)
    texts = folded.words_text()
    # a and A fold together, keeping a
    assert "a" in texts and "A" not in texts
    for w in folded:
        inv = canonical_cyclic(w.inverse())
        assert inv == w or inv.letters not in {v.letters for v in folded}


def _folded_by_necklace(classes):
    """The representatives that fold_inverses keeps, by Duval's least
    rotation: each class whose necklace is no greater than its inverse's."""
    def keys(letters):
        return [words._letter_key(l) for l in letters]

    return [
        w for w in classes
        if keys(w.letters) <= keys(words.necklace(tuple(-l for l in reversed(w.letters))))
    ]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_folded_classes_match_the_necklace_reference(monkeypatch, rank):
    plain = enumerate_classes(rank, 8)
    # the fold looks the inverses up among the classes already emitted and
    # computes no least rotation
    def no_necklace(letters):
        raise AssertionError("fold_inverses ran necklace")

    monkeypatch.setattr(words, "necklace", no_necklace)
    folded = enumerate_classes(rank, 8, fold_inverses=True)
    monkeypatch.undo()
    assert folded.folded and folded.max_length == 8 and folded.rank == rank
    assert list(folded.representatives) == _folded_by_necklace(plain)


# enumerate_classes builds its representatives without Word's checks; each
# must still be the Word that the validating constructor makes
@pytest.mark.parametrize("fold", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_enumerated_representatives_equal_validated_words(rank, fold):
    classes = enumerate_classes(rank, 6, fold_inverses=fold)
    for w in classes:
        v = Word(w.letters)
        assert type(w) is Word and type(w.letters) is tuple
        assert w == v and hash(w) == hash(v) and repr(w) == repr(v)
        assert pickle.loads(pickle.dumps(w)) == v
    again = pickle.loads(pickle.dumps(classes))
    assert again == classes
    assert again.representatives == tuple(Word(w.letters) for w in classes)


def test_conjugation_invariance_bulk():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        w = random_word(rng, 2, int(rng.integers(1, 7)))
        u = random_word(rng, 2, int(rng.integers(0, 5)))
        conj = u * w * u.inverse()
        assert canonical_cyclic(conj) == canonical_cyclic(w)


def test_inverse_involution_bulk():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = random_word(rng, 3, int(rng.integers(0, 9)))
        assert w.inverse().inverse() == w
        assert (w * w.inverse()).letters == ()


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=24))
def test_reduce_idempotent(letters):
    once = reduce_word(letters)
    assert reduce_word(once.letters) == once


@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=16),
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=16),
)
def test_product_of_reduced_words_is_reduced_concatenation(xs, ys):
    u, v = reduce_word(xs), reduce_word(ys)
    assert (u * v).letters == reduce_word(list(xs) + list(ys)).letters


def test_power_notation():
    w = Word.from_text("ab")
    assert (w ** 3).text() == "ababab"
    assert (w ** -1) == w.inverse()
    assert (w ** 0).letters == ()


def _power_by_products(w, n):
    base = w if n >= 0 else w.inverse()
    out = Word(())
    for _ in range(abs(n)):
        out = out * base
    return out


def test_power_is_repeated_product():
    rng = np.random.default_rng(17)
    # words whose ends cancel reduce between the copies
    samples = [Word.from_text(t) for t in ("abA", "aBBA", "abcBA", "a", "1")]
    samples += [
        random_word(rng, int(rng.integers(1, 4)), int(rng.integers(0, 9)))
        for _ in range(300)
    ]
    for w in samples:
        for n in range(-5, 6):
            assert w ** n == _power_by_products(w, n)
    assert (Word.from_text("abA") ** 3).text() == "abbbA"


def test_large_power_is_fast():
    # one product per copy re-reduces the whole power so far: quadratic
    start = time.perf_counter()
    w = Word.from_text("ab") ** 100_000
    assert time.perf_counter() - start < 1.0
    assert w.letters == (1, 2) * 100_000


def test_class_list_container_api():
    classes = enumerate_classes(2, 1)
    assert isinstance(classes, ConjugacyClassList)
    assert classes[0].text() == "a"
    assert [w.text() for w in classes] == classes.words_text()
