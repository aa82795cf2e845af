import hashlib
import time

import numpy as np
import pytest

from kleinnet.dessin import (
    Dessin,
    SubgroupGraph,
    build_dessin,
    compose,
    coset_permutations,
    cycles_to_perm,
    export_dessin,
    fold_subgroup,
    format_dessin_dot,
    format_dessin_summary,
    perm_cycles,
    word_permutation,
)
from kleinnet.errors import DessinError, InfiniteIndexError
from kleinnet.words import Word, random_word, reduce_word

W = Word.from_text

# index-2 subgroup: all generators have even a-exponent sum, so the subgroup
# sits inside the kernel of F2 -> Z/2 (a -> 1, b -> 0); the folded graph
# having 2 vertices pins the index to exactly 2
INDEX2_GENS = [W("aa"), W("b"), W("abA")]


def _cycle_count(perm):
    # independent cycle counter for the fuzz oracle
    n = len(perm) - 1
    seen = set()
    count = 0
    for start in range(1, n + 1):
        if start in seen:
            continue
        count += 1
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
    return count


def _is_transitive(p, q):
    n = len(p) - 1
    seen = {1}
    stack = [1]
    while stack:
        x = stack.pop()
        for y in (p[x], q[x]):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


# -- permutation helpers ---------------------------------------------------------


def test_cycles_round_trip():
    p = cycles_to_perm(5, [(1, 3), (2, 5, 4)])
    assert p == (0, 3, 5, 1, 2, 4)
    assert perm_cycles(p) == [(1, 3), (2, 5, 4)]
    assert perm_cycles(cycles_to_perm(3, [])) == [(1,), (2,), (3,)]


def test_cycles_validation():
    with pytest.raises(DessinError):
        cycles_to_perm(3, [(1, 4)])
    with pytest.raises(DessinError):
        cycles_to_perm(3, [(1, 2), (2, 3)])


def test_compose_applies_left_first():
    p = cycles_to_perm(3, [(1, 2)])
    q = cycles_to_perm(3, [(2, 3)])
    r = compose(p, q)  # 1 -> 2 -> 3
    assert r[1] == 3


# -- folding ---------------------------------------------------------------------


def test_whole_group_is_index_one():
    g = fold_subgroup([W("a"), W("b")])
    assert g.n_vertices == 1
    assert g.complete
    sa, sb = coset_permutations(g)
    assert sa == (0, 1) and sb == (0, 1)


def test_index_two_example():
    g = fold_subgroup(INDEX2_GENS)
    assert g.n_vertices == 2
    assert g.complete
    sa, sb = coset_permutations(g)
    assert perm_cycles(sa) == [(1, 2)]
    assert perm_cycles(sb) == [(1,), (2,)]


def test_index_three_power_subgroup():
    g = fold_subgroup([W("aaa"), W("b"), W("abA"), W("aabAA")])
    assert g.n_vertices == 3
    assert g.complete
    sa, sb = coset_permutations(g)
    assert perm_cycles(sa) == [(1, 2, 3)]
    assert sb == (0, 1, 2, 3)


def test_single_generator_has_infinite_index():
    g = fold_subgroup([W("a")])
    assert not g.complete
    with pytest.raises(InfiniteIndexError, match="infinite"):
        coset_permutations(g)


def test_empty_generators_give_single_vertex():
    g = fold_subgroup([])
    assert g.n_vertices == 1
    assert not g.complete


def test_fold_rejects_higher_rank():
    with pytest.raises(DessinError):
        fold_subgroup([W("ac")])


def test_fold_is_deterministic():
    a = fold_subgroup(INDEX2_GENS)
    b = fold_subgroup(INDEX2_GENS)
    assert a == b
    # generator order does not change the graph
    c = fold_subgroup(list(reversed(INDEX2_GENS)))
    assert a == c


def test_folded_graph_invariant_enforced():
    with pytest.raises(DessinError, match="folded"):
        SubgroupGraph(3, (0, 2, 2, 0), (0, 1, 2, 3))


def test_generators_fix_the_base_dart():
    g = fold_subgroup(INDEX2_GENS)
    sa, sb = coset_permutations(g)
    for w in INDEX2_GENS:
        assert word_permutation(sa, sb, w)[1] == 1


def test_word_permutation_is_a_homomorphism():
    g = fold_subgroup([W("aaa"), W("b"), W("abA"), W("aabAA")])
    sa, sb = coset_permutations(g)
    rng = np.random.default_rng(13)
    for _ in range(100):
        u = random_word(rng, 2, int(rng.integers(0, 7)))
        v = random_word(rng, 2, int(rng.integers(0, 7)))
        lhs = word_permutation(sa, sb, u * v)
        rhs = compose(word_permutation(sa, sb, u), word_permutation(sa, sb, v))
        assert lhs == rhs


def test_random_fold_outputs_are_folded_and_stable():
    rng = np.random.default_rng(29)
    for _ in range(60):
        gens = [
            random_word(rng, 2, int(rng.integers(1, 7)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        g = fold_subgroup(gens)  # SubgroupGraph.__init__ enforces foldedness
        assert g == fold_subgroup(gens)
        if g.complete:
            sa, sb = coset_permutations(g)
            for w in gens:
                assert word_permutation(sa, sb, w)[1] == 1
            build_dessin(sa, sb)  # complete folded graphs are transitive


def test_fold_of_long_words_is_fast():
    # a^3000 and a^3001 fold into one loop a letter at a time; a fold that
    # re-reads every edge per round of merges takes quadratic time here
    gens = [Word((1,) * 3000), Word((1,) * 3001), W("b")]
    start = time.perf_counter()
    g = fold_subgroup(gens)
    assert time.perf_counter() - start < 1.0
    assert g == SubgroupGraph(1, (0, 1), (0, 1))


# sha256 of the reprs, one a line, of the folds of 2,000 seeded random
# generator sets (1-6 words of 0-12 letters each)
FOLD_GUARD_SHA = "8bbe08e56f8a0c775b29e98edb1a6f4c76c412ca1f317d00b7b9d5a92cf8b667"


def test_fold_outputs_match_recorded_digest():
    rng = np.random.default_rng(16)
    digest = hashlib.sha256()
    for _ in range(2000):
        gens = [
            random_word(rng, 2, int(rng.integers(0, 13)))
            for _ in range(int(rng.integers(1, 7)))
        ]
        digest.update(repr(fold_subgroup(gens)).encode() + b"\n")
    assert digest.hexdigest() == FOLD_GUARD_SHA


def _random_transitive_pair(rng, n):
    while True:
        p = (0,) + tuple(int(x) + 1 for x in rng.permutation(n))
        q = (0,) + tuple(int(x) + 1 for x in rng.permutation(n))
        if _is_transitive(p, q):
            return p, q


def _schreier(sa, sb):
    """Schreier generators of the stabiliser of dart 1 under right
    multiplication by sa and sb, from a BFS tree of coset representatives
    (neighbor order a, A, b, B), and the darts in BFS order."""
    act = {1: sa, -1: _invert(sa), 2: sb, -2: _invert(sb)}
    rep = {1: ()}
    order = [1]
    for x in order:
        for letter in (1, -1, 2, -2):
            y = act[letter][x]
            if y not in rep:
                rep[y] = rep[x] + (letter,)
                order.append(y)
    gens = []
    for x in order:
        for letter in (1, 2):
            back = tuple(-l for l in reversed(rep[act[letter][x]]))
            w = reduce_word(rep[x] + (letter,) + back)
            if w:
                gens.append(w)
    return gens, order


def _invert(p):
    inv = [0] * len(p)
    for i in range(1, len(p)):
        inv[p[i]] = i
    return tuple(inv)


def test_schreier_generators_fold_back_to_their_pair():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(1, 61))
        sa, sb = _random_transitive_pair(rng, n)
        gens, order = _schreier(sa, sb)
        g = fold_subgroup(gens)
        assert g.complete and g.n_vertices == n
        number = {x: i + 1 for i, x in enumerate(order)}
        renumbered = tuple(
            (0,) + tuple(number[s[x]] for x in order) for s in (sa, sb)
        )
        assert coset_permutations(g) == renumbered


# -- dessins ---------------------------------------------------------------------


def test_one_edge_sphere():
    d = build_dessin((0, 1), (0, 1))
    assert (d.n_vertices, d.n_edges, d.n_faces, d.genus) == (2, 1, 1, 0)


def test_index_two_dessin():
    sa, sb = coset_permutations(fold_subgroup(INDEX2_GENS))
    d = build_dessin(sa, sb)
    assert (d.n_vertices, d.n_edges, d.n_faces, d.genus) == (3, 2, 1, 0)


def test_torus_dessin():
    sa = cycles_to_perm(3, [(1, 2, 3)])
    d = build_dessin(sa, sa)
    assert (d.n_vertices, d.n_edges, d.n_faces, d.genus) == (2, 3, 1, 1)
    assert d.face_cycles == ((1, 3, 2),)


def test_disconnected_pair_rejected():
    sa = cycles_to_perm(4, [(1, 2)])
    sb = cycles_to_perm(4, [(3, 4)])
    with pytest.raises(DessinError, match="disconnected"):
        build_dessin(sa, sb)


def test_bad_permutations_rejected():
    with pytest.raises(DessinError):
        build_dessin((0, 1, 1), (0, 1, 2))
    with pytest.raises(DessinError):
        build_dessin((1, 2), (0, 1))
    with pytest.raises(DessinError):
        build_dessin((0, 1, 2), (0, 1))


def test_euler_fuzz_against_cycle_counts():
    rng = np.random.default_rng(97)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 10))
        p = (0,) + tuple(int(x) + 1 for x in rng.permutation(n))
        q = (0,) + tuple(int(x) + 1 for x in rng.permutation(n))
        if not _is_transitive(p, q):
            continue
        d = build_dessin(p, q)
        v = _cycle_count(p) + _cycle_count(q)
        f = _cycle_count(compose(p, q))
        assert d.n_vertices == v
        assert d.n_edges == n
        assert d.n_faces == f
        assert v - n + f == 2 - 2 * d.genus
        assert d.genus >= 0 and isinstance(d.genus, int)
        checked += 1


# -- export ----------------------------------------------------------------------


def test_export_index_one():
    sa, sb = coset_permutations(fold_subgroup([W("a"), W("b")]))
    d = build_dessin(sa, sb)
    dot, summary = export_dessin(d)
    assert dot.count("b0") == 2  # declaration plus one edge
    assert dot.count(" -- ") == 1
    assert '"V": 2' in summary


def test_export_torus_summary():
    d = build_dessin(cycles_to_perm(3, [(1, 2, 3)]), cycles_to_perm(3, [(1, 2, 3)]))
    summary = format_dessin_summary(d)
    assert '"genus": 1' in summary


def test_export_is_deterministic():
    sa, sb = coset_permutations(fold_subgroup(INDEX2_GENS))
    d = build_dessin(sa, sb)
    assert export_dessin(d) == export_dessin(d)
    assert format_dessin_dot(d).endswith("}\n")


def test_dot_edge_count_matches_darts():
    p, q = _random_transitive_pair(np.random.default_rng(55), 6)
    d = build_dessin(p, q)
    dot = format_dessin_dot(d)
    assert dot.count(" -- ") == d.n_darts
