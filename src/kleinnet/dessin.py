"""Dessins d'enfants from finite-index subgroups of the rank-2 free group.

A subgroup given by generating words becomes a folded graph (the quotient of
the Cayley tree); when that graph is complete the cosets carry permutations
sigma_a, sigma_b by right multiplication, and the pair is a bipartite map on
a closed surface whose genus comes out of the Euler count.

Darts are numbered 1..n and dart 1 is the coset of the subgroup itself.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, Sequence

from ._record import Record
from .errors import DessinError, InfiniteIndexError
from .words import Word

__all__ = [
    "SubgroupGraph",
    "Dessin",
    "fold_subgroup",
    "coset_permutations",
    "word_permutation",
    "build_dessin",
    "perm_cycles",
    "cycles_to_perm",
    "compose",
    "export_dessin",
    "format_dessin_dot",
    "format_dessin_summary",
]

Perm = tuple[int, ...]  # 1-based: perm[0] is a 0 sentinel, perm[i] in 1..n


def _check_perm(p: Sequence[int], name: str) -> Perm:
    n = len(p) - 1
    if n < 1 or p[0] != 0:
        raise DessinError(f"{name}: expected sentinel 0 then images of 1..n")
    seen = set(p[1:])
    if seen != set(range(1, n + 1)):
        raise DessinError(f"{name} is not a permutation of 1..{n}")
    return tuple(p)


def perm_cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycles including fixed points, each starting at its minimum element,
    sorted by that element."""
    n = len(p) - 1
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = p[x]
        cycles.append(tuple(cycle))
    return cycles


def cycles_to_perm(n: int, cycles: Iterable[Sequence[int]]) -> Perm:
    """Permutation of 1..n from disjoint cycles (fixed points omitted)."""
    images = list(range(n + 1))
    touched = set()
    for cycle in cycles:
        for i, x in enumerate(cycle):
            if not 1 <= x <= n:
                raise DessinError(f"cycle entry {x} outside 1..{n}")
            if x in touched:
                raise DessinError(f"cycles are not disjoint at {x}")
            touched.add(x)
            images[x] = cycle[(i + 1) % len(cycle)]
    images[0] = 0
    return tuple(images)


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    if len(p) != len(q):
        raise DessinError("permutations act on different dart counts")
    return (0,) + tuple(q[p[i]] for i in range(1, len(p)))


def _invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i in range(1, len(p)):
        inv[p[i]] = i
    return tuple(inv)


class SubgroupGraph(Record):
    """Folded coset graph: out_a[v] / out_b[v] give the head of the a/b edge
    leaving vertex v (0 when absent).  Vertices are 1..n_vertices, numbered
    by BFS from the base (always vertex 1)."""

    __slots__ = ("n_vertices", "out_a", "out_b")

    def __init__(self, n_vertices: int, out_a: Perm, out_b: Perm) -> None:
        n = n_vertices
        for name, out in (("a", out_a), ("b", out_b)):
            if len(out) != n + 1 or out[0] != 0:
                raise DessinError(f"out_{name} must map vertices 1..{n}")
            heads = [h for h in out[1:] if h != 0]
            if any(not 1 <= h <= n for h in heads):
                raise DessinError(f"out_{name} points outside the graph")
            if len(set(heads)) != len(heads):
                raise DessinError(f"graph is not folded along {name}")
        super().__init__(n_vertices, out_a, out_b)

    @property
    def complete(self) -> bool:
        """Complete iff finite index; the index is then n_vertices."""
        return 0 not in self.out_a[1:] and 0 not in self.out_b[1:]


def fold_subgroup(generators: Sequence[Word]) -> SubgroupGraph:
    """Stallings graph of the subgroup generated by the given words: wedge of
    word loops at the base, folded in one pass, vertices renumbered by BFS
    (neighbor order: out-a, in-a, out-b, in-b)."""
    for w in generators:
        if w.max_index() > 2:
            raise DessinError(
                f"word {w.text()!r} uses a generator beyond rank 2"
            )
    # out[v] maps a signed letter to a vertex: an edge labelled l from x to y
    # is l at x and -l at y.  Wedge of loops, base vertex 0, edges pending.
    out: list[dict[int, int]] = [{}]
    pending: list[tuple[int, int, int]] = []
    for w in generators:
        tail = 0
        for i, letter in enumerate(w.letters):
            head = 0 if i == len(w.letters) - 1 else len(out)
            if head:
                out.append({})
            pending.append((tail, letter, head))
            tail = head
    parent = list(range(len(out)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while pending:
        x, l, y = pending.pop()
        x, y = find(x), find(y)
        ahead, behind = out[x].get(l), out[y].get(-l)
        if ahead is not None and find(ahead) != y:
            keep, gone = find(ahead), y
        elif behind is not None and find(behind) != x:
            keep, gone = find(behind), x
        else:
            out[x][l], out[y][-l] = y, x
            continue
        # x already leaves by l to another vertex, or another vertex enters y
        # by l: merging those two folds this edge onto that one.  The vertex
        # with the smaller map is merged away, its edges back on pending.
        if len(out[keep]) < len(out[gone]):
            keep, gone = gone, keep
        parent[gone] = keep
        pending.extend((keep, m, v) for m, v in out[gone].items())
        out[gone] = {}

    # BFS renumbering from the base class
    root = find(0)
    number = {root: 1}
    queue = [root]
    for v in queue:
        for l in (1, -1, 2, -2):
            if l in out[v]:
                nb = find(out[v][l])
                if nb not in number:
                    number[nb] = len(number) + 1
                    queue.append(nb)
    out_a, out_b = (
        (0,) + tuple(number[find(out[v][l])] if l in out[v] else 0 for v in queue)
        for l in (1, 2)
    )
    return SubgroupGraph(len(queue), out_a, out_b)


def coset_permutations(graph: SubgroupGraph) -> tuple[Perm, Perm]:
    """Right-multiplication action on the cosets; only defined for complete
    graphs (finite index)."""
    if not graph.complete:
        raise InfiniteIndexError(
            "infinite index: subgroup graph is incomplete"
        )
    return graph.out_a, graph.out_b


def word_permutation(sigma_a: Perm, sigma_b: Perm, word: Word) -> Perm:
    """Permutation of the word under the homomorphism letter -> sigma,
    composing left to right (right multiplication on cosets)."""
    result = tuple(range(len(sigma_a)))
    table = {
        1: sigma_a,
        -1: _invert(sigma_a),
        2: sigma_b,
        -2: _invert(sigma_b),
    }
    for letter in word.letters:
        if abs(letter) > 2:
            raise DessinError(f"word {word.text()!r} is not over rank 2")
        result = compose(result, table[letter])
    return result


class Dessin(Record):
    """Bipartite map on the darts 1..n_darts: black vertices are cycles of
    sigma0, white vertices cycles of sigma1, faces cycles of sigma0 then
    sigma1.  The permutations are `Perm` tuples, and each `*_cycles` field
    is a tuple of cycles, each a tuple of darts."""

    __slots__ = (
        "n_darts", "sigma0", "sigma1", "black_cycles", "white_cycles", "face_cycles"
    )

    @property
    def n_vertices(self) -> int:
        return len(self.black_cycles) + len(self.white_cycles)

    @property
    def n_edges(self) -> int:
        return self.n_darts

    @property
    def n_faces(self) -> int:
        return len(self.face_cycles)

    @property
    def genus(self) -> int:
        chi = self.n_vertices - self.n_edges + self.n_faces
        return (2 - chi) // 2


def build_dessin(sigma_a: Sequence[int], sigma_b: Sequence[int]) -> Dessin:
    p = _check_perm(sigma_a, "sigma_a")
    q = _check_perm(sigma_b, "sigma_b")
    if len(p) != len(q):
        raise DessinError("permutations act on different dart counts")
    n = len(p) - 1
    # transitivity: darts reachable from 1 (forward maps suffice: following
    # a permutation around its cycle also reaches preimages)
    seen = {1}
    frontier = deque([1])
    while frontier:
        x = frontier.popleft()
        for y in (p[x], q[x]):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    if len(seen) != n:
        raise DessinError("disconnected dessin: permutation pair is not transitive")
    black = tuple(perm_cycles(p))
    white = tuple(perm_cycles(q))
    faces = tuple(perm_cycles(compose(p, q)))
    v = len(black) + len(white)
    chi = v - n + len(faces)
    if (2 - chi) % 2 != 0 or (2 - chi) < 0:
        raise DessinError(f"Euler count V-E+F = {chi} is not 2 - 2g for g >= 0")
    return Dessin(n, p, q, black, white, faces)


def format_dessin_dot(d: Dessin) -> str:
    """DOT graph: filled circles for the sigma0 vertices, open circles for
    the sigma1 vertices, one edge per dart labeled by dart number."""
    lines = ["graph dessin {"]
    for i in range(len(d.black_cycles)):
        lines.append(
            f'  b{i} [shape=circle style=filled fillcolor=black label="" width=0.15];'
        )
    for i in range(len(d.white_cycles)):
        lines.append(
            f'  w{i} [shape=circle fillcolor=white label="" width=0.15];'
        )
    black_of = {}
    for i, cyc in enumerate(d.black_cycles):
        for dart in cyc:
            black_of[dart] = i
    white_of = {}
    for i, cyc in enumerate(d.white_cycles):
        for dart in cyc:
            white_of[dart] = i
    for dart in range(1, d.n_darts + 1):
        lines.append(f'  b{black_of[dart]} -- w{white_of[dart]} [label="{dart}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_dessin_summary(d: Dessin) -> str:
    payload = {
        "V": d.n_vertices,
        "E": d.n_edges,
        "F": d.n_faces,
        "genus": d.genus,
        "black_cycles": [list(c) for c in d.black_cycles],
        "white_cycles": [list(c) for c in d.white_cycles],
        "face_cycles": [list(c) for c in d.face_cycles],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def export_dessin(d: Dessin) -> tuple[str, str]:
    """(DOT text, JSON summary text), both deterministic."""
    return format_dessin_dot(d), format_dessin_summary(d)
