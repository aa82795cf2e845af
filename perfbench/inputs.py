"""Seeded input files for the benchmark workloads.

Every generator takes a `random.Random` built from the workload seed, so one
seed always yields the same bytes.  Each writer returns the facts the output
checks need (edge lists, matrices, gate lists), so no check has to re-read
the files it wrote.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from pathlib import Path

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def word_text(letters: list[int]) -> str:
    """Text form of a word: generator k is the k-th letter, its inverse the
    capital."""
    if not letters:
        return "1"
    return "".join(
        LETTERS[abs(l) - 1] if l > 0 else LETTERS[abs(l) - 1].upper() for l in letters
    )


def free_reduce(letters: list[int]) -> list[int]:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return out


# -- network (graph subcommand) ----------------------------------------------


@dataclass(frozen=True)
class NetworkInput:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (edge id, tail, head)
    walk: tuple[int, ...]  # signed edge ids of a closed walk


def write_network(path: Path, rng: random.Random) -> NetworkInput:
    """Two components (7 and 3 vertices), each connected by a random spanning
    tree, plus extra edges including a self-loop and a parallel edge."""
    vertices = list(range(1, 11))
    comps = [vertices[:7], vertices[7:]]
    pairs: list[tuple[int, int]] = []
    for comp in comps:
        order = comp[:]
        rng.shuffle(order)
        for i in range(1, len(order)):
            pairs.append((order[rng.randrange(i)], order[i]))
    big = comps[0]
    for _ in range(4):
        pairs.append(tuple(rng.sample(big, 2)))
    loop_at = rng.choice(big)
    pairs.append((loop_at, loop_at))
    pairs.append(pairs[rng.randrange(len(pairs))])
    pairs.append(tuple(rng.sample(comps[1], 2)))
    ids = rng.sample(range(1, 60), len(pairs))
    edges = tuple(sorted((eid, t, h) for eid, (t, h) in zip(ids, pairs)))

    lines = [f"v {v}" for v in vertices]
    lines += [f"e {eid} {t} {h}" for eid, t, h in edges]
    shuffled = vertices[:]
    rng.shuffle(shuffled)
    lines.append("area A " + " ".join(map(str, sorted(shuffled[:4]))))
    lines.append("area B " + " ".join(map(str, sorted(shuffled[4:]))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return NetworkInput(tuple(vertices), edges, _closed_walk(edges, big[0], rng))


def _closed_walk(edges, start: int, rng: random.Random) -> tuple[int, ...]:
    """Eight random steps from `start`, then the shortest way back."""
    steps_from: dict[int, list[tuple[int, int]]] = {}
    for eid, t, h in edges:
        steps_from.setdefault(t, []).append((eid, h))
        if t != h:
            steps_from.setdefault(h, []).append((-eid, t))
    walk: list[int] = []
    pos = start
    for _ in range(8):
        step, pos = rng.choice(steps_from[pos])
        walk.append(step)
    back: dict[int, tuple[int, int] | None] = {pos: None}
    queue = [pos]
    while start not in back:
        u = queue.pop(0)
        for step, w in steps_from[u]:
            if w not in back:
                back[w] = (step, u)
                queue.append(w)
    tail: list[int] = []
    v = start
    while back[v] is not None:
        step, u = back[v]
        tail.append(step)
        v = u
    return tuple(walk + tail[::-1])


# -- representation and words (character subcommand) ------------------------


@dataclass(frozen=True)
class RepInput:
    matrices: tuple[tuple[complex, complex, complex, complex], ...]
    words: tuple[tuple[int, ...], ...]


def write_rep(path: Path, rng: random.Random) -> RepInput:
    """Two random unimodular matrices (d solved from ad - bc = 1) and eight
    random reduced words of length 1 to 6."""
    mats = []
    for _ in range(2):
        a = cmath.rect(rng.uniform(0.8, 2.0), rng.uniform(0.0, 2.0 * math.pi))
        b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        c = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        mats.append((a, b, c, (1.0 + b * c) / a))
    lines = []
    for letter, m in zip(LETTERS, mats):
        lines.append(letter + " " + " ".join(f"{e.real!r},{e.imag!r}" for e in m))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    words = []
    for _ in range(8):
        w: list[int] = []
        for _ in range(rng.randint(1, 6)):
            w.append(rng.choice([l for l in (1, -1, 2, -2) if not w or l != -w[-1]]))
        words.append(tuple(w))
    return RepInput(tuple(mats), tuple(words))


# -- circuits (qnet subcommand) ----------------------------------------------


@dataclass(frozen=True)
class CircuitInput:
    n_areas: int
    inits: tuple[tuple[complex, complex], ...]
    gates: tuple[tuple, ...]  # ("NOT", k) | ("SU2", k, (a, b, c, d)) | ("CNOT", c, t)

    def count(self, kind: str) -> int:
        return sum(1 for g in self.gates if g[0] == kind)


def _random_su2(rng: random.Random) -> tuple[complex, complex, complex, complex]:
    w, x, y, z = (rng.gauss(0.0, 1.0) for _ in range(4))
    r = math.sqrt(w * w + x * x + y * y + z * z)
    alpha, beta = complex(w / r, x / r), complex(y / r, z / r)
    return (alpha, beta, -beta.conjugate(), alpha.conjugate())


def write_circuit(
    path: Path, rng: random.Random, n_areas: int, n_su2: int, n_cnot: int, n_not: int
) -> CircuitInput:
    """Raw (unnormalized) init states and a shuffled gate list with exactly
    the given count of each gate kind."""
    inits = tuple(
        (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
         complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        for _ in range(n_areas)
    )
    gates: list[tuple] = []
    gates += [("SU2", rng.randint(1, n_areas), _random_su2(rng)) for _ in range(n_su2)]
    gates += [("CNOT", *rng.sample(range(1, n_areas + 1), 2)) for _ in range(n_cnot)]
    gates += [("NOT", rng.randint(1, n_areas)) for _ in range(n_not)]
    rng.shuffle(gates)

    lines = []
    for k, (a, b) in enumerate(inits, start=1):
        lines.append(f"init {k} {a.real!r} {a.imag!r} {b.real!r} {b.imag!r}")
    for g in gates:
        if g[0] == "SU2":
            cells = " ".join(f"{e.real!r} {e.imag!r}" for e in g[2])
            lines.append(f"SU2 {g[1]} {cells}")
        else:
            lines.append(" ".join(map(str, g)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return CircuitInput(n_areas, inits, tuple(gates))
