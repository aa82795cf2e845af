"""Finite multigraphs with labeled areas, and their loop structure.

A network is an undirected multigraph (self-loops and parallel edges allowed)
whose vertices are partitioned into labeled areas.  Its fundamental group is
free; `loop_basis` picks the standard generating set from a BFS spanning
forest, and `walk_to_word` retracts closed walks onto it.

Text format, one directive per line (`#` starts a comment):

    v <id>                 vertex (integer id)
    e <id> <tail> <head>   edge (integer id, endpoint vertex ids)
    area <label> <id>...   area block; omitted entirely = one implicit area
"""

from __future__ import annotations

from collections import deque

from ._record import Record
from .errors import GraphError
from .words import Word, reduce_word

__all__ = [
    "Network",
    "LoopBasis",
    "build_network",
    "parse_network",
    "load_network",
    "loop_basis",
    "walk_to_word",
]


class Network(Record):
    __slots__ = ("vertices", "edges", "areas")

    def __init__(
        self,
        vertices: tuple[int, ...],
        edges: tuple[tuple[int, int, int], ...],  # (edge id, tail, head)
        areas: tuple[tuple[str, tuple[int, ...]], ...],
    ) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "areas", areas)

    def edge_by_id(self) -> dict[int, tuple[int, int]]:
        return {eid: (t, h) for eid, t, h in self.edges}

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


class LoopBasis(Record):
    """Spanning forest plus the non-tree edges, one free generator each.
    Generator i (1-based) is the non-tree edge generators[i-1], oriented
    tail -> head as stored in the network."""

    __slots__ = ("spanning_tree", "generators", "n_components")

    def __init__(
        self, spanning_tree: frozenset[int], generators: tuple[int, ...], n_components: int
    ) -> None:
        object.__setattr__(self, "spanning_tree", spanning_tree)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "n_components", n_components)

    @property
    def rank(self) -> int:
        return len(self.generators)


def build_network(vertices, edges, areas=None) -> Network:
    """Validate and freeze a network.

    vertices: iterable of integer ids.  edges: iterable of (id, tail, head).
    areas: optional iterable of (label, members); omitted means a single
    implicit area "all".  The areas must partition the vertex set exactly.
    """
    vlist = [int(v) for v in vertices]
    if not vlist:
        raise GraphError("empty graph: a network needs at least one vertex")
    if len(set(vlist)) != len(vlist):
        raise GraphError("duplicate vertex id")
    vset = set(vlist)

    elist = []
    eids = set()
    for eid, tail, head in edges:
        eid, tail, head = int(eid), int(tail), int(head)
        if eid in eids:
            raise GraphError(f"duplicate edge id {eid}")
        eids.add(eid)
        for v in (tail, head):
            if v not in vset:
                raise GraphError(f"unknown vertex {v} in edge {eid}")
        elist.append((eid, tail, head))

    areas = list(areas) if areas is not None else []
    if not areas:
        alist = [("all", tuple(sorted(vlist)))]
    else:
        alist = []
        labels = set()
        seen: set[int] = set()
        for label, members in areas:
            label = str(label)
            if label in labels:
                raise GraphError(f"duplicate area label {label!r}")
            labels.add(label)
            mem = [int(m) for m in members]
            if not mem:
                raise GraphError(f"area {label!r} is empty")
            for m in mem:
                if m not in vset:
                    raise GraphError(f"unknown vertex {m} in area {label!r}")
                if m in seen:
                    raise GraphError(f"vertex {m} appears in two areas")
                seen.add(m)
            alist.append((label, tuple(sorted(mem))))
        missing = vset - seen
        if missing:
            raise GraphError(f"vertex {min(missing)} belongs to no area")
        alist.sort(key=lambda kv: kv[0])
    return Network(tuple(sorted(vlist)), tuple(sorted(elist)), tuple(alist))


def parse_network(text: str) -> Network:
    vertices: list[int] = []
    edges: list[tuple[int, int, int]] = []
    areas: list[tuple[str, list[int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 2:
                vertices.append(int(parts[1]))
            elif parts[0] == "e" and len(parts) == 4:
                edges.append((int(parts[1]), int(parts[2]), int(parts[3])))
            elif parts[0] == "area" and len(parts) >= 3:
                areas.append((parts[1], [int(p) for p in parts[2:]]))
            else:
                raise GraphError(f"line {lineno}: bad directive {line!r}")
        except ValueError as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc
    return build_network(vertices, edges, areas or None)


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())


def loop_basis(net: Network) -> LoopBasis:
    """BFS spanning forest (roots and neighbor scans in ascending id order);
    the non-tree edges, sorted by edge id, generate the fundamental group."""
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in net.vertices}
    for eid, tail, head in net.edges:
        incident[tail].append((eid, head))
        if head != tail:
            incident[head].append((eid, tail))
    for lst in incident.values():
        lst.sort()

    visited: set[int] = set()
    tree: set[int] = set()
    components = 0
    for root in net.vertices:
        if root in visited:
            continue
        components += 1
        visited.add(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for eid, w in incident[u]:
                if w not in visited:
                    visited.add(w)
                    tree.add(eid)
                    queue.append(w)
    generators = tuple(sorted(eid for eid, _, _ in net.edges if eid not in tree))
    basis = LoopBasis(frozenset(tree), generators, components)
    assert basis.rank == net.n_edges - net.n_vertices + components
    return basis


def walk_to_word(net: Network, basis: LoopBasis, walk) -> Word:
    """Map a closed walk to its free-group word.

    The walk is a sequence of signed edge ids: +e traverses edge e from its
    stored tail to its head, -e the reverse (explicit signs keep self-loops
    and parallel edges unambiguous).  Consecutive traversals must chain and
    the walk must return to its start.  Tree edges contribute nothing;
    non-tree edge e contributes generator(e)^(+-1).
    """
    steps = [int(s) for s in walk]
    if not steps:
        return Word(())
    by_id = net.edge_by_id()
    gen_index = {eid: i + 1 for i, eid in enumerate(basis.generators)}

    letters: list[int] = []
    pos = None
    start = None
    for step in steps:
        if step == 0:
            raise GraphError("walk steps are signed edge ids; 0 is not one")
        eid = abs(step)
        if eid not in by_id:
            raise GraphError(f"unknown edge {eid} in walk")
        tail, head = by_id[eid]
        if step < 0:
            tail, head = head, tail
        if pos is None:
            start = tail
        elif tail != pos:
            raise GraphError(
                f"walk breaks at edge {eid}: expected to leave vertex {pos}, "
                f"edge starts at {tail}"
            )
        pos = head
        if eid in gen_index:
            letters.append(gen_index[eid] if step > 0 else -gen_index[eid])
    if pos != start:
        raise GraphError(f"walk is not closed: starts at {start}, ends at {pos}")
    return reduce_word(letters)

