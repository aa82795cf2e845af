from __future__ import annotations

import numpy as np
import pytest

from kleinnet.errors import GraphError
from kleinnet.netgraph import (
    Network,
    build_network,
    loop_basis,
    parse_network,
    walk_to_word,
)


# -- independent oracle: cycle rank = E - rank_GF2(incidence matrix) --

def _gf2_cycle_rank(vertices, edges) -> int:
    vindex = {v: i for i, v in enumerate(vertices)}
    rows = []
    for _, tail, head in edges:
        row = [0] * len(vertices)
        if tail != head:
            row[vindex[tail]] ^= 1
            row[vindex[head]] ^= 1
        rows.append(row)
    # Gaussian elimination over GF(2) on the incidence matrix (edges x vertices)
    rank = 0
    cols = len(vertices)
    pivot_rows = [r[:] for r in rows]
    col = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(pivot_rows)):
            if pivot_rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        pivot_rows[rank], pivot_rows[pivot] = pivot_rows[pivot], pivot_rows[rank]
        for r in range(len(pivot_rows)):
            if r != rank and pivot_rows[r][col]:
                pivot_rows[r] = [a ^ b for a, b in zip(pivot_rows[r], pivot_rows[rank])]
        rank += 1
    return len(edges) - rank


def _theta_graph() -> Network:
    return build_network([1, 2], [(1, 1, 2), (2, 1, 2), (3, 1, 2)])


def _figure_eight() -> Network:
    return build_network([1], [(1, 1, 1), (2, 1, 1)])


def test_single_vertex_rank_zero():
    net = build_network([1], [])
    basis = loop_basis(net)
    assert basis.rank == 0 and basis.n_components == 1


def test_theta_graph_rank_matches_gf2_oracle():
    net = _theta_graph()
    basis = loop_basis(net)
    assert basis.rank == 2
    assert basis.rank == _gf2_cycle_rank(net.vertices, net.edges)
    assert basis.spanning_tree == frozenset({1})
    assert basis.generators == (2, 3)


def test_five_vertex_path_with_areas():
    net = build_network(
        [1, 2, 3, 4, 5],
        [(1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 5)],
        [("left", [1, 2]), ("right", [3, 4, 5])],
    )
    basis = loop_basis(net)
    assert basis.rank == 0
    assert [a[0] for a in net.areas] == ["left", "right"]


def test_rank_formula_on_random_multigraphs():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        vertices = list(range(1, n + 1))
        m = int(rng.integers(0, 14))
        edges = [
            (i + 1, int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
            for i in range(m)
        ]
        net = build_network(vertices, edges)
        basis = loop_basis(net)
        assert basis.rank == _gf2_cycle_rank(net.vertices, net.edges)
        assert basis.rank == net.n_edges - net.n_vertices + basis.n_components


def test_figure_eight_walk_is_commutator():
    net = _figure_eight()
    basis = loop_basis(net)
    assert basis.rank == 2
    word = walk_to_word(net, basis, [1, 2, -1, -2])
    assert word.text() == "abAB"


def test_walk_collapses_tree_edges():
    # path edge 1 is the tree edge; edge 2 closes the only loop
    net = build_network([1, 2], [(1, 1, 2), (2, 2, 1)])
    basis = loop_basis(net)
    assert basis.generators == (2,)
    word = walk_to_word(net, basis, [1, 2])
    assert word.text() == "a"
    back = walk_to_word(net, basis, [-2, -1])
    assert back.text() == "A"


def test_walk_concatenation_multiplies_words():
    net = _figure_eight()
    basis = loop_basis(net)
    rng = np.random.default_rng(5)
    for _ in range(200):
        w1 = [int(s) for s in rng.choice([1, -1, 2, -2], size=rng.integers(0, 6))]
        w2 = [int(s) for s in rng.choice([1, -1, 2, -2], size=rng.integers(0, 6))]
        joint = walk_to_word(net, basis, w1 + w2)
        assert joint == walk_to_word(net, basis, w1) * walk_to_word(net, basis, w2)


def test_trivial_closed_walk_gives_identity():
    net = build_network([1, 2], [(1, 1, 2)])
    basis = loop_basis(net)
    assert walk_to_word(net, basis, [1, -1]).letters == ()


def test_broken_walk_rejected():
    net = _theta_graph()
    basis = loop_basis(net)
    with pytest.raises(GraphError):
        walk_to_word(net, basis, [1, 2])  # 1 ends at 2, +2 starts at 1
    with pytest.raises(GraphError):
        walk_to_word(net, basis, [1])  # not closed
    with pytest.raises(GraphError):
        walk_to_word(net, basis, [9])


def test_validation_errors():
    with pytest.raises(GraphError):
        build_network([], [])
    with pytest.raises(GraphError):
        build_network([1, 1], [])
    with pytest.raises(GraphError):
        build_network([1], [(1, 1, 2)])
    with pytest.raises(GraphError):
        build_network([1, 2], [(1, 1, 2), (1, 2, 1)])
    with pytest.raises(GraphError):
        build_network([1, 2], [], [("x", [1]), ("y", [1, 2])])
    with pytest.raises(GraphError):
        build_network([1, 2], [], [("x", [1])])
    with pytest.raises(GraphError):
        build_network([1, 2], [], [("x", [1]), ("x", [2])])


def test_parse_round_trips_structure():
    text = """
    # two areas, one loop
    v 1
    v 2
    e 10 1 2
    e 11 2 1
    area top 1
    area bottom 2
    """
    net = parse_network(text)
    assert net.vertices == (1, 2)
    assert net.n_edges == 2
    assert [a[0] for a in net.areas] == ["bottom", "top"]
    assert loop_basis(net).rank == 1


def test_parse_rejects_bad_lines():
    with pytest.raises(GraphError):
        parse_network("v 1\nq 2\n")
    with pytest.raises(GraphError):
        parse_network("v x\n")
    with pytest.raises(GraphError):
        parse_network("v 1\ne 1 1\n")


def test_disconnected_components_counted():
    net = build_network([1, 2, 3, 4], [(1, 1, 2), (2, 3, 4), (3, 4, 3)])
    basis = loop_basis(net)
    assert basis.n_components == 2
    assert basis.rank == 1

