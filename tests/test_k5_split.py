"""The K5-free decomposer's two inner tests: the lazy separating-triple scan
(against the eager oracle) and the direct Wagner-graph check (against
networkx isomorphism)."""

import itertools
import random

import networkx as nx
import pytest

from minorflow import decomposition
from minorflow.decomposition import (
    _is_v8,
    _nbrs,
    _separating_triples,
    _split_k5,
    decompose_k5_free,
    refine,
    run,
    validate,
)
from minorflow.maxflow import max_flow
from minorflow.planar import adjacency, index_lists, is_planar, to_nx
from minorflow.solver import max_flow_decomposed
from minorflow.testkit import (
    GenConfig,
    gen_instance,
    oracle_separating_triples,
    torso_adjacency,
)

from conftest import backtracking_net

V8 = nx.Graph([(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
CUBE = nx.hypercube_graph(3)
TWO_K4 = nx.disjoint_union(nx.complete_graph(4), nx.complete_graph(4))
# The three connected cubic graphs on 8 vertices that have triangles: one,
# two and four of them.
CUBIC_WITH_TRIANGLES = [
    nx.Graph([(0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (1, 7),
              (2, 5), (2, 6), (3, 6), (4, 6), (4, 7), (5, 7)]),
    nx.Graph([(0, 1), (0, 6), (0, 7), (1, 3), (1, 7), (2, 4),
              (2, 5), (2, 7), (3, 4), (3, 6), (4, 5), (5, 6)]),
    nx.Graph([(0, 1), (0, 6), (0, 7), (1, 6), (1, 7), (2, 3),
              (2, 4), (2, 5), (3, 5), (3, 6), (4, 5), (4, 7)]),
]
# Every cubic graph on 8 vertices, up to isomorphism: 5 connected ones
# (OEIS A002851) and 2·K4.
CUBIC_8 = [V8, CUBE, TWO_K4] + CUBIC_WITH_TRIANGLES


def nbrs_of(g: nx.Graph) -> list[list[int]]:
    """Index adjacency lists of ``g``, its nodes numbered in their order."""
    index = {v: i for i, v in enumerate(g)}
    return [[index[w] for w in g[v]] for v in g]


def lazy_triples(adj) -> list[tuple[int, ...]]:
    """``_separating_triples`` of an adjacency mapping, in its vertex ids."""
    order, nbrs = index_lists(adj)
    return [tuple(order[i] for i in triple) for triple in _separating_triples(nbrs)]


def piece_adjacency(piece) -> dict[int, set[int]]:
    """The graph of a decomposer piece, on its positions."""
    return dict(enumerate(map(set, _nbrs(piece))))


def relabeled(g: nx.Graph, rng: random.Random) -> nx.Graph:
    labels = rng.sample(range(100), g.number_of_nodes())
    return nx.relabel_nodes(g, dict(zip(g, labels)))


def test_the_cubic_graphs_on_8_vertices_are_all_listed_once():
    for g in CUBIC_8:
        assert g.number_of_nodes() == 8 and all(d == 3 for _, d in g.degree)
    for g, h in itertools.combinations(CUBIC_8, 2):
        assert not nx.is_isomorphic(g, h)
    assert sum(nx.is_connected(g) for g in CUBIC_8) == 5
    # Random cubic graphs land in the list.
    for seed in range(100):
        g = nx.random_regular_graph(3, 8, seed=seed)
        assert any(nx.is_isomorphic(g, h) for h in CUBIC_8)


@pytest.mark.parametrize("index", range(len(CUBIC_8)))
def test_is_v8_agrees_with_networkx_on_every_cubic_graph_on_8_vertices(index):
    rng = random.Random(index)
    for _ in range(100):
        g = relabeled(CUBIC_8[index], rng)
        assert _is_v8(nbrs_of(g)) is nx.is_isomorphic(g, V8)


@pytest.mark.parametrize(
    "g",
    [
        nx.complete_graph(5),
        nx.petersen_graph(),  # cubic, 10 vertices
        nx.circulant_graph(8, [1, 2]),  # 4-regular on 8 vertices
        nx.disjoint_union(V8, nx.empty_graph(1)),  # V8 plus an isolated vertex
        nx.Graph([e for e in V8.edges if e != (0, 4)] + [(0, 2)]),  # not cubic
        nx.Graph([e for e in V8.edges if e != (0, 4)]),  # V8 minus a chord
        nx.cycle_graph(8),
    ],
    ids=["K5", "Petersen", "C8(1,2)", "V8+isolated", "rewired", "V8-chord", "C8"],
)
def test_is_v8_rejects_wrong_sizes_and_degrees(g):
    assert not _is_v8(nbrs_of(g))


def record_split_k5_pieces(monkeypatch) -> list:
    """Make every call of ``_split_k5`` (recursive ones too) note its piece."""
    seen: list = []
    real = decomposition._split_k5

    def recording(piece, memo):
        seen.append(piece)
        return real(piece, memo)

    monkeypatch.setattr(decomposition, "_split_k5", recording)
    return seen


def three_connected(adj) -> bool:
    return len(adj) >= 4 and nx.node_connectivity(to_nx(adj)) >= 3


def test_lazy_triples_equal_the_eager_list_on_every_piece(monkeypatch):
    """On every piece ``_split_k5`` receives from generated k5free inputs, and
    on every triconnected torso of their refined trees and those of
    generated planar inputs, the generator, consumed fully, lists the eager
    oracle's triples in its order."""
    seen = record_split_k5_pieces(monkeypatch)
    torsos = {}
    for family, sizes in (("k5free", (40, 80, 126, 160, 300, 1000)), ("planar", (40, 80))):
        for n in sizes:
            for seed in range(5):
                graph, _ = gen_instance(GenConfig(family, n, seed=seed))
                tree = refine(decompose_k5_free(graph))
                for cid in tree.components:
                    torso = torso_adjacency(tree, cid)
                    if len(torso) >= 4 and min(map(len, torso.values())) >= 3:
                        torsos[frozenset((u, v) for u in torso for v in torso[u])] = torso
    pieces = {piece: piece_adjacency(piece) for piece in seen}
    assert len(pieces) >= 100 and len(torsos) >= 100
    for adj in list(pieces.values()) + list(torsos.values()):
        assert three_connected(adj)
        assert lazy_triples(adj) == oracle_separating_triples(adj)


def test_lazy_triples_equal_the_eager_list_on_random_3_connected_graphs(rng):
    checked = 0
    while checked < 60:
        n = rng.randint(5, 10)
        pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.45]
        adj = adjacency(range(n), pairs)
        if not three_connected(adj):
            continue
        labels = dict(zip(range(n), rng.sample(range(50), n)))
        adj = {labels[v]: {labels[w] for w in adj[v]} for v in adj}
        assert lazy_triples(adj) == oracle_separating_triples(adj)
        checked += 1


def count_articulation_calls(monkeypatch) -> list:
    calls: list = []
    real = decomposition.articulation_points

    def counting(nbrs, removed=frozenset()):
        calls.append(removed)
        return real(nbrs, removed)

    monkeypatch.setattr(decomposition, "articulation_points", counting)
    return calls


def test_split_k5_stops_at_the_first_triple_that_splits(monkeypatch):
    # K3,3 is a 3-sum of three K4s at the triangle {0, 1, 2}: the first pair
    # (0, 1) yields it, so one articulation DFS runs, not one per pair.
    calls = count_articulation_calls(monkeypatch)
    pairs = tuple(x for a in range(3) for b in range(3, 6) for x in (a, b))
    pieces, cliques, _ = run(_split_k5((tuple(range(6)), pairs), {}))
    assert [list(v) for v, _ in pieces] == [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]]
    assert cliques == [((0, 1, 2), [0, 1, 2])]
    assert len(calls) == 1


def test_the_triple_scans_of_a_generated_input_run_fewer_dfs_than_pairs(monkeypatch):
    seen = record_split_k5_pieces(monkeypatch)
    calls = count_articulation_calls(monkeypatch)
    graph, _ = gen_instance(GenConfig("k5free", 160, seed=1))
    decompose_k5_free(graph)
    scanned = [_nbrs(piece) for piece in set(seen)]
    scanned = [nbrs for nbrs in scanned if not decomposition.is_planar(nbrs) and not _is_v8(nbrs)]
    assert scanned
    assert len(calls) < sum(len(adj) * (len(adj) - 1) // 2 for adj in scanned)


def test_split_k5_backtracks_past_sides_that_do_not_split(monkeypatch):
    # The first triples' completed sides are neither planar, V8 nor split
    # again: the decomposer must drop each and try the next triple.  Keeping
    # a failed side whole leaves the non-planar 5-vertex torso {0, 1, 4, 5,
    # 6}, which ``validate`` accepts since it is at most ``_SMALL_CAP``.
    failed = []
    real = decomposition._split_k5

    def noting(piece, memo):
        result = yield real(piece, memo)
        failed.append(result is None)
        return result

    monkeypatch.setattr(decomposition, "_split_k5", noting)
    graph = backtracking_net()
    tree = decompose_k5_free(graph)
    assert sum(failed) == 4
    assert validate(graph, tree) == (True, [])
    for cid in tree.components:
        torso = torso_adjacency(tree, cid)
        nbrs = index_lists(torso)[1]
        assert is_planar(nbrs) or _is_v8(nbrs), sorted(torso)
    for s, t in itertools.permutations(sorted(graph.vertices), 2):
        assert max_flow_decomposed(graph, tree, s, t)[0] == max_flow(graph, s, t)[0]
