import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorflow.decomposition import torso_adjacency, underlying, validate
from minorflow.planar import PlanarEmbedding, components, is_planar, planar_embed, to_nx
from minorflow.testkit import GenConfig, gen_instance


def adj_of(pairs):
    adj = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


K4 = adj_of(itertools.combinations(range(4), 2))
K5 = adj_of(itertools.combinations(range(5), 2))
K33 = adj_of((a, b + 3) for a in range(3) for b in range(3))
V8 = adj_of([(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
PATH = adj_of([(0, 1), (1, 2), (2, 3)])
ISOLATED = {5: set()}


def test_k4_embedding_has_four_faces():
    emb = planar_embed(K4)
    assert isinstance(emb, PlanarEmbedding)
    assert len(emb.faces) == 4
    assert all(len(f) == 3 for f in emb.faces)


def test_k5_and_k33_have_no_embedding():
    assert planar_embed(K5) is None
    assert planar_embed(K33) is None


@pytest.mark.parametrize(
    "adj, planar",
    [(K4, True), (K5, False), (K33, False), (V8, False), (PATH, True), (ISOLATED, True)],
    ids=["K4", "K5", "K3,3", "V8", "path", "isolated"],
)
def test_is_planar_agrees_with_planar_embed(adj, planar):
    assert is_planar(adj) is planar
    assert (planar_embed(adj) is not None) is planar


def test_triangle_face_membership():
    # square plus one diagonal: faces are two triangles and the outer square
    emb = planar_embed(adj_of([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    assert emb.is_triangle_face((0, 1, 2))
    assert emb.is_triangle_face((0, 2, 3))
    assert not emb.is_triangle_face((0, 1, 3))


def test_single_edge_and_isolated_vertex():
    emb = planar_embed({0: {1}, 1: {0}, 7: set()})
    assert isinstance(emb, PlanarEmbedding)
    assert len(emb.faces) == 1


def test_components_order_by_smallest_vertex_and_keep_isolated_vertices():
    adj = adj_of([(9, 2), (2, 7), (4, 8)])
    adj[5] = set()
    assert components(adj) == [{2, 7, 9}, {4, 8}, {5}]
    assert components({}) == []


def test_components_with_removed_vertices_drop_their_edges():
    # a path 0-1-2-3-4 with a pendant 2-5: removing 2 leaves three pieces
    adj = adj_of([(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    assert components(adj, {2}) == [{0, 1}, {3, 4}, {5}]
    assert components(adj, frozenset((1, 3))) == [{0}, {2, 5}, {4}]
    assert components(adj, set(adj)) == []
    assert components(adj) == [set(range(6))]


def _stacked_triangulation(rng, n):
    """Edges of a random stacked triangulation of 0..n-1: planar, with
    3n - 6 edges for n >= 3."""
    if n < 3:
        return [(0, 1)] if n == 2 else []
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(v, a), (v, b), (v, c)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return edges


def _planted(rng, n, target):
    """A planar graph on 0..n-1 plus a subdivided K5 or K3,3 whose branch
    vertices are graph vertices and whose paths run through new vertices."""
    edges = [e for e in _stacked_triangulation(rng, n) if rng.random() < 0.7]
    if target == "K5":
        branch = rng.sample(range(n), 5)
        links = list(itertools.combinations(branch, 2))
    else:
        branch = rng.sample(range(n), 6)
        links = [(a, b) for a in branch[:3] for b in branch[3:]]
    fresh = n
    for a, b in links:
        path = [a] + list(range(fresh, fresh + rng.randint(0, 2))) + [b]
        fresh += len(path) - 2
        edges += zip(path, path[1:])
    return fresh, edges


@st.composite
def graphs(draw):
    """(adjacency, known answer or None): random graphs over a range of
    densities, random graphs with 3n - 6 or 3n - 5 edges, planar graphs and
    planted K5 / K3,3 subdivisions, with isolated vertices and relabelled."""
    rng = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(("random", "euler", "planar", "K5", "K33")))
    n = draw(st.integers(0, 40) if shape in ("random", "euler") else st.integers(6, 34))
    known = None
    if shape == "random":
        p = draw(st.sampled_from((0.02, 0.1, 0.2, 0.35, 0.6, 1.0)))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    elif shape == "euler":
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, min(len(pairs), max(0, 3 * n - 6 + draw(st.integers(0, 1)))))
    elif shape == "planar":
        edges = [e for e in _stacked_triangulation(rng, n) if rng.random() < 0.8]
        known = True
    else:
        n, edges = _planted(rng, n, shape)
        known = False
    total = n + draw(st.integers(0, 2))  # isolated vertices
    labels = rng.sample(range(10 * total + 10), total)
    adj = {labels[v]: set() for v in rng.sample(range(total), total)}
    for u, v in edges:
        adj[labels[u]].add(labels[v])
        adj[labels[v]].add(labels[u])
    return adj, known


@given(graphs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_is_planar_agrees_with_networkx(case):
    adj, known = case
    planar = nx.check_planarity(to_nx(adj))[0]
    assert is_planar(adj) is planar
    assert known is None or known is planar


@pytest.mark.parametrize("family", ["k33free", "k5free", "planar"])
@pytest.mark.parametrize("n", [40, 2000])
def test_is_planar_agrees_with_networkx_on_generated_torsos(family, n):
    graph, tree = gen_instance(GenConfig(family, n, seed=1))
    torsos = [torso_adjacency(tree, cid) for cid in sorted(tree.components)]
    for torso in torsos + [underlying(graph)]:
        assert is_planar(torso) is nx.check_planarity(to_nx(torso))[0]


def test_validate_does_not_call_networkx_planarity(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("networkx.check_planarity called")

    monkeypatch.setattr(nx, "check_planarity", refuse)
    graph, tree = gen_instance(GenConfig("k5free", 400, seed=3))
    assert validate(graph, tree) == (True, [])


def test_is_planar_has_no_recursion_limit_on_deep_searches():
    cycle = adj_of((i, (i + 1) % 20_000) for i in range(20_000))
    assert is_planar(cycle)
    graph, tree = gen_instance(GenConfig("planar", 10_000, seed=3))
    (cid,) = tree.components
    assert is_planar(torso_adjacency(tree, cid))
