import itertools

import pytest

from minorflow.planar import PlanarEmbedding, components, is_planar, planar_embed


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
