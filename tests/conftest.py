import random

import pytest

from minorflow.decomposition import DecompositionTree, biconnected_split
from minorflow.network import FlowNetwork
from minorflow.planar import index_lists


def dnet(pairs, extra=(), cap=1):
    """Directed unit-capacity network from (tail, head) pairs, ids serial."""
    return FlowNetwork.from_edges(
        [(i, u, v, cap) for i, (u, v) in enumerate(pairs)], extra
    )


def id_blocks(adj):
    """``biconnected_split`` of an adjacency mapping, in its vertex ids: each
    block as (vertex set, set of vertex pairs), and the articulation vertices."""
    order, nbrs = index_lists(adj)
    blocks, arts = biconnected_split(nbrs)
    ids = order.__getitem__
    return [
        (frozenset(map(ids, vs)),
         frozenset(frozenset((ids(vs[a]), ids(vs[b]))) for a, b in zip(ps[::2], ps[1::2])))
        for vs, ps in blocks
    ], frozenset(map(ids, arts))


# A 3-connected K5-free graph on which ``decompose_k5_free`` backtracks: four
# completed sides of separating triples fail (neither planar, V8 nor split)
# before a triple whose sides all split.
BACKTRACKING_PAIRS = [
    (0, 2), (0, 3), (0, 6), (1, 3), (1, 4), (1, 6), (2, 4), (2, 6), (3, 5), (4, 5), (5, 6)
]


def backtracking_net():
    """The graph of ``BACKTRACKING_PAIRS`` with a unit arc each way, ids serial."""
    return dnet([arc for u, v in BACKTRACKING_PAIRS for arc in ((u, v), (v, u))])


def overflow_tree():
    # Every arc holds 2^62, so the value (2^63) and the sums on internal arcs
    # (cut tables, the super-source arc) exceed the 2^63-1 input bound.
    cap = 2**62
    s, u, v, t, x, y = range(1, 7)
    path = FlowNetwork.from_edges([(1, s, u, cap), (2, s, u, cap), (3, v, t, cap), (4, v, t, cap)])
    leaf = FlowNetwork.from_edges([(5, u, x, cap), (6, x, v, cap), (7, u, y, cap), (8, y, v, cap)])
    tree = DecompositionTree()
    cp = tree.add_component(path)
    cl = tree.add_component(leaf)
    k = tree.add_clique([u, v])
    tree.attach(cp, k)
    tree.attach(cl, k)
    return tree


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
