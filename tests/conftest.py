import random

import pytest

from minorflow.decomposition import DecompositionTree
from minorflow.network import FlowNetwork


def dnet(pairs, extra=(), cap=1):
    """Directed unit-capacity network from (tail, head) pairs, ids serial."""
    return FlowNetwork.from_edges(
        [(i, u, v, cap) for i, (u, v) in enumerate(pairs)], extra
    )


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
