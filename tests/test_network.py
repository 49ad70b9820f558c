import copy
import dataclasses
import pickle
import re
from types import MappingProxyType

import pytest

from minorflow.network import (
    FULL,
    SINGLE_SOURCE,
    CutTable,
    Edge,
    FlowNetwork,
    TerminalSet,
    UnknownVertexError,
    imbalances,
    merge_networks,
    nonempty_subsets,
    proper_subsets,
)


def test_edge_rejects_self_loop_and_negative_capacity():
    with pytest.raises(ValueError, match=re.escape("self-loop at vertex 1 (edge 0)")):
        Edge(0, 1, 1, 3)
    with pytest.raises(ValueError, match="^negative capacity -1 on edge 0$"):
        Edge(0, 1, 2, -1)


def test_edge_is_a_frozen_value_type():
    e = Edge(1, 2, 3, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.cap = 5
    assert not hasattr(e, "__dict__")
    assert e == Edge(id=1, tail=2, head=3, cap=4)
    assert hash(e) == hash(Edge(1, 2, 3, 4))
    assert e != Edge(1, 2, 3, 5)
    assert e != (1, 2, 3, 4)
    assert repr(e) == "Edge(id=1, tail=2, head=3, cap=4)"
    for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert twin == e and type(twin) is Edge
    assert dataclasses.replace(e, cap=0) == Edge(1, 2, 3, 0)
    with pytest.raises(ValueError, match=re.escape("self-loop at vertex 2 (edge 1)")):
        dataclasses.replace(e, head=e.tail)


def test_network_rejects_duplicate_edge_ids():
    with pytest.raises(ValueError, match="^duplicate edge id 0$"):
        FlowNetwork.from_edges([(0, 1, 2, 1), (0, 2, 3, 1)])


def test_network_rejects_an_edge_to_a_missing_vertex():
    with pytest.raises(UnknownVertexError, match="^edge 0 references missing vertex$"):
        FlowNetwork(frozenset({1}), (Edge(0, 1, 2, 1),))


def test_parallel_and_antiparallel_edges_are_allowed():
    net = FlowNetwork.from_edges([(0, 1, 2, 1), (1, 1, 2, 4), (2, 2, 1, 2)])
    assert len(net.edges) == 3


def test_adjacency_and_id_helpers():
    net = FlowNetwork.from_edges([(3, 1, 2, 5)], extra_vertices=[7])
    assert net.edge_by_id[3].cap == 5
    assert net.next_vertex_id() == 8
    assert net.next_edge_id() == 4
    assert FlowNetwork(frozenset(), ()).next_edge_id() == 0


def test_merge_networks_requires_disjoint_edge_ids():
    a = FlowNetwork.from_edges([(0, 1, 2, 1)])
    b = FlowNetwork.from_edges([(0, 2, 3, 1)])
    with pytest.raises(ValueError):
        merge_networks(a, b)


def test_terminal_set_invariants():
    with pytest.raises(ValueError):
        TerminalSet((1, 1))
    with pytest.raises(ValueError):
        TerminalSet((1, 2, 3, 4, 5))
    q = TerminalSet.single_source(9, 1, 2)
    assert q.source == 9
    assert q.non_sources == (1, 2)


def test_subset_enumerations():
    assert list(proper_subsets((1, 2))) == [(1,), (2,)]
    assert len(list(proper_subsets((1, 2, 3, 4)))) == 14
    assert len(list(nonempty_subsets((1, 2, 3)))) == 7


def test_subset_order_is_by_size_then_bit_mask():
    # Phase I asks its cuts, and build_mimic_general numbers its signature
    # bits, in this order; items are sorted first.
    three = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    assert list(nonempty_subsets((3, 1, 2))) == three
    assert list(proper_subsets((3, 1, 2))) == three[:-1]
    four = [
        (1,), (2,), (3,), (4,),
        (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
        (1, 2, 3, 4),
    ]  # fmt: skip
    assert list(nonempty_subsets((4, 2, 3, 1))) == four
    assert list(proper_subsets((4, 2, 3, 1))) == four[:-1]


def test_cut_table_requires_complete_keys():
    q = TerminalSet((1, 2))
    with pytest.raises(ValueError):
        CutTable(FULL, q, {frozenset((1,)): 0})
    table = CutTable(FULL, q, {frozenset((1,)): 2, frozenset((2,)): 0})
    assert table.cut([1]) == 2
    ss = CutTable(SINGLE_SOURCE, TerminalSet.single_source(1, 2), {frozenset((2,)): 3})
    assert ss.cut([2]) == 3


def test_cut_table_equality_compares_mode_terminals_and_values():
    q = TerminalSet((1, 2, 3))
    keys = [frozenset(s) for s in proper_subsets(q.order)]
    values = {key: i for i, key in enumerate(keys)}
    table = CutTable(FULL, q, values)
    assert table == CutTable(FULL, q, dict(reversed(values.items())))
    assert table == CutTable(FULL, q, MappingProxyType(values))
    assert table != CutTable(FULL, q, values | {keys[0]: 9})
    assert table != CutTable(FULL, TerminalSet((2, 1, 3)), values)
    # One terminal: both modes take the empty table, so only the mode differs.
    lone = TerminalSet.single_source(1)
    assert CutTable(FULL, lone, {}) != CutTable(SINGLE_SOURCE, lone, {})


def required_keys(mode, q):
    if mode == FULL:
        return [frozenset(s) for s in proper_subsets(q.order)]
    return [frozenset(s) for s in nonempty_subsets(q.non_sources)]


@pytest.mark.parametrize("mode", [FULL, SINGLE_SOURCE])
def test_cut_table_accepts_exactly_the_required_keys(mode):
    source_index = 0 if mode == SINGLE_SOURCE else None
    for k in range(1, 5):
        q = TerminalSet(tuple(range(1, k + 1)), source_index)
        CutTable(mode, q, dict.fromkeys(required_keys(mode, q), 1))
    q = TerminalSet((1, 2, 3), source_index)
    keys = required_keys(mode, q)
    wrong = {
        "a missing key": keys[1:],
        "a non-terminal": keys[1:] + [frozenset((2, 9))],
        "all terminals in place of a key": keys[1:] + [frozenset(q.order)],
        "all terminals as an extra key": keys + [frozenset(q.order)],
        "an empty key": keys[1:] + [frozenset()],
        "a tuple key": keys[1:] + [tuple(keys[0])],
    }
    for case, bad in wrong.items():
        with pytest.raises(ValueError, match="keys do not cover the required splits"):
            CutTable(mode, q, dict.fromkeys(bad, 1))
            pytest.fail(case)


def test_imbalances():
    net = FlowNetwork.from_edges([(0, 1, 2, 5), (1, 2, 3, 5)])
    bal = imbalances(net, {0: 3, 1: 1})
    assert bal == {1: 3, 2: -2, 3: -1}
