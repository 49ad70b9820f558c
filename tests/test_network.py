import pytest

from minorflow.network import (
    FULL,
    SINGLE_SOURCE,
    CutTable,
    Edge,
    FlowNetwork,
    TerminalSet,
    imbalances,
    merge_networks,
    nonempty_subsets,
    proper_subsets,
)


def test_edge_rejects_self_loop_and_negative_capacity():
    with pytest.raises(ValueError):
        Edge(0, 1, 1, 3)
    with pytest.raises(ValueError):
        Edge(0, 1, 2, -1)


def test_network_rejects_duplicate_edge_ids():
    with pytest.raises(ValueError):
        FlowNetwork.from_edges([(0, 1, 2, 1), (0, 2, 3, 1)])


def test_parallel_and_antiparallel_edges_are_allowed():
    net = FlowNetwork.from_edges([(0, 1, 2, 1), (1, 1, 2, 4), (2, 2, 1, 2)])
    assert len(net.edges) == 3


def test_adjacency_and_id_helpers():
    net = FlowNetwork.from_edges([(3, 1, 2, 5)], extra_vertices=[7])
    assert net.edge_by_id[3].cap == 5
    assert net.next_vertex_id() == 8
    assert net.next_edge_id() == 4


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


def test_cut_table_requires_complete_keys():
    q = TerminalSet((1, 2))
    with pytest.raises(ValueError):
        CutTable(FULL, q, {frozenset((1,)): 0})
    table = CutTable(FULL, q, {frozenset((1,)): 2, frozenset((2,)): 0})
    assert table.cut([1]) == 2
    ss = CutTable(SINGLE_SOURCE, TerminalSet.single_source(1, 2), {frozenset((2,)): 3})
    assert ss.cut([2]) == 3


def test_imbalances():
    net = FlowNetwork.from_edges([(0, 1, 2, 5), (1, 2, 3, 5)])
    bal = imbalances(net, {0: 3, 1: 1})
    assert bal == {1: 3, 2: -2, 3: -1}
