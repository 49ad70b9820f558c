import itertools

import pytest

from minorflow.decomposition import underlying, validate
from minorflow.maxflow import max_flow
from minorflow.network import FULL, FlowNetwork, TerminalSet
from minorflow.planar import is_planar
from minorflow.solver import max_flow_decomposed
from minorflow.testkit import (
    GenConfig,
    gen_instance,
    minor_free_check,
    nested_triangles,
    oracle_cut_table,
    oracle_max_flow,
    random_network,
)

from conftest import dnet


def test_oracle_single_edge_and_disconnected():
    assert oracle_max_flow(FlowNetwork.from_edges([(0, 1, 2, 5)]), 1, 2) == 5
    net = FlowNetwork.from_edges([(0, 1, 2, 5)], extra_vertices=[9])
    assert oracle_max_flow(net, 1, 9) == 0


def test_oracle_matches_engine_on_many_networks(rng):
    for _ in range(300):
        net = random_network(rng, rng.randint(2, 12))
        s, t = rng.sample(sorted(net.vertices), 2)
        assert oracle_max_flow(net, s, t) == max_flow(net, s, t)[0]


def test_oracle_cut_table_single_pair_matches_oracle_max_flow(rng):
    for _ in range(40):
        net = random_network(rng, rng.randint(2, 9))
        s, t = rng.sample(sorted(net.vertices), 2)
        table = oracle_cut_table(net, TerminalSet((s, t)), FULL)
        assert table.cut([s]) == oracle_max_flow(net, s, t)


def test_oracle_cut_table_empty_network_is_all_zero():
    net = FlowNetwork(frozenset(range(4)), ())
    table = oracle_cut_table(net, TerminalSet((0, 1, 2)), FULL)
    assert set(table.values.values()) == {0}


@pytest.mark.parametrize("copies", [2, 3])
def test_oracle_cut_table_sums_exactly_past_int64(copies):
    # Two parallel arcs of 2^63-1 wrapped an int64 sum to -2; three wrapped
    # silently to 2^63-3.
    cap = 2**63 - 1
    net = FlowNetwork.from_edges([(i, 0, 1, cap) for i in range(copies)], [2])
    table = oracle_cut_table(net, TerminalSet((0, 1, 2)), FULL)
    assert table.cut([0]) == table.cut([0, 2]) == copies * cap
    assert table.cut([1]) == table.cut([2]) == 0


def test_oracle_cut_table_rejects_large_networks():
    net = FlowNetwork(frozenset(range(25)), ())
    with pytest.raises(ValueError):
        oracle_cut_table(net, TerminalSet((0, 1)), FULL)


def test_minor_check_basics():
    k5 = dnet(itertools.combinations(range(5), 2))
    assert not minor_free_check(k5, "K5")
    assert minor_free_check(k5, "K33")  # too few vertices for a K3,3 model
    k33 = dnet((a, b + 3) for a in range(3) for b in range(3))
    assert not minor_free_check(k33, "K33")
    assert minor_free_check(k33, "K5")  # too few edges for a K5 model
    wagner = dnet([(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
    assert minor_free_check(wagner, "K5")
    k4 = dnet(itertools.combinations(range(4), 2))
    assert minor_free_check(k4, "K5") and minor_free_check(k4, "K33")


def test_planar_graphs_are_minor_free_both_ways(rng):
    for seed in range(4):
        graph, _ = gen_instance(GenConfig("planar", 10, seed=seed))
        assert minor_free_check(graph, "K5")
        assert minor_free_check(graph, "K33")


def test_generator_determinism():
    cfg = GenConfig("k5free", 40, seed=7)
    g1, t1 = gen_instance(cfg)
    g2, t2 = gen_instance(cfg)
    assert g1 == g2
    assert sorted(t1.cliques) == sorted(t2.cliques)
    assert all(t1.components[c] == t2.components[c] for c in t1.components)


def test_generator_single_planar_component():
    graph, tree = gen_instance(GenConfig("planar", 4, seed=0))
    assert len(tree.components) == 1
    assert validate(graph, tree)[0]


@pytest.mark.parametrize("d", [2, 3, 5, 12])
def test_nested_triangles_validate_and_solve(d):
    graph, tree, s, t = nested_triangles(d, seed=d)
    assert len(graph.vertices) == 2 + 2 * d and len(tree.components) == d + 1
    assert validate(graph, tree) == (True, [])
    assert is_planar(underlying(graph)) == (d < 3)  # K3,3 needs an inner v_i
    if len(graph.vertices) <= 12:
        assert minor_free_check(graph, "K5")
    want = oracle_max_flow(graph, s, t)
    assert want > 0 and max_flow_decomposed(graph, tree, s, t)[0] == want
    again = nested_triangles(d, seed=d)
    assert again[0] == graph and again[2:] == (s, t)


def test_generated_trees_validate(rng):
    for family in ("k33free", "k5free"):
        for seed in range(6):
            graph, tree = gen_instance(GenConfig(family, 34, seed=seed))
            ok, problems = validate(graph, tree)
            assert ok, (family, seed, problems)
            assert len(graph.vertices) >= 34
