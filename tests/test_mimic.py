import random

import pytest

from minorflow.external import check_external_realizable, cut_table
from minorflow.maxflow import min_cut_side
from minorflow.mimic import (
    build_full_mimic,
    build_mimic3,
    build_mimic4_single_source,
    build_mimic_general,
    check_four_way,
    check_three_way,
    merge_mimics,
)
from minorflow.network import (
    FULL,
    SINGLE_SOURCE,
    CutTable,
    Edge,
    FlowNetwork,
    MimicInputError,
    TerminalSet,
    proper_subsets,
)
from minorflow.testkit import oracle_cut_table, random_network


def table3(values):
    # values for source sides: a, b, c, bc, ac, ab over terminals (1,2,3)
    a, b, c, bc, ac, ab = values
    return CutTable(
        FULL,
        TerminalSet((1, 2, 3)),
        {
            frozenset((1,)): a,
            frozenset((2,)): b,
            frozenset((3,)): c,
            frozenset((2, 3)): bc,
            frozenset((1, 3)): ac,
            frozenset((1, 2)): ab,
        },
    )


def ss_table4(values):
    # values for sink sets: a, b, c, ab, ac, bc, abc over (s,a,b,c)=(0,1,2,3)
    a, b, c, ab, ac, bc, abc = values
    return CutTable(
        SINGLE_SOURCE,
        TerminalSet.single_source(0, 1, 2, 3),
        {
            frozenset((1,)): a,
            frozenset((2,)): b,
            frozenset((3,)): c,
            frozenset((1, 2)): ab,
            frozenset((1, 3)): ac,
            frozenset((2, 3)): bc,
            frozenset((1, 2, 3)): abc,
        },
    )


def test_three_way_holds_on_real_networks(rng):
    for _ in range(120):
        net = random_network(rng, rng.randint(3, 10))
        terms = TerminalSet(tuple(rng.sample(sorted(net.vertices), 3)))
        assert check_three_way(oracle_cut_table(net, terms, FULL))


def test_three_way_rejects_synthetic_violation():
    assert not check_three_way(table3((5, 1, 1, 1, 1, 1)))
    assert check_three_way(table3((2, 2, 2, 2, 2, 2)))  # x <= 2x


def test_four_way_holds_on_real_networks(rng):
    for _ in range(100):
        net = random_network(rng, rng.randint(4, 10))
        order = tuple(rng.sample(sorted(net.vertices), 4))
        assert check_four_way(oracle_cut_table(net, TerminalSet(order), FULL))
        ss = TerminalSet(order, source_index=0)
        assert check_four_way(oracle_cut_table(net, ss, SINGLE_SOURCE))


def test_four_way_rejects_synthetic_violation():
    # submodularity broken: s->ab way above s->a + s->b
    assert not check_four_way(ss_table4((1, 1, 1, 9, 1, 1, 9)))
    assert check_four_way(ss_table4((1, 1, 1, 2, 2, 2, 3)))


def test_mimic3_on_directed_path():
    path = FlowNetwork.from_edges([(0, 1, 2, 2), (1, 2, 3, 2)])
    terms = TerminalSet((1, 2, 3))
    table = cut_table(path, terms, FULL)
    mimic = build_mimic3(table, hub_vertex=9, first_edge_id=0)
    caps = {(e.tail, e.head): e.cap for e in mimic.edges}
    assert caps == {
        (1, 9): 2,
        (9, 1): 0,
        (2, 9): 2,
        (9, 2): 2,
        (3, 9): 0,
        (9, 3): 2,
    }
    assert oracle_cut_table(mimic, terms, FULL) == table


def test_mimic3_zero_table_gives_zero_star():
    mimic = build_mimic3(table3((0,) * 6), hub_vertex=9)
    assert all(e.cap == 0 for e in mimic.edges)
    assert len(mimic.vertices) == 4 and len(mimic.edges) == 6


def test_mimic3_structure_is_a_star():
    mimic = build_mimic3(table3((1, 2, 3, 4, 5, 5)), hub_vertex=9)
    assert all(9 in (e.tail, e.head) for e in mimic.edges)


def test_mimic3_exactness_random(rng):
    for _ in range(80):
        net = random_network(rng, rng.randint(3, 10))
        terms = TerminalSet(tuple(rng.sample(sorted(net.vertices), 3)))
        table = cut_table(net, terms, FULL)
        mimic = build_mimic3(table, hub_vertex=max(net.vertices) + 1)
        assert len(mimic.vertices) == 4 and len(mimic.edges) == 6
        assert oracle_cut_table(mimic, terms, FULL) == oracle_cut_table(net, terms, FULL)


def test_mimic4_worked_example():
    # seed network s->a:4 s->b:3 s->c:2 a->b:1 b->c:1 has exactly this table
    seed = FlowNetwork.from_edges(
        [(0, 0, 1, 4), (1, 0, 2, 3), (2, 0, 3, 2), (3, 1, 2, 1), (4, 2, 3, 1)]
    )
    terms = TerminalSet.single_source(0, 1, 2, 3)
    table = cut_table(seed, terms, SINGLE_SOURCE)
    assert [table.cut(x) for x in ([1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3])] == [
        4, 4, 3, 7, 7, 6, 9,
    ]
    mimic, perm = build_mimic4_single_source(table, hub_vertex=9, first_edge_id=0)
    assert perm == (1, 2, 3)
    assert [e.cap for e in mimic.edges] == [4, 3, 2, 1, 1, 1, 1]
    assert len(mimic.vertices) == 5 and len(mimic.edges) == 7
    assert oracle_cut_table(mimic, terms, SINGLE_SOURCE) == table


def test_mimic4_star_collapses_to_star():
    star = FlowNetwork.from_edges([(0, 0, 1, 3), (1, 0, 2, 2), (2, 0, 3, 1)])
    terms = TerminalSet.single_source(0, 1, 2, 3)
    mimic, _ = build_mimic4_single_source(cut_table(star, terms, SINGLE_SOURCE))
    assert sorted(e.cap for e in mimic.edges) == [0, 0, 0, 0, 1, 2, 3]


def test_mimic4_normalization_permutes():
    # make c the strongest terminal; the builder must relabel it first
    star = FlowNetwork.from_edges([(0, 0, 1, 1), (1, 0, 2, 2), (2, 0, 3, 5)])
    terms = TerminalSet.single_source(0, 1, 2, 3)
    table = cut_table(star, terms, SINGLE_SOURCE)
    mimic, perm = build_mimic4_single_source(table)
    assert perm[0] == 3
    assert oracle_cut_table(mimic, terms, SINGLE_SOURCE) == table


def test_mimic4_exactness_random(rng):
    for _ in range(80):
        net = random_network(rng, rng.randint(4, 10))
        terms = TerminalSet(tuple(rng.sample(sorted(net.vertices), 4)), source_index=0)
        table = cut_table(net, terms, SINGLE_SOURCE)
        mimic, _ = build_mimic4_single_source(table, hub_vertex=max(net.vertices) + 1)
        assert len(mimic.vertices) == 5 and len(mimic.edges) == 7
        assert all(e.cap >= 0 for e in mimic.edges)
        assert oracle_cut_table(mimic, terms, SINGLE_SOURCE) == table


def test_mimic4_rejects_inconsistent_table():
    with pytest.raises(MimicInputError):
        build_mimic4_single_source(ss_table4((5, 5, 5, 5, 5, 5, 20)))


def test_mimic_general_bounds_and_exactness(rng):
    for _ in range(60):
        net = random_network(rng, rng.randint(3, 11))
        k = rng.choice((2, 3, 4))
        if len(net.vertices) < k:
            continue
        terms = TerminalSet(tuple(rng.sample(sorted(net.vertices), k)))
        general = build_mimic_general(net, terms, first_edge_id=10_000)
        assert len(general.vertices) <= 2 ** (2**k - 2)
        assert oracle_cut_table(general, terms, FULL) == oracle_cut_table(net, terms, FULL)


def general_by_min_cut_sides(net, terminals, first_edge_id):
    """The cut-collapsing mimic with one ``min_cut_side`` call per proper
    terminal subset: vertices group by the sides holding them, groups in
    signature order, a terminal's group keeping its id."""
    signature = dict.fromkeys(sorted(net.vertices), 0)
    for bit, sources in enumerate(proper_subsets(terminals.order)):
        sinks = [q for q in terminals.order if q not in sources]
        for v in min_cut_side(net, sources, sinks)[1]:
            signature[v] |= 1 << bit
    groups = {}
    for v, sig in signature.items():
        groups.setdefault(sig, []).append(v)
    rep = {}
    fresh = max(net.vertices) + 1
    for sig in sorted(groups):
        named = [q for q in groups[sig] if q in terminals.order]
        rep |= dict.fromkeys(groups[sig], named[0] if named else fresh)
        fresh += not named
    caps = {}
    for e in net.edges:
        if rep[e.tail] != rep[e.head]:
            ends = (rep[e.tail], rep[e.head])
            caps[ends] = caps.get(ends, 0) + e.cap
    edges = [Edge(first_edge_id + i, u, v, caps[u, v]) for i, (u, v) in enumerate(sorted(caps))]
    return FlowNetwork(frozenset(rep.values()), tuple(edges))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mimic_general_matches_one_min_cut_side_per_subset(k):
    rng = random.Random(k)
    for _ in range(30):
        net = random_network(rng, rng.randint(k, 12))
        terms = TerminalSet(tuple(rng.sample(sorted(net.vertices), k)))
        want = general_by_min_cut_sides(net, terms, 500)
        assert build_mimic_general(net, terms, first_edge_id=500) == want


def test_mimic_general_collapses_a_star():
    star = build_mimic3(table3((1, 2, 3, 3, 2, 3)), hub_vertex=9)
    terms = TerminalSet((1, 2, 3))
    general = build_mimic_general(star, terms)
    assert len(general.vertices) <= 4
    assert oracle_cut_table(general, terms, FULL) == oracle_cut_table(star, terms, FULL)


def test_realizability_transfers_to_mimic(rng):
    for _ in range(60):
        net = random_network(rng, rng.randint(3, 9), max_cap=5)
        terms = TerminalSet(tuple(rng.sample(sorted(net.vertices), 3)))
        table = cut_table(net, terms, FULL)
        mimic = build_mimic3(table, hub_vertex=max(net.vertices) + 1)
        mtable = cut_table(mimic, terms, FULL)
        for _ in range(6):
            a, b = rng.randint(-6, 6), rng.randint(-6, 6)
            x = (a, b, -a - b)
            assert check_external_realizable(table, x) == check_external_realizable(
                mtable, x
            )


def test_merge_mimics_restores_size_bound(rng):
    for _ in range(30):
        net1 = random_network(rng, 6, max_cap=5)
        net2 = random_network(rng, 6, max_cap=5)
        terms = (0, 1, 2)
        t1 = cut_table(net1, TerminalSet(terms), FULL)
        t2 = cut_table(net2, TerminalSet(terms), FULL)
        m1 = build_mimic3(t1, hub_vertex=100, first_edge_id=1000)
        m2 = build_mimic3(t2, hub_vertex=200, first_edge_id=2000)
        merged = merge_mimics(m1, m2, terms, hub_vertex=300, first_edge_id=3000)
        assert len(merged.vertices) <= 4 and len(merged.edges) <= 6
        from minorflow.network import merge_networks

        union = merge_networks(m1, m2)
        assert oracle_cut_table(merged, TerminalSet(terms), FULL) == oracle_cut_table(
            union, TerminalSet(terms), FULL
        )


def test_merge_with_zero_mimic_is_identity_on_tables():
    t1 = table3((1, 2, 3, 3, 2, 3))
    m1 = build_mimic3(t1, hub_vertex=100, first_edge_id=0)
    zero = build_mimic3(table3((0,) * 6), hub_vertex=200, first_edge_id=100)
    merged = merge_mimics(m1, zero, (1, 2, 3), hub_vertex=300, first_edge_id=200)
    assert oracle_cut_table(merged, TerminalSet((1, 2, 3)), FULL) == t1


def test_merge_mimics_rejects_terminal_mismatch():
    t1 = table3((1, 1, 1, 1, 1, 1))
    m1 = build_mimic3(t1, hub_vertex=100, first_edge_id=0)
    m2 = build_mimic3(t1, hub_vertex=100, first_edge_id=50)
    with pytest.raises(ValueError):
        merge_mimics(m1, m2, (1, 2), hub_vertex=300)


def test_build_full_mimic_two_terminals():
    net = FlowNetwork.from_edges([(0, 1, 2, 3), (1, 2, 1, 5)])
    table = cut_table(net, TerminalSet((1, 2)), FULL)
    mimic = build_full_mimic(table)
    assert {(e.tail, e.head): e.cap for e in mimic.edges} == {(1, 2): 3, (2, 1): 5}
