import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minorflow.maxflow as maxflow_mod
import minorflow.network as network_mod
from minorflow.maxflow import max_flow, min_cut_side, min_cut_value
from minorflow.network import (
    FULL,
    SINGLE_SOURCE,
    FlowNetwork,
    TerminalSet,
    UnknownVertexError,
    imbalances,
)
from minorflow.external import cut_table, route_external_flow, verify_flow
from minorflow.testkit import oracle_cut_table, oracle_max_flow, random_network


def test_single_edge():
    net = FlowNetwork.from_edges([(0, 1, 2, 5)])
    value, flow = max_flow(net, 1, 2)
    assert value == 5 and flow == {0: 5}


def test_disconnected_terminals_give_zero_flow():
    net = FlowNetwork.from_edges([(0, 1, 2, 5)], extra_vertices=[9])
    value, flow = max_flow(net, 1, 9)
    assert value == 0 and set(flow.values()) == {0}


def test_path_bottleneck():
    net = FlowNetwork.from_edges([(0, 1, 2, 2), (1, 2, 3, 3)])
    assert max_flow(net, 1, 3)[0] == 2


def test_errors():
    net = FlowNetwork.from_edges([(0, 1, 2, 5)])
    with pytest.raises(UnknownVertexError):
        max_flow(net, 1, 99)
    with pytest.raises(ValueError):
        max_flow(net, 1, 1)
    with pytest.raises(ValueError):
        min_cut_value(net, [1], [1, 2])


def test_antiparallel_pair_is_not_canceled():
    net = FlowNetwork.from_edges([(0, 1, 2, 3), (1, 2, 1, 2), (2, 2, 3, 5)])
    value, flow = max_flow(net, 1, 3)
    assert value == 3
    assert verify_flow(net, TerminalSet.of(1, 3), (3, -3), flow)


def test_min_cut_examples():
    # Single edge cap 7.
    assert min_cut_value(FlowNetwork.from_edges([(0, 1, 2, 7)]), [1], [2]) == 7
    # Path a->b->c caps 2,2: both grouped cuts equal 2 (bipartition enumeration).
    path = FlowNetwork.from_edges([(0, 1, 2, 2), (1, 2, 3, 2)])
    assert min_cut_value(path, [1, 2], [3]) == 2
    assert min_cut_value(path, [1], [2, 3]) == 2


def test_min_cut_side_is_source_minimal():
    net = FlowNetwork.from_edges([(0, 1, 2, 1), (1, 2, 3, 5)])
    value, side = min_cut_side(net, [1], [3])
    assert value == 1 and side == frozenset({1})


def test_duality_on_random_networks(rng):
    for _ in range(500):
        net = random_network(rng, rng.randint(2, 15))
        s, t = rng.sample(sorted(net.vertices), 2)
        value, flow = max_flow(net, s, t)
        assert value == min_cut_value(net, [s], [t])
        assert value == oracle_max_flow(net, s, t)
        assert verify_flow(net, TerminalSet.of(s, t), (value, -value), flow)


@st.composite
def nets_with_terminals(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 9)
            ),
            min_size=1,
            max_size=16,
        )
    )
    edges = [(i, u, v, c) for i, (u, v, c) in enumerate(raw) if u != v]
    net = FlowNetwork.from_edges(edges, range(n))
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, n - 1).filter(lambda x: x != s))
    return net, s, t


@given(nets_with_terminals())
@settings(max_examples=80, deadline=None)
def test_flow_is_feasible_and_matches_oracle(case):
    net, s, t = case
    value, flow = max_flow(net, s, t)
    assert value == oracle_max_flow(net, s, t)
    assert verify_flow(net, TerminalSet.of(s, t), (value, -value), flow)


@st.composite
def nets_with_groups(draw):
    """A small network plus disjoint source and sink groups, 2..4 terminals."""
    n = draw(st.integers(min_value=2, max_value=7))
    raw = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 9)),
            max_size=16,
        )
    )
    net = FlowNetwork.from_edges(
        [(i, u, v, c) for i, (u, v, c) in enumerate(raw) if u != v], range(n)
    )
    terms = draw(st.permutations(range(n)))[: draw(st.integers(2, min(n, 4)))]
    split = draw(st.integers(1, len(terms) - 1))
    return net, list(terms[:split]), list(terms[split:])


@given(nets_with_groups())
@settings(max_examples=100, deadline=None)
def test_grouped_min_cut_matches_the_enumeration_oracle(case):
    net, sources, sinks = case
    table = oracle_cut_table(net, TerminalSet(tuple(sources + sinks)), FULL)
    assert min_cut_value(net, sources, sinks) == table.cut(sources)


def _cut_of(net, side):
    return sum(e.cap for e in net.edges if e.tail in side and e.head not in side)


@given(nets_with_groups())
@settings(max_examples=100, deadline=None)
def test_min_cut_side_is_contained_in_every_minimum_cut(case):
    net, sources, sinks = case
    value, side = min_cut_side(net, sources, sinks)
    free = sorted(net.vertices - set(sources) - set(sinks))
    sides = [
        frozenset(sources).union(extra)
        for r in range(len(free) + 1)
        for extra in itertools.combinations(free, r)
    ]
    best = min(_cut_of(net, x) for x in sides)
    assert value == best == _cut_of(net, side)
    assert side in sides
    assert all(side <= x for x in sides if _cut_of(net, x) == best)


def _random_feasible_flow(rng, net, terminals):
    """Sum of random terminal-to-terminal path flows within the capacities:
    conserving off the terminals by construction, with no engine involved."""
    flow = {e.id: 0 for e in net.edges}
    for _ in range(6):
        start = rng.choice(terminals)
        seen, stack = {start: None}, [start]
        while stack:
            u = stack.pop()
            arcs = [e for e in net.edges if e.tail == u and e.cap > flow[e.id]]
            rng.shuffle(arcs)
            for e in arcs:
                if e.head not in seen:
                    seen[e.head] = e
                    stack.append(e.head)
        ends = [q for q in terminals if q != start and q in seen]
        if not ends:
            continue
        path, v = [], rng.choice(ends)
        while seen[v] is not None:
            path.append(seen[v])
            v = seen[v].tail
        push = rng.randint(1, min(e.cap - flow[e.id] for e in path))
        for e in path:
            flow[e.id] += push
    return flow


def test_route_external_flow_realizes_demands_of_random_feasible_flows(rng):
    routed = 0
    for _ in range(200):
        n = rng.randint(3, 12)
        net = random_network(rng, n)
        terminals = TerminalSet(tuple(rng.sample(sorted(net.vertices), rng.randint(2, min(n, 4)))))
        flow = _random_feasible_flow(rng, net, list(terminals.order))
        bal = imbalances(net, flow)
        x = [bal[q] for q in terminals.order]
        assert verify_flow(net, terminals, x, flow)
        got = route_external_flow(net, terminals, x)
        assert verify_flow(net, terminals, x, got)
        routed += any(x)
    assert routed > 150


def test_cut_tables_and_routes_build_no_flow_network(monkeypatch, rng):
    net = random_network(rng, 8)
    terminals = TerminalSet(tuple(sorted(net.vertices)[:3]))
    value, flow = max_flow(net, terminals.order[0], terminals.order[1])
    assert value > 0
    built = []
    real = network_mod.FlowNetwork.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(network_mod.FlowNetwork, "__post_init__", counting)
    cut_table(net, terminals, FULL)
    route_external_flow(net, terminals, (value, -value, 0))
    assert built == []


def test_a_cut_table_compiles_its_network_once(monkeypatch, rng):
    net = random_network(rng, 8)
    compiled = []
    real = maxflow_mod._compile

    def counting(*args):
        compiled.append(args[0])
        return real(*args)

    monkeypatch.setattr(maxflow_mod, "_compile", counting)
    order = tuple(sorted(net.vertices)[:4])
    for k in (2, 3, 4):
        compiled.clear()
        table = cut_table(net, TerminalSet(order[:k]), FULL)
        assert len(table.values) == 2**k - 2 and compiled == [net]
    compiled.clear()
    table = cut_table(net, TerminalSet(order, source_index=0), SINGLE_SOURCE)
    assert len(table.values) == 7 and compiled == [net]
