import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minorflow.maxflow as maxflow_mod
import minorflow.network as network_mod
from minorflow.maxflow import TerminalKernel, max_flow, max_flow_side, min_cut_side, min_cut_value
from minorflow.network import (
    FULL,
    SINGLE_SOURCE,
    Edge,
    FlowNetwork,
    TerminalSet,
    UnknownVertexError,
    imbalances,
)
from minorflow.external import cut_table, route_external_flow, verify_flow
from minorflow.testkit import oracle_cut_table, oracle_max_flow, random_network

from conftest import dnet


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
        # The flow's residual source side is the minimal minimum cut's.
        assert max_flow_side(net, s, t) == (value, flow, min_cut_side(net, [s], [t])[1])


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


# Capacities that are zero, small, or near 2^63-1, whose sums overflow int64.
CAPS = st.one_of(st.just(0), st.integers(1, 9), st.integers(2**63 - 3, 2**63 - 1))


@st.composite
def kernels_with_terminals(draw):
    """A small multigraph on 0..n-1 with 2..4 terminals: each drawn arc may
    get a parallel or an antiparallel twin, and may be glued on as an
    ``extra`` arc instead of lying in the network; an arc at vertex n (a hub
    outside the network, like a mimic's) is always glued.  Terminals that
    no arc touches stay isolated.  Returns the network, the extra arcs, the
    terminals, and the whole network for the oracle."""
    n = draw(st.integers(2, 6))
    arcs = []
    for u, v, cap, twin, cap2 in draw(
        st.lists(
            st.tuples(
                st.integers(0, n),
                st.integers(0, n),
                CAPS,
                st.sampled_from((None, "parallel", "antiparallel")),
                CAPS,
            ),
            max_size=10,
        )
    ):
        if u != v:
            arcs.append((u, v, cap))
            if twin is not None:
                arcs.append((u, v, cap2) if twin == "parallel" else (v, u, cap2))
    glued = [n in (u, v) or draw(st.booleans()) for u, v, _ in arcs]
    edges = [Edge(i, u, v, cap) for i, (u, v, cap) in enumerate(arcs)]
    net = FlowNetwork(frozenset(range(n)), tuple(e for e, g in zip(edges, glued) if not g))
    extra = tuple(e for e, g in zip(edges, glued) if g)
    terms = tuple(draw(st.permutations(range(n)))[: draw(st.integers(2, min(n, 4)))])
    whole = FlowNetwork.from_edges([(e.id, e.tail, e.head, e.cap) for e in edges], range(n))
    return net, extra, terms, whole


@given(kernels_with_terminals())
@settings(max_examples=150, deadline=None)
def test_kernel_cuts_match_the_enumeration_oracle(case):
    # Full splits S -> (Q - S) give 1->1, 1->many, many->1 and many->many;
    # single-source splits q -> T leave the other terminals free.
    net, extra, terms, whole = case
    kernel = TerminalKernel(net, terms, extra)
    full = oracle_cut_table(whole, TerminalSet(terms), FULL)
    for side, value in full.values.items():
        assert kernel.cut(sorted(side), [q for q in terms if q not in side]) == value
    for i, q in enumerate(terms):
        single = oracle_cut_table(whole, TerminalSet(terms, source_index=i), SINGLE_SOURCE)
        for sinks, value in single.values.items():
            assert kernel.cut([q], sorted(sinks)) == value


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


def _residual_reach(net, flow, s):
    """Vertices that ``s`` reaches in the residual network of ``flow``."""
    reach, stack = {s}, [s]
    while stack:
        u = stack.pop()
        for e in net.edges:
            if e.tail == u and flow[e.id] < e.cap and e.head not in reach:
                reach.add(e.head)
                stack.append(e.head)
            elif e.head == u and flow[e.id] > 0 and e.tail not in reach:
                reach.add(e.tail)
                stack.append(e.tail)
    return frozenset(reach)


def _check_engine(net, s, t):
    """Value against the oracle, a verified flow, and the minimal minimum
    cut side, which is what ``s`` reaches in the residual of any max flow."""
    value, flow = max_flow(net, s, t)
    assert value == oracle_max_flow(net, s, t)
    assert verify_flow(net, TerminalSet.of(s, t), (value, -value), flow)
    cut, side = min_cut_side(net, [s], [t])
    assert cut == value == _cut_of(net, side)
    assert side == _residual_reach(net, flow, s)
    return value


def test_augmenting_paths_of_increasing_length():
    # Each BFS finds t farther away than the one before, so every phase is a
    # single-path step: s-x-y-t (3 arcs), then s-p-q-y-x-r-u-t (7 arcs, back
    # over x-y), then the disjoint paths of 9 and 12 arcs.
    s, x, y, t, p, q, r, u = range(8)
    pairs = [(s, x), (x, y), (y, t), (s, p), (p, q), (q, y), (x, r), (r, u), (u, t)]
    for length, first in ((9, 10), (12, 20)):
        chain = [s] + list(range(first, first + length - 1)) + [t]
        pairs += list(zip(chain, chain[1:]))
    assert _check_engine(dnet(pairs), s, t) == 4


def test_unit_bipartite_matching():
    # Every augmenting path of the first BFS has 3 arcs, so the second BFS
    # repeats that distance and blocking phases finish the run.
    rng = random.Random(12)
    left, right = range(200), range(200, 400)
    s, t = 400, 401
    pairs = [(s, a) for a in left] + [(b, t) for b in right]
    pairs += [(a, b) for a in left for b in rng.sample(right, 3)]
    assert 150 < _check_engine(dnet(pairs), s, t) < 200


def test_capacities_near_two_to_the_62(rng):
    for _ in range(20):
        base = random_network(rng, rng.randint(2, 14))
        net = FlowNetwork.from_edges(
            [(e.id, e.tail, e.head, 2**62 - e.cap) for e in base.edges], base.vertices
        )
        s, t = rng.sample(sorted(net.vertices), 2)
        _check_engine(net, s, t)


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
