import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorflow.external import (
    certify_max_flow,
    check_external_realizable,
    cut_table,
    route_external_flow,
    verify_flow,
)
from minorflow.maxflow import max_flow, min_cut_value
from minorflow.network import (
    FULL,
    SINGLE_SOURCE,
    FlowNetwork,
    InfeasibleDemandError,
    TerminalSet,
)
from minorflow.testkit import oracle_cut_table, random_network


def star():
    # s=0 -> a,b,c with caps 3,2,1
    return FlowNetwork.from_edges([(0, 0, 1, 3), (1, 0, 2, 2), (2, 0, 3, 1)])


def test_cut_table_entry_counts():
    net = star()
    full = cut_table(net, TerminalSet((0, 1, 2)), FULL)
    assert len(full.values) == 6
    ss = cut_table(net, TerminalSet.single_source(0, 1, 2, 3), SINGLE_SOURCE)
    assert len(ss.values) == 7
    with pytest.raises(ValueError):
        cut_table(net, TerminalSet((0,)), FULL)


def test_star_single_source_values():
    ss = cut_table(star(), TerminalSet.single_source(0, 1, 2, 3), SINGLE_SOURCE)
    assert ss.cut([1, 2, 3]) == 6  # sum of the star edges
    assert ss.cut([2, 3]) == 3  # the b and c edges
    assert ss.cut([1]) == 3


def test_cut_table_matches_enumeration(rng):
    for _ in range(60):
        net = random_network(rng, rng.randint(3, 10))
        verts = sorted(net.vertices)
        terms = TerminalSet(tuple(rng.sample(verts, 3)))
        assert cut_table(net, terms, FULL) == oracle_cut_table(net, terms, FULL)
        ss_terms = TerminalSet(terms.order, source_index=0)
        assert cut_table(net, ss_terms, SINGLE_SOURCE) == oracle_cut_table(
            net, ss_terms, SINGLE_SOURCE
        )


@st.composite
def nets_with_terminals(draw):
    """A random network with antiparallel arcs, 2..4 terminals, and which
    terminal is the source of a single-source table."""
    net = random_network(draw(st.randoms(use_true_random=False)), draw(st.integers(2, 9)))
    k = draw(st.integers(2, min(4, len(net.vertices))))
    order = tuple(draw(st.permutations(sorted(net.vertices)))[:k])
    return net, order, draw(st.integers(0, k - 1))


@given(nets_with_terminals())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cut_tables_match_the_oracle_and_per_cut_min_cuts(case):
    net, order, source_index = case
    terms = TerminalSet(order)
    assert cut_table(net, terms, FULL) == oracle_cut_table(net, terms, FULL)
    ss_terms = TerminalSet(order, source_index=source_index)
    table = cut_table(net, ss_terms, SINGLE_SOURCE)
    assert len(table.values) == 2 ** (len(order) - 1) - 1
    for sinks, value in table.values.items():
        assert value == min_cut_value(net, [ss_terms.source], sinks)


def test_cut_monotonicity_on_enumerated_tables(rng):
    # source side fixed, sink side grows => cut value cannot drop
    for _ in range(40):
        net = random_network(rng, rng.randint(4, 9))
        terms = TerminalSet(tuple(rng.sample(sorted(net.vertices), 4)), source_index=0)
        table = oracle_cut_table(net, terms, SINGLE_SOURCE)
        others = terms.non_sources
        for sub in ((others[0],), (others[0], others[1])):
            bigger = sub + (others[2],)
            assert table.cut(sub) <= table.cut(bigger)


def test_realizability_trivial_cases():
    net = FlowNetwork.from_edges([(0, 1, 2, 3)])
    table = cut_table(net, TerminalSet((1, 2)), FULL)
    assert check_external_realizable(table, (0, 0))
    assert not check_external_realizable(table, (4, -4))
    assert not check_external_realizable(table, (1, 0))  # nonzero sum


def _feasible_by_flow(net, terminals, x):
    try:
        flow = route_external_flow(net, terminals, x)
    except InfeasibleDemandError:
        return False
    return bool(verify_flow(net, terminals, x, flow))


def test_realizability_matches_feasibility_oracle(rng):
    agree = 0
    for _ in range(120):
        net = random_network(rng, rng.randint(3, 10), max_cap=6)
        k = rng.choice((2, 3, 4))
        if len(net.vertices) < k:
            continue
        order = tuple(rng.sample(sorted(net.vertices), k))
        mode = rng.choice((FULL, SINGLE_SOURCE))
        terms = TerminalSet(order, source_index=0 if mode == SINGLE_SOURCE else None)
        parts = [rng.randint(-6, 6) for _ in range(k - 1)]
        x = tuple(parts + [-sum(parts)])
        if mode == SINGLE_SOURCE:
            # supply at the source, demands elsewhere
            demands = [-abs(v) for v in parts]
            x = tuple([-sum(demands)] + demands)
        table = cut_table(net, terms, mode)
        assert check_external_realizable(table, x) == _feasible_by_flow(net, terms, x)
        agree += 1
    assert agree >= 100


def test_route_external_flow_round_trip():
    net = FlowNetwork.from_edges([(0, 1, 2, 3)])
    terms = TerminalSet((1, 2))
    assert route_external_flow(net, terms, (0, 0)) == {0: 0}
    flow = route_external_flow(net, terms, (2, -2))
    assert flow == {0: 2}
    with pytest.raises(InfeasibleDemandError):
        route_external_flow(net, terms, (4, -4))


def test_verify_flow_diagnostics():
    net = FlowNetwork.from_edges([(0, 1, 2, 3), (1, 2, 3, 3)])
    terms = TerminalSet((1, 3))
    assert verify_flow(net, terms, (0, 0), {})
    over = verify_flow(net, terms, (0, 0), {0: 4, 1: 4})
    assert not over.ok and any("exceeds capacity" in p for p in over.problems)
    leaky = verify_flow(net, terms, (1, -1), {0: 1, 1: 0})
    assert not leaky.ok and any("conservation" in p for p in leaky.problems)


def test_verify_composes_with_max_flow(rng):
    for _ in range(30):
        net = random_network(rng, rng.randint(2, 9))
        s, t = rng.sample(sorted(net.vertices), 2)
        value, flow = max_flow(net, s, t)
        assert verify_flow(net, TerminalSet.of(s, t), (value, -value), flow)


@given(st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_route_matches_requested_imbalance(a, b):
    net = FlowNetwork.from_edges(
        [(0, 1, 2, 5), (1, 1, 3, 5), (2, 2, 4, 5), (3, 3, 4, 5)]
    )
    terms = TerminalSet((1, 2, 4))
    x = (a + b, -a, -b)
    flow = route_external_flow(net, terms, x)
    assert verify_flow(net, terms, x, flow)


def test_certify_max_flow_accepts_max_flows_and_names_each_failure(rng):
    for _ in range(60):
        net = random_network(rng, rng.randint(2, 10))
        s, t = rng.sample(sorted(net.vertices), 2)
        value, flow = max_flow(net, s, t)
        assert certify_max_flow(net, s, t, flow)
        if value > 0:
            result = certify_max_flow(net, s, t, {e.id: 0 for e in net.edges})
            assert not result and "reachable" in result.problems[0]
    net = FlowNetwork.from_edges([(0, 0, 1, 1), (1, 1, 0, 1)])
    over = certify_max_flow(net, 0, 1, {0: 2})
    assert over.problems == ("capacity 1 out of the residual source side differs from value 2",)
    back = certify_max_flow(net, 0, 1, {0: 1, 1: -1})
    assert not back and any("enters the residual source side on edge 1" in p for p in back.problems)
    assert certify_max_flow(net, 0, 7, {}).problems == ("sink 7 not in network",)
