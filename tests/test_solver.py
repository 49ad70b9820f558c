import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorflow import decomposition, solver
from minorflow.decomposition import (
    DecompositionTree,
    single_component_tree,
    validate,
)
from minorflow.external import certify_max_flow, verify_flow
from minorflow.maxflow import max_flow
from minorflow.network import FlowNetwork, TerminalSet
from minorflow.solver import (
    locate_terminal_path,
    max_flow_decomposed,
    max_flow_family,
)
from minorflow.testkit import (
    GenConfig,
    audit_step_values,
    collecting_observer,
    gen_instance,
    oracle_max_flow,
)

from conftest import id_blocks, overflow_tree


def two_component_tree():
    left = FlowNetwork.from_edges([(0, 0, 1, 4), (1, 0, 2, 3), (2, 1, 2, 2)])
    right = FlowNetwork.from_edges([(3, 1, 3, 2), (4, 2, 3, 5)])
    tree = DecompositionTree()
    cl = tree.add_component(left)
    cr = tree.add_component(right)
    k = tree.add_clique([1, 2])
    tree.attach(cl, k)
    tree.attach(cr, k)
    return tree


def test_locate_terminal_path():
    tree = two_component_tree()
    assert locate_terminal_path(tree, 0, 3) == [0, 1]
    assert locate_terminal_path(tree, 3, 0) == [1, 0]
    assert locate_terminal_path(tree, 0, 1) == [0]


def test_single_component_equals_plain_max_flow(rng):
    from minorflow.testkit import random_network

    for _ in range(25):
        net = random_network(rng, rng.randint(2, 10))
        s, t = rng.sample(sorted(net.vertices), 2)
        tree = single_component_tree(net)
        value, flow = max_flow_decomposed(net, tree, s, t)
        assert value == max_flow(net, s, t)[0]
        assert verify_flow(net, TerminalSet.of(s, t), (value, -value), flow)


def test_two_components_over_an_edge_clique():
    tree = two_component_tree()
    graph = tree.reassemble()
    value, flow = max_flow_decomposed(graph, tree, 0, 3)
    assert value == oracle_max_flow(graph, 0, 3)
    assert verify_flow(graph, TerminalSet.of(0, 3), (value, -value), flow)


def test_flow_reentry_through_source_component():
    # The optimal flow must leave the s-side component and re-enter it, so a
    # single-source-only replacement would undercount; this pins the fix.
    s, a, b, c, d, r, t = range(7)
    left = FlowNetwork.from_edges([(0, s, a, 1), (1, c, d, 1), (2, d, b, 1)], [a, b, c])
    right = FlowNetwork.from_edges([(3, a, r, 1), (4, r, c, 1), (5, b, t, 1)], [a, b, c])
    tree = DecompositionTree()
    c1 = tree.add_component(left)
    c2 = tree.add_component(right)
    k = tree.add_clique([a, b, c])
    tree.attach(c1, k)
    tree.attach(c2, k)
    graph = tree.reassemble()
    assert validate(graph, tree)[0]
    value, flow = max_flow_decomposed(graph, tree, s, t)
    assert value == 1 == oracle_max_flow(graph, s, t)
    assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)


def test_star_of_leaves_on_one_path_triangle_glues_each_leaf_directly(monkeypatch):
    # Path component A - triangle - B with five extra leaves on the triangle:
    # phase I glues each built leaf's mimic straight into a path component
    # (one replacement per built leaf, no pendant merging), a leaf with no
    # record carries zero flow, and the path A, B is glued as is.
    tri = (1, 2, 3)
    edges = [(0, 0, 1, 3), (1, 0, 2, 3), (2, 1, 2, 1), (3, 1, 3, 1), (4, 2, 3, 1)]
    a = FlowNetwork.from_edges(edges, tri)
    b = FlowNetwork.from_edges([(5, 1, 9, 2), (6, 2, 9, 2), (7, 3, 9, 2)], tri)
    tree = DecompositionTree()
    ca = tree.add_component(a)
    cb = tree.add_component(b)
    k = tree.add_clique(tri)
    tree.attach(ca, k)
    tree.attach(cb, k)
    eid = 8
    base_vertex = 10
    for leaf in range(5):
        w = base_vertex + leaf
        net = FlowNetwork.from_edges(
            [(eid, 1, w, 1), (eid + 1, w, 2, 1), (eid + 2, w, 3, 1)], tri
        )
        eid += 3
        cid = tree.add_component(net)
        tree.attach(cid, k)
    graph = tree.reassemble()
    assert validate(graph, tree)[0]
    seen = capture_records(monkeypatch)
    nets, observer = collecting_observer()
    stages = []

    def recording(stage, net):
        stages.append((stage, net))
        observer(stage, net)

    value, flow = max_flow_decomposed(graph, tree, 0, 9, observer=recording)
    (records,) = seen
    (final_net,) = [net for stage, net in stages if stage == "final"]
    leaves = set(tree.components) - {ca, cb}
    unbuilt = without_record(tree, [ca, cb], records)
    assert [stage for stage, _ in stages].count("replace") == len(records) == 5 - len(unbuilt)
    built = {id(tree.components[c]) for c in leaves - unbuilt}
    assert {id(rec.net) for rec in records} == built
    assert all(rec.children == () and set(rec.mimic) <= set(final_net.edges) for rec in records)
    assert all(flow[e.id] == 0 for c in unbuilt for e in tree.components[c].edges)
    assert value == oracle_max_flow(graph, 0, 9)
    assert verify_flow(graph, TerminalSet.of(0, 9), (value, -value), flow)
    assert audit_step_values(nets, 0, 9)


def test_bounded_treewidth_neighbor_gets_direct_glue():
    import itertools

    k5_edges = [(i, u, v, 2) for i, (u, v) in enumerate(itertools.combinations(range(5), 2))]
    hub = FlowNetwork.from_edges(k5_edges)
    leaf = FlowNetwork.from_edges([(10, 0, 9, 3), (11, 9, 1, 3)], [0, 1])
    tree = DecompositionTree()
    ch = tree.add_component(hub)
    cl = tree.add_component(leaf)
    k = tree.add_clique([0, 1])
    tree.attach(ch, k)
    tree.attach(cl, k)
    graph = tree.reassemble()
    assert validate(graph, tree)[0]
    value, flow = max_flow_decomposed(graph, tree, 9, 4)
    assert value == oracle_max_flow(graph, 9, 4)
    assert verify_flow(graph, TerminalSet.of(9, 4), (value, -value), flow)


@pytest.mark.parametrize("family", ["planar", "k33free", "k5free"])
def test_ground_truth_trees_solve_exactly(family, rng):
    for seed in range(10):
        graph, tree = gen_instance(GenConfig(family, 30, seed=seed))
        s, t = rng.sample(sorted(graph.vertices), 2)
        value, flow = max_flow_decomposed(graph, tree, s, t)
        assert value == oracle_max_flow(graph, s, t)
        assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)


@pytest.mark.parametrize("family,key", [("k33free", "k33"), ("k5free", "k5")])
def test_family_decomposer_solves_exactly(family, key, rng):
    for seed in range(6):
        graph, _ = gen_instance(GenConfig(family, 26, seed=seed))
        s, t = rng.sample(sorted(graph.vertices), 2)
        value, flow = max_flow_family(graph, key, s, t)
        assert value == oracle_max_flow(graph, s, t)
        assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)


def test_family_solve_runs_on_the_source_component(rng):
    # Two k5free instances side by side plus an isolated vertex: a pair
    # inside one instance solves there, and a pair across them has value 0.
    a, _ = gen_instance(GenConfig("k5free", 24, seed=1))
    b, _ = gen_instance(GenConfig("k5free", 24, seed=2))
    dv, de = a.next_vertex_id(), a.next_edge_id()
    moved = [(e.id + de, e.tail + dv, e.head + dv, e.cap) for e in b.edges]
    graph = FlowNetwork.from_edges([(e.id, e.tail, e.head, e.cap) for e in a.edges] + moved, [999])
    inside = max(
        (rng.sample(sorted(b.vertices), 2) for _ in range(4)),
        key=lambda pair: oracle_max_flow(b, *pair),
    )
    pairs = [
        (inside[0] + dv, inside[1] + dv),
        (min(a.vertices), min(b.vertices) + dv),
        (999, min(a.vertices)),
    ]
    for s, t in pairs:
        value, flow = max_flow_family(graph, "k5", s, t)
        assert value == oracle_max_flow(graph, s, t)
        assert set(flow) == {e.id for e in graph.edges}
        assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
    assert max_flow_family(graph, "k5", *pairs[0])[0] > 0
    assert not any(flow.values())


def test_a_connected_family_solve_finds_its_components_once(monkeypatch, rng):
    # The decomposer's block split is its connectivity check (the block-cut
    # forest has one tree per component), and the solver runs no check of
    # its own on a connected graph: one pass over the whole graph finds them.
    graph, _ = gen_instance(GenConfig("k5free", 40, seed=3))
    whole = []

    def counting(adj, removed=frozenset(), real=solver.components):
        if len(adj) == len(graph.vertices) and not removed:
            whole.append(adj)
        return real(adj, removed)

    monkeypatch.setattr(solver, "components", counting)

    def splitting(adj, real=decomposition.biconnected_split):
        if len(adj) == len(graph.vertices):
            whole.append(adj)
        return real(adj)

    monkeypatch.setattr(decomposition, "biconnected_split", splitting)
    s, t = rng.sample(sorted(graph.vertices), 2)
    assert max_flow_family(graph, "k5", s, t)[0] == oracle_max_flow(graph, s, t)
    assert len(whole) == 1


def test_planar_graph_solves_under_both_families(rng):
    graph, _ = gen_instance(GenConfig("planar", 14, seed=4))
    s, t = rng.sample(sorted(graph.vertices), 2)
    want = oracle_max_flow(graph, s, t)
    assert max_flow_family(graph, "k33", s, t)[0] == want
    assert max_flow_family(graph, "k5", s, t)[0] == want


@pytest.mark.parametrize("seed", range(3))
def test_family_decomposers_keep_planar_blocks_whole(seed, monkeypatch):
    # Every block of a planar input is planar, so each stays one component
    # and no SPQR tree is built; the solve on those whole blocks is exact.
    calls = []

    def counting(adj, real=decomposition.spqr):
        calls.append(len(adj))
        return real(adj)

    monkeypatch.setattr(decomposition, "spqr", counting)
    graph, _ = gen_instance(GenConfig("planar", 80, seed=seed))
    blocks, _ = id_blocks(decomposition.underlying(graph))
    rng = random.Random(seed)
    pairs = [rng.sample(sorted(graph.vertices), 2) for _ in range(3)]
    for key in ("k5", "k33"):
        tree = solver.decompose(graph, key)
        assert calls == []
        assert sorted(sorted(net.vertices) for net in tree.components.values()) == sorted(
            sorted(verts) for verts, _ in blocks
        )
        assert any(len(verts) >= 3 for verts, _ in blocks)
        for s, t in pairs:
            value, flow = max_flow_family(graph, key, s, t)
            assert value == oracle_max_flow(graph, s, t)
            assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
            assert certify_max_flow(graph, s, t, flow)


def test_step_values_and_reconstruction_conserve(rng):
    for seed in range(8):
        graph, tree = gen_instance(GenConfig("k33free", 24, seed=seed))
        s, t = rng.sample(sorted(graph.vertices), 2)
        nets, observer = collecting_observer()
        value, flow = max_flow_decomposed(graph, tree, s, t, observer=observer)
        assert audit_step_values(nets, s, t)
        assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)


def k4_chain(count):
    """K4 components 2-summed in a chain: component i holds 2i..2i+3, and
    the clique {2i, 2i+1} edge belongs to the earlier component."""
    tree = DecompositionTree()
    eid = 0
    ids = []
    for i in range(count):
        verts = [2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3]
        edges = []
        for u, v in itertools.combinations(verts, 2):
            if i > 0 and (u, v) == (2 * i, 2 * i + 1):
                continue
            edges.append((eid, u, v, 2 + (eid % 3)))
            eid += 1
        ids.append(tree.add_component(FlowNetwork.from_edges(edges, verts)))
    for i in range(count - 1):
        k = tree.add_clique([2 * i + 2, 2 * i + 3])
        tree.attach(ids[i], k)
        tree.attach(ids[i + 1], k)
    return tree


def test_chain_of_four_components_on_the_path_makes_no_records():
    # The whole chain is the terminal path: it is glued as given, so no
    # component is replaced and nothing is replayed.
    tree = k4_chain(4)
    graph = tree.reassemble()
    assert validate(graph, tree)[0]
    stages = []
    value, flow = max_flow_decomposed(
        graph, tree, 0, 9, observer=lambda stage, net: stages.append(stage)
    )
    assert stages == ["input", "final"]
    assert value == oracle_max_flow(graph, 0, 9)
    assert verify_flow(graph, TerminalSet.of(0, 9), (value, -value), flow)


def test_chain_of_two_hundred_components_solves_whole():
    tree = k4_chain(200)
    graph = tree.reassemble()
    assert validate(graph, tree)[0]
    for s, t in [(0, 401), (1, 400), (100, 301)]:
        value, flow = max_flow_decomposed(graph, tree, s, t)
        assert value == max_flow(graph, s, t)[0] > 0
        assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)


@pytest.mark.parametrize("family", ["k33free", "k5free"])
def test_only_off_path_components_are_replaced(family, monkeypatch, rng):
    # One replace stage and one reconstruct stage per record, and every
    # record is an off-path component's; an off-path component with no
    # record carries zero flow.
    seen = capture_records(monkeypatch)
    longest = replaced = 0
    for seed in range(6):
        graph, tree = gen_instance(GenConfig(family, 40, seed=seed))
        s, t = rng.sample(sorted(graph.vertices), 2)
        path = locate_terminal_path(tree, s, t)
        longest = max(longest, len(path))
        stages = []
        _, flow = max_flow_decomposed(
            graph, tree, s, t, observer=lambda stage, net: stages.append(stage)
        )
        records = seen[-1]
        unbuilt = without_record(tree, path, records)
        assert stages.count("replace") == stages.count("reconstruct") == len(records)
        assert len(records) + len(unbuilt) == len(tree.components) - len(path)
        assert all(flow[e.id] == 0 for c in unbuilt for e in tree.components[c].edges)
        replaced += len(records)
    assert longest > 1 and replaced > 0


def test_one_tree_walk_per_query(monkeypatch, rng):
    # locate_terminal_path walks the tree to find the path, and Phase I
    # reads children from the tree without a walk; validation walks the
    # input tree once more to check that it is connected.  The solver only
    # reads the input tree: it walks it in place and leaves it unchanged.
    walks = []
    real = DecompositionTree.walk

    def counting(self, root):
        walks.append(self)
        return real(self, root)

    monkeypatch.setattr(DecompositionTree, "walk", counting)
    for seed in range(4):
        graph, tree = gen_instance(GenConfig("k5free", 40, seed=seed))
        s, t = rng.sample(sorted(graph.vertices), 2)
        before = tree.copy()
        walks.clear()
        value, flow = max_flow_decomposed(graph, tree, s, t, validate_input=False)
        assert len(walks) == 1 and walks[0] is tree and tree == before
        assert value == oracle_max_flow(graph, s, t)
        assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
        walks.clear()
        max_flow_decomposed(graph, tree, s, t)
        assert len(walks) == 2 and walks[0] is tree


def test_solves_on_the_tree_as_given():
    # The off-path leaf has a cut vertex x outside its clique {u, v}, so
    # refining would split it into blocks and the path component into three
    # pieces.  On the tree as given the leaf is one Phase I replacement and
    # the path is a single component, so nothing else is replaced.
    s, u, v, t, x, y = range(6)
    path = FlowNetwork.from_edges([(0, s, u, 5), (1, u, v, 1), (2, v, t, 4)])
    leaf = FlowNetwork.from_edges([(3, u, x, 3), (4, x, v, 3), (5, x, y, 2), (6, y, x, 2)])
    tree = DecompositionTree()
    cp = tree.add_component(path)
    cl = tree.add_component(leaf)
    k = tree.add_clique([u, v])
    tree.attach(cp, k)
    tree.attach(cl, k)
    graph = tree.reassemble()
    assert validate(graph, tree)[0]
    stages = []
    value, flow = max_flow_decomposed(
        graph, tree, s, t, observer=lambda stage, net: stages.append(stage)
    )
    assert stages == ["input", "replace", "final", "reconstruct"]
    assert value == 4 == oracle_max_flow(graph, s, t)
    assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)


def test_internal_arcs_may_exceed_the_input_capacity_bound():
    tree = overflow_tree()
    graph = tree.reassemble()
    value, flow = max_flow_decomposed(graph, tree, 1, 4)
    assert value == 2**63 == max_flow(graph, 1, 4)[0]
    assert verify_flow(graph, TerminalSet.of(1, 4), (value, -value), flow)


def test_source_inside_the_gluing_clique():
    left = FlowNetwork.from_edges([(0, 0, 1, 4), (1, 1, 0, 2)])
    right = FlowNetwork.from_edges([(2, 0, 2, 1), (3, 1, 2, 3)])
    tree = DecompositionTree()
    cl = tree.add_component(left)
    cr = tree.add_component(right)
    k = tree.add_clique([0, 1])
    tree.attach(cl, k)
    tree.attach(cr, k)
    graph = tree.reassemble()
    value, flow = max_flow_decomposed(graph, tree, 0, 2)
    assert value == oracle_max_flow(graph, 0, 2)
    assert verify_flow(graph, TerminalSet.of(0, 2), (value, -value), flow)


def test_terminal_path_rejects_unknown_vertices():
    from minorflow.network import UnknownVertexError

    tree = two_component_tree()
    with pytest.raises(UnknownVertexError):
        locate_terminal_path(tree, 0, 99)


@pytest.mark.parametrize(
    "t,message",
    [(1, "tree is disconnected"), (8, "terminals lie in different tree components")],
    ids=["same-part", "different-parts"],
)
def test_disconnected_tree_fails_before_any_kernel_is_compiled(t, message, monkeypatch):
    # Without validation, a tree that the walk from s's component does not
    # span is rejected where the path is located, before Phase I compiles
    # the off-path component on the clique {1, 2}.
    import minorflow.maxflow as maxflow_mod
    from minorflow.decomposition import InvalidDecomposition

    tree = two_component_tree()
    tree.add_component(FlowNetwork.from_edges([(5, 7, 8, 1)]))
    graph = tree.reassemble()
    compiled = []
    real_compile = maxflow_mod._compile

    def counting_compile(*args):
        compiled.append(args)
        return real_compile(*args)

    monkeypatch.setattr(maxflow_mod, "_compile", counting_compile)
    with pytest.raises(InvalidDecomposition, match=message):
        max_flow_decomposed(graph, tree, 0, t, validate_input=False)
    assert compiled == []


def test_corrupted_mimic_capacity_breaks_the_audit(monkeypatch):
    # Mutation check: inflate one mimic capacity and the per-step value audit
    # must flag it (and reconstruction becomes infeasible).
    import minorflow.solver as solver_mod
    from minorflow.network import Edge, InfeasibleDemandError

    real = solver_mod.build_full_mimic

    def corrupt(*args):
        mimic = real(*args)
        edges = tuple(Edge(e.id, e.tail, e.head, e.cap + 5) for e in mimic.edges)
        return FlowNetwork(mimic.vertices, edges)

    monkeypatch.setattr(solver_mod, "build_full_mimic", corrupt)
    s, u, v, t = 0, 1, 2, 3
    main = FlowNetwork.from_edges([(0, s, u, 5), (1, v, t, 5)], [u, v])
    leaf = FlowNetwork.from_edges([(2, u, v, 2)])
    tree = DecompositionTree()
    cm = tree.add_component(main)
    cl = tree.add_component(leaf)
    k = tree.add_clique([u, v])
    tree.attach(cm, k)
    tree.attach(cl, k)
    graph = tree.reassemble()
    nets, observer = collecting_observer()
    with pytest.raises(InfeasibleDemandError):
        max_flow_decomposed(graph, tree, s, t, observer=observer)
    assert not audit_step_values(nets, s, t)


def capture_records(monkeypatch):
    """Replacement records of every solve, caught on their way into
    reconstruct."""
    import minorflow.solver as solver_mod

    seen = []
    real = solver_mod.reconstruct

    def capture(state, final_flow):
        seen.append(list(state.records))
        return real(state, final_flow)

    monkeypatch.setattr(solver_mod, "reconstruct", capture)
    return seen


def without_record(tree, path, records):
    """Off-path components that got no replacement record: the ones Phase I
    never built."""
    recorded = {id(rec.net) for rec in records}
    return {
        cid
        for cid, net in tree.components.items()
        if cid not in path and id(net) not in recorded
    }


def rebuilt_replay_networks(records, final_net, unbuilt=()):
    """Vertex and edge sets of the network after each pop of the replay,
    rebuilt from the records alone: the final network with the ``unbuilt``
    components' networks, less each popped record's mimic arcs and hub,
    plus the network the mimic replaced."""
    edges = dict(final_net.edge_by_id)
    vertices = set(final_net.vertices)
    for net in unbuilt:
        edges.update(net.edge_by_id)
        vertices |= net.vertices
    rebuilt = []
    for rec in reversed(records):
        for e in rec.mimic:
            del edges[e.id]
        vertices -= {w for e in rec.mimic for w in (e.tail, e.head)} - set(rec.terminals)
        snapshot = rec.snapshot()
        edges.update(snapshot.edge_by_id)
        vertices |= snapshot.vertices
        rebuilt.append((frozenset(vertices), frozenset(edges.values())))
    return rebuilt


def test_replay_audits_the_networks_rebuilt_from_the_records(monkeypatch):
    # The replay audits Phase I's own step networks in reverse; rebuilding
    # them from the records, the final network and the off-path components
    # with no record, which stay in every step network, is the reference.
    seen = capture_records(monkeypatch)
    pops = kept = 0
    for family, seed in itertools.product(("planar", "k33free", "k5free"), range(15)):
        graph, tree = gen_instance(GenConfig(family, 40, seed=seed))
        s, t = random.Random(seed).sample(sorted(graph.vertices), 2)
        path = locate_terminal_path(tree, s, t)
        stages = []
        value, flow = max_flow_decomposed(
            graph, tree, s, t, observer=lambda stage, net: stages.append((stage, net))
        )
        records = seen[-1]
        names = [stage for stage, _ in stages]
        k = len(records)
        assert names == ["input"] + ["replace"] * k + ["final"] + ["reconstruct"] * k
        (final_net,) = [net for stage, net in stages if stage == "final"]
        replayed = [
            (net.vertices, frozenset(net.edges)) for stage, net in stages if stage == "reconstruct"
        ]
        unbuilt = [tree.components[c] for c in without_record(tree, path, records)]
        assert replayed == rebuilt_replay_networks(records, final_net, unbuilt)
        assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
        pops += k
        kept += len(unbuilt) if k else 0
    assert pops > 0 and kept > 0


def expected_mimic(rec):
    """The full-table mimic of the record's snapshot, built by the library."""
    from minorflow.external import cut_table
    from minorflow.mimic import build_full_mimic

    table = cut_table(rec.snapshot(), TerminalSet(rec.terminals))
    hub = rec.mimic[0].head if len(rec.terminals) == 3 else None
    return build_full_mimic(table, hub, rec.mimic[0].id).edges


def below_one_vertex_cliques(tree, path):
    """Off-path components whose way up to the terminal path crosses a
    one-vertex clique, by one forward pass over the breadth-first walk."""
    up, above = tree.walk(path[0])
    on_path, below = set(path), set()
    for cid, kid in up.items():
        if cid not in on_path and (len(tree.cliques[kid]) == 1 or above[kid] in below):
            below.add(cid)
    return below


@pytest.mark.parametrize("family", ["k33free", "k5free"])
def test_installed_mimics_equal_the_full_table_mimic(family, monkeypatch, rng):
    # Every record holds the full-table mimic of its snapshot, whose child
    # arcs are mimics of earlier records; every component below a
    # one-vertex clique is an off-path component with no record.
    seen = capture_records(monkeypatch)
    kinds = set()
    for seed in range(6):
        graph, tree = gen_instance(GenConfig(family, 40, seed=seed))
        s, t = rng.sample(sorted(graph.vertices), 2)
        path = locate_terminal_path(tree, s, t)
        value, flow = max_flow_decomposed(graph, tree, s, t)
        assert value == oracle_max_flow(graph, s, t)
        records = seen[-1]
        below = below_one_vertex_cliques(tree, path)
        assert below <= without_record(tree, path, records)
        installed = set()
        for rec in records:
            assert rec.mimic == expected_mimic(rec) != ()
            assert set(rec.children) <= installed
            installed |= set(rec.mimic)
            kinds.add(len(rec.terminals))
    assert kinds >= ({2} if family == "k33free" else {2, 3})


def test_star_arcs_follow_their_cuts(monkeypatch):
    # A leaf on the triangle {1, 2, 3} whose six cuts are pairwise distinct,
    # so a star arc that reads the wrong cut changes a capacity: q->hub must
    # carry q↛(rest) and hub->q must carry (rest)↛q.
    leaf = FlowNetwork.from_edges(
        [(10, 1, 2, 1), (11, 2, 1, 2), (12, 1, 3, 4), (13, 3, 1, 8), (14, 2, 3, 16), (15, 3, 2, 32)]
    )
    path = FlowNetwork.from_edges([(0, 0, 1, 50), (1, 0, 2, 7), (2, 2, 4, 3), (3, 3, 4, 50)])
    tree = DecompositionTree()
    cp = tree.add_component(path)
    cl = tree.add_component(leaf)
    k = tree.add_clique([1, 2, 3])
    tree.attach(cp, k)
    tree.attach(cl, k)
    graph = tree.reassemble()
    assert validate(graph, tree)[0]
    seen = capture_records(monkeypatch)
    value, flow = max_flow_decomposed(graph, tree, 0, 4)
    (rec,) = seen[0]
    hub = rec.mimic[0].head
    out_cuts = {1: 1 + 4, 2: 2 + 16, 3: 8 + 32}  # q↛(rest)
    in_cuts = {1: 2 + 8, 2: 1 + 32, 3: 4 + 16}  # (rest)↛q
    assert len(set(out_cuts.values()) | set(in_cuts.values())) == 6
    assert [(e.tail, e.head, e.cap) for e in rec.mimic] == [
        step for q in (1, 2, 3) for step in ((q, hub, out_cuts[q]), (hub, q, in_cuts[q]))
    ]
    assert rec.mimic == expected_mimic(rec)
    assert value == oracle_max_flow(graph, 0, 4) > 0
    assert verify_flow(graph, TerminalSet.of(0, 4), (value, -value), flow)


def subtree_demands(records, flow):
    """The external demand each record's mimic carried, read back from the
    final flow: the imbalance at its terminals of the flow on the original
    edges below it."""
    owner = {e.id: i for i, rec in enumerate(records) for e in rec.mimic}
    below = []
    for rec in records:  # children come before their parents
        edges = list(rec.net.edges)
        for i in sorted({owner[e.id] for e in rec.children}):
            edges.extend(below[i])
        below.append(edges)
    demands = []
    for rec, edges in zip(records, below):
        bal = dict.fromkeys(rec.terminals, 0)
        for e in edges:
            for v, sign in ((e.tail, 1), (e.head, -1)):
                if v in bal:
                    bal[v] += sign * flow[e.id]
        demands.append(bal)
    return demands


def test_built_components_and_solve_rounds_compile_and_zero_demands_skip_the_kernel(
    monkeypatch, rng
):
    import minorflow.maxflow as maxflow_mod
    import minorflow.solver as solver_mod

    compiles, calls = [], {"dinic": 0, "rounds": 0}
    real_compile, real_dinic = maxflow_mod._compile, maxflow_mod._dinic
    real_phase2 = solver_mod.phase2

    def recording_compile(net, terminals, extra=()):
        compiles.append((net, tuple(terminals), {e.id for e in extra}))
        return real_compile(net, terminals, extra)

    def counting_dinic(*args):
        calls["dinic"] += 1
        return real_dinic(*args)

    def counting_phase2(*args):
        calls["rounds"] += 1
        return real_phase2(*args)

    monkeypatch.setattr(maxflow_mod, "_compile", recording_compile)
    monkeypatch.setattr(maxflow_mod, "_dinic", counting_dinic)
    monkeypatch.setattr(solver_mod, "phase2", counting_phase2)
    seen = []
    real_reconstruct = solver_mod.reconstruct

    def reconstruct(state, final_flow):
        records, before = list(state.records), (len(compiles), calls["dinic"])
        flows = real_reconstruct(state, final_flow)
        seen.append((records, before, (len(compiles), calls["dinic"]), flows))
        return flows

    monkeypatch.setattr(solver_mod, "reconstruct", reconstruct)
    routed = skipped = built = 0
    for family in ("k33free", "k5free"):
        for seed in range(4):
            graph, tree = gen_instance(GenConfig(family, 60, seed=seed))
            s, t = rng.sample(sorted(graph.vertices), 2)
            compiles.clear()
            calls.update(dinic=0, rounds=0)
            value, flow = max_flow_decomposed(graph, tree, s, t, validate_input=False)
            records, before, after, flows = seen[-1]
            # Phase I compiles only the built components and the net of each
            # solve round.  A component is compiled first with no child arcs,
            # again each time it gains built children's arcs, and last with
            # all of them, so at most 1 + (its built children) times.
            phase1 = compiles[: before[0]]
            rounds = [c for c in phase1 if not any(c[0] is rec.net for rec in records)]
            assert len(rounds) == calls["rounds"] >= 1
            assert all(terminals == (s, t) and not extra for _, terminals, extra in rounds)
            mimic_owner = {e.id: i for i, rec in enumerate(records) for e in rec.mimic}
            final_mimics = {mimic_owner.get(e.id) for e in rounds[-1][0].edges} - {None}
            assert len(rounds) <= 1 + len(final_mimics)
            for rec in records:
                own = [extra for net, _, extra in phase1 if net is rec.net]
                built += 1
                assert rec.mimic and len(rec.terminals) > 1
                assert own[0] == set() and own[-1] == {e.id for e in rec.children}
                assert all(a < b for a, b in zip(own, own[1:]))
                assert len(own) <= 1 + len({mimic_owner[e.id] for e in rec.children})
            # The replay compiles and runs the engine once per non-zero
            # demand and never for a zero one.
            nonzero = sum(1 for d in subtree_demands(records, flows) if any(d.values()))
            assert after[0] - before[0] == nonzero
            assert after[1] - before[1] == nonzero
            routed += nonzero
            skipped += len(records) - nonzero
            assert value == oracle_max_flow(graph, s, t)
            assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
    assert routed > 0 and skipped > 0 and built > 0


def test_phase1_builds_with_build_full_mimic_and_the_replay_routes_with_route_external_flow(
    monkeypatch, rng
):
    # The benchmark's traced run counts built mimics and replay routes by
    # these two solver bindings, so the pipeline must reach them.
    seen = capture_records(monkeypatch)
    calls = {"build_full_mimic": 0, "route_external_flow": 0}
    for name in calls:
        real = getattr(solver, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(solver, name, counting)
    built = routed = 0
    for family in ("k33free", "k5free"):
        for seed in range(4):
            graph, tree = gen_instance(GenConfig(family, 60, seed=seed))
            s, t = rng.sample(sorted(graph.vertices), 2)
            calls.update(dict.fromkeys(calls, 0))
            value, flow = max_flow_decomposed(graph, tree, s, t, validate_input=False)
            records = seen[-1]
            demands = subtree_demands(records, flow)
            assert calls["build_full_mimic"] == len(records)
            assert calls["route_external_flow"] == sum(1 for d in demands if any(d.values()))
            built += calls["build_full_mimic"]
            routed += calls["route_external_flow"]
            assert value == oracle_max_flow(graph, s, t)
            assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
    assert built > 0 and routed > 0


@pytest.mark.parametrize("audit", [False, True], ids=["plain", "observer"])
def test_phase1_records_only_the_components_it_builds(audit, monkeypatch):
    # Each ReplacementRecord comes with one build_full_mimic call, with or
    # without an observer, while most off-path components are never built.
    calls = {"ReplacementRecord": 0, "build_full_mimic": 0}
    for name in calls:
        real = getattr(solver, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(solver, name, counting)
    built = unbuilt = 0
    for family, seed in itertools.product(("k33free", "k5free"), range(4)):
        graph, tree = gen_instance(GenConfig(family, 60, seed=seed))
        s, t = random.Random(seed).sample(sorted(graph.vertices), 2)
        path = locate_terminal_path(tree, s, t)
        calls.update(dict.fromkeys(calls, 0))
        observer = collecting_observer()[1] if audit else None
        value, flow = max_flow_decomposed(
            graph, tree, s, t, validate_input=False, observer=observer
        )
        assert calls["ReplacementRecord"] == calls["build_full_mimic"]
        built += calls["build_full_mimic"]
        unbuilt += len(tree.components) - len(path) - calls["build_full_mimic"]
        assert value == oracle_max_flow(graph, s, t)
        assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
    assert 0 < built < unbuilt


def test_phase1_reads_only_the_cliques_it_needs(monkeypatch):
    # Phase I reads a clique's vertices only where it looks for children:
    # on a path component or on a component it builds.  No clique that only
    # unbuilt components hold is read, and the path's walk reads none.
    class Recording(dict):
        def __getitem__(self, kid):
            read.add(kid)
            return super().__getitem__(kid)

    seen = capture_records(monkeypatch)
    read = set()
    skipped = 0
    for seed in range(4):
        graph, tree = gen_instance(GenConfig("k5free", 400, seed=seed))
        tree.cliques = Recording(tree.cliques)
        rng = random.Random(seed)
        for _ in range(3):
            s, t = rng.sample(sorted(graph.vertices), 2)
            path = locate_terminal_path(tree, s, t)
            assert not read
            value, flow = max_flow_decomposed(graph, tree, s, t, validate_input=False)
            recorded = {id(rec.net) for rec in seen[-1]}
            looked = set(path) | {c for c, net in tree.components.items() if id(net) in recorded}
            assert read <= {kid for c in looked for kid in tree.comp_cliques[c]}
            skipped += len(tree.cliques) - len(read)
            read.clear()
            assert value == max_flow(graph, s, t)[0]
            assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
    assert skipped > 0


def hanging_tree(x):
    """A path component on s=0, 2 and t=1, and below the one-vertex clique
    {x} a triangle component on x, a, b whose edge clique {a, b} and
    triangle clique {x, a, b} each lead to a component with positive cuts."""
    s, t, a, b, c, d = 0, 1, 10, 11, 12, 13
    tree = DecompositionTree()
    cp = tree.add_component(FlowNetwork.from_edges([(0, s, 2, 4), (1, 2, t, 3), (2, s, t, 2)]))
    ca = tree.add_component(FlowNetwork.from_edges([(10, x, a, 7), (11, a, b, 6), (12, b, x, 5)]))
    cb = tree.add_component(FlowNetwork.from_edges([(20, a, c, 4), (21, c, b, 4), (22, b, a, 3)]))
    cc = tree.add_component(
        FlowNetwork.from_edges(
            [(30, x, d, 9), (31, d, a, 2), (32, a, d, 8), (33, d, b, 6), (34, b, d, 1), (35, d, x, 3)]
        )
    )
    for host, comp, clique in ((cp, ca, [x]), (ca, cb, [a, b]), (ca, cc, [x, a, b])):
        k = tree.add_clique(clique)
        tree.attach(host, k)
        tree.attach(comp, k)
    return tree, {ca, cb, cc}


@pytest.mark.parametrize("x", [0, 1, 2], ids=["x-is-s", "x-is-t", "x-inside-the-path"])
def test_components_below_a_one_vertex_clique_get_no_kernel(x, monkeypatch):
    import minorflow.maxflow as maxflow_mod

    tree, hanging = hanging_tree(x)
    graph = tree.reassemble()
    assert validate(graph, tree) == (True, [])
    path = locate_terminal_path(tree, 0, 1)
    assert below_one_vertex_cliques(tree, path) == hanging
    dead = {e.id for c in hanging for e in tree.components[c].edges}
    seen = capture_records(monkeypatch)
    compiled, runs = [], []
    real_compile, real_dinic = maxflow_mod._compile, maxflow_mod._dinic

    def recording_compile(net, *args):
        compiled.append({e.id for e in net.edges})
        return real_compile(net, *args)

    def counting_dinic(*args):
        runs.append(args)
        return real_dinic(*args)

    monkeypatch.setattr(maxflow_mod, "_compile", recording_compile)
    monkeypatch.setattr(maxflow_mod, "_dinic", counting_dinic)
    nets, observer = collecting_observer()
    value, flow = max_flow_decomposed(graph, tree, 0, 1, observer=observer)
    # Only the final solve compiles and runs the engine, on the path alone,
    # and the hanging components are the off-path components with no record.
    assert len(compiled) == len(runs) == 1 and not compiled[0] & dead
    assert seen == [[]] and without_record(tree, path, seen[0]) == hanging
    monkeypatch.undo()
    assert all(flow[i] == 0 for i in dead)
    assert value == oracle_max_flow(graph, 0, 1) > 0
    assert verify_flow(graph, TerminalSet.of(0, 1), (value, -value), flow)
    assert audit_step_values(nets, 0, 1)


def check_pair(graph, tree, s, t):
    """Solve s-t on the tree and check the flow against the oracle's value,
    for feasibility and by its min-cut certificate."""
    value, flow = max_flow_decomposed(graph, tree, s, t, validate_input=False)
    assert value == oracle_max_flow(graph, s, t)
    assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
    assert certify_max_flow(graph, s, t, flow)
    return value, flow


@given(
    st.sampled_from(("k33free", "k5free", "planar")),
    st.integers(20, 80),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_unbuilt_components_carry_zero_and_values_stay_exact(family, n, seed):
    graph, tree = gen_instance(GenConfig(family, n, seed=seed))
    vertices = sorted(graph.vertices)
    pairs = random.Random(seed).sample([(s, t) for s in vertices for t in vertices if s != t], 4)
    with pytest.MonkeyPatch.context() as patch:
        seen = capture_records(patch)
        for s, t in pairs:
            path = locate_terminal_path(tree, s, t)
            value, flow = check_pair(graph, tree, s, t)
            unbuilt = without_record(tree, path, seen[-1])
            assert below_one_vertex_cliques(tree, path) <= unbuilt
            assert all(flow[e.id] == 0 for c in unbuilt for e in tree.components[c].edges)


@given(
    st.sampled_from(("k33free", "k5free", "planar")),
    st.integers(20, 90),
    st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_many_pairs_per_network_are_exact_and_certified(family, n, seed):
    # Random pairs, a pair inside one component, a pair whose homes share a
    # clique, and pairs with s or t on a clique that a min cut split (the
    # clique of a record that got a mimic).
    graph, tree = gen_instance(GenConfig(family, n, seed=seed))
    rng = random.Random(seed)
    vertices = sorted(graph.vertices)
    homes = {}
    for cid in sorted(tree.components, reverse=True):
        homes.update(dict.fromkeys(tree.components[cid].vertices, cid))
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(4)]
    inside = tree.components[rng.choice(sorted(tree.components))]
    pairs.append(tuple(rng.sample(sorted(inside.vertices), 2)))
    shared = [k for k in sorted(tree.cliques) if len(tree.clique_comps[k]) > 1]
    if shared:
        a, b = rng.sample(sorted(tree.clique_comps[rng.choice(shared)]), 2)
        at_a = [v for v in vertices if homes[v] == a]
        at_b = [v for v in vertices if homes[v] == b]
        if at_a and at_b:
            pairs.append((rng.choice(at_a), rng.choice(at_b)))
    with pytest.MonkeyPatch.context() as patch:
        seen = capture_records(patch)
        for s, t in pairs:
            check_pair(graph, tree, s, t)
        split = sorted({rec.terminals for records in seen for rec in records})
        for terminals in rng.sample(split, min(2, len(split))):
            q = rng.choice(terminals)
            other = rng.choice([v for v in vertices if v != q])
            check_pair(graph, tree, q, other)
            check_pair(graph, tree, other, q)


def test_second_round_splits_a_triangle_below_a_built_child_that_stays_unbuilt(monkeypatch):
    # Round 1 solves the path alone: s reaches only a, so the edge clique
    # {a, b} is split and c1 is built (its cuts never split its own clique
    # {q, r}, so c3 below it stays unbuilt).  Round 2 pushes 1 over a->b,
    # b->x, x->t, which leaves x reached and y, z not: the triangle {x, y, z}
    # is split and c2 is built.  Round 3 splits nothing.
    import minorflow.solver as solver_mod

    s, t, a, b, x, y, z, q, r, u, w = range(11)
    tree = DecompositionTree()
    path = tree.add_component(
        FlowNetwork.from_edges(
            [(0, s, a, 5), (1, b, x, 5), (2, x, t, 1), (3, y, t, 5), (4, z, t, 1)]
        )
    )
    c1 = tree.add_component(
        FlowNetwork.from_edges([(10, a, q, 5), (11, q, b, 5), (12, q, r, 1), (13, r, q, 1)])
    )
    c2 = tree.add_component(
        FlowNetwork.from_edges([(20, x, w, 5), (21, w, y, 5), (22, w, z, 1), (23, z, w, 1)])
    )
    c3 = tree.add_component(FlowNetwork.from_edges([(30, q, u, 2), (31, u, r, 2)]))
    for host, comp, clique in ((path, c1, [a, b]), (path, c2, [x, y, z]), (c1, c3, [q, r])):
        k = tree.add_clique(clique)
        tree.attach(host, k)
        tree.attach(comp, k)
    graph = tree.reassemble()
    assert validate(graph, tree) == (True, [])
    rounds = []
    real_phase2 = solver_mod.phase2

    def counting_phase2(state, path_comps):
        rounds.append(len(state.records))
        return real_phase2(state, path_comps)

    monkeypatch.setattr(solver_mod, "phase2", counting_phase2)
    seen = capture_records(monkeypatch)
    nets, observer = collecting_observer()
    value, flow = max_flow_decomposed(graph, tree, s, t, observer=observer)
    assert rounds == [0, 1, 2]
    assert [rec.net for rec in seen[0]] == [tree.components[c1], tree.components[c2]]
    assert without_record(tree, [path], seen[0]) == {c3}
    assert [len(rec.terminals) for rec in seen[0]] == [2, 3]
    assert value == 5 == oracle_max_flow(graph, s, t)
    assert flow[30] == flow[31] == 0
    assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
    assert certify_max_flow(graph, s, t, flow)
    assert audit_step_values(nets, s, t)


def ladder_chain(depth):
    """A path component s -> a0, b0 -> t and below it a chain of ``depth``
    components, component i on the clique {ai, bi} with ai -> a(i+1) and
    b(i+1) -> bi, the last one closing a(depth) -> b(depth).  Every cut
    ai | bi reaches a(i+1) but not b(i+1), so the whole chain is built."""
    s, t = 0, 1
    tree = DecompositionTree()
    host = tree.add_component(FlowNetwork.from_edges([(0, s, 2, 4), (1, 3, t, 4)]))
    for i in range(depth):
        a, b, na, nb = 2 * i + 2, 2 * i + 3, 2 * i + 4, 2 * i + 5
        edges = [(2 * i + 2, a, na, 3), (2 * i + 3, nb, b, 3)]
        if i == depth - 1:
            edges.append((2 * depth + 2, na, nb, 2))
        comp = tree.add_component(FlowNetwork.from_edges(edges))
        k = tree.add_clique([a, b])
        tree.attach(host, k)
        tree.attach(comp, k)
        host = comp
    return tree


@pytest.mark.parametrize("kind", ["unbuilt", "built"])
def test_off_path_chains_deeper_than_the_recursion_limit(kind, monkeypatch):
    import sys

    depth = sys.getrecursionlimit() + 100
    if kind == "unbuilt":
        # s = 0 and t = 1 share the first K4, whose residual source side
        # holds both vertices of the clique below it.
        tree, s, t, want = k4_chain(depth), 0, 1, 2
    else:
        tree, s, t, want = ladder_chain(depth), 0, 1, 2
    graph = tree.reassemble()
    assert validate(graph, tree) == (True, [])
    seen = capture_records(monkeypatch)
    value, flow = max_flow_decomposed(graph, tree, s, t, validate_input=False)
    records = seen[0]
    assert len(records) == (len(tree.components) - 1 if kind == "built" else 0)
    assert all(rec.mimic for rec in records)
    assert value == want == max_flow(graph, s, t)[0]
    assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
    assert certify_max_flow(graph, s, t, flow)
