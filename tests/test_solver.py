import pytest

from minorflow.decomposition import (
    BTW,
    PLANAR,
    DecompositionTree,
    single_component_tree,
    validate,
)
from minorflow.external import verify_flow
from minorflow.maxflow import max_flow
from minorflow.network import FlowNetwork, TerminalSet
from minorflow.solver import locate_terminal_path, max_flow_decomposed, max_flow_family
from minorflow.testkit import (
    GenConfig,
    audit_step_values,
    collecting_observer,
    gen_instance,
    oracle_max_flow,
)

from conftest import overflow_tree


def two_component_tree():
    left = FlowNetwork.from_edges([(0, 0, 1, 4), (1, 0, 2, 3), (2, 1, 2, 2)])
    right = FlowNetwork.from_edges([(3, 1, 3, 2), (4, 2, 3, 5)])
    tree = DecompositionTree()
    cl = tree.add_component(left, PLANAR)
    cr = tree.add_component(right, PLANAR)
    k = tree.add_clique([1, 2])
    tree.attach(cl, k)
    tree.attach(cr, k)
    return tree


def test_locate_terminal_path():
    tree = two_component_tree()
    comps, parent = locate_terminal_path(tree, 0, 3)
    assert comps == [0, 1] and parent[("c", 1)] == ("k", 0)
    same, parent = locate_terminal_path(tree, 0, 1)
    assert same == [0] and len(parent) == 3


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
    c1 = tree.add_component(left, PLANAR)
    c2 = tree.add_component(right, PLANAR)
    k = tree.add_clique([a, b, c])
    tree.attach(c1, k)
    tree.attach(c2, k)
    graph = tree.reassemble()
    assert validate(graph, tree)[0]
    value, flow = max_flow_decomposed(graph, tree, s, t)
    assert value == 1 == oracle_max_flow(graph, s, t)
    assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)


def test_star_of_leaves_on_one_path_triangle_glues_each_leaf_directly():
    # Path component A - triangle - B with five extra leaves on the triangle:
    # phase I glues each leaf's mimic straight into a path component (five
    # replacements, no pendant merging), and the path A, B is glued as is.
    tri = (1, 2, 3)
    edges = [(0, 0, 1, 3), (1, 0, 2, 3), (2, 1, 2, 1), (3, 1, 3, 1), (4, 2, 3, 1)]
    a = FlowNetwork.from_edges(edges, tri)
    b = FlowNetwork.from_edges([(5, 1, 9, 2), (6, 2, 9, 2), (7, 3, 9, 2)], tri)
    tree = DecompositionTree()
    ca = tree.add_component(a, PLANAR)
    cb = tree.add_component(b, PLANAR)
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
        cid = tree.add_component(net, PLANAR)
        tree.attach(cid, k)
    graph = tree.reassemble()
    assert validate(graph, tree)[0]
    nets, observer = collecting_observer()
    stages = []

    def recording(stage, net):
        stages.append(stage)
        observer(stage, net)

    value, flow = max_flow_decomposed(graph, tree, 0, 9, observer=recording)
    assert stages.count("replace") == 5
    assert value == oracle_max_flow(graph, 0, 9)
    assert verify_flow(graph, TerminalSet.of(0, 9), (value, -value), flow)
    assert audit_step_values(nets, 0, 9)


def test_bounded_treewidth_neighbor_gets_direct_glue():
    import itertools

    k5_edges = [(i, u, v, 2) for i, (u, v) in enumerate(itertools.combinations(range(5), 2))]
    hub = FlowNetwork.from_edges(k5_edges)
    leaf = FlowNetwork.from_edges([(10, 0, 9, 3), (11, 9, 1, 3)], [0, 1])
    tree = DecompositionTree()
    ch = tree.add_component(hub, BTW)
    cl = tree.add_component(leaf, PLANAR)
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


def test_planar_graph_solves_under_both_families(rng):
    graph, _ = gen_instance(GenConfig("planar", 14, seed=4))
    s, t = rng.sample(sorted(graph.vertices), 2)
    want = oracle_max_flow(graph, s, t)
    assert max_flow_family(graph, "k33", s, t)[0] == want
    assert max_flow_family(graph, "k5", s, t)[0] == want


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
    import itertools

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
        ids.append(tree.add_component(FlowNetwork.from_edges(edges, verts), PLANAR))
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
def test_only_off_path_components_are_replaced(family, rng):
    longest = 0
    for seed in range(6):
        graph, tree = gen_instance(GenConfig(family, 40, seed=seed))
        s, t = rng.sample(sorted(graph.vertices), 2)
        path, _ = locate_terminal_path(tree, s, t)
        longest = max(longest, len(path))
        stages = []
        max_flow_decomposed(graph, tree, s, t, observer=lambda stage, net: stages.append(stage))
        assert stages.count("replace") == len(tree.components) - len(path)
    assert longest > 1


def test_one_tree_walk_per_query(monkeypatch, rng):
    # locate_terminal_path's walk serves Phase I too; validation walks the
    # input tree once more to check that it is connected.
    walks = []
    real = DecompositionTree.walk

    def counting(self, roots):
        walks.append(self)
        return real(self, roots)

    monkeypatch.setattr(DecompositionTree, "walk", counting)
    for seed in range(4):
        graph, tree = gen_instance(GenConfig("k5free", 40, seed=seed))
        s, t = rng.sample(sorted(graph.vertices), 2)
        walks.clear()
        value, flow = max_flow_decomposed(graph, tree, s, t, validate_input=False)
        assert len(walks) == 1 and walks[0] is not tree
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
    cp = tree.add_component(path, PLANAR)
    cl = tree.add_component(leaf, PLANAR)
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
    cl = tree.add_component(left, PLANAR)
    cr = tree.add_component(right, PLANAR)
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


def test_corrupted_mimic_capacity_breaks_the_audit(monkeypatch):
    # Mutation check: inflate one mimic capacity and the per-step value audit
    # must flag it (and reconstruction becomes infeasible).
    import minorflow.solver as solver_mod
    from minorflow.network import Edge, InfeasibleDemandError

    real = solver_mod._mimic

    def corrupt(st, net, terminals):
        out = real(st, net, terminals)
        bumped = tuple(Edge(e.id, e.tail, e.head, e.cap + 5) for e in out.edges)
        return FlowNetwork(out.vertices, bumped)

    monkeypatch.setattr(solver_mod, "_mimic", corrupt)
    s, u, v, t = 0, 1, 2, 3
    main = FlowNetwork.from_edges([(0, s, u, 5), (1, v, t, 5)], [u, v])
    leaf = FlowNetwork.from_edges([(2, u, v, 2)])
    tree = DecompositionTree()
    cm = tree.add_component(main, PLANAR)
    cl = tree.add_component(leaf, PLANAR)
    k = tree.add_clique([u, v])
    tree.attach(cm, k)
    tree.attach(cl, k)
    graph = tree.reassemble()
    nets, observer = collecting_observer()
    with pytest.raises(InfeasibleDemandError):
        max_flow_decomposed(graph, tree, s, t, observer=observer)
    assert not audit_step_values(nets, s, t)
