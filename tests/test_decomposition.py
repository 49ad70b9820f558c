import inspect
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from minorflow import cli, decomposition
from minorflow.decomposition import (
    DecompositionTree,
    InvalidDecomposition,
    NotK33MinorFree,
    NotK5MinorFree,
    _nbrs,
    biconnected_split,
    decompose_k33_free,
    decompose_k5_free,
    refine,
    single_component_tree,
    underlying,
    validate,
)
from minorflow.fileio import canonical_ids, parse_decomposition, write_decomposition, write_network
from minorflow.maxflow import max_flow
from minorflow.network import FlowNetwork
from minorflow.planar import index_lists, is_planar, planar_embed
from minorflow.testkit import (
    GenConfig,
    gen_instance,
    minor_free_check,
    nested_triangles,
    oracle_spqr,
    torso_adjacency,
)

from conftest import dnet, id_blocks

K5_PAIRS = list(itertools.combinations(range(5), 2))
K33_PAIRS = [(a, b + 3) for a in range(3) for b in range(3)]
V8_PAIRS = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
OCTAHEDRON = [
    (0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
    (0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3),
]


def k5_with_path(n):
    """K5 on 0..4 with a pendant path on to vertex n-1: n vertices, not planar."""
    return dnet(K5_PAIRS + [(v, v + 1) for v in range(4, n - 1)])


def planar_torso(tree, cid):
    return is_planar(index_lists(torso_adjacency(tree, cid))[1])


def test_biconnected_split_two_triangles_sharing_a_vertex():
    adj = underlying(dnet([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]))
    blocks, artics = id_blocks(adj)
    assert len(blocks) == 2
    assert artics == frozenset({2})


def test_biconnected_split_cycle_is_one_block():
    adj = underlying(dnet([(i, (i + 1) % 5) for i in range(5)]))
    blocks, artics = id_blocks(adj)
    assert len(blocks) == 1 and artics == frozenset()


def test_biconnected_split_covers_all_edges(rng):
    from minorflow.testkit import random_network

    for _ in range(40):
        net = random_network(rng, rng.randint(2, 12))
        adj = underlying(net)
        blocks, _ = id_blocks(adj)
        covered = set().union(*(b[1] for b in blocks)) if blocks else set()
        assert covered == {frozenset((e.tail, e.head)) for e in net.edges}


def test_tree_operations_and_reassembly():
    a = dnet([(0, 1), (1, 2)])
    b = dnet([(2, 3)])
    # ids must be disjoint: rebuild b with fresh edge ids
    b = FlowNetwork.from_edges([(10, 2, 3, 1)])
    tree = DecompositionTree()
    ca = tree.add_component(a)
    cb = tree.add_component(b)
    k = tree.add_clique([2])
    tree.attach(ca, k)
    tree.attach(cb, k)
    graph = tree.reassemble()
    ok, problems = validate(graph, tree)
    assert ok, problems


def test_validate_flags_duplicated_edge():
    net = dnet([(0, 1)])
    tree = DecompositionTree()
    c1 = tree.add_component(net)
    c2 = tree.add_component(net)  # same edge id in two components
    k = tree.add_clique([0, 1])
    tree.attach(c1, k)
    tree.attach(c2, k)
    ok, problems = validate(net, tree)
    assert not ok and any("appears in components" in p for p in problems)


def test_validate_flags_missing_edge():
    graph = dnet([(0, 1), (1, 2)])
    tree = DecompositionTree()
    tree.add_component(dnet([(0, 1)], extra=[2]))
    ok, problems = validate(graph, tree)
    assert not ok and any("edge sets differ" in p for p in problems)


@pytest.mark.parametrize("edge", [(1, 2, 1, 1), (1, 0, 2, 1), (1, 1, 2, 5)])
def test_validate_flags_an_edge_that_differs_from_the_input(edge):
    # Same id, other tail, head or capacity; an equal copy passes.
    graph = dnet([(0, 1), (1, 2)])
    for other, want in ((edge, ["edge 1 differs from the input edge"]), ((1, 1, 2, 1), [])):
        tree = single_component_tree(FlowNetwork.from_edges([(0, 0, 1, 1), other]))
        assert validate(graph, tree) == (not want, want)


def two_triangles(clique, attach_second=True):
    # Triangles 0-1-2 and 1-2-3 (fresh edge ids) glued at ``clique``.
    tree = DecompositionTree()
    ca = tree.add_component(dnet([(0, 1), (1, 2), (0, 2)]))
    cb = tree.add_component(FlowNetwork.from_edges([(3, 1, 3, 1), (4, 2, 3, 1)]))
    k = tree.add_clique(clique)
    tree.attach(ca, k)
    if attach_second:
        tree.attach(cb, k)
    return tree, ca, cb


def test_validate_flags_vertex_shared_outside_its_clique():
    tree, _, _ = two_triangles([1])
    ok, problems = validate(tree.reassemble(), tree)
    assert not ok and problems == ["vertex 2 is shared outside its cliques"]


def test_validate_flags_a_cycle_in_the_tree():
    tree, ca, cb = two_triangles([1])
    k = tree.add_clique([2])
    tree.attach(ca, k)
    tree.attach(cb, k)
    ok, problems = validate(tree.reassemble(), tree)
    assert not ok and any("not a tree" in p for p in problems)


def test_validate_flags_a_clique_on_one_component():
    tree, _, _ = two_triangles([1, 2], attach_second=False)
    ok, problems = validate(tree.reassemble(), tree)
    assert not ok and any("attached to fewer than 2 components" in p for p in problems)


def test_validate_flags_a_clique_outside_its_component():
    # Edges 0-1 and 1-2 glued at clique {1, 2}, which component 0 lacks:
    # validate must report it rather than build that component's torso.
    tree = DecompositionTree()
    ca = tree.add_component(dnet([(0, 1)]))
    cb = tree.add_component(FlowNetwork.from_edges([(1, 1, 2, 1)]))
    k = tree.add_clique([1, 2])
    tree.attach(ca, k)
    tree.attach(cb, k)
    ok, problems = validate(tree.reassemble(), tree)
    assert not ok and problems == ["clique 0 vertices missing from component 0"]


def test_add_clique_rejects_a_clique_of_0_or_4_vertices():
    tree = DecompositionTree()
    for vertices in ((), range(4)):
        with pytest.raises(InvalidDecomposition, match=r"clique size [04] out of range 1\.\.3"):
            tree.add_clique(vertices)
    assert tree.cliques == {} and tree.clique_comps == {}


@pytest.mark.parametrize(
    "vertices,want",
    [
        (
            (),
            [
                "clique 0 size 0 out of range 1..3",
                "vertex 1 is shared outside its cliques",
                "vertex 2 is shared outside its cliques",
            ],
        ),
        (
            (0, 1, 2, 3),
            [
                "clique 0 vertices missing from component 0",
                "clique 0 vertices missing from component 1",
                "clique 0 size 4 out of range 1..3",
            ],
        ),
    ],
    ids=["empty", "four"],
)
def test_validate_reports_a_clique_of_0_or_4_vertices_set_by_hand(vertices, want):
    # add_clique and the parser reject these sizes; a clique map written
    # directly can still hold one.
    tree, _, _ = two_triangles([1, 2])
    assert validate(tree.reassemble(), tree) == (True, [])
    tree.cliques[0] = frozenset(vertices)
    assert validate(tree.reassemble(), tree) == (False, want)


def test_validate_reports_a_component_attached_to_a_missing_clique():
    # The tree walk cannot cross a clique the tree lacks: validate must
    # report it, and the solver refuse the tree, rather than raise KeyError.
    from minorflow.solver import max_flow_decomposed

    graph = FlowNetwork.from_edges([(0, 0, 1, 1)])
    tree = DecompositionTree()
    c = tree.add_component(FlowNetwork.from_edges([(0, 0, 1, 1)]))
    tree.comp_cliques[c].add(7)
    assert validate(graph, tree) == (
        False,
        ["component 0 attached to missing clique 7", "tree edge count is not nodes-1 (not a tree)"],
    )
    with pytest.raises(InvalidDecomposition, match="component 0 attached to missing clique 7"):
        max_flow_decomposed(graph, tree, 0, 1)
    # The same for a clique that names a missing component.
    tree = DecompositionTree()
    c = tree.add_component(FlowNetwork.from_edges([(0, 0, 1, 1)]))
    k = tree.add_clique([1])
    tree.attach(c, k)
    tree.clique_comps[k].add(9)
    assert validate(graph, tree) == (False, ["clique 0 attached to missing component 9"])
    with pytest.raises(InvalidDecomposition, match="clique 0 attached to missing component 9"):
        max_flow_decomposed(graph, tree, 0, 1)


def test_validate_reports_a_component_missing_from_the_incidence_map():
    # A component set into ``components`` directly, without add_component,
    # has no comp_cliques entry: a problem to report, not a KeyError.
    graph = FlowNetwork.from_edges([(0, 0, 1, 1)])
    tree = DecompositionTree()
    tree.components[0] = graph
    assert validate(graph, tree) == (False, ["component 0 has no clique incidence entry"])


def test_validate_reports_incidence_maps_that_disagree():
    # A-{1,2}-B-{3,4}-C, then clique {3,4} is told it joins A and C: B still
    # lists it and A does not.  Both maps span the tree and count its edges,
    # so only comparing them shows the fault; the solver must refuse the
    # tree rather than fail inside it.
    from minorflow.solver import max_flow_decomposed

    tree = DecompositionTree()
    a = tree.add_component(FlowNetwork.from_edges([(0, 0, 1, 1), (1, 0, 2, 1)]))
    b = tree.add_component(FlowNetwork.from_edges([(2, 1, 3, 1), (3, 2, 4, 1)]))
    c = tree.add_component(FlowNetwork.from_edges([(4, 3, 5, 1), (5, 4, 5, 1)]))
    k1, k2 = tree.add_clique([1, 2]), tree.add_clique([3, 4])
    for cid, kid in ((a, k1), (b, k1), (b, k2), (c, k2)):
        tree.attach(cid, kid)
    graph = tree.reassemble()
    assert validate(graph, tree) == (True, [])
    tree.clique_comps[k2] = {a, c}
    assert validate(graph, tree) == (
        False,
        [
            "component 1 lists clique 1, which does not list it",
            "clique 1 lists component 0, which does not list it",
        ],
    )
    with pytest.raises(InvalidDecomposition, match="component 1 lists clique 1"):
        max_flow_decomposed(graph, tree, 3, 4)


class ScanCountingDict(dict):
    """A dict that counts the calls that can walk all of its keys."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def keys(self):
        self.scans += 1
        return super().keys()


def test_validate_scans_the_component_map_a_fixed_number_of_times():
    # A chain of 40 triangles glued at single vertices: 39 cliques.  Checking
    # each clique's components must not walk every component id.
    tree = DecompositionTree()
    comps = []
    for i in range(40):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        net = FlowNetwork.from_edges([(3 * i, a, b, 1), (3 * i + 1, b, c, 1), (3 * i + 2, c, a, 1)])
        comps.append(tree.add_component(net))
    for i in range(39):
        k = tree.add_clique([2 * i + 2])
        tree.attach(comps[i], k)
        tree.attach(comps[i + 1], k)
    graph = tree.reassemble()
    tree.components = ScanCountingDict(tree.components)
    assert validate(graph, tree) == (True, [])
    assert tree.components.scans <= 2


def test_validate_rejects_a_non_planar_component_above_the_size_cap():
    net = k5_with_path(11)
    ok, problems = validate(net, single_component_tree(net))
    assert not ok
    assert problems == ["component 0 torso is not planar and has more than 10 vertices"]


K33_PAIRS = [(a, b) for a in range(3) for b in range(3, 6)]


def test_validate_reports_a_disconnected_non_planar_torso_above_the_cap_twice():
    # K3,3 on 0..5 beside a path on 6..11: 12 vertices and 14 edges, within
    # Euler's 3n - 6, so the planarity test runs and fails on the first
    # part; the second part still counts as a component.
    net = dnet(K33_PAIRS + [(v, v + 1) for v in range(6, 11)])
    assert validate(net, single_component_tree(net)) == (
        False,
        [
            "component 0 torso is disconnected",
            "component 0 torso is not planar and has more than 10 vertices",
        ],
    )


def test_validate_reports_a_disconnected_planar_torso_above_the_cap_once():
    # Two 6-cycles: 12 vertices and 12 edges, planar.
    cycles = [(v, v + 1) for v in range(5)] + [(5, 0)]
    net = dnet(cycles + [(u + 6, v + 6) for u, v in cycles])
    assert validate(net, single_component_tree(net)) == (
        False,
        ["component 0 torso is disconnected"],
    )


@pytest.mark.parametrize(
    "net",
    [dnet(K5_PAIRS), dnet(V8_PAIRS), k5_with_path(10)],
    ids=["K5", "Wagner", "K5-path-10"],
)
def test_validate_accepts_a_non_planar_component_within_the_size_cap(net):
    assert validate(net, single_component_tree(net)) == (True, [])


def corpus_base():
    """Input edges and tree of the single-fault corpus: triangle 0-1-2
    (component 0), 1->3->2 with 2->1 (component 1) and 3->4 (component 2),
    glued at clique 0 = {1, 2} and clique 1 = {3}."""
    edges = {
        0: [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 0, 1)],
        1: [(3, 1, 3, 1), (4, 3, 2, 1), (5, 2, 1, 1)],
        2: [(6, 3, 4, 1)],
    }
    tree = DecompositionTree()
    for cid in edges:
        tree.add_component(FlowNetwork.from_edges(edges[cid]))
    for kid, (verts, comps) in enumerate((([1, 2], [0, 1]), ([3], [1, 2]))):
        tree.add_clique(verts)
        for cid in comps:
            tree.attach(cid, kid)
    return [e for cid in edges for e in edges[cid]], json.loads(write_decomposition(tree))


def add_component(doc, cid, vertices, edges, cliques):
    doc["components"].append({"id": cid, "vertices": vertices, "edges": edges})
    doc["tree_edges"] += [[cid, kid] for kid in cliques]


def add_clique(doc, kid, vertices, comps):
    doc["cliques"].append({"id": kid, "vertices": vertices})
    doc["tree_edges"] += [[cid, kid] for cid in comps]


def fault_duplicate_edge(edges, doc):
    doc["components"][0]["edges"].append([5, 2, 1, 1])


def fault_changed_capacity(edges, doc):
    doc["components"][2]["edges"][0][3] = 7


def fault_reversed_edge(edges, doc):
    doc["components"][2]["edges"][0][1:3] = [4, 3]


def fault_missing_edge(edges, doc):
    del doc["components"][0]["edges"][0]


def fault_clique_outside_its_component(edges, doc):
    doc["cliques"][1]["vertices"] = [3, 4]


def fault_disconnected_torso(edges, doc):
    doc["components"][2]["vertices"].append(5)


def fault_vertex_shared_outside_its_cliques(edges, doc):
    edges.append((7, 4, 0, 1))
    doc["components"][2]["vertices"].append(0)
    doc["components"][2]["edges"].append([7, 4, 0, 1])


def fault_non_planar_torso(edges, doc):
    # K5 on 4, 10..13 with the path 13-14-...-19: 11 vertices, glued at {4}.
    pairs = list(itertools.combinations([4, 10, 11, 12, 13], 2))
    pairs += [(v, v + 1) for v in range(13, 19)]
    arcs = [(10 + i, u, v, 1) for i, (u, v) in enumerate(pairs)]
    edges.extend(arcs)
    add_component(doc, 3, [4] + list(range(10, 20)), [list(a) for a in arcs], [2])
    add_clique(doc, 2, [4], [2])


def fault_cycle_in_the_tree(edges, doc):
    add_clique(doc, 2, [2], [0, 1])


def fault_disconnected_tree(edges, doc):
    # Clique 1 goes and clique {2} closes a cycle, so the edge count still
    # matches while component 2 hangs free.
    del doc["cliques"][1]
    doc["tree_edges"] = [te for te in doc["tree_edges"] if te[1] != 1]
    add_clique(doc, 2, [2], [0, 1])


def fault_empty_component_on_a_clique(edges, doc):
    add_component(doc, 3, [], [], [1])


def fault_empty_component_off_the_tree(edges, doc):
    add_component(doc, 3, [], [], [])
    add_clique(doc, 2, [2], [0, 1])


SINGLE_FAULTS = [
    (fault_duplicate_edge, "edge 5 appears in components 0 and 1"),
    (fault_changed_capacity, "edge 6 differs from the input edge"),
    (fault_reversed_edge, "edge 6 differs from the input edge"),
    (fault_missing_edge, "edge sets differ (missing [0], extra [])"),
    (fault_clique_outside_its_component, "clique 1 vertices missing from component 1"),
    (fault_disconnected_torso, "component 2 torso is disconnected"),
    (fault_vertex_shared_outside_its_cliques, "vertex 0 is shared outside its cliques"),
    (fault_non_planar_torso, "component 3 torso is not planar and has more than 10 vertices"),
    (fault_cycle_in_the_tree, "tree edge count is not nodes-1 (not a tree)"),
    (fault_disconnected_tree, "tree is disconnected"),
    (fault_empty_component_on_a_clique, "clique 1 vertices missing from component 3"),
    (fault_empty_component_off_the_tree, "tree is disconnected"),
]


@pytest.mark.parametrize(
    "fault, problem", SINGLE_FAULTS, ids=[fault.__name__[6:] for fault, _ in SINGLE_FAULTS]
)
def test_validate_reports_exactly_the_one_fault_of_a_parsed_tree(fault, problem):
    # The tree is parsed from text, as the CLI and the benchmark take it, so
    # its edges are other objects than the input's and are compared by field.
    edges, doc = corpus_base()
    graph = FlowNetwork.from_edges(edges)
    tree = parse_decomposition(json.dumps(doc))
    assert validate(graph, tree) == (True, [])
    fault(edges, doc)
    vertices = {v for c in doc["components"] for v in c["vertices"]}
    graph = FlowNetwork.from_edges(edges, vertices)
    tree = parse_decomposition(json.dumps(doc))
    assert validate(graph, tree) == (False, [problem])


def test_validate_accepts_one_empty_component_of_an_empty_network():
    doc = {"components": [{"id": 0, "vertices": [], "edges": []}], "cliques": [], "tree_edges": []}
    tree = parse_decomposition(json.dumps(doc))
    assert validate(FlowNetwork(frozenset(), ()), tree) == (True, [])


def test_decompose_planar_input_gives_planar_components():
    k4 = dnet(itertools.combinations(range(4), 2))
    tree = decompose_k33_free(k4)
    assert all(planar_torso(tree, cid) for cid in tree.components)
    assert validate(k4, tree)[0]


def test_decompose_k33_free_recovers_k5_blocks():
    # 2-sum of K5 and a planar square sharing edge (0,1)
    pairs = K5_PAIRS + [(0, 5), (5, 6), (6, 1)]
    g = dnet(pairs)
    tree = decompose_k33_free(g)
    assert validate(g, tree)[0]
    kinds = sorted(
        (planar_torso(tree, cid), len(net.vertices)) for cid, net in tree.components.items()
    )
    assert (False, 5) in kinds


def test_decompose_k33_free_recovers_generated_k5_blocks():
    # Generator round trip: force K5 building blocks and ask for them back.
    for seed in range(10):
        graph, truth = gen_instance(
            GenConfig("k33free", 26, seed=seed, special_prob=0.9)
        )
        truth_k5 = sum(1 for cid in truth.components if not planar_torso(truth, cid))
        if truth_k5 == 0:
            continue
        tree = decompose_k33_free(graph)
        found = [
            net for cid, net in tree.components.items()
            if not planar_torso(tree, cid) and len(net.vertices) == 5
        ]
        assert len(found) >= truth_k5
        return
    raise AssertionError("generator never produced a K5 block")


def test_decompose_k33_free_rejects_k33():
    with pytest.raises(NotK33MinorFree):
        decompose_k33_free(dnet(K33_PAIRS))


def test_decompose_k5_free_accepts_wagner():
    v8 = dnet(V8_PAIRS)
    tree = decompose_k5_free(v8)
    assert list(tree.components) == [0] and not planar_torso(tree, 0)
    assert validate(v8, tree)[0]


def test_decompose_k5_free_rejects_k5():
    with pytest.raises(NotK5MinorFree):
        decompose_k5_free(dnet(K5_PAIRS))


def test_decompose_k5_free_splits_generated_three_sums(rng):
    for seed in range(8):
        graph, _ = gen_instance(GenConfig("k5free", 30, seed=seed))
        tree = decompose_k5_free(graph)
        ok, problems = validate(graph, tree)
        assert ok, problems


@pytest.mark.parametrize(
    "family, decomposer", [("k5free", decompose_k5_free), ("k33free", decompose_k33_free)]
)
def test_each_decomposer_builds_one_network_per_component(monkeypatch, family, decomposer):
    # Blocks, SPQR pieces and separating triples are composed first, so no
    # network is built for a piece that is split again.
    built = []
    real = FlowNetwork.__post_init__

    def counting(net):
        built.append(net)
        real(net)

    monkeypatch.setattr(FlowNetwork, "__post_init__", counting)
    for seed in range(3):
        graph, _ = gen_instance(GenConfig(family, 300, seed=seed))
        blocks, _ = biconnected_split(index_lists(underlying(graph))[1])
        assert not all(is_planar(_nbrs(block)) for block in blocks)
        built.clear()
        tree = decomposer(graph)
        assert len(built) == len(tree.components), (family, seed)


TINY_NETWORKS = {
    "empty": FlowNetwork(frozenset(), ()),
    "one-vertex": FlowNetwork(frozenset({0}), ()),
    "one-arc": FlowNetwork.from_edges([(0, 0, 1, 3)]),
    "two-arc-path": FlowNetwork.from_edges([(0, 0, 1, 3), (1, 1, 2, 2)]),
}


@pytest.mark.parametrize("build", ["k33", "k5", "refine"])
@pytest.mark.parametrize("name", sorted(TINY_NETWORKS))
def test_tiny_networks_give_valid_trees_that_solve(name, build):
    from minorflow.solver import max_flow_decomposed
    from minorflow.testkit import oracle_max_flow

    net = TINY_NETWORKS[name]
    if build == "refine":
        tree = refine(single_component_tree(net))
    else:
        tree = (decompose_k33_free if build == "k33" else decompose_k5_free)(net)
    assert validate(net, tree) == (True, [])
    for s, t in itertools.permutations(sorted(net.vertices), 2):
        assert max_flow_decomposed(net, tree, s, t)[0] == oracle_max_flow(net, s, t)


@pytest.mark.parametrize("decomposer", [decompose_k33_free, decompose_k5_free])
def test_decomposers_require_connected_input(decomposer):
    g = FlowNetwork.from_edges([(0, 0, 1, 1), (1, 5, 6, 1)])
    with pytest.raises(InvalidDecomposition, match="decomposers require a connected input graph"):
        decomposer(g)


def glued_at_triangle(pairs):
    """Tree of the network on ``pairs`` and a vertex 9 joined to 0, 1 and 2,
    the two components glued at the triangle {0, 1, 2}."""
    net = dnet(pairs)
    tree = DecompositionTree()
    main = tree.add_component(net)
    apex = tree.add_component(
        FlowNetwork.from_edges([(100 + q, 9, q, 1) for q in (0, 1, 2)])
    )
    k = tree.add_clique([0, 1, 2])
    tree.attach(main, k)
    tree.attach(apex, k)
    return tree


def refined_vertex_sets(tree):
    refined = refine(tree)
    assert validate(tree.reassemble(), refined)[0]
    return {frozenset(net.vertices) for net in refined.components.values()}


def test_refine_leaves_a_face_triangle_alone():
    tree = glued_at_triangle(OCTAHEDRON)
    assert refined_vertex_sets(tree) == {frozenset(range(6)), frozenset({0, 1, 2, 9})}


def test_refine_splits_stacked_tetrahedra_at_their_triangle():
    # two tetrahedra sharing the (non-face) triangle 0,1,2
    pairs = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)]
    assert refined_vertex_sets(glued_at_triangle(pairs)) == {
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2, 4}),
        frozenset({0, 1, 2, 9}),
    }


def test_refine_is_idempotent_and_makes_triangles_faces(rng):
    for seed in range(6):
        graph, tree = gen_instance(GenConfig("k5free", 28, seed=seed))
        refined = refine(tree)
        ok, problems = validate(graph, refined)
        assert ok, problems
        again = refine(refined)
        assert sorted(
            (sorted(net.vertices), sorted(e.id for e in net.edges))
            for net in again.components.values()
        ) == sorted(
            (sorted(net.vertices), sorted(e.id for e in net.edges))
            for net in refined.components.values()
        )
        for cid in sorted(refined.components):
            emb = planar_embed(torso_adjacency(refined, cid))
            if emb is None:
                continue
            for kid in sorted(refined.comp_cliques[cid]):
                tri = refined.cliques[kid]
                if len(tri) == 3:
                    assert emb.is_triangle_face(tri), (seed, cid, sorted(tri))


def test_refine_of_a_k5_free_decomposition_loads_no_networkx():
    # The triangle split decides faces by separation, not by an embedding:
    # K3,3 splits at a separating triple into three K4s glued at a triangle,
    # whose torsos refine tests without networkx.
    src = str(Path(decomposition.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from minorflow.decomposition import decompose_k5_free, refine\n"
        "from minorflow.network import FlowNetwork\n"
        f"pairs = {K33_PAIRS!r}\n"
        "net = FlowNetwork.from_edges([(i, u, v, 1) for i, (u, v) in enumerate(pairs)])\n"
        "tree = refine(decompose_k5_free(net))\n"
        "print(len(tree.components), sorted(len(k) for k in tree.cliques.values()),"
        " 'networkx' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["3", "[3]", "False"]


def test_refine_of_a_k33_free_decomposition_splits_only_its_planar_components():
    # The decomposer keeps planar blocks whole, so refine splits them into
    # the triconnected pieces it finds on the whole network; a k33 tree has
    # no triangle cliques, and its non-planar pieces (K5) are triconnected.
    def shape(tree):
        return sorted(
            (sorted(net.vertices), [e.id for e in net.edges], planar_torso(tree, cid))
            for cid, net in tree.components.items()
        )

    def piece(net):
        return net.vertices, frozenset(e.id for e in net.edges)

    for family, n, seed in itertools.product(("k33free", "planar"), (40, 80, 120), range(3)):
        graph, _ = gen_instance(GenConfig(family, n, seed=seed))
        tree = decompose_k33_free(graph)
        refined = refine(tree)
        assert shape(refined) == shape(refine(single_component_tree(graph))), (family, n, seed)
        unsplit = {piece(net) for net in refined.components.values()}
        for cid, net in tree.components.items():
            if piece(net) not in unsplit:
                assert planar_torso(tree, cid), (family, n, seed, cid)
            elif not planar_torso(tree, cid):  # non-planar: K5, unchanged
                assert len(net.vertices) == 5, (family, n, seed, cid)


PARITY_INPUTS = [
    (family, n, seed, key)
    for family, key in (("k33free", "k33"), ("k5free", "k5"))
    for n in (40, 80, 120)
    for seed in (0, 1)
] + [("planar", 50, seed, key) for seed in (0, 1) for key in ("k33", "k5")]


@pytest.mark.parametrize("family,n,seed,key", PARITY_INPUTS)
def test_decomposers_give_the_same_tree_with_the_pairwise_spqr_oracle(
    monkeypatch, family, n, seed, key
):
    # SPQR pieces are ordered by vertex list, not node id, so the trees are
    # equal outright: ids, clique homes and the holders of 2-clique edges.
    graph, _ = gen_instance(GenConfig(family, n, seed=seed))
    decomposer = decompose_k33_free if key == "k33" else decompose_k5_free
    tree = decomposer(graph)
    monkeypatch.setattr(decomposition, "spqr", oracle_spqr)
    assert write_decomposition(decomposer(graph)) == write_decomposition(tree)


def test_refine_splits_non_biconnected_component():
    # path 0-1-2 with an extra pendant triangle at 2, all in one component
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)]
    net = dnet(pairs)
    tree = single_component_tree(net)
    refined = refine(tree)
    assert len(refined.components) > 1
    assert validate(net, refined)[0]


@pytest.mark.parametrize("fill", ["parse_decomposition", "canonical_ids"])
def test_refine_of_a_directly_filled_tree_reuses_no_live_id(fill):
    # Parsers fill the id maps directly.  Component 0, a bowtie, splits into
    # two blocks while component 1 and clique 0 stay live: the new pieces and
    # the new articulation clique must take ids past every live one.
    bowtie = dnet([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    tri = FlowNetwork.from_edges([(6, 0, 5, 1), (7, 5, 6, 1), (8, 6, 0, 1)])
    built = DecompositionTree()
    ca = built.add_component(bowtie)
    cb = built.add_component(tri)
    k = built.add_clique([0])
    built.attach(ca, k)
    built.attach(cb, k)
    graph = built.reassemble()
    if fill == "parse_decomposition":
        tree = parse_decomposition(write_decomposition(built))
    else:
        graph, tree, _, _ = canonical_ids(graph, built)
    kept = tree.components[1]
    refined = refine(tree)
    assert validate(graph, refined)[0]
    assert sorted(refined.components) == [1, 2, 3]
    assert sorted(refined.cliques) == [0, 1]
    assert refined.components[1] == kept
    assert tree.add_component(kept) == 2 and tree.add_clique([1]) == 1


@pytest.mark.parametrize(
    "fault, problem",
    [
        ("missing-clique", "component 0 attached to missing clique 7"),
        ("clique-outside", "clique 0 vertices missing from component 0"),
        ("no-incidence-entry", "component 0 has no clique incidence entry"),
    ],
    ids=["missing-clique", "clique-outside", "no-incidence-entry"],
)
def test_refine_rejects_a_tree_that_does_not_hold_together(fault, problem):
    tree = DecompositionTree()
    c = tree.add_component(FlowNetwork.from_edges([(0, 0, 1, 1)]))
    if fault == "no-incidence-entry":
        del tree.comp_cliques[c]
    elif fault == "missing-clique":
        tree.comp_cliques[c].add(7)
    else:
        other = tree.add_component(FlowNetwork.from_edges([(1, 1, 9, 1)]))
        k = tree.add_clique([1, 9])
        tree.attach(c, k)
        tree.attach(other, k)
    with pytest.raises(InvalidDecomposition, match=f"^{problem}$"):
        refine(tree)


@pytest.mark.parametrize(
    "shape, first",
    [
        ("no-clique-entry", "clique 0 has no component incidence entry"),
        ("clique-on-one-component", "clique 1 attached to fewer than 2 components"),
        ("two-cliques-one-join", "tree edge count is not nodes-1 (not a tree)"),
        ("no-clique", "tree edge count is not nodes-1 (not a tree)"),
    ],
    ids=["no-clique-entry", "clique-on-one-component", "two-cliques-one-join", "no-clique"],
)
def test_validate_refine_and_solve_reject_a_tree_that_is_not_one(shape, first):
    # Components A = {0, 1} and B = {1, 2}, joined by clique {1} unless the
    # shape leaves it out or adds a second clique.
    from minorflow.solver import max_flow_decomposed

    tree = DecompositionTree()
    a = tree.add_component(FlowNetwork.from_edges([(0, 0, 1, 1)]))
    b = tree.add_component(FlowNetwork.from_edges([(1, 1, 2, 1)]))
    if shape == "no-clique-entry":  # listed by both components, not by itself
        tree.cliques[0] = frozenset({1})
        tree.comp_cliques[a].add(0)
        tree.comp_cliques[b].add(0)
    elif shape != "no-clique":
        k = tree.add_clique([1])
        tree.attach(a, k)
        tree.attach(b, k)
        other = tree.add_clique([1])
        tree.attach(a, other)
        if shape == "two-cliques-one-join":
            tree.attach(b, other)
    graph = tree.reassemble()
    ok, problems = validate(graph, tree)
    assert not ok and problems[0] == first
    with pytest.raises(InvalidDecomposition, match=f"^{re.escape(first)}$"):
        refine(tree)
    with pytest.raises(InvalidDecomposition, match=f"^{re.escape(first)}"):
        max_flow_decomposed(graph, tree, 0, 2)


def test_refine_builds_one_network_per_component_it_adds(monkeypatch):
    # Blocks, SPQR pieces and triangle sides are composed first, so no
    # network is built for a piece that is split again, and a component
    # left whole keeps its network.
    built = []
    real = FlowNetwork.__post_init__

    def counting(net):
        built.append(net)
        real(net)

    monkeypatch.setattr(FlowNetwork, "__post_init__", counting)
    for n, seed in ((2000, 0), (300, 1)):
        _, tree = gen_instance(GenConfig("k5free", n, seed=seed))
        built.clear()
        refined = refine(tree)
        kept = {id(net) for net in tree.components.values()}
        added = [net for net in refined.components.values() if id(net) not in kept]
        assert added and len(built) == len(added), (n, seed)
        assert {id(net) for net in built} == {id(net) for net in added}, (n, seed)


# A stacked triangulation: 3 inside {0, 1, 2}, 4 inside {0, 1, 3}, 5 inside
# {0, 1, 4}, so the triangles {0, 1, 3} and {0, 1, 4} both separate it.
STACKED = [
    (0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3),
    (0, 4), (1, 4), (3, 4), (0, 5), (1, 5), (4, 5),
]


@pytest.mark.parametrize("order", [((0, 1, 3), (0, 1, 4)), ((0, 1, 4), (0, 1, 3))])
def test_refine_splits_nested_separating_triangles(order):
    tree = DecompositionTree()
    main = tree.add_component(dnet(STACKED))
    apexes = {}
    for i, tri in enumerate(((0, 1, 3), (0, 1, 4))):
        arcs = [(100 + 3 * i + j, 10 + i, q, 1) for j, q in enumerate(tri)]
        apexes[tri] = tree.add_component(FlowNetwork.from_edges(arcs))
    for tri in order:
        k = tree.add_clique(tri)
        tree.attach(main, k)
        tree.attach(apexes[tri], k)
    refined = refine(tree)
    assert validate(tree.reassemble(), refined) == (True, [])
    assert {frozenset(net.vertices) for net in refined.components.values()} == {
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 3, 4}),
        frozenset({0, 1, 4, 5}),
        frozenset({0, 1, 3, 10}),
        frozenset({0, 1, 4, 11}),
    }
    # The apexes keep their ids and the pieces take the next ones; the
    # gluing cliques keep theirs.
    assert sorted(refined.components) == [1, 2, 3, 4, 5]
    assert sorted(refined.cliques) == [0, 1]
    for cid in sorted(refined.components):
        emb = planar_embed(torso_adjacency(refined, cid))
        for kid in sorted(refined.comp_cliques[cid]):
            assert emb.is_triangle_face(refined.cliques[kid]), (cid, kid)


def test_nested_separating_triangles_use_no_stack_per_level(tmp_path, capsys):
    # One Python frame per nesting level overflowed the stack at d = 1,000.
    # A limit 100 frames above this one catches such a walk at d = 150.
    from minorflow.solver import max_flow_decomposed

    graph, tree, s, t = nested_triangles(150, seed=4)
    want, _ = max_flow(graph, s, t)
    canon, _, vmap, _ = canonical_ids(graph)
    net = tmp_path / "net.max"
    net.write_text(write_network(canon))
    argv = ["solve", "--network", str(net), "--family", "k5", "--source", str(vmap[s]),
            "--sink", str(vmap[t])]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        decomposed = decompose_k5_free(graph)
        refined = [refine(tree), refine(decomposed)]
        value, _ = max_flow_decomposed(graph, tree, s, t)
        code = cli.main(argv)
    finally:
        sys.setrecursionlimit(old)
    for checked in [decomposed, *refined]:
        assert validate(graph, checked) == (True, [])
    assert value == want > 0
    assert code == 0 and capsys.readouterr().out == f"value {want}\n"


def test_family_verdicts_agree_with_minor_oracle(rng):
    from minorflow.testkit import random_network

    for _ in range(25):
        net = random_network(rng, rng.randint(4, 9))
        k33_free = minor_free_check(net, "K33")
        try:
            decompose_k33_free(net)
            accepted = True
        except NotK33MinorFree:
            accepted = False
        assert accepted == k33_free
        k5_free = minor_free_check(net, "K5")
        try:
            decompose_k5_free(net)
            accepted = True
        except NotK5MinorFree:
            accepted = False
        assert accepted == k5_free


def test_generated_instances_are_minor_free_at_small_sizes():
    for seed in range(4):
        g33, _ = gen_instance(GenConfig("k33free", 11, seed=seed, comp_size=(4, 6)))
        if len(g33.vertices) <= 12:
            assert minor_free_check(g33, "K33")
        g5, _ = gen_instance(GenConfig("k5free", 11, seed=seed, comp_size=(4, 6)))
        if len(g5.vertices) <= 12:
            assert minor_free_check(g5, "K5")
