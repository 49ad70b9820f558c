import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minorflow import decomposition
from minorflow.decomposition import (
    DecompositionTree,
    InvalidDecomposition,
    NotK33MinorFree,
    NotK5MinorFree,
    biconnected_split,
    decompose_k33_free,
    decompose_k5_free,
    refine,
    single_component_tree,
    torso_adjacency,
    underlying,
    validate,
)
from minorflow.fileio import canonical_ids, parse_decomposition, write_decomposition
from minorflow.network import FlowNetwork
from minorflow.planar import is_planar, planar_embed
from minorflow.testkit import GenConfig, gen_instance, minor_free_check, oracle_spqr

from conftest import dnet

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
    return is_planar(torso_adjacency(tree, cid))


def test_biconnected_split_two_triangles_sharing_a_vertex():
    adj = underlying(dnet([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]))
    blocks, artics = biconnected_split(adj)
    assert len(blocks) == 2
    assert artics == frozenset({2})


def test_biconnected_split_cycle_is_one_block():
    adj = underlying(dnet([(i, (i + 1) % 5) for i in range(5)]))
    blocks, artics = biconnected_split(adj)
    assert len(blocks) == 1 and artics == frozenset()


def test_biconnected_split_covers_all_edges(rng):
    from minorflow.testkit import random_network

    for _ in range(40):
        net = random_network(rng, rng.randint(2, 12))
        adj = underlying(net)
        blocks, _ = biconnected_split(adj)
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
        (planar_torso(tree, cid), len(c.net.vertices)) for cid, c in tree.components.items()
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
            c for cid, c in tree.components.items()
            if not planar_torso(tree, cid) and len(c.net.vertices) == 5
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
    return {frozenset(c.net.vertices) for c in refined.components.values()}


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
            (sorted(c.net.vertices), sorted(e.id for e in c.net.edges))
            for c in again.components.values()
        ) == sorted(
            (sorted(c.net.vertices), sorted(e.id for e in c.net.edges))
            for c in refined.components.values()
        )
        for cid in sorted(refined.components):
            emb = planar_embed(torso_adjacency(refined, cid))
            if emb is None:
                continue
            for kid in sorted(refined.comp_cliques[cid]):
                tri = refined.cliques[kid].vertices
                if len(tri) == 3:
                    assert emb.is_triangle_face(tri), (seed, cid, sorted(tri))


def test_refine_of_a_k5_free_decomposition_loads_no_networkx():
    # The triangle pass decides faces by separation, not by an embedding:
    # K3,3 splits at a separating triple into three K4s glued at a triangle,
    # whose torsos the pass tests without networkx.
    src = str(Path(decomposition.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from minorflow.decomposition import decompose_k5_free, refine\n"
        "from minorflow.network import FlowNetwork\n"
        f"pairs = {K33_PAIRS!r}\n"
        "net = FlowNetwork.from_edges([(i, u, v, 1) for i, (u, v) in enumerate(pairs)])\n"
        "tree = refine(decompose_k5_free(net))\n"
        "print(len(tree.components), sorted(len(k.vertices) for k in tree.cliques.values()),"
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
            (sorted(c.net.vertices), [e.id for e in c.net.edges], planar_torso(tree, cid))
            for cid, c in tree.components.items()
        )

    def piece(c):
        return c.net.vertices, frozenset(e.id for e in c.net.edges)

    for family, n, seed in itertools.product(("k33free", "planar"), (40, 80, 120), range(3)):
        graph, _ = gen_instance(GenConfig(family, n, seed=seed))
        tree = decompose_k33_free(graph)
        refined = refine(tree)
        assert shape(refined) == shape(refine(single_component_tree(graph))), (family, n, seed)
        unsplit = {piece(c) for c in refined.components.values()}
        for cid, c in tree.components.items():
            if piece(c) not in unsplit:
                assert planar_torso(tree, cid), (family, n, seed, cid)
            elif not planar_torso(tree, cid):  # non-planar: K5, unchanged
                assert len(c.net.vertices) == 5, (family, n, seed, cid)


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
    kept = tree.components[1].net
    refined = refine(tree)
    assert validate(graph, refined)[0]
    assert sorted(refined.components) == [1, 2, 3]
    assert sorted(refined.cliques) == [0, 1]
    assert refined.components[1].net == kept
    assert tree.add_component(kept) == 2 and tree.add_clique([1]) == 1


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
