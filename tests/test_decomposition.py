import itertools

import pytest

from minorflow.decomposition import (
    PLANAR,
    DecompositionTree,
    InvalidDecomposition,
    NotK33MinorFree,
    NotK5MinorFree,
    biconnected_split,
    decompose_k33_free,
    decompose_k5_free,
    refine,
    separating_triangles,
    single_component_tree,
    torso_adjacency,
    underlying,
    validate,
)
from minorflow.network import FlowNetwork
from minorflow.planar import planar_embed
from minorflow.testkit import GenConfig, gen_instance, minor_free_check

from conftest import dnet

K5_PAIRS = list(itertools.combinations(range(5), 2))
K33_PAIRS = [(a, b + 3) for a in range(3) for b in range(3)]
V8_PAIRS = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
OCTAHEDRON = [
    (0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
    (0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3),
]


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
        assert covered == set(net.underlying_pairs)


def test_tree_operations_and_reassembly():
    a = dnet([(0, 1), (1, 2)])
    b = dnet([(2, 3)])
    # ids must be disjoint: rebuild b with fresh edge ids
    b = FlowNetwork.from_edges([(10, 2, 3, 1)])
    tree = DecompositionTree()
    ca = tree.add_component(a, PLANAR)
    cb = tree.add_component(b, PLANAR)
    k = tree.add_clique([2])
    tree.attach(ca, k)
    tree.attach(cb, k)
    graph = tree.reassemble()
    ok, problems = validate(graph, tree)
    assert ok, problems


def test_validate_flags_duplicated_edge():
    net = dnet([(0, 1)])
    tree = DecompositionTree()
    c1 = tree.add_component(net, PLANAR)
    c2 = tree.add_component(net, PLANAR)  # same edge id in two components
    k = tree.add_clique([0, 1])
    tree.attach(c1, k)
    tree.attach(c2, k)
    ok, problems = validate(net, tree)
    assert not ok and any("appears in components" in p for p in problems)


def test_validate_flags_missing_edge():
    graph = dnet([(0, 1), (1, 2)])
    tree = DecompositionTree()
    tree.add_component(dnet([(0, 1)], extra=[2]), PLANAR)
    ok, problems = validate(graph, tree)
    assert not ok and any("edge sets differ" in p for p in problems)


def test_validate_flags_false_planar_label():
    k5 = dnet(K5_PAIRS)
    tree = DecompositionTree()
    tree.add_component(k5, PLANAR)
    ok, problems = validate(k5, tree)
    assert not ok and any("labeled planar" in p for p in problems)


def test_decompose_planar_input_gives_planar_components():
    k4 = dnet(itertools.combinations(range(4), 2))
    tree = decompose_k33_free(k4)
    assert all(c.label.kind == "planar" for c in tree.components.values())
    assert validate(k4, tree)[0]


def test_decompose_k33_free_recovers_k5_blocks():
    # 2-sum of K5 and a planar square sharing edge (0,1)
    pairs = K5_PAIRS + [(0, 5), (5, 6), (6, 1)]
    g = dnet(pairs)
    tree = decompose_k33_free(g)
    assert validate(g, tree)[0]
    kinds = sorted(
        (c.label.kind, len(c.net.vertices)) for c in tree.components.values()
    )
    assert ("btw", 5) in kinds


def test_decompose_k33_free_recovers_generated_k5_blocks():
    # Generator round trip: force K5 building blocks and ask for them back.
    for seed in range(10):
        graph, truth = gen_instance(
            GenConfig("k33free", 26, seed=seed, special_prob=0.9)
        )
        truth_k5 = sum(1 for c in truth.components.values() if c.label.kind == "btw")
        if truth_k5 == 0:
            continue
        tree = decompose_k33_free(graph)
        found = [
            c for c in tree.components.values()
            if c.label.kind == "btw" and len(c.net.vertices) == 5
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
    comps = list(tree.components.values())
    assert len(comps) == 1 and comps[0].label.kind == "btw"
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


def test_decomposers_require_connected_input():
    g = FlowNetwork.from_edges([(0, 0, 1, 1), (1, 5, 6, 1)])
    with pytest.raises(InvalidDecomposition):
        decompose_k33_free(g)


def test_separating_triangles_leaves_faces_alone():
    octa = dnet(OCTAHEDRON)
    pieces = separating_triangles(octa, [(0, 1, 2)])
    assert len(pieces) == 1  # a face triangle never splits


def test_separating_triangles_splits_stacked_tetrahedra():
    # two tetrahedra sharing the (non-face) triangle 0,1,2
    pairs = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)]
    net = dnet(pairs)
    pieces = separating_triangles(net, [(0, 1, 2)])
    assert len(pieces) == 2
    assert {frozenset(p.vertices) for p in pieces} == {
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2, 4}),
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
            comp = refined.components[cid]
            if comp.label.kind != "planar":
                continue
            torso = torso_adjacency(refined, cid)
            emb = planar_embed(torso)
            for kid in sorted(refined.comp_cliques[cid]):
                tri = refined.cliques[kid].vertices
                if len(tri) == 3:
                    assert emb.is_triangle_face(tri), (seed, cid, sorted(tri))


def test_refine_splits_nothing_in_a_k33_free_decomposition():
    # After one block pass and one SPQR pass a second sweep splits nothing,
    # and a k33 tree has no triangle cliques, so refine keeps every component.
    def shape(tree):
        return sorted(
            (sorted(c.net.vertices), [e.id for e in c.net.edges], c.label.kind)
            for c in tree.components.values()
        )

    for n, seed in itertools.product((40, 80, 120), range(3)):
        graph, _ = gen_instance(GenConfig("k33free", n, seed=seed))
        tree = decompose_k33_free(graph)
        assert shape(refine(tree)) == shape(tree), (n, seed)


def test_refine_splits_non_biconnected_component():
    # path 0-1-2 with an extra pendant triangle at 2, all in one component
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)]
    net = dnet(pairs)
    tree = single_component_tree(net)
    refined = refine(tree)
    assert len(refined.components) > 1
    assert validate(net, refined)[0]


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
