"""Acceptance suite: one test per criterion, exact tolerances, fixed seeds.

Each test prints a single PASS line on success (run with -s to watch); all
comparisons are integer-exact.
"""

import random
import time

from minorflow.decomposition import refine, validate
from minorflow.external import cut_table, verify_flow
from minorflow.maxflow import max_flow
from minorflow.mimic import (
    build_mimic3,
    build_mimic4_single_source,
    build_mimic_general,
    check_four_way,
    check_three_way,
)
from minorflow.network import FULL, SINGLE_SOURCE, FlowNetwork, TerminalSet
from minorflow.planar import is_planar, planar_embed
from minorflow.solver import max_flow_decomposed, max_flow_family
from minorflow.spqr import check_spqr_axioms, spqr
from minorflow.testkit import (
    GenConfig,
    audit_step_values,
    collecting_observer,
    gen_instance,
    oracle_cut_table,
    oracle_max_flow,
    torso_adjacency,
)
from minorflow.testkit import random_network


def report(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def test_criterion_1_mimic3_exactness():
    started = time.monotonic()
    rng = random.Random(101)
    for i in range(500):
        net = random_network(rng, rng.randint(3, 12), max_cap=20)
        terms = TerminalSet(tuple(rng.sample(sorted(net.vertices), 3)))
        table = cut_table(net, terms, FULL)
        mimic = build_mimic3(table, hub_vertex=max(net.vertices) + 1)
        assert len(mimic.vertices) == 4 and len(mimic.edges) == 6, i
        assert oracle_cut_table(mimic, terms, FULL) == oracle_cut_table(net, terms, FULL), i
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    report(1, "mimic3 exactness", f"500 networks, {elapsed:.1f}s")


def test_criterion_2_mimic4_exactness():
    started = time.monotonic()
    # Worked example: the 5-edge seed network has the stated table.
    seed_net = FlowNetwork.from_edges(
        [(0, 0, 1, 4), (1, 0, 2, 3), (2, 0, 3, 2), (3, 1, 2, 1), (4, 2, 3, 1)]
    )
    terms = TerminalSet.single_source(0, 1, 2, 3)
    table = cut_table(seed_net, terms, SINGLE_SOURCE)
    assert [
        table.cut(x) for x in ([1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3])
    ] == [4, 4, 3, 7, 7, 6, 9]
    mimic, _ = build_mimic4_single_source(table, hub_vertex=9)
    assert [e.cap for e in mimic.edges] == [4, 3, 2, 1, 1, 1, 1]
    rng = random.Random(202)
    for i in range(500):
        net = random_network(rng, rng.randint(4, 12), max_cap=20)
        q = TerminalSet(tuple(rng.sample(sorted(net.vertices), 4)), source_index=0)
        t = cut_table(net, q, SINGLE_SOURCE)
        m, _ = build_mimic4_single_source(t, hub_vertex=max(net.vertices) + 1)
        assert len(m.vertices) == 5 and len(m.edges) == 7, i
        assert all(e.cap >= 0 for e in m.edges), i
        assert oracle_cut_table(m, q, SINGLE_SOURCE) == oracle_cut_table(net, q, SINGLE_SOURCE), i
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s"
    report(2, "mimic4 exactness", f"500 networks + worked example, {elapsed:.1f}s")


def test_criterion_3_cut_inequalities():
    rng = random.Random(303)
    for i in range(500):
        net = random_network(rng, rng.randint(3, 12), max_cap=20)
        k = 3 if len(net.vertices) < 4 or i % 2 == 0 else 4
        q = TerminalSet(tuple(rng.sample(sorted(net.vertices), k)))
        assert check_three_way(oracle_cut_table(net, q, FULL)), i
    for i in range(500):
        net = random_network(rng, rng.randint(4, 12), max_cap=20)
        q = TerminalSet(tuple(rng.sample(sorted(net.vertices), 4)))
        assert check_four_way(oracle_cut_table(net, q, FULL)), i
        ss = TerminalSet(q.order, source_index=0)
        assert check_four_way(oracle_cut_table(net, ss, SINGLE_SOURCE)), i
    report(3, "cut inequalities", "500 three-way + 500 four-way tables")


def test_criterion_4_general_mimicking_network():
    rng = random.Random(404)
    for i in range(200):
        net = random_network(rng, rng.randint(4, 12), max_cap=20)
        for k in (2, 3, 4):
            q = TerminalSet(tuple(rng.sample(sorted(net.vertices), k)))
            general = build_mimic_general(net, q, first_edge_id=100_000)
            assert len(general.vertices) <= 2 ** (2**k - 2), (i, k)
            assert oracle_cut_table(general, q, FULL) == oracle_cut_table(net, q, FULL), (i, k)
    report(4, "general mimicking network", "200 networks x k in {2,3,4}, bound 16384")


def _solve_and_check(graph, tree, rng, tag):
    s, t = rng.sample(sorted(graph.vertices), 2)
    value, flow = max_flow_decomposed(graph, tree, s, t)
    assert value == oracle_max_flow(graph, s, t), tag
    assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow), tag


def test_criterion_5_end_to_end_correctness():
    started = time.monotonic()
    rng = random.Random(505)
    for family in ("k33free", "k5free"):
        for i in range(200):
            n = rng.randint(20, 60)
            graph, tree = gen_instance(GenConfig(family, n, seed=i))
            _solve_and_check(graph, tree, rng, (family, i))
    for family, key in (("k33free", "k33"), ("k5free", "k5")):
        for i in range(100):
            n = rng.randint(20, 60)
            graph, _ = gen_instance(GenConfig(family, n, seed=10_000 + i))
            s, t = rng.sample(sorted(graph.vertices), 2)
            value, flow = max_flow_family(graph, key, s, t)
            assert value == oracle_max_flow(graph, s, t), (family, i)
            assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow), (family, i)
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"criterion 5 took {elapsed:.1f}s"
    report(5, "end-to-end correctness", f"400 ground-truth + 200 decomposed, {elapsed:.1f}s")


def test_criterion_6_step_value_invariance():
    rng = random.Random(606)
    for i in range(50):
        family = ("planar", "k33free", "k5free")[i % 3]
        graph, tree = gen_instance(GenConfig(family, rng.randint(12, 30), seed=i))
        s, t = rng.sample(sorted(graph.vertices), 2)
        nets, observer = collecting_observer()
        value, _ = max_flow_decomposed(graph, tree, s, t, observer=observer)
        assert audit_step_values(nets, s, t), i
        assert oracle_max_flow(nets[0], s, t) == value, i
    report(6, "step-value invariance", "50 instances, every replacement and pop")


def test_criterion_7_spqr_and_refinement_soundness():
    rng = random.Random(707)
    for i in range(200):
        n = rng.randint(3, 30)
        perm = list(range(n))
        rng.shuffle(perm)
        pairs = {frozenset((perm[j], perm[(j + 1) % n])) for j in range(n)}
        for _ in range(rng.randint(0, n)):
            u, v = rng.sample(range(n), 2)
            pairs.add(frozenset((u, v)))
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for p in pairs:
            u, v = sorted(p)
            adj[u].add(v)
            adj[v].add(u)
        tree = spqr(adj)
        assert check_spqr_axioms(tree, adj) == [], i
    for seed in range(30):
        graph, tree = gen_instance(GenConfig("k5free", 28, seed=seed))
        refined = refine(tree)
        ok, problems = validate(graph, refined)
        assert ok, (seed, problems)
        again = refine(refined)
        shape = lambda t: sorted(
            (
                sorted(net.vertices),
                sorted(e.id for e in net.edges),
                is_planar(torso_adjacency(t, cid)),
            )
            for cid, net in t.components.items()
        )
        assert shape(again) == shape(refined), seed
        for cid in sorted(refined.components):
            emb = planar_embed(torso_adjacency(refined, cid))
            if emb is None:
                continue
            for kid in sorted(refined.comp_cliques[cid]):
                tri = refined.cliques[kid]
                if len(tri) == 3:
                    assert emb.is_triangle_face(tri), (seed, cid)
    report(7, "SPQR and refinement soundness", "200 SPQR graphs + 30 refined trees")


def test_criterion_8_scale_smoke():
    started = time.monotonic()
    graph, tree = gen_instance(GenConfig("k5free", 100_000, seed=11))
    rng = random.Random(808)
    s, t = rng.sample(sorted(graph.vertices), 2)
    value, flow = max_flow_decomposed(graph, tree, s, t)
    result = verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
    assert result, result.problems[:3]
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"criterion 8 took {elapsed:.1f}s"
    report(
        8,
        "scale smoke test",
        f"n={len(graph.vertices)}, m={len(graph.edges)}, value={value}, {elapsed:.1f}s",
    )


def test_scale_positive_value_flow():
    # Criterion 8's pair has value 0; this solves a positive-value pair at
    # scale: the highest-value pair of a small seeded sample, ranked by the
    # direct engine on the whole input.
    graph, tree = gen_instance(GenConfig("k5free", 20_000, seed=11))
    rng = random.Random(2020)
    vertices = sorted(graph.vertices)
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(8)]
    want, s, t = max((max_flow(graph, s, t)[0], s, t) for s, t in pairs)
    value, flow = max_flow_decomposed(graph, tree, s, t)
    assert value == want > 0
    result = verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
    assert result, result.problems[:3]
