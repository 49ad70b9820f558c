import itertools
import time

import pytest

from minorflow.decomposition import biconnected_split, underlying
from minorflow.planar import adjacency, index_lists
from minorflow.spqr import P, Q, R, S, check_spqr_axioms, reassemble, spqr
from minorflow.testkit import GenConfig, gen_instance, oracle_spqr


def adj_of(pairs):
    adj = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def random_biconnected(rng, n):
    # Hamiltonian cycle plus random chords: biconnected by construction.
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = {frozenset((perm[i], perm[(i + 1) % n])) for i in range(n)}
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        pairs.add(frozenset((u, v)))
    return adj_of(tuple(sorted(p)) for p in pairs)


def kinds(tree):
    return sorted(node.kind for node in tree.nodes.values())


def test_k4_is_one_r_node():
    adj = adj_of(itertools.combinations(range(4), 2))
    tree = spqr(adj)
    assert kinds(tree) == [R]
    assert check_spqr_axioms(tree, adj) == []


def test_cycle_is_one_s_node():
    adj = adj_of([(i, (i + 1) % 6) for i in range(6)])
    tree = spqr(adj)
    assert kinds(tree) == [S]
    assert check_spqr_axioms(tree, adj) == []


def test_two_triangles_sharing_an_edge():
    adj = adj_of([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    tree = spqr(adj)
    assert kinds(tree) == [P, S, S]
    assert check_spqr_axioms(tree, adj) == []
    assert reassemble(tree) == {frozenset(p) for p in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]}


def test_single_edge_gives_q_node():
    tree = spqr({0: {1}, 1: {0}})
    assert kinds(tree) == [Q]


def test_non_biconnected_input_raises():
    with pytest.raises(ValueError):
        spqr(adj_of([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]))


def test_axioms_and_reassembly_on_random_graphs(rng):
    for _ in range(120):
        adj = random_biconnected(rng, rng.randint(3, 24))
        tree = spqr(adj)
        assert check_spqr_axioms(tree, adj) == []


def test_axioms_report_a_disconnected_tree():
    # Both links of S - P - S made to join the two S nodes: the tree keeps
    # n - 1 edges but leaves the P node on its own.
    adj = adj_of([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    tree = spqr(adj)
    ends = tuple(sorted(nid for nid, node in tree.nodes.items() if node.kind == S))
    tree.tree_edges = dict.fromkeys(tree.tree_edges, ends)
    assert "tree is disconnected" in check_spqr_axioms(tree, adj)


# ---------------------------------------------------------------------------
# Differential test against the pairwise oracle, and scale


def relabelled(rng, n, pairs):
    labels = rng.sample(range(3 * n + 10), n)
    return adj_of((labels[u], labels[v]) for u, v in pairs)


def cycle_with_chords(rng, n):
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
    return n, pairs


def wheel(rng, n):
    n = max(n, 4)
    return n, [(0, v) for v in range(1, n)] + [(v, v % (n - 1) + 1) for v in range(1, n)]


def theta(rng, n):
    # Poles 0 and 1 joined by paths of 1-4 inner vertices, plus maybe the
    # edge 0-1: one bond with many branches.
    n = max(n, 4)
    pairs, nxt, paths = [], 2, 0
    while nxt < n:
        inner = list(range(nxt, min(n, nxt + rng.randint(1, 4))))
        pairs += list(zip([0] + inner, inner + [1]))
        nxt += len(inner)
        paths += 1
    if paths < 2 or rng.random() < 0.5:
        pairs.append((0, 1))
    return n, pairs


def k4_subdivision(rng, n):
    n = max(n, 4)
    corners = list(itertools.combinations(range(4), 2))
    splits = [0] * len(corners)
    for _ in range(n - 4):
        splits[rng.randrange(len(corners))] += 1
    pairs, nxt = [], 4
    for (a, b), k in zip(corners, splits):
        inner = list(range(nxt, nxt + k))
        pairs += list(zip([a] + inner, inner + [b]))
        nxt += k
    return n, pairs


def triangulation(rng, n):
    # Stacked: each new vertex goes into a face of the previous triangulation.
    n = max(n, 3)
    pairs = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        pairs += [(v, a), (v, b), (v, c)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return n, pairs


def k5(rng, n):
    return 5, list(itertools.combinations(range(5), 2))


def v8(rng, n):
    return 8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]


FAMILIES = (cycle_with_chords, wheel, theta, k4_subdivision, triangulation, k5, v8)


def two_sums(rng, n):
    # Biconnected parts glued along an edge, which is kept or dropped: trees
    # that mix S, P and R nodes at every depth.
    total, pairs = 0, []
    while total < n:
        size, part = rng.choice(FAMILIES)(rng, rng.randint(3, max(3, n - total)))
        part = [(u + total, v + total) for u, v in part]
        if pairs:
            (a, b), (c, d) = rng.choice(pairs), rng.choice(part)
            glue = {c: a, d: b}
            part = [(glue.get(u, u), glue.get(v, v)) for u, v in part]
            if rng.random() < 0.5:
                pairs = [p for p in pairs if set(p) != {a, b}]
                part = [p for p in part if set(p) != {a, b}]
        pairs += part
        total += size
    used = sorted({w for p in pairs for w in p})
    dense = {v: i for i, v in enumerate(used)}
    return len(used), [(dense[u], dense[v]) for u, v in pairs]


def labelled(tree):
    """The tree as its multisets of nodes (kind, vertices, real pairs) and of
    tree edges (both end nodes, virtual pair): free of node and link ids."""
    sig = {
        nid: (
            node.kind,
            tuple(sorted(node.vertices)),
            tuple(sorted(tuple(sorted(p)) for p in node.real_pairs())),
        )
        for nid, node in tree.nodes.items()
    }
    links = []
    for link, (a, b) in tree.tree_edges.items():
        pair = next(e for e in tree.nodes[a].edges if e.link == link).pair
        links.append((*sorted((sig[a], sig[b])), tuple(sorted(pair))))
    return sorted(sig.values()), sorted(links)


def test_spqr_matches_the_pairwise_oracle(rng):
    for family in FAMILIES + (two_sums,):
        for _ in range(40):
            n, pairs = family(rng, rng.randint(3, 40))
            adj = relabelled(rng, n, pairs)
            tree = spqr(adj)
            assert labelled(tree) == labelled(oracle_spqr(adj)), (family.__name__, adj)
            assert check_spqr_axioms(tree, adj) == [], (family.__name__, adj)


def test_spqr_rejects_what_the_oracle_rejects(rng):
    for _ in range(300):
        n = rng.randint(1, 9)
        adj = adj_of(tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 12)) if n > 1)
        for v in range(n):
            adj.setdefault(v, set())
        try:
            want = labelled(oracle_spqr(adj))
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                spqr(adj)
        else:
            assert labelled(spqr(adj)) == want, adj


def shape_problems(tree, adj):
    """The linear-time part of ``check_spqr_axioms``: reassembly, tree shape,
    cycles and bonds, one virtual pair per link, no S-S or P-P adjacency."""
    problems = []
    if reassemble(tree) != {frozenset((u, v)) for u in adj for v in adj[u]}:
        problems.append("reassembly differs")
    if len(tree.tree_edges) != len(tree.nodes) - 1:
        problems.append("not a tree")
    virtual = {}
    for nid, node in tree.nodes.items():
        degree = {}
        for e in node.edges:
            degree[e.u] = degree.get(e.u, 0) + 1
            degree[e.v] = degree.get(e.v, 0) + 1
            if e.virtual:
                virtual.setdefault(e.link, []).append((nid, e.pair))
        if node.kind == S and set(degree.values()) != {2}:
            problems.append(f"S node {nid} is not a cycle")
        if node.kind == P and len(degree) != 2:
            problems.append(f"P node {nid} is not a bond")
    for link, (a, b) in tree.tree_edges.items():
        ends = virtual.get(link, [])
        if sorted(nid for nid, _ in ends) != sorted((a, b)) or ends[0][1] != ends[1][1]:
            problems.append(f"link {link} is not one virtual pair")
        if tree.nodes[a].kind == tree.nodes[b].kind in (S, P):
            problems.append(f"link {link} joins two {tree.nodes[a].kind} nodes")
    return problems


def test_spqr_of_a_20000_vertex_cycle_with_chords(rng):
    # Deep palm trees: every DFS is iterative, so no recursion limit applies.
    # Short chords close triangles and squares (bonds and cycles); long ones
    # make 3-connected skeletons.
    n = 20_000
    pairs = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(1_000):
        i = rng.randrange(n)
        pairs.append((i, (i + rng.randint(2, 3)) % n))
        pairs.append(tuple(rng.sample(range(n), 2)))
    adj = adj_of(pairs)
    tree = spqr(adj)
    assert shape_problems(tree, adj) == []
    assert {S, P, R} <= set(kinds(tree))


def test_spqr_of_the_largest_block_of_a_10000_vertex_k5free_instance():
    graph, _ = gen_instance(GenConfig("k5free", 10_000, seed=0))
    blocks, _ = biconnected_split(index_lists(underlying(graph))[1])
    verts, pairs = max(blocks, key=lambda block: len(block[0]))
    assert (len(verts), len(pairs) // 2) == (3_760, 8_137)
    adj = adjacency(range(len(verts)), zip(pairs[::2], pairs[1::2]))
    started = time.perf_counter()
    tree = spqr(adj)
    elapsed = time.perf_counter() - started
    assert shape_problems(tree, adj) == []
    assert elapsed < 10, f"spqr took {elapsed:.1f}s"
