"""Independent oracles and instance generators that the rest of the package
is validated against.

The oracles deliberately share no code path with the main engine:
``oracle_max_flow`` is a plain BFS augmenting-path loop over a dict residual
(no layering), ``oracle_cut_table`` enumerates every vertex bipartition
with numpy, and ``oracle_spqr`` finds split pairs by removing every vertex
pair.  ``oracle_separating_triples`` is the eager scan that the K5-free
decomposer's lazy one replaced: it shares ``articulation_points`` with the
engine, but lets any vertex of a triple play the cut vertex.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, defaultdict, deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

from .decomposition import DecompositionTree, single_component_tree, underlying
from .network import FULL, MAX_CAPACITY, SINGLE_SOURCE, CutTable, Edge, FlowNetwork, TerminalSet
from .planar import Adjacency, articulation_points, components, index_lists
from .spqr import P, Q, R, S, SkelEdge, SpqrNode, SpqrTree

_ORACLE_VERTEX_LIMIT = 20


def oracle_max_flow(net: FlowNetwork, s: int, t: int) -> int:
    """Exact max-flow value by repeated BFS augmentation over a residual map."""
    if s == t:
        raise ValueError("source and sink must differ")
    residual: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for e in net.edges:
        residual[e.tail][e.head] += e.cap
        residual[e.head].setdefault(e.tail, 0)
    value = 0
    while True:
        parent: dict[int, int] = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v in sorted(residual.get(u, ())):
                if v not in parent and residual[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return value
        bottleneck = None
        v = t
        while v != s:
            u = parent[v]
            r = residual[u][v]
            bottleneck = r if bottleneck is None else min(bottleneck, r)
            v = u
        v = t
        while v != s:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        value += bottleneck


def oracle_cut_table(net: FlowNetwork, terminals: TerminalSet, mode: str = FULL) -> CutTable:
    """Cut table by exhaustive bipartition enumeration (|V| <= 20)."""
    if len(net.vertices) > _ORACLE_VERTEX_LIMIT:
        raise ValueError(f"network too large for enumeration ({len(net.vertices)} vertices)")
    import numpy as np  # here only, so gen and solve --audit do not load it

    order = sorted(net.vertices)
    idx = {v: i for i, v in enumerate(order)}
    masks = np.arange(1 << len(order), dtype=np.int64)
    # The capacity of every directed bipartition cut, indexed by source-side
    # mask, in exact ints (an object array): an int64 sum of them can wrap.
    cut = np.zeros(len(masks), dtype=object)
    for e in net.edges:
        crossing = (((masks >> idx[e.tail]) & 1) == 1) & (((masks >> idx[e.head]) & 1) == 0)
        cut[crossing] += e.cap

    def best(source_side: tuple[int, ...], sink_side: tuple[int, ...]) -> int:
        sel = np.ones(len(masks), dtype=bool)
        for q in source_side:
            sel &= ((masks >> idx[q]) & 1) == 1
        for q in sink_side:
            sel &= ((masks >> idx[q]) & 1) == 0
        return int(cut[sel].min())

    values: dict[frozenset[int], int] = {}
    if mode == FULL:
        for k in range(1, terminals.k):
            for s_side in itertools.combinations(sorted(terminals.order), k):
                t_side = tuple(q for q in terminals.order if q not in s_side)
                values[frozenset(s_side)] = best(s_side, t_side)
    elif mode == SINGLE_SOURCE:
        src = terminals.source
        if src is None:
            raise ValueError("single-source mode needs a designated source terminal")
        others = sorted(terminals.non_sources)
        for k in range(1, len(others) + 1):
            for sinks in itertools.combinations(others, k):
                values[frozenset(sinks)] = best((src,), sinks)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return CutTable(mode, terminals, values)


def random_network(
    rng: random.Random,
    n: int,
    max_cap: int = 20,
    extra_edges: int | None = None,
    antiparallel: float = 0.2,
) -> FlowNetwork:
    """Small random directed network: a random spanning tree plus extra arcs.

    Capacities are uniform in 1..max_cap; a fraction of edges gains an
    antiparallel twin to exercise the directed residual handling.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    vertices = list(range(n))
    edges: list[tuple[int, int, int, int]] = []
    eid = 0

    def add(u: int, v: int) -> None:
        nonlocal eid
        edges.append((eid, u, v, rng.randint(1, max_cap)))
        eid += 1
        if rng.random() < antiparallel:
            edges.append((eid, v, u, rng.randint(1, max_cap)))
            eid += 1

    for v in vertices[1:]:
        u = rng.randrange(v)
        if rng.random() < 0.5:
            add(u, v)
        else:
            add(v, u)
    m_extra = extra_edges if extra_edges is not None else rng.randint(n // 2, 2 * n)
    for _ in range(m_extra):
        u, v = rng.sample(vertices, 2)
        add(u, v)
    return FlowNetwork.from_edges(edges, vertices)


# ---------------------------------------------------------------------------
# Minor checking (exact, exponential; n <= 12)

_MINOR_TARGETS = {"K5": (5, 10), "K33": (6, 9)}


def minor_free_check(net: FlowNetwork, target: str) -> bool:
    """Exact H-minor-freeness for H in {K5, K33} by branch and bound over
    vertex deletions and edge contractions (underlying simple graph)."""
    if target not in _MINOR_TARGETS:
        raise ValueError(f"unknown minor target {target!r}")
    if len(net.vertices) > 12:
        raise ValueError("graph too large for the exact minor check (max 12 vertices)")
    pairs = frozenset(frozenset((e.tail, e.head)) for e in net.edges)
    return not _has_minor(pairs, target, {})


def _adj_of(pairs: frozenset[frozenset[int]]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for p in pairs:
        u, v = sorted(p)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _contract(pairs: frozenset[frozenset[int]], u: int, v: int) -> frozenset[frozenset[int]]:
    # Merge v into u, dropping the loop and parallels.
    out = set()
    for p in pairs:
        a, b = sorted(p)
        if a == v:
            a = u
        if b == v:
            b = u
        if a != b:
            out.add(frozenset((a, b)))
    return frozenset(out)


def _is_target(pairs: frozenset[frozenset[int]], target: str) -> bool:
    adj = _adj_of(pairs)
    verts = sorted(adj)
    if target == "K5":
        return len(verts) == 5 and all(len(adj[v]) == 4 for v in verts)
    if len(verts) != 6 or len(pairs) < 9:
        return False
    for left in itertools.combinations(verts, 3):
        right = [v for v in verts if v not in left]
        if all(frozenset((a, b)) in pairs for a in left for b in right):
            return True
    return False


def _has_minor(pairs: frozenset[frozenset[int]], target: str, memo: dict) -> bool:
    h_n, h_m = _MINOR_TARGETS[target]
    key = pairs
    if key in memo:
        return memo[key]
    adj = _adj_of(pairs)
    # Safe reductions: H has minimum degree >= 3, so degree <= 2 vertices
    # can be contracted away and isolated structure dropped.
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            deg = len(adj[v])
            if deg == 0:
                del adj[v]
                changed = True
            elif deg <= 2:
                u = sorted(adj[v])[0]
                pairs = _contract(pairs, u, v)
                adj = _adj_of(pairs)
                changed = True
                break
    verts = sorted(adj)
    if len(verts) < h_n or len(pairs) < h_m:
        memo[key] = False
        return False
    import networkx as nx  # here only, so gen and solve --audit do not load it

    g = nx.Graph(sorted(tuple(sorted(p)) for p in pairs))
    if nx.check_planarity(g)[0]:
        memo[key] = False
        return False
    if len(verts) == h_n:
        memo[key] = _is_target(pairs, target)
        return memo[key]
    result = False
    for v in verts:
        reduced = frozenset(p for p in pairs if v not in p)
        if _has_minor(reduced, target, memo):
            result = True
            break
    if not result:
        for p in sorted(pairs, key=sorted):
            u, v = sorted(p)
            if _has_minor(_contract(pairs, u, v), target, memo):
                result = True
                break
    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Torsos of a decomposition tree's components, as adjacency maps


def torso_adjacency(tree: DecompositionTree, comp_id: int) -> Adjacency:
    """Component underlying graph plus phantom clique-completion edges."""
    adj = underlying(tree.components[comp_id])
    for kid in tree.comp_cliques[comp_id]:
        for u, v in itertools.combinations(tree.cliques[kid], 2):
            adj[u].add(v)
            adj[v].add(u)
    return adj


# ---------------------------------------------------------------------------
# SPQR oracle (pairwise split-pair search; small graphs)


def oracle_spqr(adj: Adjacency | Sequence[Sequence[int]]) -> SpqrTree:
    """Canonical SPQR tree by recursive splitting at split pairs, each found
    by removing every vertex pair of a skeleton and counting what is left,
    then by 2-summing adjacent S-S and P-P nodes one link at a time.
    O(n^2 m) per skeleton: a differential oracle for ``spqr.spqr``, which
    also takes index adjacency lists."""
    if not isinstance(adj, Mapping):
        adj = {v: set(nbrs) for v, nbrs in enumerate(adj)}
    edges = [SkelEdge(u, v) for u in sorted(adj) for v in sorted(adj[u]) if u < v]
    tree = SpqrTree()
    next_node = itertools.count()
    next_link = itertools.count()
    if len(edges) <= 1:
        if len(components(adj)) > 1:
            raise ValueError("SPQR input must be connected")
        nid = next(next_node)
        tree.nodes[nid] = SpqrNode(Q, list(edges))
        return tree
    if len(components(adj)) > 1 or (
        len(adj) > 2 and any(len(components(adj, {cut})) > 1 for cut in sorted(adj))
    ):
        raise ValueError("SPQR input must be biconnected")

    # link id -> first finalized (node id) waiting for its partner
    half_links: dict[int, int] = {}

    def finalize(kind: str, skel: list[SkelEdge]) -> None:
        nid = next(next_node)
        tree.nodes[nid] = SpqrNode(kind, skel)
        for e in skel:
            if e.virtual:
                if e.link in half_links:
                    tree.tree_edges[e.link] = (half_links.pop(e.link), nid)
                else:
                    half_links[e.link] = nid

    work: list[list[SkelEdge]] = [edges]
    while work:
        skel = work.pop()
        nbr: dict[int, set[int]] = {}
        for e in skel:
            nbr.setdefault(e.u, set()).add(e.v)
            nbr.setdefault(e.v, set()).add(e.u)
        if len(nbr) == 2:
            finalize(P, skel)
            continue
        if len(skel) == len(nbr) and all(len(nb) == 2 for nb in nbr.values()):
            finalize(S, skel)
            continue
        multiplicity = Counter(e.pair for e in skel)
        split = None
        for u, v in itertools.combinations(sorted(nbr), 2):
            comps = components(nbr, {u, v})
            n_direct = multiplicity[frozenset((u, v))]
            if len(comps) + n_direct >= 2 and (len(comps) >= 2 or n_direct >= 2):
                split = (u, v, comps)
                break
        if split is None:
            finalize(R, skel)
            continue
        u, v, comps = split
        direct = [e for e in skel if e.pair == {u, v}]
        # Removing u and v dropped every u-v edge, so each other edge has an
        # endpoint in exactly one component.
        sides = [[e for e in skel if e.u in comp or e.v in comp] for comp in comps]
        if len(comps) == 2 and not direct:
            virt = SkelEdge(u, v, next(next_link))
            work.append(sides[0] + [virt])
            work.append(sides[1] + [virt])
        else:
            hub: list[SkelEdge] = list(direct)
            for side in sides:
                virt = SkelEdge(u, v, next(next_link))
                hub.append(virt)
                work.append(side + [virt])
            finalize(P, hub)
    assert not half_links, "unpaired virtual edge"

    # 2-sum away every S-S and P-P adjacency, rescanning after each merge.
    pending = deque(sorted(tree.tree_edges))
    while pending:
        link = pending.popleft()
        if link not in tree.tree_edges:
            continue
        a, b = tree.tree_edges[link]
        na, nb = tree.nodes[a], tree.nodes[b]
        if na.kind != nb.kind or na.kind not in (S, P):
            continue
        na.edges = [e for e in na.edges if e.link != link] + [
            e for e in nb.edges if e.link != link
        ]
        del tree.nodes[b]
        del tree.tree_edges[link]
        for other, (x, y) in list(tree.tree_edges.items()):
            if b in (x, y):
                tree.tree_edges[other] = (a if x == b else x, a if y == b else y)
                pending.append(other)
    return tree


# ---------------------------------------------------------------------------
# Separating-triple oracle (one articulation DFS per vertex pair)


def oracle_separating_triples(adj: Adjacency) -> list[tuple[int, ...]]:
    """Every sorted triple {a, b, c} with c a cut vertex of ``adj`` minus a
    and b, for every pair a, b and in any order of the three, listed
    lexicographically: the eager scan that the lazy
    ``decomposition._separating_triples`` must reproduce on 3-connected
    graphs."""
    order, nbrs = index_lists(adj)
    triples: set[tuple[int, ...]] = set()
    for a, b in itertools.combinations(range(len(order)), 2):
        for c in articulation_points(nbrs, {a, b}):
            triples.add(tuple(sorted((order[a], order[b], order[c]))))
    return sorted(triples)


# ---------------------------------------------------------------------------
# Instance generation

_FAMILIES = ("planar", "k33free", "k5free")


@dataclass(frozen=True)
class GenConfig:
    """Deterministic random-instance recipe.

    ``arity_weights`` gives the relative odds of gluing a new component at a
    shared vertex, edge, or triangle (triangles only apply to the k5free
    family); ``special_prob`` is the chance a new component is the family's
    non-planar building block (K5 or the Wagner graph)."""

    family: str
    n: int
    seed: int
    max_cap: int = 20
    arity_weights: tuple[float, float, float] = (0.15, 0.55, 0.30)
    special_prob: float = 0.18
    comp_size: tuple[int, int] = (4, 12)
    antiparallel: float = 0.20
    drop_prob: float = 0.25
    clique_edge_drop: float = 0.30

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.max_cap < 1:
            raise ValueError("need max capacity >= 1")
        if self.max_cap > MAX_CAPACITY:
            raise ValueError("need max capacity <= 2^63-1, the input arc bound")


_WAGNER_PAIRS = tuple((i, (i + 1) % 8) for i in range(8)) + tuple((i, i + 4) for i in range(4))


class _Gen:
    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.tree = DecompositionTree()
        self.hosts: list[int] = []  # component ids in ascending order
        self.next_vertex = 0
        self.next_edge = 0

    def fresh_vertices(self, count: int) -> list[int]:
        out = list(range(self.next_vertex, self.next_vertex + count))
        self.next_vertex += count
        return out

    def realize(self, pairs: list[tuple[int, int]]) -> list[Edge]:
        """Orient each undirected pair, give it a capacity, and sometimes an
        antiparallel twin."""
        rng, cfg = self.rng, self.cfg
        edges = []
        for u, v in pairs:
            if rng.random() < 0.5:
                u, v = v, u
            edges.append(Edge(self.next_edge, u, v, rng.randint(1, cfg.max_cap)))
            self.next_edge += 1
            if rng.random() < cfg.antiparallel:
                edges.append(Edge(self.next_edge, v, u, rng.randint(1, cfg.max_cap)))
                self.next_edge += 1
        return edges

    def planar_pairs(self, verts: list[int], anchor: int) -> list[tuple[int, int]]:
        """Random stacked triangulation over ``verts`` (the first three form
        the seed triangle), minus the anchor-clique pairs, minus random
        deletions that keep the piece connected (an edge may go when its ends
        share a surviving neighbor)."""
        rng, cfg = self.rng, self.cfg
        size = len(verts)
        pairs = {(0, 1), (0, 2), (1, 2)}
        faces = [(0, 1, 2)]
        for i in range(3, size):
            fi = rng.randrange(len(faces))
            a, b, c = faces.pop(fi)
            pairs |= {tuple(sorted((i, a))), tuple(sorted((i, b))), tuple(sorted((i, c)))}
            faces += [(a, b, i), (a, c, i), (b, c, i)]
        anchor_pairs = {p for p in [(0, 1), (0, 2), (1, 2)][: (anchor * (anchor - 1)) // 2]}
        kept = {p for p in pairs if p not in anchor_pairs}
        adj: dict[int, set[int]] = {i: set() for i in range(size)}
        for u, v in kept:
            adj[u].add(v)
            adj[v].add(u)
        for u, v in sorted(kept):
            if rng.random() >= cfg.drop_prob:
                continue
            if adj[u] & adj[v] and len(adj[u]) > 1 and len(adj[v]) > 1:
                adj[u].discard(v)
                adj[v].discard(u)
        final = [
            (verts[u], verts[v])
            for u, v in sorted(pairs - anchor_pairs)
            if v in adj[u] or u in adj[v]
        ]
        return final

    def special_pairs(self, verts: list[int], anchor: int) -> list[tuple[int, int]]:
        base = (
            list(itertools.combinations(range(5), 2))
            if self.cfg.family == "k33free"
            else list(_WAGNER_PAIRS)
        )
        drop = {(0, 1)} if anchor == 2 else set()
        return [(verts[u], verts[v]) for u, v in sorted(base) if (u, v) not in drop]

    def add_component(self, anchor_verts: list[int], special: bool) -> int:
        cfg, rng = self.cfg, self.rng
        anchor = len(anchor_verts)
        if special:
            size = 5 if cfg.family == "k33free" else 8
            verts = anchor_verts + self.fresh_vertices(size - anchor)
            pairs = self.special_pairs(verts, anchor)
        else:
            size = max(rng.randint(*cfg.comp_size), anchor + 1, 3)
            verts = anchor_verts + self.fresh_vertices(size - anchor)
            pairs = self.planar_pairs(verts, anchor)
        net = FlowNetwork(frozenset(verts), tuple(self.realize(pairs)))
        cid = self.tree.add_component(net)
        self.hosts.append(cid)
        return cid

    def drop_clique_edges(self, comp_id: int, clique: tuple[int, ...]) -> None:
        """Sometimes remove the host's copy of a clique edge (the sum keeps
        the pair only as a phantom), provided the host stays connected."""
        net = self.tree.components[comp_id]
        doomed: set[int] = set()
        for u, v in itertools.combinations(sorted(clique), 2):
            if self.rng.random() >= self.cfg.clique_edge_drop:
                continue
            ids = [e.id for e in net.edges if {e.tail, e.head} == {u, v}]
            if not ids:
                continue
            adj = {w: set() for w in net.vertices}
            for e in net.edges:
                if e.id in doomed or e.id in ids:
                    continue
                adj[e.tail].add(e.head)
                adj[e.head].add(e.tail)
            if adj[u] & adj[v]:
                doomed |= set(ids)
        if doomed:
            self.tree.components[comp_id] = net.without_edges(doomed)

    def anchor_in(self, comp_id: int, arity: int) -> tuple[int, ...] | None:
        net = self.tree.components[comp_id]
        rng = self.rng
        if arity == 1:
            return (rng.choice(sorted(net.vertices)),)
        adj: dict[int, set[int]] = {v: set() for v in net.vertices}
        for e in net.edges:
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)
        pairs = sorted({tuple(sorted((e.tail, e.head))) for e in net.edges})
        if arity == 2:
            return rng.choice(pairs) if pairs else None
        triangles = [
            (u, v, w)
            for u, v in pairs
            for w in sorted(adj[u] & adj[v])
            if w > v
        ]
        return rng.choice(triangles) if triangles else None

    def build(self) -> tuple[FlowNetwork, DecompositionTree]:
        cfg, rng = self.cfg, self.rng
        first_special = cfg.family != "planar" and rng.random() < cfg.special_prob
        self.add_component([], first_special)
        if cfg.family != "planar":
            cliques_of_arity: dict[int, list[int]] = {1: [], 2: [], 3: []}
            while self.next_vertex < cfg.n:
                special = rng.random() < cfg.special_prob
                max_arity = 2 if cfg.family == "k33free" else 3
                if special:
                    max_arity = min(max_arity, 2)
                weights = cfg.arity_weights[:max_arity]
                arity = rng.choices(range(1, max_arity + 1), weights=weights)[0]
                # Sometimes pile onto an existing clique of the right size.
                reuse = cliques_of_arity[arity]
                if reuse and rng.random() < 0.2:
                    kid = rng.choice(reuse)
                    anchor = tuple(sorted(self.tree.cliques[kid]))
                else:
                    host = rng.choice(self.hosts)
                    anchor = self.anchor_in(host, arity)
                    if anchor is None:
                        continue
                    kid = self.tree.add_clique(anchor)
                    reuse.append(kid)
                    self.tree.attach(host, kid)
                    self.drop_clique_edges(host, anchor)
                new_id = self.add_component(list(anchor), special)
                self.tree.attach(new_id, kid)
        else:
            # One big planar component: rebuild at the requested size.
            self.tree = DecompositionTree()
            self.next_vertex = self.next_edge = 0
            verts = self.fresh_vertices(max(cfg.n, 3))
            pairs = self.planar_pairs(verts, 0)
            net = FlowNetwork(frozenset(verts), tuple(self.realize(pairs)))
            self.tree.add_component(net)
        graph = self.tree.reassemble()
        return graph, self.tree


def gen_instance(cfg: GenConfig) -> tuple[FlowNetwork, DecompositionTree]:
    """Random clique-sum instance plus its ground-truth decomposition tree;
    identical configs produce identical instances."""
    return _Gen(cfg).build()


def nested_triangles(d: int, seed: int) -> tuple[FlowNetwork, DecompositionTree, int, int]:
    """A K5-free network of ``d`` nested separating triangles, its tree and an
    s-t pair of positive value.  Vertices 0 and 1 join every v_i = 2 + i, the
    v_i form a path, and each w_i = 2 + d + i joins 0, 1 and v_i: K2 joined
    to a caterpillar, non-planar for d >= 3 since {0, 1, v_i} and {v_(i-1),
    v_(i+1), w_i} form a K3,3.  Every pair has an arc each way, with
    capacities drawn from ``seed``.  The tree has one chain component (0-1,
    0-v_i, 1-v_i, v_i-v_(i+1)) and one piece per i with w_i's three pairs,
    glued on the clique {0, 1, v_i}; s = w_0 and t = w_(d-1)."""
    if d < 2:
        raise ValueError("need d >= 2")
    rng = random.Random(seed)
    ids = itertools.count()

    def net(pairs: list[tuple[int, int]]) -> FlowNetwork:
        arcs = [
            Edge(next(ids), a, b, rng.randint(1, 20)) for u, v in pairs for a, b in ((u, v), (v, u))
        ]
        return FlowNetwork(frozenset(x for pair in pairs for x in pair), tuple(arcs))

    v = range(2, 2 + d)
    chain = [(0, 1)] + [(x, y) for y in v for x in (0, 1)] + list(zip(v, v[1:]))
    tree = single_component_tree(net(chain))
    for vi, wi in zip(v, range(2 + d, 2 + 2 * d)):
        kid = tree.add_clique((0, 1, vi))
        tree.attach(0, kid)
        tree.attach(tree.add_component(net([(wi, 0), (wi, 1), (wi, vi)])), kid)
    return tree.reassemble(), tree, 2 + d, 1 + 2 * d


def audit_step_values(nets: Sequence[FlowNetwork], s: int, t: int) -> bool:
    """True iff the oracle max-flow value is identical across a solve trace."""
    values = {oracle_max_flow(net, s, t) for net in nets}
    return len(values) <= 1


def collecting_observer() -> tuple[list[FlowNetwork], "object"]:
    """Observer that stashes every working network the solver reports."""
    nets: list[FlowNetwork] = []

    def observe(stage: str, net: FlowNetwork) -> None:
        nets.append(net)

    return nets, observe
