"""Independent oracles and instance generators that the rest of the package
is validated against.

The oracles deliberately share no code path with the main engine:
``oracle_max_flow`` is a plain BFS augmenting-path loop over a dict residual
(no layering), and ``oracle_cut_table`` enumerates every vertex bipartition
with numpy.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Sequence

import networkx as nx
import numpy as np

from .decomposition import BTW, PLANAR, DecompositionTree
from .network import FULL, SINGLE_SOURCE, CutTable, Edge, FlowNetwork, TerminalSet

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


def _cut_values_by_mask(net: FlowNetwork, vertex_order: list[int]) -> np.ndarray:
    """Capacity of every directed bipartition cut, indexed by source-side mask."""
    n = len(vertex_order)
    idx = {v: i for i, v in enumerate(vertex_order)}
    masks = np.arange(1 << n, dtype=np.int64)
    cut = np.zeros(1 << n, dtype=np.int64)
    for e in net.edges:
        tail_in = (masks >> idx[e.tail]) & 1
        head_out = 1 - ((masks >> idx[e.head]) & 1)
        cut += e.cap * (tail_in & head_out)
    return cut


def oracle_cut_table(net: FlowNetwork, terminals: TerminalSet, mode: str = FULL) -> CutTable:
    """Cut table by exhaustive bipartition enumeration (|V| <= 20)."""
    if len(net.vertices) > _ORACLE_VERTEX_LIMIT:
        raise ValueError(f"network too large for enumeration ({len(net.vertices)} vertices)")
    order = sorted(net.vertices)
    idx = {v: i for i, v in enumerate(order)}
    cut = _cut_values_by_mask(net, order)
    masks = np.arange(1 << len(order), dtype=np.int64)

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
            label = BTW
        else:
            size = max(rng.randint(*cfg.comp_size), anchor + 1, 3)
            verts = anchor_verts + self.fresh_vertices(size - anchor)
            pairs = self.planar_pairs(verts, anchor)
            label = PLANAR
        net = FlowNetwork(frozenset(verts), tuple(self.realize(pairs)))
        cid = self.tree.add_component(net, label)
        self.hosts.append(cid)
        return cid

    def drop_clique_edges(self, comp_id: int, clique: tuple[int, ...]) -> None:
        """Sometimes remove the host's copy of a clique edge (the sum keeps
        the pair only as a phantom), provided the host stays connected."""
        comp = self.tree.components[comp_id]
        doomed: set[int] = set()
        for u, v in itertools.combinations(sorted(clique), 2):
            if self.rng.random() >= self.cfg.clique_edge_drop:
                continue
            ids = [e.id for e in comp.net.edges if {e.tail, e.head} == {u, v}]
            if not ids:
                continue
            adj = {w: set() for w in comp.net.vertices}
            for e in comp.net.edges:
                if e.id in doomed or e.id in ids:
                    continue
                adj[e.tail].add(e.head)
                adj[e.head].add(e.tail)
            if adj[u] & adj[v]:
                doomed |= set(ids)
        if doomed:
            comp.net = comp.net.without_edges(doomed)

    def anchor_in(self, comp_id: int, arity: int) -> tuple[int, ...] | None:
        comp = self.tree.components[comp_id]
        rng = self.rng
        if arity == 1:
            return (rng.choice(sorted(comp.net.vertices)),)
        adj: dict[int, set[int]] = {v: set() for v in comp.net.vertices}
        for e in comp.net.edges:
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)
        pairs = sorted({tuple(sorted((e.tail, e.head))) for e in comp.net.edges})
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
                    anchor = tuple(sorted(self.tree.cliques[kid].vertices))
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
            self.tree.add_component(net, PLANAR)
        graph = self.tree.reassemble()
        return graph, self.tree


def gen_instance(cfg: GenConfig) -> tuple[FlowNetwork, DecompositionTree]:
    """Random clique-sum instance plus its ground-truth decomposition tree;
    identical configs produce identical instances."""
    return _Gen(cfg).build()


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
