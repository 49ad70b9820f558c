"""SPQR trees: decomposition of a biconnected graph into a 2-sum of
triconnected components (cycle, bond, and 3-connected skeletons).

Construction is by recursive splitting at split pairs followed by merging
adjacent same-type S/P nodes, which yields the canonical tree.  A skeleton's
split pairs are found by asking ``planar.components`` for the components of
its adjacency with each vertex pair removed (superlinear split-pair search;
desk-scale by design); the same helper answers the biconnectivity and
3-connectivity checks.  Virtual edges come in linked pairs,
one per tree edge; 2-summing every pair reproduces the input graph.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass, field

from .planar import Adjacency, components

S, P, R, Q = "S", "P", "R", "Q"


@dataclass(frozen=True)
class SkelEdge:
    u: int
    v: int
    link: int | None = None  # pairing id; None for real (input) edges

    @property
    def virtual(self) -> bool:
        return self.link is not None

    @property
    def pair(self) -> frozenset[int]:
        return frozenset((self.u, self.v))


@dataclass
class SpqrNode:
    id: int
    kind: str
    edges: list[SkelEdge]

    @property
    def vertices(self) -> set[int]:
        return {w for e in self.edges for w in (e.u, e.v)}

    def real_pairs(self) -> list[frozenset[int]]:
        return [e.pair for e in self.edges if not e.virtual]


@dataclass
class SpqrTree:
    nodes: dict[int, SpqrNode] = field(default_factory=dict)
    # link id -> (node id, node id)
    tree_edges: dict[int, tuple[int, int]] = field(default_factory=dict)

    def neighbors(self, nid: int) -> list[tuple[int, int]]:
        out = []
        for link, (a, b) in sorted(self.tree_edges.items()):
            if a == nid:
                out.append((link, b))
            elif b == nid:
                out.append((link, a))
        return out


def _edge_list(adj: Adjacency) -> list[SkelEdge]:
    out = []
    for u in sorted(adj):
        for v in sorted(adj[u]):
            if u < v:
                out.append(SkelEdge(u, v))
    return out


def _skel_adjacency(edges: list[SkelEdge]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for e in edges:
        adj.setdefault(e.u, set()).add(e.v)
        adj.setdefault(e.v, set()).add(e.u)
    return adj


def is_biconnected(adj: Adjacency) -> bool:
    if len(components(adj)) > 1:
        return False
    return len(adj) <= 2 or all(len(components(adj, {cut})) == 1 for cut in sorted(adj))


def spqr(adj: Adjacency) -> SpqrTree:
    """Canonical SPQR tree of a biconnected simple graph.

    Single-vertex and single-edge inputs yield the degenerate one-Q-node
    tree; any other non-biconnected input raises ValueError.
    """
    edges = _edge_list(adj)
    tree = SpqrTree()
    next_node = itertools.count()
    next_link = itertools.count()
    if len(edges) <= 1:
        if len(components(adj)) > 1:
            raise ValueError("SPQR input must be connected")
        nid = next(next_node)
        tree.nodes[nid] = SpqrNode(nid, Q, list(edges))
        return tree
    if not is_biconnected(adj):
        raise ValueError("SPQR input must be biconnected")

    # link id -> first finalized (node id) waiting for its partner
    half_links: dict[int, int] = {}

    def finalize(kind: str, skel: list[SkelEdge]) -> int:
        nid = next(next_node)
        tree.nodes[nid] = SpqrNode(nid, kind, skel)
        for e in skel:
            if e.virtual:
                if e.link in half_links:
                    other = half_links.pop(e.link)
                    tree.tree_edges[e.link] = (other, nid)
                else:
                    half_links[e.link] = nid
        return nid

    work: list[list[SkelEdge]] = [edges]
    while work:
        skel = work.pop()
        nbr = _skel_adjacency(skel)
        if len(nbr) == 2:
            finalize(P, skel)
            continue
        deg: dict[int, int] = {v: 0 for v in nbr}
        for e in skel:
            deg[e.u] += 1
            deg[e.v] += 1
        if all(d == 2 for d in deg.values()):
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
        if len(comps) + len(direct) == 2 and len(comps) == 2:
            link = next(next_link)
            virt = SkelEdge(u, v, link)
            work.append(sides[0] + [virt])
            work.append(sides[1] + [virt])
        else:
            hub: list[SkelEdge] = list(direct)
            for side in sides:
                link = next(next_link)
                virt = SkelEdge(u, v, link)
                hub.append(virt)
                work.append(side + [virt])
            finalize(P, hub)
    assert not half_links, "unpaired virtual edge"
    _merge_same_kind(tree)
    return tree


def _merge_same_kind(tree: SpqrTree) -> None:
    """2-sum away every S-S and P-P adjacency (canonical form)."""
    pending = deque(sorted(tree.tree_edges))
    while pending:
        link = pending.popleft()
        if link not in tree.tree_edges:
            continue
        a, b = tree.tree_edges[link]
        na, nb = tree.nodes[a], tree.nodes[b]
        if na.kind != nb.kind or na.kind not in (S, P):
            continue
        merged = [e for e in na.edges if e.link != link] + [
            e for e in nb.edges if e.link != link
        ]
        na.edges = merged
        del tree.nodes[b]
        del tree.tree_edges[link]
        for other, (x, y) in list(tree.tree_edges.items()):
            if x == b:
                tree.tree_edges[other] = (a, y)
                pending.append(other)
            elif y == b:
                tree.tree_edges[other] = (x, a)
                pending.append(other)


def reassemble(tree: SpqrTree) -> set[frozenset[int]]:
    """Real edges surviving all 2-sums (virtual pairs glue and vanish)."""
    out: set[frozenset[int]] = set()
    for node in tree.nodes.values():
        for pair in node.real_pairs():
            out.add(pair)
    return out


def check_spqr_axioms(tree: SpqrTree, adj: Adjacency) -> list[str]:
    """Verify the defining tree properties; returns a list of violations."""
    problems: list[str] = []
    link_count: dict[int, int] = {}
    for node in tree.nodes.values():
        vset = node.vertices
        deg: dict[int, int] = {w: 0 for w in vset}
        simple_pairs: set[frozenset[int]] = set()
        has_parallel = False
        for e in node.edges:
            deg[e.u] += 1
            deg[e.v] += 1
            if e.pair in simple_pairs:
                has_parallel = True
            simple_pairs.add(e.pair)
            if e.virtual:
                link_count[e.link] = link_count.get(e.link, 0) + 1
        if node.kind == S:
            if not (
                len(node.edges) == len(vset)
                and len(node.edges) >= 3
                and all(d == 2 for d in deg.values())
                and len(components(_skel_adjacency(node.edges))) == 1
            ):
                problems.append(f"node {node.id}: not a cycle")
        elif node.kind == P:
            if not (len(vset) == 2 and len(node.edges) >= 3):
                problems.append(f"node {node.id}: not a bond")
            if sum(1 for e in node.edges if not e.virtual) > 1:
                problems.append(f"node {node.id}: P node with several real edges")
        elif node.kind == R:
            if has_parallel or len(vset) < 4:
                problems.append(f"node {node.id}: R skeleton not simple/nontrivial")
            elif not _is_3_connected(_skel_adjacency(node.edges)):
                problems.append(f"node {node.id}: R skeleton not 3-connected")
        elif node.kind == Q:
            if len(tree.nodes) != 1 or len(node.edges) > 1:
                problems.append(f"node {node.id}: invalid Q node")
        else:
            problems.append(f"node {node.id}: unknown kind {node.kind}")
    # Each virtual edge belongs to exactly one tree edge, pairs share endpoints.
    for link, (a, b) in tree.tree_edges.items():
        ea = [e for e in tree.nodes[a].edges if e.link == link]
        eb = [e for e in tree.nodes[b].edges if e.link == link]
        if len(ea) != 1 or len(eb) != 1:
            problems.append(f"link {link}: not exactly one virtual edge per side")
        elif ea[0].pair != eb[0].pair:
            problems.append(f"link {link}: endpoint mismatch")
        if tree.nodes[a].kind == tree.nodes[b].kind and tree.nodes[a].kind != R:
            problems.append(f"link {link}: adjacent same-type {tree.nodes[a].kind} nodes")
    for link, count in link_count.items():
        if count != 2 or link not in tree.tree_edges:
            problems.append(f"link {link}: virtual edge multiplicity {count}")
    # Tree shape: connected and acyclic over nodes.
    if tree.nodes and len(tree.tree_edges) != len(tree.nodes) - 1:
        problems.append("tree edge count is not nodes-1")
    if tree.nodes:
        seen = set()
        queue = deque([min(tree.nodes)])
        seen.add(min(tree.nodes))
        while queue:
            nid = queue.popleft()
            for _, other in tree.neighbors(nid):
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        if seen != set(tree.nodes):
            problems.append("tree is disconnected")
    if reassemble(tree) != {e.pair for e in _edge_list(adj)}:
        problems.append("reassembly differs from input")
    return problems


def _is_3_connected(adj: Adjacency) -> bool:
    return len(adj) >= 4 and all(
        len(components(adj, {u, v})) == 1 for u, v in itertools.combinations(sorted(adj), 2)
    )
