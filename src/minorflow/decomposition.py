"""Clique-sum decomposition trees: construction, refinement, validation.

A decomposition is a 2-colored tree of component nodes (edge-disjoint
subnetworks) and clique nodes (shared vertex sets of size 1..3).  Components
never store clique edges removed by a clique-sum; structural operations work
on the component *torso* (its underlying simple graph plus one phantom edge
per pair inside each incident clique), which is how the clique-sum semantics
see the component.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

from .network import Edge, FlowNetwork, merge_networks
from .planar import (
    Adjacency,
    adjacency,
    articulation_points,
    components,
    is_planar,
    lowpoint_dfs,
    planar_embed,  # unused here: the benchmark's traced run wraps this binding by name
)
from . import spqr as spqr_mod
from .spqr import SpqrTree, spqr


class NotK33MinorFree(Exception):
    pass


class NotK5MinorFree(Exception):
    pass


class InvalidDecomposition(Exception):
    pass


class DisconnectedInput(InvalidDecomposition):
    """A family decomposer was given a disconnected network."""


@dataclass
class Component:
    id: int
    net: FlowNetwork


@dataclass
class Clique:
    id: int
    vertices: frozenset[int]

    def __post_init__(self) -> None:
        if not 1 <= len(self.vertices) <= 3:
            raise InvalidDecomposition(f"clique size {len(self.vertices)} out of range 1..3")


@dataclass
class DecompositionTree:
    components: dict[int, Component] = field(default_factory=dict)
    cliques: dict[int, Clique] = field(default_factory=dict)
    comp_cliques: dict[int, set[int]] = field(default_factory=dict)
    clique_comps: dict[int, set[int]] = field(default_factory=dict)

    # One past the largest live id, kept so that adding a node is O(1); -1
    # when unknown: on a new tree, which parsers and ``copy`` fill directly,
    # and after the largest id is removed.
    _next_component: int = field(default=-1, repr=False, compare=False)
    _next_clique: int = field(default=-1, repr=False, compare=False)

    def next_component_id(self) -> int:
        if self._next_component < 0:
            self._next_component = max(self.components, default=-1) + 1
        return self._next_component

    def next_clique_id(self) -> int:
        if self._next_clique < 0:
            self._next_clique = max(self.cliques, default=-1) + 1
        return self._next_clique

    def add_component(self, net: FlowNetwork) -> int:
        cid = self.next_component_id()
        self.components[cid] = Component(cid, net)
        self._next_component = cid + 1
        self.comp_cliques[cid] = set()
        return cid

    def add_clique(self, vertices: Iterable[int]) -> int:
        kid = self.next_clique_id()
        self.cliques[kid] = Clique(kid, frozenset(vertices))
        self._next_clique = kid + 1
        self.clique_comps[kid] = set()
        return kid

    def attach(self, comp_id: int, clique_id: int) -> None:
        self.comp_cliques[comp_id].add(clique_id)
        self.clique_comps[clique_id].add(comp_id)

    def remove_component(self, comp_id: int) -> None:
        for kid in sorted(self.comp_cliques.pop(comp_id, ())):
            self.clique_comps[kid].discard(comp_id)
        del self.components[comp_id]
        if comp_id == self._next_component - 1:
            self._next_component = -1

    def copy(self) -> "DecompositionTree":
        # Networks are immutable and shared; incidence maps are copied.
        t = DecompositionTree()
        t.components = {cid: replace(c) for cid, c in self.components.items()}
        t.cliques = dict(self.cliques)
        t.comp_cliques = {cid: set(s) for cid, s in self.comp_cliques.items()}
        t.clique_comps = {kid: set(s) for kid, s in self.clique_comps.items()}
        return t

    def walk(self, root: int) -> tuple[dict[int, int], dict[int, int]]:
        """Breadth-first walk of the 2-colored tree from component ``root``:
        ``up`` maps each component reached to the clique above it (-1 at the
        root) and ``above`` each clique reached to the component above it,
        both in the order reached, so a node comes after the one above it."""
        up = {root: -1}
        above: dict[int, int] = {}
        queue = deque(up)
        while queue:
            cid = queue.popleft()
            for kid in self.comp_cliques[cid]:
                if kid not in above:
                    above[kid] = cid
                    for c in self.clique_comps[kid]:
                        if c not in up:
                            up[c] = kid
                            queue.append(c)
        return up, above

    def reassemble(self) -> FlowNetwork:
        return merge_networks(*(c.net for _, c in sorted(self.components.items())))

def underlying(net: FlowNetwork) -> Adjacency:
    return adjacency(net.vertices, ((e.tail, e.head) for e in net.edges))


def torso_adjacency(tree: DecompositionTree, comp_id: int) -> Adjacency:
    """Component underlying graph plus phantom clique-completion edges."""
    adj = underlying(tree.components[comp_id].net)
    for kid in tree.comp_cliques[comp_id]:
        for u, v in itertools.combinations(tree.cliques[kid].vertices, 2):
            adj[u].add(v)
            adj[v].add(u)
    return adj


def single_component_tree(net: FlowNetwork) -> DecompositionTree:
    tree = DecompositionTree()
    tree.add_component(net)
    return tree


# ---------------------------------------------------------------------------
# Structural splits


def biconnected_split(
    adj: Adjacency,
) -> tuple[list[tuple[frozenset[int], frozenset[frozenset[int]]]], frozenset[int]]:
    """Standard block-cut decomposition of an undirected graph.

    Returns edge-disjoint blocks as (vertices, pairs), ordered by their
    sorted vertex lists, plus the articulation vertices (those in two or
    more blocks); isolated vertices become single-vertex blocks.  One
    ``lowpoint_dfs`` finds them: a tree vertex w heads a block when no frond
    from its subtree climbs above its parent (lowpt1[w] >= number[parent[w]]),
    every other vertex joins the block of its parent, and each edge lies in
    the block of its deeper end.
    """
    order = sorted(adj)
    idx = {v: i for i, v in enumerate(order)}
    nbrs = [[idx[w] for w in adj[v]] for v in order]
    number, parent, low1, _, _ = lowpoint_dfs(nbrs)
    head = list(range(len(order)))
    verts: dict[int, set[int]] = {}  # block head -> block vertices
    for v in sorted(range(len(order)), key=number.__getitem__):  # preorder
        p = parent[v]
        if p >= 0:
            if low1[v] < number[p]:
                head[v] = head[p]
            verts.setdefault(head[v], {order[p]}).add(order[v])
    pairs: dict[int, set[frozenset[int]]] = {w: set() for w in verts}
    for u, nu in enumerate(nbrs):
        for v in nu:
            if number[u] < number[v]:
                pairs[head[v]].add(frozenset((order[u], order[v])))
    blocks = [(frozenset(verts[w]), frozenset(pairs[w])) for w in verts]
    held: dict[int, int] = {}
    for vs, _ in blocks:
        for v in vs:
            held[v] = held.get(v, 0) + 1
    blocks += [(frozenset((v,)), frozenset()) for v in order if v not in held]
    blocks.sort(key=lambda b: sorted(b[0]))
    return blocks, frozenset(v for v, count in held.items() if count > 1)


# A piece of a split component: its vertex set and its torso pairs.
Piece = tuple[frozenset[int], frozenset[frozenset[int]]]


def _split(
    tree: DecompositionTree,
    comp_id: int,
    pieces: Sequence[Piece],
    cliques: Sequence[tuple[frozenset[int], Sequence[int]]],
) -> None:
    """Swap one component for edge-disjoint pieces glued at new cliques.

    Each edge goes to the first piece whose pairs hold its ends.  ``cliques``
    lists (vertex set, piece indexes).  Pre-existing incident cliques are
    merged with a coinciding new clique when one exists, otherwise
    reattached to the first piece containing them.
    """
    first_holder: dict[frozenset[int], int] = {}
    holders: dict[int, list[int]] = {}
    for i, (verts, pairs) in enumerate(pieces):
        for pair in pairs:
            first_holder.setdefault(pair, i)
        for v in verts:
            holders.setdefault(v, []).append(i)
    owned: list[list[Edge]] = [[] for _ in pieces]
    for e in sorted(tree.components[comp_id].net.edges, key=lambda e: e.id):
        owned[first_holder[frozenset((e.tail, e.head))]].append(e)
    old_cliques = sorted(tree.comp_cliques[comp_id])
    tree.remove_component(comp_id)
    ids: list[int] = []
    for (verts, _), edges in zip(pieces, owned):
        ids.append(tree.add_component(FlowNetwork(verts, tuple(edges))))
    grouped: dict[frozenset[int], set[int]] = {}
    for verts, members in cliques:
        grouped.setdefault(frozenset(verts), set()).update(ids[i] for i in members)
    for kid in old_cliques:
        kverts = tree.cliques[kid].vertices
        if kverts in grouped:
            for cid in sorted(grouped.pop(kverts)):
                tree.attach(cid, kid)
            continue
        home = next((i for i in holders.get(min(kverts), ()) if kverts <= pieces[i][0]), None)
        if home is None:
            raise InvalidDecomposition(
                f"no piece contains clique {sorted(kverts)} after splitting"
            )
        tree.attach(ids[home], kid)
    for verts in sorted(grouped, key=sorted):
        kid = tree.add_clique(verts)
        for cid in sorted(grouped[verts]):
            tree.attach(cid, kid)


def _block_pass(tree: DecompositionTree) -> None:
    for cid in sorted(tree.components):
        torso = torso_adjacency(tree, cid)
        if len(components(torso)) > 1:
            raise InvalidDecomposition(f"component {cid} has a disconnected torso")
        _split_blocks(tree, cid, torso)


def _split_blocks(tree: DecompositionTree, cid: int, torso: Adjacency) -> None:
    blocks, _ = biconnected_split(torso)
    if len(blocks) <= 1:
        return
    holders: dict[int, list[int]] = {}
    for i, (verts, _) in enumerate(blocks):
        for v in verts:
            holders.setdefault(v, []).append(i)
    arts = [(frozenset((v,)), holders[v]) for v in sorted(holders) if len(holders[v]) > 1]
    _split(tree, cid, blocks, arts)


def _spqr_pass(tree: DecompositionTree) -> None:
    for cid in sorted(tree.components):
        _spqr_split(tree, cid, torso_adjacency(tree, cid))


def _spqr_split(tree: DecompositionTree, cid: int, torso: Adjacency) -> None:
    """Split component ``cid``, whose torso is ``torso``, into the pieces of
    its SPQR tree (see ``_apply_spqr_split``); an edge or a bond stays."""
    n_pairs = sum(len(s) for s in torso.values()) // 2
    if len(torso) <= 2 or n_pairs <= 1:
        return
    stree = spqr(torso)
    if len(stree.nodes) > 1:
        _apply_spqr_split(tree, cid, stree)


def _apply_spqr_split(tree: DecompositionTree, cid: int, stree: SpqrTree) -> None:
    """One piece per S or R node, holding all of its skeleton pairs; a P
    node becomes a clique, and its real edge lands in its lowest attached
    piece, the first that holds its pair.

    Pieces are ordered by their sorted vertex lists, not by SPQR node id:
    two S or R nodes share at most two vertices, so the order is total, and
    the split (which piece keeps an old clique, which holds a P node's
    edge) depends only on the tree, not on how ``spqr`` numbers it."""
    node_ids = sorted(stree.nodes)
    verts = {nid: stree.nodes[nid].vertices for nid in node_ids}
    non_p = sorted(
        (nid for nid in node_ids if stree.nodes[nid].kind != spqr_mod.P),
        key=lambda nid: sorted(verts[nid]),
    )
    piece_index = {nid: i for i, nid in enumerate(non_p)}
    pieces = [
        (frozenset(verts[nid]), frozenset(e.pair for e in stree.nodes[nid].edges))
        for nid in non_p
    ]
    cliques: list[tuple[frozenset[int], list[int]]] = []
    for nid in node_ids:
        node = stree.nodes[nid]
        if node.kind == spqr_mod.P:
            attached = sorted(piece_index[other] for _, other in stree.neighbors(nid))
            cliques.append((frozenset(verts[nid]), attached))
    for link, (a, b) in sorted(stree.tree_edges.items()):
        if stree.nodes[a].kind == spqr_mod.P or stree.nodes[b].kind == spqr_mod.P:
            continue
        virt = next(e for e in stree.nodes[a].edges if e.link == link)
        cliques.append((virt.pair, sorted((piece_index[a], piece_index[b]))))
    _split(tree, cid, pieces, cliques)


def _triangle_pass(tree: DecompositionTree) -> bool:
    """Split each planar component at its first gluing triangle that
    separates its torso.  After the block and SPQR passes every torso is a
    cycle, a 3-connected graph or at most three vertices, and in a
    3-connected planar graph a triangle is a face exactly when removing it
    leaves the graph connected (Whitney), so no embedding is needed."""
    changed = False
    for cid in sorted(tree.components):
        tri_cliques = [
            kid
            for kid in sorted(tree.comp_cliques[cid])
            if len(tree.cliques[kid].vertices) == 3
        ]
        if not tri_cliques:
            continue
        torso = torso_adjacency(tree, cid)
        if not is_planar(torso):
            continue
        for kid in tri_cliques:
            tri = tree.cliques[kid].vertices
            parts = components(torso, tri)
            if len(parts) < 2:
                continue
            _split_at_triangle(tree, cid, torso, tri, parts)
            changed = True
            break  # component replaced; revisit the new pieces next sweep
    return changed


def _split_at_triangle(
    tree: DecompositionTree,
    cid: int,
    torso: Adjacency,
    tri: frozenset[int],
    parts: Sequence[set[int]],
) -> None:
    pieces = []
    for part in parts:
        verts = frozenset(part | tri)
        pairs = frozenset(frozenset((u, w)) for u in verts for w in torso[u] if w in verts)
        pieces.append((verts, pairs))
    _split(tree, cid, pieces, [(tri, list(range(len(pieces))))])


def refine(tree: DecompositionTree) -> DecompositionTree:
    """Split components until every piece is biconnected and triconnected and
    every gluing triangle of every planar component is one of its faces.
    Reassembly is unchanged; refining twice equals refining once."""
    out = tree.copy()
    _block_pass(out)
    _spqr_pass(out)
    # One block and one SPQR pass suffice: a block's torso is biconnected,
    # and an S or R piece's torso is its skeleton (a cycle, or a 3-connected
    # graph).  Splitting a 3-connected torso at a separating triangle leaves
    # 3-connected pieces, each strictly smaller, so the triangle loop ends.
    while _triangle_pass(out):
        pass
    return out


# ---------------------------------------------------------------------------
# Family decomposers

def _is_k5(adj: Adjacency) -> bool:
    return len(adj) == 5 and all(len(adj[v]) == 4 for v in adj)


def _is_v8(adj: Adjacency) -> bool:
    """Whether ``adj`` is the Wagner graph V8.

    A cubic graph on 8 vertices is V8 exactly when it has a Hamiltonian cycle
    v0..v7 whose other four edges are the chords v_i v_{i+4}.  A depth-first
    search from the smallest vertex extends the cycle (at most two choices a
    step once v1 is placed) and places each v_i with i >= 4 only beside
    v_{i-4}, so a full cycle that closes at v0 has every chord.
    """
    if len(adj) != 8 or any(len(adj[v]) != 3 for v in adj):
        return False
    cycle = [min(adj)]

    def extend() -> bool:
        i = len(cycle)
        if i == 8:
            return cycle[0] in adj[cycle[7]]
        for w in adj[cycle[-1]]:
            if w not in cycle and (i < 4 or w in adj[cycle[i - 4]]):
                cycle.append(w)
                if extend():
                    return True
                cycle.pop()
        return False

    return extend()


def _structure_tree(net: FlowNetwork) -> tuple[DecompositionTree, set[int]]:
    """Split ``net`` into its blocks (1-sums), test each block for planarity
    once, and split only the non-planar ones into their SPQR pieces (2-sums).

    Returns the tree and the ids of the planar blocks, which are kept whole:
    every triconnected piece of a planar block is planar, so they need no
    further test, and ``refine`` recovers their pieces when asked.  Each
    remaining component is an S or R piece of a non-planar block, or a
    non-planar block that is already triconnected."""
    adj = underlying(net)
    if len(components(adj)) > 1:
        raise DisconnectedInput("decomposers require a connected input graph")
    tree = DecompositionTree()
    _split_blocks(tree, tree.add_component(net), adj)
    planar: set[int] = set()
    for cid in sorted(tree.components):
        torso = torso_adjacency(tree, cid)
        if is_planar(torso):
            planar.add(cid)
        else:
            _spqr_split(tree, cid, torso)
    return tree, planar


def decompose_k33_free(net: FlowNetwork) -> DecompositionTree:
    """Clique-sum decomposition with planar and K5 components (1- and
    2-sums): each planar block whole, and the triconnected pieces of each
    non-planar block.  Raises NotK33MinorFree when some piece of a
    non-planar block is neither planar nor K5."""
    tree, planar = _structure_tree(net)
    for cid in sorted(c for c in tree.components if c not in planar):
        torso = torso_adjacency(tree, cid)
        if not (is_planar(torso) or _is_k5(torso)):
            raise NotK33MinorFree(
                f"triconnected component on vertices {sorted(torso)} is neither planar nor K5"
            )
    return tree


def decompose_k5_free(net: FlowNetwork) -> DecompositionTree:
    """Clique-sum decomposition with planar and Wagner-graph components
    (1-, 2-, and 3-sums): each planar block whole, and the triconnected
    pieces of each non-planar block, split again at separating triples
    (``_split_k5``) until every piece is planar or V8.  Raises
    NotK5MinorFree when impossible."""
    tree, planar = _structure_tree(net)
    memo: dict[tuple[frozenset[int], frozenset[frozenset[int]]], object] = {}
    for cid in sorted(c for c in tree.components if c not in planar):
        torso = torso_adjacency(tree, cid)
        if all(len(nbrs) == 2 for nbrs in torso.values()):
            continue  # an S piece: a cycle is planar
        verts = frozenset(torso)
        pairs = frozenset(
            frozenset((u, v)) for u in torso for v in torso[u] if u < v
        )
        # An R piece or a 3-connected block; _split_k5 tests planar / V8 first.
        result = _split_k5(verts, pairs, memo)
        if result is None:
            raise NotK5MinorFree(
                f"component on vertices {sorted(verts)} is not a 3-sum of planar and Wagner pieces"
            )
        if len(result[0]) > 1:
            _split(tree, cid, *result)
    return tree


def _separating_triples(adj: Adjacency) -> Iterator[tuple[int, int, int]]:
    """The separating triples a < b < c of the 3-connected graph ``adj``,
    lazily and in lexicographic order.

    In a 3-connected graph, G - {a, b} is connected, so {a, b, c} separates
    G exactly when c cuts G - {a, b}, whichever vertex plays c.  So each pair
    a < b, in sorted order, costs one articulation DFS of G - {a, b} and
    yields the cut vertices c > b in increasing order; a caller that stops
    at the first triple that splits runs no DFS for the later pairs.
    """
    order = sorted(adj)
    index = {v: i for i, v in enumerate(order)}
    nbrs = [[index[w] for w in adj[v]] for v in order]
    for a, b in itertools.combinations(range(len(order)), 2):
        for c in sorted(c for c in articulation_points(nbrs, {a, b}) if c > b):
            yield order[a], order[b], order[c]


_K5Result = tuple[list[Piece], list[tuple[frozenset[int], list[int]]]]


def _split_k5(
    verts: frozenset[int],
    pairs: frozenset[frozenset[int]],
    memo: dict,
) -> _K5Result | None:
    """Recursive 3-cut refinement of a 3-connected torso: one piece when it
    is planar or V8.

    Sides carry the completed cut triangle, so each is 3-connected again.
    Draws separating triples lazily in lexicographic order and keeps the
    first whose sides all split, with full backtracking: a K5-free graph can
    have 3-cuts whose completed sides are not K5-free, so greedy choice is
    not complete.  On generated inputs the first triple always splits, and
    the scan stops there.  ``memo`` maps each (vertices, pairs) already
    tried to its result.  Returns (pieces, cliques) with clique piece
    indexes, or None.
    """
    key = (verts, pairs)
    if key in memo:
        return memo[key]
    adj = adjacency(verts, pairs)
    if is_planar(adj) or _is_v8(adj):
        memo[key] = ([(verts, pairs)], [])
        return memo[key]
    for triple in _separating_triples(adj):
        tri = frozenset(triple)
        parts = components(adj, tri)
        if len(parts) < 2:
            continue
        tri_pairs = {frozenset(p) for p in itertools.combinations(sorted(tri), 2)}
        all_pieces: list[Piece] = []
        all_cliques: list[tuple[frozenset[int], list[int]]] = []
        attach: list[int] = []
        ok = True
        for part in sorted(parts, key=sorted):
            side_verts = frozenset(part | tri)
            side_pairs = frozenset(
                p for p in pairs if p <= side_verts and not p <= tri
            ) | frozenset(tri_pairs)
            sub = _split_k5(side_verts, side_pairs, memo)
            if sub is None:
                ok = False
                break
            base = len(all_pieces)
            sub_pieces, sub_cliques = sub
            all_pieces.extend(sub_pieces)
            all_cliques.extend(
                (cv, [base + i for i in members]) for cv, members in sub_cliques
            )
            attach.append(
                base + next(i for i, (pv, _) in enumerate(sub_pieces) if tri <= pv)
            )
        if ok:
            memo[key] = (all_pieces, all_cliques + [(tri, attach)])
            return memo[key]
    memo[key] = None
    return None


# ---------------------------------------------------------------------------
# Validation


# Largest component whose torso need not be planar (K5 and the Wagner graph fit).
_SMALL_CAP = 10


def validate(graph: FlowNetwork, tree: DecompositionTree) -> tuple[bool, list[str]]:
    """Check every decomposition-tree invariant and the paper's precondition:
    each component's torso is planar or has at most ``_SMALL_CAP`` vertices.
    Planarity is tested only on torsos above the cap.  One sweep over the
    components gathers what the other checks need and builds each torso once."""
    problems: list[str] = []
    comp_ids = sorted(tree.components)
    clique_ids = sorted(tree.cliques)
    if not comp_ids:
        return False, ["tree has no components"]
    # Incidence bookkeeping and tree shape.
    n_edges = 0
    for cid in comp_ids:
        for kid in tree.comp_cliques[cid]:
            if kid not in tree.cliques:
                problems.append(f"component {cid} attached to missing clique {kid}")
            n_edges += 1
    for kid in clique_ids:
        for cid in sorted(c for c in tree.clique_comps[kid] if c not in tree.components):
            problems.append(f"clique {kid} attached to missing component {cid}")
    dangling = bool(problems)  # the walk can only cross nodes that exist
    for kid in clique_ids:
        if len(tree.clique_comps[kid]) < 2:
            problems.append(f"clique {kid} attached to fewer than 2 components")
    if n_edges != len(comp_ids) + len(clique_ids) - 1:
        problems.append("tree edge count is not nodes-1 (not a tree)")
    if not dangling:
        up, above = tree.walk(comp_ids[0])
        if len(up) + len(above) != len(comp_ids) + len(clique_ids):
            problems.append("tree is disconnected")
    # The sweep: vertex counts, edge owners and fields, clique containment,
    # and the torso checks of every component whose cliques lie inside it.
    graph_edges = {e.id: e for e in graph.edges}
    holders: dict[int, int] = {}  # vertex -> number of components holding it
    owner: dict[int, int] = {}  # edge id -> the last component holding it
    outside: list[tuple[int, int]] = []  # (clique, component) lacking some of its vertices
    edge_problems: list[str] = []
    torso_problems: list[str] = []
    for cid in comp_ids:
        net = tree.components[cid].net
        torso: dict[int, set[int]] = {}
        for v in net.vertices:
            holders[v] = holders.get(v, 0) + 1
            torso[v] = set()
        for e in net.edges:
            if e.id in owner:
                edge_problems.append(f"edge {e.id} appears in components {owner[e.id]} and {cid}")
            owner[e.id] = cid
            # Generated trees share the input's Edge objects; parsed ones
            # hold their own, so only those are compared field by field.
            g = graph_edges.get(e.id, e)
            if e is not g and (e.tail != g.tail or e.head != g.head or e.cap != g.cap):
                edge_problems.append(f"edge {e.id} differs from the input edge")
            torso[e.tail].add(e.head)
            torso[e.head].add(e.tail)
        cliques = [tree.cliques[kid] for kid in tree.comp_cliques[cid] if kid in tree.cliques]
        lacking = [(k.id, cid) for k in cliques if not k.vertices <= net.vertices]
        if lacking or len(cliques) < len(tree.comp_cliques[cid]):
            outside += lacking  # a missing clique, or one not inside: no torso
            continue
        for k in cliques:
            for u, v in itertools.combinations(k.vertices, 2):
                torso[u].add(v)
                torso[v].add(u)
        if len(components(torso)) > 1:
            torso_problems.append(f"component {cid} torso is disconnected")
        if len(torso) > _SMALL_CAP and not is_planar(torso):
            torso_problems.append(
                f"component {cid} torso is not planar and has more than {_SMALL_CAP} vertices"
            )
    problems += [f"clique {k} vertices missing from component {c}" for k, c in sorted(outside)]
    shape_ok = not problems
    problems += edge_problems
    if owner.keys() != graph_edges.keys():
        missing = sorted(graph_edges.keys() - owner.keys())[:5]
        extra = sorted(owner.keys() - graph_edges.keys())[:5]
        problems.append(f"edge sets differ (missing {missing}, extra {extra})")
    if holders.keys() != graph.vertices:
        problems.append("vertex union differs from the input network")
    # Running intersection: in a tree whose cliques lie inside their
    # components, the nodes holding v span as many tree edges as the cliques
    # holding v have components, so they form one subtree exactly when they
    # number one more than those edges.
    if shape_ok:
        for kid in clique_ids:
            for v in tree.cliques[kid].vertices:
                holders[v] += 1 - len(tree.clique_comps[kid])
        for v in sorted(v for v, count in holders.items() if count != 1):
            problems.append(f"vertex {v} is shared outside its cliques")
    problems += torso_problems
    return (not problems, problems)
