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
from typing import Iterable, Sequence

import networkx as nx

from .network import Edge, FlowNetwork, merge_networks
from .planar import Adjacency, adjacency, components, is_planar, planar_embed, to_nx
from . import spqr as spqr_mod
from .spqr import SpqrTree, spqr


class NotK33MinorFree(Exception):
    pass


class NotK5MinorFree(Exception):
    pass


class InvalidDecomposition(Exception):
    pass


@dataclass(frozen=True)
class Label:
    kind: str  # "planar" | "btw"


PLANAR = Label("planar")
BTW = Label("btw")

# A node of the 2-colored tree: ("c", component id) or ("k", clique id).
Node = tuple[str, int]


@dataclass
class Component:
    id: int
    net: FlowNetwork
    label: Label


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

    def add_component(self, net: FlowNetwork, label: Label) -> int:
        cid = self.next_component_id()
        self.components[cid] = Component(cid, net, label)
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

    def remove_clique(self, clique_id: int) -> None:
        for cid in sorted(self.clique_comps.pop(clique_id, ())):
            self.comp_cliques[cid].discard(clique_id)
        del self.cliques[clique_id]
        if clique_id == self._next_clique - 1:
            self._next_clique = -1

    def copy(self) -> "DecompositionTree":
        # Networks are immutable and shared; incidence maps are copied.
        t = DecompositionTree()
        t.components = {cid: replace(c) for cid, c in self.components.items()}
        t.cliques = dict(self.cliques)
        t.comp_cliques = {cid: set(s) for cid, s in self.comp_cliques.items()}
        t.clique_comps = {kid: set(s) for kid, s in self.clique_comps.items()}
        return t

    def walk(self, roots: Iterable[Node]) -> dict[Node, Node | None]:
        """Breadth-first walk of the 2-colored tree from ``roots``: the parent
        (None for a root) of every reached node, in the order reached."""
        parent: dict[Node, Node | None] = dict.fromkeys(roots)
        queue = deque(parent)
        while queue:
            node = queue.popleft()
            kind, nid = node
            if kind == "c":
                nbrs = [("k", k) for k in self.comp_cliques[nid]]
            else:
                nbrs = [("c", c) for c in self.clique_comps[nid]]
            for nb in nbrs:
                if nb not in parent:
                    parent[nb] = node
                    queue.append(nb)
        return parent

    def reassemble(self) -> FlowNetwork:
        return merge_networks(*(c.net for _, c in sorted(self.components.items())))

    def all_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for c in self.components.values():
            out |= c.net.vertices
        return frozenset(out)


def underlying(net: FlowNetwork) -> Adjacency:
    adj: dict[int, set[int]] = {v: set() for v in net.vertices}
    for e in net.edges:
        adj[e.tail].add(e.head)
        adj[e.head].add(e.tail)
    return adj


def torso_adjacency(tree: DecompositionTree, comp_id: int) -> Adjacency:
    """Component underlying graph plus phantom clique-completion edges."""
    comp = tree.components[comp_id]
    adj = {v: set(nbrs) for v, nbrs in underlying(comp.net).items()}
    for kid in sorted(tree.comp_cliques[comp_id]):
        verts = sorted(tree.cliques[kid].vertices)
        for u, v in itertools.combinations(verts, 2):
            adj[u].add(v)
            adj[v].add(u)
    return adj


def single_component_tree(net: FlowNetwork) -> DecompositionTree:
    tree = DecompositionTree()
    tree.add_component(net, PLANAR if is_planar(underlying(net)) else BTW)
    return tree


# ---------------------------------------------------------------------------
# Structural splits


def biconnected_split(
    adj: Adjacency,
) -> tuple[list[tuple[frozenset[int], frozenset[frozenset[int]]]], frozenset[int]]:
    """Standard block-cut decomposition of a connected undirected graph.

    Returns edge-disjoint blocks as (vertices, pairs) plus the articulation
    vertices; isolated vertices become single-vertex blocks.
    """
    g = to_nx(adj)
    blocks: list[tuple[frozenset[int], frozenset[frozenset[int]]]] = []
    covered: set[int] = set()
    for comp_edges in nx.biconnected_component_edges(g):
        pairs = frozenset(frozenset(e) for e in comp_edges)
        verts = frozenset(w for p in pairs for w in p)
        blocks.append((verts, pairs))
        covered |= verts
    for v in sorted(set(adj) - covered):
        blocks.append((frozenset((v,)), frozenset()))
    blocks.sort(key=lambda b: sorted(b[0]))
    return blocks, frozenset(nx.articulation_points(g))


# A piece of a split component: its vertex set and its torso pairs.
Piece = tuple[frozenset[int], frozenset[frozenset[int]]]


def _split(
    tree: DecompositionTree,
    comp_id: int,
    pieces: Sequence[Piece],
    cliques: Sequence[tuple[frozenset[int], Sequence[int]]],
) -> None:
    """Swap one component for edge-disjoint pieces glued at new cliques.

    Each edge goes to the first piece whose pairs hold its ends; a piece is
    labelled planar when its torso is.  ``cliques`` lists (vertex set, piece
    indexes).  Pre-existing incident cliques are merged with a coinciding
    new clique when one exists, otherwise reattached to the first piece
    containing them.
    """
    owned: list[list[Edge]] = [[] for _ in pieces]
    for e in sorted(tree.components[comp_id].net.edges, key=lambda e: e.id):
        pair = frozenset((e.tail, e.head))
        owned[next(i for i, (_, pairs) in enumerate(pieces) if pair in pairs)].append(e)
    old_cliques = sorted(tree.comp_cliques[comp_id])
    tree.remove_component(comp_id)
    ids: list[int] = []
    for (verts, pairs), edges in zip(pieces, owned):
        label = PLANAR if is_planar(adjacency(verts, pairs)) else BTW
        ids.append(tree.add_component(FlowNetwork(verts, tuple(edges)), label))
    grouped: dict[frozenset[int], set[int]] = {}
    for verts, members in cliques:
        grouped.setdefault(frozenset(verts), set()).update(ids[i] for i in members)
    for kid in old_cliques:
        kverts = tree.cliques[kid].vertices
        if kverts in grouped:
            for cid in sorted(grouped.pop(kverts)):
                tree.attach(cid, kid)
            continue
        homes = [cid for cid in ids if kverts <= tree.components[cid].net.vertices]
        if not homes:
            raise InvalidDecomposition(
                f"no piece contains clique {sorted(kverts)} after splitting"
            )
        tree.attach(homes[0], kid)
    for verts in sorted(grouped, key=sorted):
        kid = tree.add_clique(verts)
        for cid in sorted(grouped[verts]):
            tree.attach(cid, kid)


def _block_pass(tree: DecompositionTree) -> None:
    for cid in sorted(tree.components):
        torso = torso_adjacency(tree, cid)
        if not torso:
            continue
        if len(components(torso)) > 1:
            raise InvalidDecomposition(f"component {cid} has a disconnected torso")
        blocks, _ = biconnected_split(torso)
        if len(blocks) <= 1:
            continue
        arts: dict[frozenset[int], list[int]] = {}
        for v in sorted(set.union(*(set(b[0]) for b in blocks))):
            holders = [i for i, (verts, _) in enumerate(blocks) if v in verts]
            if len(holders) > 1:
                arts[frozenset((v,))] = holders
        _split(tree, cid, blocks, sorted(arts.items(), key=lambda kv: sorted(kv[0])))


def _spqr_pass(tree: DecompositionTree) -> None:
    for cid in sorted(tree.components):
        torso = torso_adjacency(tree, cid)
        n_pairs = sum(len(s) for s in torso.values()) // 2
        if len(torso) <= 2 or n_pairs <= 1:
            continue
        stree = spqr(torso)
        if len(stree.nodes) > 1:
            _apply_spqr_split(tree, cid, stree)


def _apply_spqr_split(tree: DecompositionTree, cid: int, stree: SpqrTree) -> None:
    """One piece per S or R node, holding all of its skeleton pairs; a P
    node becomes a clique, and its real edge lands in its lowest attached
    piece, the first that holds its pair."""
    node_ids = sorted(stree.nodes)
    non_p = [nid for nid in node_ids if stree.nodes[nid].kind != spqr_mod.P]
    piece_index = {nid: i for i, nid in enumerate(non_p)}
    pieces = [
        (frozenset(stree.nodes[nid].vertices), frozenset(e.pair for e in stree.nodes[nid].edges))
        for nid in non_p
    ]
    cliques: list[tuple[frozenset[int], list[int]]] = []
    for nid in node_ids:
        node = stree.nodes[nid]
        if node.kind == spqr_mod.P:
            attached = sorted(piece_index[other] for _, other in stree.neighbors(nid))
            cliques.append((frozenset(node.vertices), attached))
    for link, (a, b) in sorted(stree.tree_edges.items()):
        if stree.nodes[a].kind == spqr_mod.P or stree.nodes[b].kind == spqr_mod.P:
            continue
        virt = next(e for e in stree.nodes[a].edges if e.link == link)
        cliques.append((virt.pair, sorted((piece_index[a], piece_index[b]))))
    _split(tree, cid, pieces, cliques)


def _triangle_pass(tree: DecompositionTree) -> bool:
    changed = False
    for cid in sorted(tree.components):
        comp = tree.components[cid]
        if comp.label.kind == "btw":
            continue
        tri_cliques = [
            kid
            for kid in sorted(tree.comp_cliques[cid])
            if len(tree.cliques[kid].vertices) == 3
        ]
        if not tri_cliques:
            continue
        torso = torso_adjacency(tree, cid)
        emb = planar_embed(torso)
        if emb is None:
            continue
        for kid in tri_cliques:
            tri = tree.cliques[kid].vertices
            if emb.is_triangle_face(tri):
                continue
            _split_at_triangle(tree, cid, torso, tri)
            changed = True
            break  # component replaced; revisit the new pieces next sweep
    return changed


def _split_at_triangle(
    tree: DecompositionTree, cid: int, torso: Adjacency, tri: frozenset[int]
) -> None:
    parts = components(torso, tri)
    if len(parts) < 2:
        raise InvalidDecomposition(
            f"gluing triangle {sorted(tri)} of component {cid} is neither a face nor separating"
        )
    pieces = []
    for part in parts:
        verts = frozenset(part | tri)
        pairs = frozenset(frozenset((u, w)) for u in verts for w in torso[u] if w in verts)
        pieces.append((verts, pairs))
    _split(tree, cid, pieces, [(tri, list(range(len(pieces))))])


def separating_triangles(
    component: FlowNetwork,
    triangles: Sequence[Iterable[int]],
) -> list[FlowNetwork]:
    """Split a triconnected planar component at every gluing triangle that is
    not a face, recursively, until each listed triangle is a face of its
    piece.  Returns the pieces (the input unchanged when nothing splits)."""
    tree = DecompositionTree()
    cid = tree.add_component(component, PLANAR)
    for tri in triangles:
        kid = tree.add_clique(tri)
        tree.attach(cid, kid)
    while _triangle_pass(tree):
        pass
    return [tree.components[c].net for c in sorted(tree.components)]


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

_V8 = nx.Graph(
    [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
)


def _is_k5(adj: Adjacency) -> bool:
    return len(adj) == 5 and all(len(adj[v]) == 4 for v in adj)


def _is_v8(adj: Adjacency) -> bool:
    if len(adj) != 8 or any(len(adj[v]) != 3 for v in adj):
        return False
    return nx.is_isomorphic(to_nx(adj), _V8)


def _structure_tree(net: FlowNetwork) -> DecompositionTree:
    """Blocks plus SPQR splits of every component (1- and 2-sums only)."""
    adj = underlying(net)
    if len(components(adj)) > 1:
        raise InvalidDecomposition("decomposers require a connected input graph")
    tree = single_component_tree(net)
    _block_pass(tree)
    _spqr_pass(tree)
    return tree


def decompose_k33_free(net: FlowNetwork) -> DecompositionTree:
    """Clique-sum decomposition with planar and K5 components (2-sums).

    Raises NotK33MinorFree when some triconnected component is neither.
    """
    tree = _structure_tree(net)
    for cid in sorted(tree.components):
        if tree.components[cid].label.kind == "planar":
            continue
        torso = torso_adjacency(tree, cid)
        if not _is_k5(torso):
            raise NotK33MinorFree(
                f"triconnected component on vertices {sorted(torso)} is neither planar nor K5"
            )
    return tree


def decompose_k5_free(net: FlowNetwork) -> DecompositionTree:
    """Clique-sum decomposition with planar and Wagner-graph components
    (1-, 2-, and 3-sums).  Raises NotK5MinorFree when impossible."""
    tree = _structure_tree(net)
    memo: dict[tuple[frozenset[int], frozenset[frozenset[int]]], object] = {}
    for cid in sorted(tree.components):
        if tree.components[cid].label.kind == "planar":
            continue
        torso = torso_adjacency(tree, cid)
        if _is_v8(torso):
            continue
        verts = frozenset(torso)
        pairs = frozenset(
            frozenset((u, v)) for u in torso for v in torso[u] if u < v
        )
        result = _split_k5(verts, pairs, memo)
        if result is None:
            raise NotK5MinorFree(
                f"component on vertices {sorted(verts)} is not a 3-sum of planar and Wagner pieces"
            )
        _split(tree, cid, *result)
    return tree


def _separating_triples(adj: Adjacency) -> list[tuple[int, ...]]:
    triples: set[tuple[int, ...]] = set()
    for a, b in itertools.combinations(sorted(adj), 2):
        sub = {v: {w for w in adj[v] if w not in (a, b)} for v in adj if v not in (a, b)}
        for c in nx.articulation_points(to_nx(sub)):
            triples.add(tuple(sorted((a, b, c))))
    return sorted(triples)


_K5Result = tuple[list[Piece], list[tuple[frozenset[int], list[int]]]]


def _split_k5(
    verts: frozenset[int],
    pairs: frozenset[frozenset[int]],
    memo: dict,
) -> _K5Result | None:
    """Recursive 3-cut refinement of a 3-connected nonplanar torso.

    Sides carry the completed cut triangle.  Tries separating triples in
    lexicographic order with full backtracking: a K5-free graph can have
    3-cuts whose completed sides are not K5-free, so greedy choice is not
    complete.  Returns (pieces, cliques) with clique piece indexes, or None.
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


# Largest component a "btw" label may carry (K5 and the Wagner graph fit).
_BTW_CAP = 10


def validate(graph: FlowNetwork, tree: DecompositionTree) -> tuple[bool, list[str]]:
    """Check every decomposition-tree invariant plus label truthfulness."""
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
        if len(tree.clique_comps[kid]) < 2:
            problems.append(f"clique {kid} attached to fewer than 2 components")
    if n_edges != len(comp_ids) + len(clique_ids) - 1:
        problems.append("tree edge count is not nodes-1 (not a tree)")
    reached = tree.walk([("c", comp_ids[0])])
    if len(reached) != len(comp_ids) + len(clique_ids):
        problems.append("tree is disconnected")
    # Clique containment.
    for kid in clique_ids:
        for cid in sorted(tree.clique_comps[kid]):
            if not tree.cliques[kid].vertices <= tree.components[cid].net.vertices:
                problems.append(f"clique {kid} vertices missing from component {cid}")
    shape_ok = not problems
    # Edge partition and exact reassembly.
    by_id: dict[int, tuple[int, Edge]] = {}
    for cid in comp_ids:
        for e in tree.components[cid].net.edges:
            if e.id in by_id:
                problems.append(f"edge {e.id} appears in components {by_id[e.id][0]} and {cid}")
            by_id[e.id] = (cid, e)
    graph_edges = {e.id: e for e in graph.edges}
    if set(by_id) != set(graph_edges):
        missing = sorted(set(graph_edges) - set(by_id))[:5]
        extra = sorted(set(by_id) - set(graph_edges))[:5]
        problems.append(f"edge sets differ (missing {missing}, extra {extra})")
    else:
        for eid, (cid, e) in by_id.items():
            if e != graph_edges[eid]:
                problems.append(f"edge {eid} differs from the input edge")
    if tree.all_vertices() != graph.vertices:
        problems.append("vertex union differs from the input network")
    # Running intersection: in a tree whose cliques lie inside their
    # components, the nodes holding v span as many tree edges as the cliques
    # holding v have components, so they form one subtree exactly when they
    # number one more than those edges.
    if shape_ok:
        excess: dict[int, int] = {}
        for cid in comp_ids:
            for v in tree.components[cid].net.vertices:
                excess[v] = excess.get(v, 0) + 1
        for kid in clique_ids:
            for v in tree.cliques[kid].vertices:
                excess[v] += 1 - len(tree.clique_comps[kid])
        for v, count in sorted(excess.items()):
            if count != 1:
                problems.append(f"vertex {v} is shared outside its cliques")
    # Torso connectivity and label truthfulness.
    for cid in comp_ids:
        comp = tree.components[cid]
        torso = torso_adjacency(tree, cid)
        if len(components(torso)) > 1:
            problems.append(f"component {cid} torso is disconnected")
        if comp.label.kind == "planar" and not is_planar(torso):
            problems.append(f"component {cid} labeled planar but torso is not")
        if comp.label.kind == "btw" and len(comp.net.vertices) > _BTW_CAP:
            problems.append(
                f"component {cid} labeled btw exceeds the size cap {_BTW_CAP}"
            )
    return (not problems, problems)
