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
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .network import Edge, FlowNetwork, merge_networks
from .planar import (
    Adjacency,
    adjacency,
    articulation_points,
    components,
    is_planar,
    lowpoint_dfs,
    lr_planarity,
    planar_embed,  # unused here: the benchmark's traced run wraps this binding by name
)
from . import spqr as spqr_mod
from .spqr import spqr


class NotK33MinorFree(Exception):
    pass


class NotK5MinorFree(Exception):
    pass


class InvalidDecomposition(Exception):
    pass


class DisconnectedInput(InvalidDecomposition):
    """A family decomposer was given a disconnected network."""


@dataclass
class DecompositionTree:
    """Components (edge-disjoint networks) and cliques (vertex sets of size
    1..3), each keyed by its id, and the tree edges as both incidence maps."""

    components: dict[int, FlowNetwork] = field(default_factory=dict)
    cliques: dict[int, frozenset[int]] = field(default_factory=dict)
    comp_cliques: dict[int, set[int]] = field(default_factory=dict)
    clique_comps: dict[int, set[int]] = field(default_factory=dict)

    # One past the largest live id, kept so that adding a node is O(1); -1
    # when unknown: on a new tree, which parsers and ``copy`` fill directly.
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
        self.components[cid] = net
        self._next_component = cid + 1
        self.comp_cliques[cid] = set()
        return cid

    def add_clique(self, vertices: Iterable[int]) -> int:
        vertices = frozenset(vertices)
        if not 1 <= len(vertices) <= 3:
            raise InvalidDecomposition(f"clique size {len(vertices)} out of range 1..3")
        kid = self.next_clique_id()
        self.cliques[kid] = vertices
        self._next_clique = kid + 1
        self.clique_comps[kid] = set()
        return kid

    def attach(self, comp_id: int, clique_id: int) -> None:
        self.comp_cliques[comp_id].add(clique_id)
        self.clique_comps[clique_id].add(comp_id)

    def copy(self) -> "DecompositionTree":
        # Networks and cliques are immutable and shared; incidence maps are copied.
        t = DecompositionTree()
        t.components = dict(self.components)
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
        return merge_networks(*(net for _, net in sorted(self.components.items())))

def underlying(net: FlowNetwork) -> Adjacency:
    return adjacency(net.vertices, ((e.tail, e.head) for e in net.edges))


def torso_adjacency(tree: DecompositionTree, comp_id: int) -> Adjacency:
    """Component underlying graph plus phantom clique-completion edges."""
    adj = underlying(tree.components[comp_id])
    for kid in tree.comp_cliques[comp_id]:
        for u, v in itertools.combinations(tree.cliques[kid], 2):
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
# Pieces, and the cliques that glue them as (vertex set, piece indexes).
_Split = tuple[list[Piece], list[tuple[frozenset[int], list[int]]]]


def _build(tree: DecompositionTree, splits: dict[int, _Split]) -> DecompositionTree:
    """A new tree with each component ``cid`` of ``splits`` swapped for the
    pieces of ``splits[cid]`` (one piece leaves it whole), glued at its cliques.

    Each edge goes to the first piece whose pairs hold its ends.  An input
    clique of a split component merges with a coinciding new clique of that
    split, or else joins the first piece that contains it.  Unsplit
    components and input cliques keep their ids; pieces take consecutive ids
    past the largest kept component id, new cliques past the largest input
    clique id."""
    splits = {cid: split for cid, split in sorted(splits.items()) if len(split[0]) > 1}
    out = DecompositionTree()
    for cid, net in tree.components.items():
        if cid not in splits:
            out.components[cid] = net
            out.comp_cliques[cid] = set(tree.comp_cliques[cid])
    out.cliques = dict(tree.cliques)
    out.clique_comps = {kid: comps.difference(splits) for kid, comps in tree.clique_comps.items()}
    for cid, (pieces, cliques) in splits.items():
        first_holder: dict[frozenset[int], int] = {}
        holders: dict[int, list[int]] = {}
        for i, (verts, pairs) in enumerate(pieces):
            for pair in pairs:
                first_holder.setdefault(pair, i)
            for v in verts:
                holders.setdefault(v, []).append(i)
        owned: list[list[Edge]] = [[] for _ in pieces]
        for e in sorted(tree.components[cid].edges, key=lambda e: e.id):
            owned[first_holder[frozenset((e.tail, e.head))]].append(e)
        ids = [out.add_component(FlowNetwork(v, tuple(es))) for (v, _), es in zip(pieces, owned)]
        grouped: dict[frozenset[int], set[int]] = {}
        for verts, members in cliques:
            grouped.setdefault(frozenset(verts), set()).update(ids[i] for i in members)
        for kid in sorted(tree.comp_cliques[cid]):
            kverts = tree.cliques[kid]
            if kverts in grouped:
                for c in sorted(grouped.pop(kverts)):
                    out.attach(c, kid)
                continue
            # A clique inside its component lies inside one of the pieces.
            home = next(i for i in holders[min(kverts)] if kverts <= pieces[i][0])
            out.attach(ids[home], kid)
        for verts in sorted(grouped, key=sorted):
            kid = out.add_clique(verts)
            for c in sorted(grouped[verts]):
                out.attach(c, kid)
    return out


def _compose(outer: _Split, inner: Sequence[_Split | None]) -> _Split:
    """Split each piece i of ``outer`` again into ``inner[i]`` (None keeps
    it whole), in place, so the piece order stays nested.

    An outer clique joins, in place of each piece it had, the first of that
    piece's inner pieces that holds it, as ``_build`` reattaches the cliques
    a component already has.  An edge's first holder also lies among the
    inner pieces of its outer one, so one ``_build`` of the result gives the
    tree that splitting level by level gives."""
    if not any(inner):
        return outer
    subs = [sub or ([piece], []) for piece, sub in zip(outer[0], inner)]
    start = list(itertools.accumulate((len(sub[0]) for sub in subs), initial=0))
    pieces = [piece for sub_pieces, _ in subs for piece in sub_pieces]
    cliques = [
        (verts, [start[k] + i for i in members])
        for k, (_, sub_cliques) in enumerate(subs)
        for verts, members in sub_cliques
    ]
    for verts, members in outer[1]:
        homes = [next(j for j, (pv, _) in enumerate(subs[i][0]) if verts <= pv) for i in members]
        cliques.append((verts, [start[i] + j for i, j in zip(members, homes)]))
    return pieces, cliques


def _block_pieces(adj: Adjacency) -> _Split:
    """The blocks of ``adj`` (see ``biconnected_split``), glued at one clique
    per articulation vertex, which joins every block holding it."""
    blocks, arts = biconnected_split(adj)
    holders: dict[int, list[int]] = {v: [] for v in arts}
    for i, (verts, _) in enumerate(blocks):
        for v in verts & arts:
            holders[v].append(i)
    return blocks, [(frozenset((v,)), holders[v]) for v in sorted(arts)]


def _spqr_pieces(adj: Adjacency) -> _Split | None:
    """The pieces of the SPQR tree of the biconnected graph ``adj``; None
    when it has one node, or ``adj`` is a vertex or an edge.

    One piece per S or R node, holding all of its skeleton pairs; a P
    node becomes a clique, and its real edge lands in its lowest attached
    piece, the first that holds its pair.

    Pieces are ordered by their sorted vertex lists, not by SPQR node id:
    two S or R nodes share at most two vertices, so the order is total, and
    the split (which piece keeps an old clique, which holds a P node's
    edge) depends only on the tree, not on how ``spqr`` numbers it."""
    if len(adj) <= 2:
        return None
    stree = spqr(adj)
    if len(stree.nodes) <= 1:
        return None
    verts = {nid: node.vertices for nid, node in stree.nodes.items() if node.kind != spqr_mod.P}
    non_p = sorted(verts, key=lambda nid: sorted(verts[nid]))
    piece_index = {nid: i for i, nid in enumerate(non_p)}
    pieces = [
        (frozenset(verts[nid]), frozenset(e.pair for e in stree.nodes[nid].edges))
        for nid in non_p
    ]
    # One clique per tree edge, on its virtual pair; ``_build`` merges those
    # of one P node.
    pair = {e.link: e.pair for node in stree.nodes.values() for e in node.edges if e.virtual}
    return pieces, [
        (pair[link], sorted(piece_index[nid] for nid in ends if nid in piece_index))
        for link, ends in sorted(stree.tree_edges.items())
    ]


def _sides(adj: Adjacency, sep: frozenset[int]) -> _Split | None:
    """The sides of ``adj`` at the vertex set ``sep``, glued at one clique
    on it; None when ``sep`` does not separate ``adj``.  One side per
    component of ``adj - sep``, ordered by its smallest vertex, holding
    ``sep`` and completed by every pair inside it."""
    parts = components(adj, sep)
    if len(parts) < 2:
        return None
    sep_pairs = frozenset(frozenset(p) for p in itertools.combinations(sep, 2))
    pieces = []
    for part in parts:
        pairs = frozenset(frozenset((u, w)) for u in part for w in adj[u])
        pieces.append((frozenset(part | sep), pairs | sep_pairs))
    return pieces, [(sep, list(range(len(pieces))))]


def _triangle_pieces(piece: Piece, triangles: Sequence[frozenset[int]]) -> _Split | None:
    """The sides of a planar ``piece`` at the ``triangles`` inside it: split
    at the first that separates it, then each side the same way; None when
    none separates or the piece is not planar.

    A block or SPQR piece is a cycle, a 3-connected graph or at most three
    vertices, and a triangle of a 3-connected planar graph is a face exactly
    when it does not separate it (Whitney), so no embedding is needed.  The
    sides are smaller 3-connected planar graphs, so planarity is tested once."""
    inside = [tri for tri in triangles if tri <= piece[0]]
    if not inside or not is_planar(adjacency(*piece)):
        return None

    def split(verts: frozenset[int], pairs: frozenset[frozenset[int]]) -> _Split | None:
        adj = adjacency(verts, pairs)
        for tri in inside:
            sides = _sides(adj, tri) if tri <= verts else None
            if sides is not None:
                return _compose(sides, [split(*side) for side in sides[0]])
        return None

    return split(*piece)


def refine(tree: DecompositionTree) -> DecompositionTree:
    """Split components until every piece is biconnected and triconnected and
    every gluing triangle of every planar component is one of its faces.

    Each component's blocks, their SPQR pieces and those pieces' sides at
    separating gluing triangles compose into one split, and one ``_build``
    makes the new tree.  Reassembly is unchanged; refining twice equals
    refining once."""
    splits: dict[int, _Split] = {}
    for cid in sorted(tree.components):
        triangles = []
        for kid in sorted(tree.comp_cliques[cid]):
            clique = tree.cliques.get(kid)
            if clique is None:
                raise InvalidDecomposition(f"component {cid} attached to missing clique {kid}")
            if not clique <= tree.components[cid].vertices:
                raise InvalidDecomposition(f"clique {kid} vertices missing from component {cid}")
            if len(clique) == 3:
                triangles.append(clique)
        torso = torso_adjacency(tree, cid)
        if len(components(torso)) > 1:
            raise InvalidDecomposition(f"component {cid} has a disconnected torso")
        blocks = _block_pieces(torso)
        spqrs = [_spqr_pieces(adjacency(*block)) or ([block], []) for block in blocks[0]]
        subs = [_compose(sp, [_triangle_pieces(p, triangles) for p in sp[0]]) for sp in spqrs]
        splits[cid] = _compose(blocks, subs)
    return _build(tree, splits)


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


def _decompose(
    net: FlowNetwork, split_piece: Callable[[Piece], _Split | None]
) -> DecompositionTree:
    """Split ``net`` into its blocks (1-sums), test each block for planarity
    once, and split only the non-planar ones into their SPQR pieces (2-sums),
    each of which ``split_piece`` splits again (None keeps it whole) or
    rejects by raising.  One ``_build`` makes the tree, so a network is
    built only for each final component.

    Planar blocks are kept whole: every triconnected piece of a planar block
    is planar, so they need no further test, and ``refine`` recovers their
    pieces when asked."""
    adj = underlying(net)
    if len(components(adj)) > 1:
        raise DisconnectedInput("decomposers require a connected input graph")

    def split_block(block: Piece) -> _Split | None:
        block_adj = adjacency(*block)
        if is_planar(block_adj):
            return None
        spqr_pieces = _spqr_pieces(block_adj) or ([block], [])
        return _compose(spqr_pieces, [split_piece(piece) for piece in spqr_pieces[0]])

    blocks = _block_pieces(adj)
    split = _compose(blocks, [split_block(block) for block in blocks[0]])
    return _build(single_component_tree(net), {0: split})


def decompose_k33_free(net: FlowNetwork) -> DecompositionTree:
    """Clique-sum decomposition with planar and K5 components (1- and
    2-sums): each planar block whole, and the triconnected pieces of each
    non-planar block.  Raises NotK33MinorFree when some piece of a
    non-planar block is neither planar nor K5."""

    def check(piece: Piece) -> None:
        adj = adjacency(*piece)
        if not (is_planar(adj) or _is_k5(adj)):
            raise NotK33MinorFree(
                f"triconnected component on vertices {sorted(adj)} is neither planar nor K5"
            )

    return _decompose(net, check)


def decompose_k5_free(net: FlowNetwork) -> DecompositionTree:
    """Clique-sum decomposition with planar and Wagner-graph components
    (1-, 2-, and 3-sums): each planar block whole, and the triconnected
    pieces of each non-planar block, split again at separating triples
    (``_split_k5``) until every piece is planar or V8.  Raises
    NotK5MinorFree when impossible."""
    memo: dict[Piece, _Split | None] = {}

    def split(piece: Piece) -> _Split | None:
        verts, pairs = piece
        if len(pairs) == len(verts):
            return None  # an S piece: a cycle is planar
        # An R piece or a 3-connected block; _split_k5 tests planar / V8 first.
        result = _split_k5(verts, pairs, memo)
        if result is None:
            raise NotK5MinorFree(
                f"component on vertices {sorted(verts)} is not a 3-sum of planar and Wagner pieces"
            )
        return result

    return _decompose(net, split)


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


def _split_k5(
    verts: frozenset[int],
    pairs: frozenset[frozenset[int]],
    memo: dict,
) -> _Split | None:
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
    result: _Split | None = None
    if is_planar(adj) or _is_v8(adj):
        result = [key], []
    else:
        for triple in _separating_triples(adj):
            sides = _sides(adj, frozenset(triple))
            if sides is None:
                continue
            subs: list[_Split | None] = []
            for side in sides[0]:
                subs.append(_split_k5(*side, memo))
                if subs[-1] is None:
                    break
            else:
                result = _compose(sides, subs)
                break
    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Validation


# Largest component whose torso need not be planar (K5 and the Wagner graph fit).
_SMALL_CAP = 10


def _connected(nbrs: list[set[int]]) -> bool:
    """Whether the graph on 0..n-1 with neighbour sets ``nbrs`` is connected
    (one with at most one vertex is): a search from vertex 0."""
    n = len(nbrs)
    reach = {0}
    todo = [0]
    for v in todo:
        if len(reach) >= n:
            break
        new = nbrs[v] - reach
        reach |= new
        todo += new
    return len(reach) >= n


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
    listed = 0  # tree edges that both incidence maps hold
    for cid in comp_ids:
        for kid in tree.comp_cliques[cid]:
            if kid not in tree.cliques:
                problems.append(f"component {cid} attached to missing clique {kid}")
            elif cid in tree.clique_comps[kid]:
                listed += 1
            else:
                problems.append(f"component {cid} lists clique {kid}, which does not list it")
            n_edges += 1
    # Every clique-side edge is one of those ``listed`` unless the counts differ.
    if listed != sum(len(tree.clique_comps[kid]) for kid in clique_ids):
        for kid in clique_ids:
            for cid in sorted(tree.clique_comps[kid]):
                if cid not in tree.components:
                    problems.append(f"clique {kid} attached to missing component {cid}")
                elif kid not in tree.comp_cliques[cid]:
                    problems.append(f"clique {kid} lists component {cid}, which does not list it")
    dangling = bool(problems)  # the walk needs nodes that exist and maps that agree
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
    # A torso is built once, as index lists; one ``lr_planarity`` run answers
    # both questions above the cap, and a plain search connectivity below it.
    graph_edges = graph.edge_by_id
    held: list[int] = []  # each component's vertices, one after another
    owner: dict[int, int] = {}  # edge id -> the last component holding it
    outside: list[tuple[int, int]] = []  # (clique, component) lacking some of its vertices
    edge_problems: list[str] = []
    torso_problems: list[str] = []
    for cid in comp_ids:
        net = tree.components[cid]
        verts = net.vertices
        held += verts
        index = {v: i for i, v in enumerate(verts)}
        torso: list[set[int]] = [set() for _ in verts]
        for e in net.edges:
            eid, tail, head = e.id, e.tail, e.head
            prev = owner.setdefault(eid, cid)
            if prev != cid:
                edge_problems.append(f"edge {eid} appears in components {prev} and {cid}")
                owner[eid] = cid
            # Generated trees share the input's Edge objects; parsed ones
            # hold their own, so only those are compared field by field.
            g = graph_edges.get(eid, e)
            if e is not g and (tail != g.tail or head != g.head or e.cap != g.cap):
                edge_problems.append(f"edge {eid} differs from the input edge")
            a, b = index[tail], index[head]
            torso[a].add(b)
            torso[b].add(a)
        whole = True  # every clique exists and lies inside: the torso is complete
        for kid in tree.comp_cliques[cid]:
            k = tree.cliques.get(kid)
            if k is None:
                whole = False
            elif k <= verts:
                for u, v in itertools.combinations(k, 2):
                    a, b = index[u], index[v]
                    torso[a].add(b)
                    torso[b].add(a)
            else:
                outside.append((kid, cid))
                whole = False
        if not whole:
            continue
        if len(torso) > _SMALL_CAP:
            roots, planar = lr_planarity(torso)
            connected = roots == 1
        else:
            connected, planar = _connected(torso), True
        if not connected:
            torso_problems.append(f"component {cid} torso is disconnected")
        if not planar:
            torso_problems.append(
                f"component {cid} torso is not planar and has more than {_SMALL_CAP} vertices"
            )
    holders = Counter(held)  # vertex -> number of components holding it
    problems += [f"clique {k} vertices missing from component {c}" for k, c in sorted(outside)]
    shape_ok = not problems
    # A hand-built tree can hold any vertex set as a clique; the running
    # intersection below does not depend on the size.
    problems += [
        f"clique {kid} size {len(tree.cliques[kid])} out of range 1..3"
        for kid in clique_ids
        if not 1 <= len(tree.cliques[kid]) <= 3
    ]
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
            for v in tree.cliques[kid]:
                holders[v] += 1 - len(tree.clique_comps[kid])
        for v in sorted(v for v, count in holders.items() if count != 1):
            problems.append(f"vertex {v} is shared outside its cliques")
    problems += torso_problems
    return (not problems, problems)
