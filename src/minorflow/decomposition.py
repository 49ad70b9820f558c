"""Clique-sum decomposition trees: construction, refinement, validation.

A decomposition is a 2-colored tree of component nodes (edge-disjoint
subnetworks, without the clique edges a clique-sum removes) and clique nodes
(shared vertex sets of size 1..3).  Splits work on a component's *torso*,
its underlying simple graph plus a phantom edge per pair inside each clique,
in index space: pieces are index lists, and ``_build`` maps the final pieces
back to vertex ids once.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Generator, Iterable, Iterator, Sequence

from .network import Edge, FlowNetwork, merge_networks
from .planar import Adjacency, adjacency, articulation_points, components, is_planar
from .planar import lowpoint_dfs, lr_planarity
from .planar import planar_embed  # unused here: the benchmark's traced run wraps this binding
from .spqr import P, spqr


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

    def add_component(self, net: FlowNetwork) -> int:
        if self._next_component < 0:
            self._next_component = max(self.components, default=-1) + 1
        cid = self._next_component
        self.components[cid] = net
        self._next_component = cid + 1
        self.comp_cliques[cid] = set()
        return cid

    def add_clique(self, vertices: Iterable[int]) -> int:
        vertices = frozenset(vertices)
        if not 1 <= len(vertices) <= 3:
            raise InvalidDecomposition(f"clique size {len(vertices)} out of range 1..3")
        if self._next_clique < 0:
            self._next_clique = max(self.cliques, default=-1) + 1
        kid = self._next_clique
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


def single_component_tree(net: FlowNetwork) -> DecompositionTree:
    tree = DecompositionTree()
    tree.add_component(net)
    return tree


def run(task: Generator):
    """The return value of generator ``task``, which writes each self-call as
    ``(yield f(x))``: the yield gives f(x)'s return value, with no recursion."""
    stack, value = [task], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


# ---------------------------------------------------------------------------
# Structural splits
#
# Vertices are numbered once in sorted order, so sorting indexes sorts ids.
# A piece is its indexes, ascending, and its torso pairs as a flat tuple a0,
# b0, a1, b1, ... of positions in them (a < b); a clique is its indexes and
# its pieces' positions.  A split is (pieces, cliques, subs), subs[i]
# splitting piece i again or, when false (None or ()), keeping it whole.
Piece = tuple[tuple[int, ...], tuple[int, ...]]
Clique = tuple[tuple[int, ...], list[int]]
_Level = tuple[list[Piece], list[Clique]]
_Split = tuple[list[Piece], list[Clique], list]


def _nbrs(piece: Piece) -> list[list[int]]:
    """The index adjacency lists of ``piece``: position i's neighbours at i."""
    pairs = piece[1]
    nbrs: list[list[int]] = [[] for _ in piece[0]]
    for a, b in zip(pairs[::2], pairs[1::2]):
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def _piece(verts: Sequence[int], local: list[int], pairs: list[int], pos: list[int]) -> Piece:
    """The piece on positions ``local`` of a piece on ``verts``, with ``pairs``
    of those positions; ``pos`` is scratch space."""
    for i, x in enumerate(local):
        pos[x] = i
    return tuple([verts[x] for x in local]), tuple([pos[x] for x in pairs])


def biconnected_split(nbrs: Sequence[Sequence[int]]) -> tuple[list[Piece], set[int]]:
    """Block-cut decomposition of the undirected graph with index adjacency
    lists ``nbrs``: its blocks as pieces in sorted vertex-list order, each
    isolated vertex a block alone, and its articulation vertices.  One
    ``lowpoint_dfs``: w heads a block when no frond from its subtree climbs
    above its parent (lowpt1[w] >= number[parent[w]]), every other vertex
    joins the block of its parent, and each edge the block of its deeper end."""
    n = len(nbrs)
    number, parent, low1, _, _ = lowpoint_dfs(nbrs)
    head = list(range(n))
    verts: dict[int, list[int]] = {}  # block head -> block vertices
    for v in sorted(range(n), key=number.__getitem__):  # preorder
        p = parent[v]
        if p >= 0:
            if low1[v] < number[p]:
                head[v] = head[p]
            verts.setdefault(head[v], [p]).append(v)
    ends: dict[int, list[int]] = {w: [] for w in verts}  # block head -> flat pairs
    for u, nu in enumerate(nbrs):
        for v in nu:
            if number[u] < number[v]:
                ends[head[v]] += (u, v) if u < v else (v, u)
    tops, pos = Counter(parent[w] for w in verts), [0] * n  # blocks each vertex tops; scratch
    blocks = [_piece(range(n), sorted(vs), ends[w], pos) for w, vs in verts.items()]
    blocks += [((v,), ()) for v in range(n) if parent[v] < 0 and v not in tops]
    blocks.sort()
    return blocks, {v for v, count in tops.items() if count + (parent[v] >= 0) > 1}


def _block_split(net: FlowNetwork, cliques: list) -> tuple[list[int], dict, _Level, int]:
    """The vertices of ``net`` in sorted order and their index map, the
    blocks of its torso (with each pair inside ``cliques``), glued at one
    clique per articulation vertex, and its connected parts: the block-cut
    forest has one tree for each."""
    order = sorted(net.vertices)
    n, index = len(order), {v: i for i, v in enumerate(order)}
    seen: set[int] = set()  # pairs a * n + b (a < b)
    nbrs: list[list[int]] = [[] for _ in order]
    clique_pairs = [pair for k in cliques for pair in itertools.combinations(k, 2)]
    for u, v in itertools.chain(((e.tail, e.head) for e in net.edges), clique_pairs):
        a, b = index[u], index[v]
        if (key := a * n + b if a < b else b * n + a) not in seen:
            seen.add(key)
            nbrs[a].append(b)
            nbrs[b].append(a)
    blocks, arts = biconnected_split(nbrs)
    holders: dict[int, list[int]] = {v: [] for v in arts}
    for i, (verts, _) in enumerate(blocks):
        for v in arts.intersection(verts):
            holders[v].append(i)
    parts = len(blocks) - sum(len(h) - 1 for h in holders.values())
    return order, index, (blocks, [((v,), holders[v]) for v in sorted(arts)]), parts


def _flatten(split: _Split, pending: list[Clique]) -> _Level:
    """The final pieces of ``split`` in nested order, and its cliques with the
    final pieces they join: for a piece split again, the first one inside
    that holds the clique, as ``_build`` reattaches old cliques; so is each
    of ``pending`` placed, by one walk on ``run``, so at any nesting depth.
    One ``_build`` then gives the level-by-level tree."""
    pieces: list[Piece] = []
    cliques: list[Clique] = []

    def visit(split: _Split, pending: list[Clique]) -> Generator:
        level, glue, subs = split
        waiting: list[list[Clique]] = [[] for _ in level]
        for verts, members in glue:
            cliques.append((verts, []))
            for i in members:
                waiting[i].append(cliques[-1])
        need = {v for verts, _ in pending for v in verts}
        holders: dict[int, list[int]] = {v: [] for v in need}  # pieces holding each
        for i, (verts, _) in enumerate(level if need else ()):
            for v in need.intersection(verts):
                holders[v].append(i)
        for clique in pending:  # to the first piece holding all of its vertices
            first, *rest = (holders[v] for v in clique[0])
            waiting[min(set(first).intersection(*rest))].append(clique)
        for piece, sub, held in zip(level, subs, waiting):
            if sub:
                yield visit(sub, held)
                continue
            for _, members in held:
                members.append(len(pieces))
            pieces.append(piece)

    run(visit(split, pending))
    return pieces, cliques


def _build(tree: DecompositionTree, splits: dict[int, tuple]) -> DecompositionTree:
    """A new tree with each component ``cid`` of ``splits`` swapped for the
    final pieces of ``splits[cid]`` = (sorted vertices, index map, split).
    Each edge goes to the first piece whose pairs hold its ends; an input
    clique merges with a coinciding new clique or joins the first piece
    holding it.  Unsplit components and input cliques keep their ids; pieces
    take ids past the largest kept component, new cliques past the cliques."""
    flat = {}
    for cid, (order, index, split) in sorted(splits.items()):
        kids = sorted(tree.comp_cliques[cid])
        kept = [(tuple(sorted(index[v] for v in tree.cliques[kid])), []) for kid in kids]
        pieces, cliques = _flatten(split, kept)
        if len(pieces) > 1:
            flat[cid] = order, index, zip(kids, kept), pieces, cliques
    out = tree.copy()
    for cid in flat:
        del out.components[cid], out.comp_cliques[cid]
    out.clique_comps = {kid: comps.difference(flat) for kid, comps in out.clique_comps.items()}
    for cid, (order, index, kept, pieces, cliques) in flat.items():
        n = len(order)
        first_holder: dict[int, int] = {}  # pair a * n + b (a < b) -> piece
        for i in reversed(range(len(pieces))):
            verts, pairs = pieces[i]
            keys = [verts[a] * n + verts[b] for a, b in zip(pairs[::2], pairs[1::2])]
            first_holder.update(dict.fromkeys(keys, i))
        owned: list[list[Edge]] = [[] for _ in pieces]
        for e in sorted(tree.components[cid].edges, key=attrgetter("id")):
            a, b = index[e.tail], index[e.head]
            owned[first_holder[a * n + b if a < b else b * n + a]].append(e)
        ids = [
            out.add_component(FlowNetwork(frozenset(map(order.__getitem__, verts)), tuple(es)))
            for (verts, _), es in zip(pieces, owned)
        ]
        grouped: dict[tuple[int, ...], set[int]] = {}
        for verts, members in cliques:
            grouped.setdefault(verts, set()).update(ids[i] for i in members)
        for kid, (verts, homes) in kept:
            for c in sorted(grouped.pop(verts)) if verts in grouped else [ids[homes[0]]]:
                out.attach(c, kid)
        for verts in sorted(grouped):
            kid = out.add_clique(map(order.__getitem__, verts))
            for c in sorted(grouped[verts]):
                out.attach(c, kid)
    return out


def _spqr_split(block: Piece, nbrs: list[list[int]], split_piece: Callable) -> _Split:
    """The biconnected ``block`` (adjacency lists ``nbrs``) split into the
    pieces of its SPQR tree, each split again by ``split_piece``: one per S
    or R node with all its skeleton pairs, ordered by vertex list, so the
    split does not depend on how ``spqr`` numbers nodes; the block alone for
    one node.  A P node is a clique; its real edge lands in the first
    attached piece."""
    verts = block[0]
    stree = spqr(nbrs) if len(verts) > 2 else None
    if stree is None or len(stree.nodes) <= 1:
        return [block], [], [split_piece(block)]
    local = {nid: sorted(node.vertices) for nid, node in stree.nodes.items() if node.kind != P}
    non_p = sorted(local, key=local.__getitem__)
    pos = [0] * len(verts)
    pieces = [
        _piece(verts, local[nid], [x for e in stree.nodes[nid].edges for x in e[:2]], pos)
        for nid in non_p
    ]
    # One clique per tree edge, on its virtual pair; ``_build`` merges a P node's.
    pair = {e.link: (verts[e.u], verts[e.v]) for node in stree.nodes.values() for e in node.edges}
    place = {nid: i for i, nid in enumerate(non_p)}
    return pieces, [
        (pair[link], sorted(place[nid] for nid in ends if nid in place))
        for link, ends in sorted(stree.tree_edges.items())
    ], [split_piece(piece) for piece in pieces]


def _sides(piece: Piece, nbrs: list[list[int]], sep: tuple[int, ...]) -> _Level | None:
    """The sides of ``piece`` (adjacency lists ``nbrs``) at its positions
    ``sep``, glued at one clique on them, or None when ``sep`` does not
    separate it: one per component of the rest, ordered by smallest vertex,
    holding ``sep`` with every pair inside it."""
    parts = components(nbrs, sep)
    if len(parts) < 2:
        return None
    verts = piece[0]
    sides, pos = [], [0] * len(verts)
    for part in parts:
        pairs = [x for pair in itertools.combinations(sep, 2) for x in pair]
        for u in part:
            for w in nbrs[u]:
                if u < w or w in sep:
                    pairs += (u, w) if u < w else (w, u)
        sides.append(_piece(verts, sorted(part.union(sep)), pairs, pos))
    return sides, [(tuple([verts[s] for s in sep]), list(range(len(sides))))]


def _triangle_pieces(piece: Piece, triangles: list[tuple[int, ...]]) -> _Split | None:
    """The sides of a planar ``piece`` at the first of ``triangles`` inside
    it that separates it, then each side the same way (on ``run``, at any
    depth); None when none does or the piece is not planar.  A block or SPQR
    piece is a cycle, 3-connected or at most a triangle, and a triangle of a
    3-connected planar graph is a face exactly when it does not separate it
    (Whitney): no embedding is needed, and the sides are 3-connected and
    planar, tested once."""
    inside = [tri for tri in triangles if set(piece[0]).issuperset(tri)]
    if not inside or not is_planar(nbrs := _nbrs(piece)):
        return None

    def split(piece: Piece, nbrs: list) -> Generator[Generator, _Split | None, _Split | None]:
        verts, held = piece[0], set(piece[0])
        for tri in inside:
            if held.issuperset(tri):
                sides = _sides(piece, nbrs, tuple(bisect_left(verts, v) for v in tri))
                if sides is not None:
                    subs = []
                    for side in sides[0]:
                        subs.append((yield split(side, _nbrs(side))))
                    return (*sides, subs)
        return None

    return run(split(piece, nbrs))


def refine(tree: DecompositionTree) -> DecompositionTree:
    """Split components until every piece is biconnected and triconnected and
    every gluing triangle of every planar component is one of its faces:
    blocks, their SPQR pieces and their sides at separating gluing triangles
    nest into one split per component, and one ``_build`` makes the tree.
    Reassembly is unchanged; refining twice equals refining once.  Raises
    InvalidDecomposition with the first of the tree's ``_shape_problems``."""
    problems = _shape_problems(tree)
    if problems:
        raise InvalidDecomposition(problems[0])
    splits = {}
    for cid in sorted(tree.components):
        net = tree.components[cid]
        cliques = [tree.cliques[kid] for kid in sorted(tree.comp_cliques[cid])]
        order, index, (blocks, glue), parts = _block_split(net, cliques)
        if parts > 1:
            raise InvalidDecomposition(f"component {cid} torso is disconnected")
        triangles = [tuple(sorted(index[v] for v in k)) for k in cliques if len(k) == 3]
        subs = [
            _spqr_split(block, _nbrs(block), lambda piece: _triangle_pieces(piece, triangles))
            for block in blocks
        ]
        splits[cid] = order, index, (blocks, glue, subs)
    return _build(tree, splits)


# ---------------------------------------------------------------------------
# Family decomposers

def _is_v8(nbrs: Sequence[Sequence[int]]) -> bool:
    """Whether the graph with index adjacency lists ``nbrs`` is the Wagner
    graph V8: cubic on 8 vertices with a Hamiltonian cycle v0..v7 whose
    other edges are the chords v_i v_{i+4}.  A depth-first search from 0
    extends the cycle (at most two choices a step once v1 is placed) and
    places each v_i with i >= 4 only beside v_{i-4}."""
    if len(nbrs) != 8 or any(len(nb) != 3 for nb in nbrs):
        return False
    cycle = [0]

    def extend() -> bool:
        i = len(cycle)
        if i == 8:
            return cycle[0] in nbrs[cycle[7]]
        for w in nbrs[cycle[-1]]:
            if w not in cycle and (i < 4 or w in nbrs[cycle[i - 4]]):
                cycle.append(w)
                if extend():
                    return True
                cycle.pop()
        return False

    return extend()


def _decompose(net: FlowNetwork, split_piece: Callable) -> DecompositionTree:
    """Split ``net`` into its blocks (1-sums), test each for planarity once,
    and split only the non-planar ones into their SPQR pieces (2-sums), each
    of which ``split_piece(piece, vertex ids by index)`` splits again (a
    false value keeps it whole) or rejects by raising.  One ``_build`` makes
    the tree.  A planar block stays whole: its triconnected pieces are
    planar, and ``refine`` recovers them when asked."""
    order, index, (blocks, glue), parts = _block_split(net, [])
    if parts > 1:
        raise DisconnectedInput("decomposers require a connected input graph")

    def split_block(block: Piece) -> _Split | None:
        nbrs = _nbrs(block)
        if is_planar(nbrs):
            return None
        return _spqr_split(block, nbrs, lambda piece: split_piece(piece, order))

    split = blocks, glue, [split_block(block) for block in blocks]
    return _build(single_component_tree(net), {0: (order, index, split)})


def decompose_k33_free(net: FlowNetwork) -> DecompositionTree:
    """Clique-sum decomposition with planar and K5 components (1- and
    2-sums): each planar block whole, and the triconnected pieces of each
    non-planar block.  Raises NotK33MinorFree when some piece of a
    non-planar block is neither planar nor K5."""

    def check(piece: Piece, order: list[int]) -> None:
        nbrs = _nbrs(piece)
        if not (is_planar(nbrs) or len(nbrs) == 5 and all(len(nb) == 4 for nb in nbrs)):
            ids = [order[v] for v in piece[0]]
            raise NotK33MinorFree(
                f"triconnected component on vertices {ids} is neither planar nor K5"
            )

    return _decompose(net, check)


def decompose_k5_free(net: FlowNetwork) -> DecompositionTree:
    """Clique-sum decomposition with planar and Wagner-graph components
    (1-, 2-, and 3-sums): each planar block whole, and the triconnected
    pieces of each non-planar block, split at separating triples
    (``_split_k5``) until planar or V8.  Raises NotK5MinorFree when impossible."""
    memo: dict = {}

    def split(piece: Piece, order: list[int]) -> _Split | tuple[()] | None:
        if len(piece[1]) == 2 * len(piece[0]):
            return None  # an S piece, a planar cycle; _split_k5 tests the rest for planar / V8
        result = run(_split_k5(piece, memo))
        if result is None:
            ids = [order[v] for v in piece[0]]
            raise NotK5MinorFree(
                f"component on vertices {ids} is not a 3-sum of planar and Wagner pieces"
            )
        return result

    return _decompose(net, split)


def _separating_triples(nbrs: Sequence[Sequence[int]]) -> Iterator[tuple[int, int, int]]:
    """The separating triples a < b < c of the 3-connected graph with index
    adjacency lists ``nbrs``, lazily in lexicographic order.  G - {a, b} is
    connected, so {a, b, c} separates G exactly when c cuts G - {a, b}: each
    pair a < b costs one articulation DFS, and a caller that stops at the
    first triple that splits runs none for the later pairs."""
    for a, b in itertools.combinations(range(len(nbrs)), 2):
        for c in sorted(c for c in articulation_points(nbrs, {a, b}) if c > b):
            yield a, b, c


def _split_k5(piece: Piece, memo: dict) -> Generator[Generator, object, _Split | tuple[()] | None]:
    """3-cut refinement of a 3-connected torso, a task for ``run`` (so at
    any depth): () when it is planar or V8, else its split, or None when
    there is none.  Sides carry the completed cut triangle, so are
    3-connected again.  Keeps the first separating triple whose sides all
    split, backtracking: a K5-free graph can have 3-cuts whose completed
    sides are not.  ``memo`` maps each piece tried to its result."""
    if piece in memo:
        return memo[piece]
    nbrs = _nbrs(piece)
    result: _Split | tuple[()] | None = None
    if is_planar(nbrs) or _is_v8(nbrs):
        result = ()
    else:
        for triple in _separating_triples(nbrs):
            sides = _sides(piece, nbrs, triple)
            subs = []
            for side in sides[0]:
                subs.append((yield _split_k5(side, memo)))
                if subs[-1] is None:
                    break
            else:
                result = (*sides, subs)
                break
    memo[piece] = result
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


def _shape_problems(tree: DecompositionTree) -> list[str]:
    """What ``validate`` checks of a tree without its input network, in its
    order: incidence bookkeeping, tree shape and clique containment."""
    comp_ids, clique_ids = sorted(tree.components), sorted(tree.cliques)
    if not comp_ids:
        return ["tree has no components"]
    lost = [cid for cid in comp_ids if cid not in tree.comp_cliques]
    problems = [f"component {cid} has no clique incidence entry" for cid in lost]
    lost = [kid for kid in clique_ids if kid not in tree.clique_comps]
    problems += [f"clique {kid} has no component incidence entry" for kid in lost]
    n_edges = 0
    listed = 0  # tree edges that both incidence maps hold
    outside = []  # (clique, component) lacking some of its vertices
    for cid in comp_ids:
        verts = tree.components[cid].vertices
        for kid in tree.comp_cliques.get(cid, ()):
            k = tree.cliques.get(kid)
            if k is None:
                problems.append(f"component {cid} attached to missing clique {kid}")
            elif cid in tree.clique_comps.get(kid, ()):
                listed += 1
            else:
                problems.append(f"component {cid} lists clique {kid}, which does not list it")
            if k is not None and not k <= verts:
                outside.append((kid, cid))
            n_edges += 1
    # Every clique-side edge is one of those ``listed`` unless the counts differ.
    if listed != sum(len(tree.clique_comps.get(kid, ())) for kid in clique_ids):
        for kid in clique_ids:
            for cid in sorted(tree.clique_comps.get(kid, ())):
                if cid not in tree.components:
                    problems.append(f"clique {kid} attached to missing component {cid}")
                elif kid not in tree.comp_cliques.get(cid, ()):
                    problems.append(f"clique {kid} lists component {cid}, which does not list it")
    dangling = bool(problems)  # the walk needs nodes that exist and maps that agree
    for kid in clique_ids:
        if len(tree.clique_comps.get(kid, ())) < 2:
            problems.append(f"clique {kid} attached to fewer than 2 components")
    if n_edges != len(comp_ids) + len(clique_ids) - 1:
        problems.append("tree edge count is not nodes-1 (not a tree)")
    if not dangling:
        up, above = tree.walk(comp_ids[0])
        if len(up) + len(above) != len(comp_ids) + len(clique_ids):
            problems.append("tree is disconnected")
    problems += [f"clique {k} vertices missing from component {c}" for k, c in sorted(outside)]
    return problems


def validate(graph: FlowNetwork, tree: DecompositionTree) -> tuple[bool, list[str]]:
    """Check every decomposition-tree invariant and the paper's precondition:
    each component's torso is planar or has at most ``_SMALL_CAP`` vertices.
    Planarity is tested only on torsos above the cap.  One sweep over the
    components gathers what the other checks need and builds each torso once."""
    problems = _shape_problems(tree)
    if not tree.components:
        return False, problems
    comp_ids, clique_ids = sorted(tree.components), sorted(tree.cliques)
    # The sweep: vertex counts, edge owners and fields, and the torso checks
    # of every component whose cliques lie inside it.
    # A torso is built once, as index lists; one ``lr_planarity`` run answers
    # both questions above the cap, and a plain search connectivity below it.
    graph_edges = graph.edge_by_id
    held: list[int] = []  # each component's vertices, one after another
    owner: dict[int, int] = {}  # edge id -> the last component holding it
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
        for kid in tree.comp_cliques.get(cid, ()):
            k = tree.cliques.get(kid)
            if k is None or not k <= verts:
                break  # the torso is incomplete: no torso checks
            for u, v in itertools.combinations(k, 2):
                a, b = index[u], index[v]
                torso[a].add(b)
                torso[b].add(a)
        else:  # every clique exists and lies inside: the torso is complete
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
