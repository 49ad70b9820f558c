"""SPQR trees: decomposition of a biconnected graph into a 2-sum of
triconnected components (cycle, bond, and 3-connected skeletons).

``spqr`` runs in O(n + m).  It is the triconnected-components algorithm of
Hopcroft & Tarjan ("Dividing a graph into triconnected components", SICOMP
1973) with the corrections of Gutwenger & Mutzel ("A linear time
implementation of SPQR-trees", GD 2000):

- a palm-tree DFS (``planar.lowpoint_dfs``) computes lowpt1, lowpt2 and ND,
  and the same pass checks biconnectivity;
- every adjacency list is bucket-sorted by phi, so that a second DFS finds
  the paths in the order the separation-pair tests need, renumbering the
  vertices and marking where each path starts;
- a path-search DFS splits off type-2 and type-1 separation pairs with the
  triple stack TSTACK and the edge stack ESTACK;
- the split components (triangles, triple bonds and 3-connected graphs) are
  2-summed into maximal cycles and bonds, which gives the canonical tree.

Every DFS is iterative.  Virtual edges come in linked pairs, one per tree
edge; 2-summing every pair reproduces the input graph.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .planar import Adjacency, adjacency, components, index_lists, lowpoint_dfs

S, P, R, Q = "S", "P", "R", "Q"

_EOS = (0, -1, 0)  # end-of-segment mark on the path search's triple stack


class SkelEdge(NamedTuple):
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


def _skel_adjacency(edges: list[SkelEdge]) -> dict[int, set[int]]:
    return adjacency({v for e in edges for v in (e.u, e.v)}, ((e.u, e.v) for e in edges))


def spqr(adj: Adjacency | Sequence[Sequence[int]]) -> SpqrTree:
    """Canonical SPQR tree of a biconnected simple graph, in linear time.

    ``adj`` maps each vertex to its neighbours, or is index adjacency lists
    (the neighbours of vertex i at ``adj[i]``), and then the skeleton edges
    join indexes; every skeleton edge has u < v.  Single-vertex and
    single-edge inputs yield the degenerate one-Q-node tree; any other
    non-biconnected input raises ValueError.
    """
    order, nbrs = index_lists(adj) if isinstance(adj, Mapping) else (range(len(adj)), adj)
    m = sum(map(len, nbrs)) // 2
    if m <= 1:
        if len(nbrs) > m + 1:
            raise ValueError("SPQR input must be connected")
        edges = [SkelEdge(order[a], order[b]) for a, nb in enumerate(nbrs) for b in nb if a < b]
        return SpqrTree({0: SpqrNode(Q, edges)})
    comps, src, tgt, n_real = _split_components(nbrs)
    skel_edge = tuple.__new__  # a SkelEdge without its Python-level __new__
    pieces: list[tuple[str, list[SkelEdge]]] = []
    owners: dict[int, tuple[int, ...]] = {}  # virtual edge -> its two pieces
    for i, comp in enumerate(comps):
        edges = []
        verts: set[int] = set()
        for e in comp:
            a, b = src[e], tgt[e]
            if a > b:
                a, b = b, a
            verts.add(a)
            verts.add(b)
            edges.append(skel_edge(SkelEdge, (order[a], order[b], e if e >= n_real else None)))
            if e >= n_real:
                owners[e] = (*owners.get(e, ()), i)
        kind = P if len(verts) == 2 else S if len(edges) == len(verts) else R
        pieces.append((kind, edges))
    return _canonical_tree(pieces, owners)


def _split_components(
    nbrs: list[list[int]],
) -> tuple[list[list[int]], list[int], list[int], int]:
    """Hopcroft-Tarjan split components of the simple graph on vertices
    0..n-1 with adjacency lists ``nbrs``; raises ValueError unless it is
    biconnected.

    Returns (components, src, tgt, m): each component lists edge ids, edge e
    joins src[e] and tgt[e], and the ids from m (the input edge count) up
    are virtual edges, each in exactly two components.
    """
    n = len(nbrs)
    number, father, low1, low2, nd = lowpoint_dfs(nbrs)
    root_children = 0
    for w in range(1, n):
        p = father[w]
        if p < 0 or (p > 0 and low1[w] >= number[p]):
            raise ValueError("SPQR input must be biconnected")
        root_children += p == 0
    if root_children != 1:
        raise ValueError("SPQR input must be biconnected")

    # The palm tree: tree arcs point from parent to child, fronds from a
    # descendant up to an ancestor.
    src: list[int] = []
    tgt: list[int] = []
    arc: list[bool] = []
    tree_arc = [-1] * n
    for v in range(n):
        for w in nbrs[v]:
            if father[w] == v:
                tree_arc[w] = len(src)
                arc.append(True)
            elif number[w] < number[v] and father[v] != w:
                arc.append(False)
            else:
                continue
            src.append(v)
            tgt.append(w)
    m = len(src)

    # Acceptable adjacency lists: out-edges stably sorted by phi (a bucket sort).
    phi = [0] * m
    for e in range(m):
        w = tgt[e]
        if not arc[e]:
            phi[e] = 3 * number[w] + 1
        elif low2[w] < number[src[e]]:
            phi[e] = 3 * low1[w]
        else:
            phi[e] = 3 * low1[w] + 2
    out: list[list[int]] = [[] for _ in range(n)]
    for e in sorted(range(m), key=phi.__getitem__):
        out[src[e]].append(e)

    # Pathfinder: number each vertex so that the first child visited gets
    # the highest numbers, mark the first edge of every path, and list the
    # fronds into each vertex in visiting order (its highpt list).
    num = [0] * n
    start = [False] * m
    high_at: list[deque[int]] = [deque() for _ in range(n)]
    high_value: list[int] = []
    high_dead: list[bool] = []
    in_high = [-1] * m
    count = n
    new_path = True
    num[0] = 1
    pos = [0] * n
    stack = [0]
    while stack:
        v = stack[-1]
        ov = out[v]
        i = pos[v]
        while i < len(ov):
            e = ov[i]
            i += 1
            if new_path:
                new_path = False
                start[e] = True
            w = tgt[e]
            if arc[e]:
                pos[v] = i
                num[w] = count - nd[w] + 1
                stack.append(w)
                break
            in_high[e] = len(high_value)
            high_at[w].append(len(high_value))
            high_value.append(num[v])
            high_dead.append(False)
            new_path = True
        else:
            stack.pop()
            count -= 1
    renumber = [0] * (n + 1)
    node_at = [0] * (n + 1)
    for v in range(n):
        renumber[number[v]] = num[v]
        node_at[num[v]] = v
    low1 = [renumber[x] for x in low1]
    low2 = [renumber[x] for x in low2]

    # Where each edge sits in its source's list (-1 once taken out).
    slot_v = src[:]
    slot_i = [0] * m
    for ov in out:
        for i, e in enumerate(ov):
            slot_i[e] = i

    def new_edge(a: int, b: int, is_arc: bool = False) -> int:
        src.append(a)
        tgt.append(b)
        arc.append(is_arc)
        in_high.append(-1)
        slot_v.append(-1)
        slot_i.append(0)
        return len(src) - 1

    def put(e: int, v: int, i: int) -> None:
        old = out[v][i]
        if old >= 0:
            slot_v[old] = -1
        out[v][i] = e
        slot_v[e], slot_i[e] = v, i

    def drop(e: int) -> None:
        if slot_v[e] >= 0:
            out[slot_v[e]][slot_i[e]] = -1
            slot_v[e] = -1

    def high(v: int) -> int:
        q = high_at[v]
        while q and high_dead[q[0]]:
            q.popleft()
        return high_value[q[0]] if q else 0

    def del_high(e: int) -> None:
        if in_high[e] >= 0:
            high_dead[in_high[e]] = True
            in_high[e] = -1

    first = [0] * n

    def first_target(w: int) -> int:
        """Number of the head of w's first remaining out-edge (0 if none)."""
        ow = out[w]
        k = first[w]
        while k < len(ow) and ow[k] < 0:
            k += 1
        first[w] = k
        return num[tgt[ow[k]]] if k < len(ow) else 0

    # Path search.  TSTACK holds triples (h, a, b), a == -1 marking the end
    # of a path's segment; ESTACK holds the edges not yet split off.
    tstack = [_EOS]
    estack: list[int] = []
    comps: list[list[int]] = []
    degree = [len(x) for x in nbrs]
    outv = [len(x) for x in out]

    def open_path(a: int, h: int, b: int) -> None:
        """Triple of a path whose lowest return is ``a``; it absorbs every
        triple above it with a larger a."""
        while tstack[-1][1] > a:
            top, _, b = tstack.pop()
            h = max(h, top)
        tstack.append((h, a, b))

    def finish_arc(v: int, i: int, opened: bool) -> None:
        """Split off what the tree arc in slot i of v's list closes, once
        the search below it is done."""
        vnum = num[v]
        w = tgt[out[v][i]]
        wnum = num[w]
        estack.append(tree_arc[w])
        # Type-2 pairs (v, b).
        while vnum != 1 and (
            tstack[-1][1] == vnum or (degree[w] == 2 and first_target(w) > wnum)
        ):
            h, a, b = tstack[-1]
            if a == vnum and father[node_at[b]] == v:
                tstack.pop()
                continue
            e_ab = -1
            if degree[w] == 2 and first_target(w) > wnum:
                e1 = estack.pop()
                e2 = estack.pop()
                drop(e2)
                x = tgt[e2]
                virt = new_edge(v, x)
                degree[x] -= 1
                degree[v] -= 1
                comps.append([e1, e2, virt])
                if estack and src[estack[-1]] == x and tgt[estack[-1]] == v:
                    e_ab = estack.pop()
                    drop(e_ab)
                    del_high(e_ab)
            else:
                tstack.pop()
                comp = []
                while estack:
                    xy = estack[-1]
                    sx, sy = num[src[xy]], num[tgt[xy]]
                    if not (a <= sx <= h and a <= sy <= h):
                        break
                    estack.pop()
                    drop(xy)
                    del_high(xy)
                    if (sx == a and sy == b) or (sx == b and sy == a):
                        e_ab = xy
                    else:
                        comp.append(xy)
                        degree[src[xy]] -= 1
                        degree[tgt[xy]] -= 1
                x = node_at[b]
                virt = new_edge(v, x)
                comp.append(virt)
                comps.append(comp)
            if e_ab >= 0:
                bond_virt = new_edge(v, x)
                comps.append([e_ab, virt, bond_virt])
                virt = bond_virt
                degree[x] -= 1
                degree[v] -= 1
            estack.append(virt)
            put(virt, v, i)
            arc[virt] = True
            degree[x] += 1
            degree[v] += 1
            father[x] = v
            tree_arc[x] = virt
            w, wnum = x, num[x]
        # Type-1 pair (lowpt1(w), v).
        lw = low1[w]
        if low2[w] >= vnum and lw < vnum and (father[v] != 0 or outv[v] >= 2):
            comp = []
            end = wnum + nd[w]
            sx = sy = 0
            while estack:
                xy = estack[-1]
                sx, sy = num[src[xy]], num[tgt[xy]]
                if not (wnum <= sx < end or wnum <= sy < end):
                    break
                estack.pop()
                comp.append(xy)
                del_high(xy)
                degree[src[xy]] -= 1
                degree[tgt[xy]] -= 1
            low_v = node_at[lw]
            virt = new_edge(v, low_v)
            comp.append(virt)
            comps.append(comp)
            if (sx == vnum and sy == lw) or (sx == lw and sy == vnum):
                eh = estack.pop()
                drop(eh)
                bond_virt = new_edge(v, low_v)
                comps.append([eh, virt, bond_virt])
                in_high[bond_virt], in_high[eh] = in_high[eh], -1
                virt = bond_virt
                degree[v] -= 1
                degree[low_v] -= 1
            if low_v != father[v]:
                estack.append(virt)
                put(virt, v, i)
                if in_high[virt] < 0 and high(low_v) < vnum:
                    in_high[virt] = len(high_value)
                    high_at[low_v].appendleft(len(high_value))
                    high_value.append(vnum)
                    high_dead.append(False)
                degree[v] += 1
                degree[low_v] += 1
            else:
                # The pair is v and its parent: the new virtual edge joins
                # the tree arc into v in a bond, whose third edge replaces it.
                drop(out[v][i])
                eh = tree_arc[v]
                arc_virt = new_edge(low_v, v, True)
                comps.append([virt, arc_virt, eh])
                tree_arc[v] = arc_virt
                put(arc_virt, slot_v[eh], slot_i[eh])
        if opened:
            while tstack.pop() is not _EOS:
                pass
        while tstack[-1] is not _EOS and tstack[-1][2] != vnum and high(v) > tstack[-1][0]:
            tstack.pop()
        outv[v] -= 1

    # pos[v] is the next slot of v's list to visit, or ~i while the search
    # runs below the tree arc in slot i.
    pos = [0] * n
    opened = [False] * n  # whether that tree arc opened a path
    stack = [0]
    while stack:
        v = stack[-1]
        ov = out[v]
        i = pos[v]
        if i < 0:
            i = ~i
            finish_arc(v, i, opened[v])
            i += 1
        while i < len(ov):
            e = ov[i]
            w = tgt[e]
            if arc[e]:
                if start[e]:
                    open_path(low1[w], num[w] + nd[w] - 1, num[v])
                    tstack.append(_EOS)
                pos[v] = ~i
                opened[v] = start[e]
                stack.append(w)
                break
            if start[e]:
                open_path(num[w], num[v], num[v])
            estack.append(e)
            i += 1
        else:
            stack.pop()
    comps.append(estack)
    return comps, src, tgt, m


def _canonical_tree(
    pieces: list[tuple[str, list[SkelEdge]]], owners: dict[int, tuple[int, ...]]
) -> SpqrTree:
    """The SPQR tree of split components ``pieces`` (kind, skeleton), whose
    virtual edges each appear in exactly two, listed in ``owners``: linked
    cycles are 2-summed into one cycle and linked bonds into one bond, so
    that no S-S or P-P adjacency is left.  Nodes are numbered by their first
    piece."""
    group = list(range(len(pieces)))

    def find(i: int) -> int:
        while group[i] != i:
            group[i] = group[group[i]]
            i = group[i]
        return i

    inner: set[int] = set()
    for link, (a, b) in owners.items():
        if pieces[a][0] == pieces[b][0] in (S, P):
            group[find(b)] = find(a)
            inner.add(link)
    members: dict[int, list[int]] = {}
    for i in range(len(pieces)):
        members.setdefault(find(i), []).append(i)
    tree = SpqrTree()
    node_of = [0] * len(pieces)
    for nid, group_members in enumerate(members.values()):
        edges = []
        for i in group_members:
            node_of[i] = nid
            edges.extend(e for e in pieces[i][1] if e.link not in inner)
        tree.nodes[nid] = SpqrNode(pieces[group_members[0]][0], edges)
    for link, (a, b) in owners.items():
        if link not in inner:
            tree.tree_edges[link] = (node_of[a], node_of[b])
    return tree


def reassemble(tree: SpqrTree) -> set[frozenset[int]]:
    """Real edges surviving all 2-sums (virtual pairs glue and vanish)."""
    return {pair for node in tree.nodes.values() for pair in node.real_pairs()}


def check_spqr_axioms(tree: SpqrTree, adj: Adjacency) -> list[str]:
    """Verify the defining tree properties; returns a list of violations."""
    problems: list[str] = []
    link_count: dict[int, int] = {}
    for nid, node in tree.nodes.items():
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
                problems.append(f"node {nid}: not a cycle")
        elif node.kind == P:
            if not (len(vset) == 2 and len(node.edges) >= 3):
                problems.append(f"node {nid}: not a bond")
            if sum(1 for e in node.edges if not e.virtual) > 1:
                problems.append(f"node {nid}: P node with several real edges")
        elif node.kind == R:
            if has_parallel or len(vset) < 4:
                problems.append(f"node {nid}: R skeleton not simple/nontrivial")
            elif not _is_3_connected(_skel_adjacency(node.edges)):
                problems.append(f"node {nid}: R skeleton not 3-connected")
        elif node.kind == Q:
            if len(tree.nodes) != 1 or len(node.edges) > 1:
                problems.append(f"node {nid}: invalid Q node")
        else:
            problems.append(f"node {nid}: unknown kind {node.kind}")
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
    if len(components(adjacency(tree.nodes, tree.tree_edges.values()))) > 1:
        problems.append("tree is disconnected")
    if reassemble(tree) != {frozenset((u, w)) for u in adj for w in adj[u] if u != w}:
        problems.append("reassembly differs from input")
    return problems


def _is_3_connected(adj: Adjacency) -> bool:
    return len(adj) >= 4 and all(
        len(components(adj, {u, v})) == 1 for u, v in itertools.combinations(sorted(adj), 2)
    )
