"""Undirected-graph questions for the structure layer, one way to answer each.

- ``lr_planarity``: the testing phase of the left-right planarity test
  (Brandes 2009), one kernel on index adjacency lists that returns both the
  number of DFS roots (the connected components) and the yes/no verdict,
  with no networkx object, embedding or Kuratowski witness built.
  ``is_planar`` is its yes/no wrapper, for an adjacency mapping or index
  lists; ``validate`` calls the kernel directly on the torsos it builds.
- ``planar_embed``: a clockwise rotation system for a planar graph (None for
  a non-planar one) from networkx's ``check_planarity``; faces come from the
  standard half-edge walk, so triangle/face membership queries are cheap.
  networkx is imported there and in ``to_nx`` only, so the solve path,
  which never embeds, does not load it.
- ``components``: connected components, optionally with vertices removed.
- ``lowpoint_dfs``: an iterative palm-tree DFS (preorder numbers, parents,
  lowpt1, lowpt2, subtree sizes) on index adjacency lists; SPQR's
  triconnectivity pass and ``articulation_points`` both start from it.
- ``adjacency``: the graph on a vertex set with a given set of vertex pairs;
  ``index_lists`` turns such a mapping into sorted index adjacency lists.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, AbstractSet, Iterable, Sequence

if TYPE_CHECKING:
    import networkx as nx

Adjacency = Mapping[int, set[int]]


def to_nx(adj: Adjacency) -> nx.Graph:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(sorted(adj))
    for u in sorted(adj):
        for v in sorted(adj[u]):
            if u < v:
                g.add_edge(u, v)
    return g


def adjacency(vertices: Iterable[int], pairs: Iterable[Iterable[int]]) -> dict[int, set[int]]:
    """Adjacency of the simple graph on ``vertices`` whose edges are ``pairs``."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def index_lists(adj: Adjacency) -> tuple[list[int], list[list[int]]]:
    """The vertices of ``adj`` sorted, and their index adjacency lists: the
    neighbours of the i-th vertex at nbrs[i], ascending, without self-loops."""
    order = sorted(adj)
    index = {v: i for i, v in enumerate(order)}
    return order, [[index[w] for w in sorted(adj[v]) if w != v] for v in order]


def components(
    adj: Adjacency | Sequence[Sequence[int]], removed: Iterable[int] = frozenset()
) -> list[set[int]]:
    """Vertex sets of the connected components of ``adj`` (an adjacency
    mapping or index adjacency lists) minus ``removed`` (and every edge
    touching it), ordered by their smallest vertex."""
    seen = set(removed)
    out: list[set[int]] = []
    for start in sorted(adj) if isinstance(adj, Mapping) else range(len(adj)):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            for v in adj[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
        out.append(comp)
    return out


def lowpoint_dfs(
    nbrs: Sequence[Sequence[int]], removed: AbstractSet[int] = frozenset()
) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """Iterative depth-first search of the simple graph on vertices 0..n-1
    with adjacency lists ``nbrs``, minus ``removed``; each component's tree
    is rooted at its smallest vertex.

    Returns (number, parent, lowpt1, lowpt2, nd): 1-based preorder numbers
    (0 for removed vertices), tree parents (-1 at roots), the lowest and
    second-lowest numbers reachable from a vertex's subtree by one frond
    (the vertex's own number when there is none), and subtree sizes.
    """
    n = len(nbrs)
    number = [0] * n
    parent = [-1] * n
    low1 = [0] * n
    low2 = [0] * n
    nd = [1] * n
    pos = [0] * n
    count = 0
    for root in range(n):
        if number[root] or root in removed:
            continue
        count += 1
        number[root] = low1[root] = low2[root] = count
        stack = [root]
        while stack:
            v = stack[-1]
            nv = nbrs[v]
            i = pos[v]
            while i < len(nv):
                w = nv[i]
                i += 1
                nw = number[w]
                if nw == 0:
                    if w in removed:
                        continue
                    parent[w] = v
                    count += 1
                    number[w] = low1[w] = low2[w] = count
                    pos[v] = i
                    stack.append(w)
                    break
                # A numbered neighbour is an ancestor (a frond from v) or a
                # finished descendant (its frond to v was seen from there).
                if nw < number[v] and w != parent[v]:
                    if nw < low1[v]:
                        low2[v] = low1[v]
                        low1[v] = nw
                    elif low1[v] < nw < low2[v]:
                        low2[v] = nw
            else:
                stack.pop()
                p = parent[v]
                if p >= 0:
                    l1, l2 = low1[v], low2[v]
                    if l1 < low1[p]:
                        low2[p] = min(low1[p], l2)
                        low1[p] = l1
                    elif l1 == low1[p]:
                        low2[p] = min(low2[p], l2)
                    else:
                        low2[p] = min(low2[p], l1)
                    nd[p] += nd[v]
    return number, parent, low1, low2, nd


def articulation_points(
    nbrs: Sequence[Sequence[int]], removed: AbstractSet[int] = frozenset()
) -> set[int]:
    """Cut vertices of the graph of ``lowpoint_dfs`` (same arguments), found
    by its lowpoints: a root with two tree children, or a parent that no
    child's subtree climbs above."""
    number, parent, low1, _, _ = lowpoint_dfs(nbrs, removed)
    out: set[int] = set()
    root_children: set[int] = set()
    for w, p in enumerate(parent):
        if p < 0:
            continue
        if parent[p] >= 0:
            if low1[w] >= number[p]:
                out.add(p)
        elif p in root_children:
            out.add(p)
        else:
            root_children.add(p)
    return out


@dataclass(frozen=True)
class PlanarEmbedding:
    """Per-vertex clockwise edge order plus the derived face walks."""

    rotation: Mapping[int, tuple[int, ...]]

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        succ = {
            u: {v: nbrs[(i + 1) % len(nbrs)] for i, v in enumerate(nbrs)}
            for u, nbrs in self.rotation.items()
            if nbrs
        }
        seen: set[tuple[int, int]] = set()
        out: list[tuple[int, ...]] = []
        for u in sorted(succ):
            for v in self.rotation[u]:
                if (u, v) in seen:
                    continue
                walk: list[int] = []
                cu, cv = u, v
                while (cu, cv) not in seen:
                    seen.add((cu, cv))
                    walk.append(cu)
                    cu, cv = cv, succ[cv][cu]
                out.append(tuple(walk))
        return tuple(out)

    def is_triangle_face(self, triangle: Iterable[int]) -> bool:
        tri = frozenset(triangle)
        return any(len(f) == 3 and frozenset(f) == tri for f in self.faces)

    def euler_ok(self, n_vertices: int, n_edges: int, n_components: int) -> bool:
        # v - e + f = 1 + c for a plane multigraph drawn with c components.
        return n_vertices - n_edges + len(self.faces) == 1 + n_components


def planar_embed(adj: Adjacency) -> PlanarEmbedding | None:
    """Embed a simple undirected graph (needs networkx); None when it is not planar."""
    import networkx as nx

    g = to_nx(adj)
    ok, cert = nx.check_planarity(g)
    if not ok:
        return None
    rotation = {
        v: tuple(cert.neighbors_cw_order(v)) if cert.degree(v) else ()
        for v in sorted(g.nodes)
    }
    emb = PlanarEmbedding(rotation)
    # Isolated vertices contribute no face walk; exclude them from Euler.
    isolated = sum(1 for v in g.nodes if g.degree(v) == 0)
    if g.number_of_edges() and not emb.euler_ok(
        g.number_of_nodes() - isolated, g.number_of_edges(), len(components(adj)) - isolated
    ):
        raise AssertionError("embedding failed the Euler check")
    return emb


def is_planar(adj: Adjacency | Sequence[Sequence[int]]) -> bool:
    """Whether the simple undirected graph ``adj`` is planar: ``lr_planarity``
    on its index adjacency lists.  ``adj`` maps each vertex to its
    neighbours, or is those lists already (the neighbours of i at adj[i])."""
    return lr_planarity(index_lists(adj)[1] if isinstance(adj, Mapping) else adj)[1]


def lr_planarity(nbrs: Sequence[Iterable[int]]) -> tuple[int, bool]:
    """(roots, planar) for the simple graph on vertices 0..n-1 whose
    neighbours of v are ``nbrs[v]``: the number of depth-first search roots,
    which is the number of connected components, and whether it is planar.

    The testing phase of the left-right planarity test (Brandes, "The
    left-right planarity test", 2009): an orientation DFS computes heights,
    lowpoints and nesting depths, and a testing DFS over the out-edges of
    each vertex, sorted by nesting depth, keeps a stack of conflict pairs.
    Both passes are iterative, and no sign or embedding phase runs.

    The orientation DFS always runs, since it counts the roots.  A graph
    with at most 4 vertices or at most 8 edges is planar without the
    testing DFS (Kuratowski): a subdivision of K5 has at least 5 vertices
    and 10 edges, one of K3,3 at least 6 vertices and 9 edges.  One with
    more than 3n - 6 edges is not (Euler).
    """
    n = len(nbrs)
    m = sum(map(len, nbrs)) // 2
    # Orientation.  Edges are oriented away from the vertex searched first.
    # The tree edge into w is numbered w (a root's number is unused), and
    # back edges n, n + 1, ... in the order found.  Edge n + m stands for "no edge" in the testing phase:
    # it has no head and a lowpoint below every height.
    none = n + m
    height = [-1] * n
    lowpt = [-1] * (none + 1)
    lowpt2 = [0] * n  # of tree edges only
    nesting = [0] * none
    head = [-1] * (none + 1)  # of back edges only
    out: list[list[int]] = [[] for _ in range(n)]
    roots: list[int] = []
    back = n
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        iters = [iter(nbrs[root])]
        while stack:
            v = stack[-1]
            hv = height[v]
            for w in iters[-1]:
                hw = height[w]
                if hw < 0:  # tree edge; finished when w is
                    out[v].append(w)
                    lowpt[w] = lowpt2[w] = hv
                    height[w] = hv + 1
                    stack.append(w)
                    iters.append(iter(nbrs[w]))
                    break
                if hw < hv - 1:  # back edge; the parent and descendants are oriented
                    # Its lowpoints are (hw, hv) and its nesting depth 2 hw;
                    # fold them into v's tree edge, whose lowpoints are at
                    # most hv - 1.
                    out[v].append(back)
                    head[back] = w
                    lowpt[back] = hw
                    nesting[back] = 2 * hw
                    back += 1
                    lv = lowpt[v]
                    if hw < lv:
                        lowpt2[v] = lv
                        lowpt[v] = hw
                    elif lv < hw < lowpt2[v]:
                        lowpt2[v] = hw
            else:
                stack.pop()
                iters.pop()
                if not hv:
                    continue
                # Finish the tree edge into v: its nesting depth, then fold
                # its lowpoints into its tail's tree edge.
                low = lowpt[v]
                low2 = lowpt2[v]
                nesting[v] = 2 * low + (low2 < hv - 1)
                if hv > 1:
                    u = stack[-1]
                    lu = lowpt[u]
                    if low < lu:
                        lowpt2[u] = lu if lu < low2 else low2
                        lowpt[u] = low
                    elif low > lu:
                        if low < lowpt2[u]:
                            lowpt2[u] = low
                    elif low2 < lowpt2[u]:
                        lowpt2[u] = low2
    if n <= 4 or m <= 8:
        return len(roots), True
    if m > 3 * n - 6:
        return len(roots), False

    # Testing.  A conflict pair is a tuple (L.low, L.high, R.low, R.high)
    # of back edges, ``none`` for no edge; an interval is a chain of return
    # edges linked by ``ref`` from high to low, and is empty when both of
    # its ends are ``none``.  A back edge whose lowpoint is above edge b's
    # conflicts with b; ``none`` conflicts with nothing.
    for ov in out:
        if len(ov) > 1:
            ov.sort(key=nesting.__getitem__)
    ref = [none] * (none + 1)
    bottom = [0] * none
    pairs: list[tuple[int, int, int, int]] = []
    for root in roots:
        stack = [root]
        iters = [iter(out[root])]
        while stack:
            v = stack[-1]
            ei = next(iters[-1], -1)
            if ei >= 0:
                bottom[ei] = len(pairs)
                if ei < n:  # tree edge; integrated when ei is done
                    stack.append(ei)
                    iters.append(iter(out[ei]))
                    continue
                pairs.append((none, none, ei, ei))
            else:
                stack.pop()
                iters.pop()
                if not stack:
                    continue
                # Back from the tree edge ei = (v, ei).  Remove the back
                # edges returning to v: drop the pairs whose lowest return
                # is v, then trim v's edges off the top pair's intervals.
                ei = v
                v = stack[-1]
                hv = height[v]
                while pairs:
                    ll, lh, rl, rh = pairs[-1]
                    if ll == none and lh == none:
                        lowest = lowpt[rl]
                    elif rl == none and rh == none:
                        lowest = lowpt[ll]
                    else:
                        lowest = min(lowpt[ll], lowpt[rl])
                    if lowest != hv:
                        break
                    pairs.pop()
                if pairs:
                    ll, lh, rl, rh = pairs[-1]
                    while head[lh] == v:
                        lh = ref[lh]
                    if lh == none:
                        ll = none
                    while head[rh] == v:
                        rh = ref[rh]
                    if rh == none:
                        rl = none
                    pairs[-1] = (ll, lh, rl, rh)
            # Integrate the return edges of ei at its tail v, whose tree
            # edge is v.  The first edge out of v has no earlier sibling to
            # conflict with.
            if lowpt[ei] >= height[v] or ei == out[v][0]:
                continue
            low_e = lowpt[v]
            low_i = lowpt[ei]
            pll = plh = prl = prh = none
            # Merge the return edges of ei into P.R.
            while True:
                ql, qh, rl, rh = pairs.pop()
                if ql != none or qh != none:
                    ql, qh, rl, rh = rl, rh, ql, qh
                    if ql != none or qh != none:
                        return len(roots), False
                if lowpt[rl] > low_e:
                    if prl == none and prh == none:
                        prh = rh
                    else:
                        ref[prl] = rh
                    prl = rl
                if len(pairs) == bottom[ei]:
                    break
            # Merge the conflicting return edges of earlier siblings into P.L.
            while pairs:
                ql, qh, rl, rh = pairs[-1]
                if lowpt[qh] <= low_i and lowpt[rh] <= low_i:
                    break
                pairs.pop()
                if lowpt[rh] > low_i:
                    ql, qh, rl, rh = rl, rh, ql, qh
                    if lowpt[rh] > low_i:
                        return len(roots), False
                if prl != none:
                    ref[prl] = rh
                if rl != none:
                    prl = rl
                if pll == none and plh == none:
                    plh = qh
                else:
                    ref[pll] = qh
                pll = ql
            if pll != none or plh != none or prl != none or prh != none:
                pairs.append((pll, plh, prl, prh))
    return len(roots), True
