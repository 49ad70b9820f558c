"""Undirected-graph questions for the structure layer, one way to answer each.

- ``is_planar``: the testing phase of the left-right planarity test
  (Brandes 2009), run on the adjacency mapping itself; yes/no only, with no
  networkx object, embedding or Kuratowski witness built.
- ``planar_embed``: a clockwise rotation system for a planar graph (None for
  a non-planar one) from networkx's ``check_planarity``; faces come from the
  standard half-edge walk, so triangle/face membership queries are cheap.
- ``components``: connected components, optionally with vertices removed.
- ``adjacency``: the graph on a vertex set with a given set of vertex pairs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterable, Mapping

import networkx as nx

Adjacency = Mapping[int, set[int]]


def to_nx(adj: Adjacency) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(sorted(adj))
    for u in sorted(adj):
        for v in sorted(adj[u]):
            if u < v:
                g.add_edge(u, v)
    return g


def adjacency(vertices: Iterable[int], pairs: Iterable[AbstractSet[int]]) -> dict[int, set[int]]:
    """Adjacency of the simple graph on ``vertices`` whose edges are ``pairs``."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components(adj: Adjacency, removed: AbstractSet[int] = frozenset()) -> list[set[int]]:
    """Vertex sets of the connected components of ``adj`` minus ``removed``
    (and every edge touching it), ordered by their smallest vertex."""
    seen = set(removed)
    out: list[set[int]] = []
    for start in sorted(adj):
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
    """Embed a simple undirected graph; None when it is not planar."""
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


def is_planar(adj: Adjacency) -> bool:
    """Whether the simple undirected graph ``adj`` is planar.

    The testing phase of the left-right planarity test (Brandes, "The
    left-right planarity test", 2009): an orientation DFS computes heights,
    lowpoints and nesting depths, and a testing DFS over adjacency lists
    sorted by nesting depth keeps a stack of conflict pairs.  Both passes are
    iterative, and no sign or embedding phase runs.
    """
    n = len(adj)
    m = sum(map(len, adj.values())) // 2
    if n > 2 and m > 3 * n - 6:
        return False
    index = {v: i for i, v in enumerate(adj)}
    nbrs = [[index[w] for w in adj[v]] for v in adj]

    # Orientation: edges are numbered as they are oriented, tail -> head, and
    # a tree edge is the parent edge of its head.
    height = [-1] * n
    parent = [-1] * n
    tail = [0] * m
    head = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    out: list[list[int]] = [[] for _ in range(n)]
    roots: list[int] = []
    pos = [0] * n
    edges = 0

    def finish(e: int) -> None:
        """Nesting depth of ``e``, then the lowpoints of its tail's parent edge."""
        v = tail[e]
        low, low2 = lowpt[e], lowpt2[e]
        nesting[e] = 2 * low + (low2 < height[v])
        p = parent[v]
        if p >= 0:
            if low < lowpt[p]:
                lowpt2[p] = min(lowpt[p], low2)
                lowpt[p] = low
            elif low > lowpt[p]:
                lowpt2[p] = min(lowpt2[p], low)
            else:
                lowpt2[p] = min(lowpt2[p], low2)

    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            nv = nbrs[v]
            i = pos[v]
            while i < len(nv):
                w = nv[i]
                i += 1
                hw = height[w]
                if hw >= 0 and hw >= hv - 1:  # the parent or a descendant: already oriented
                    continue
                e = edges
                edges += 1
                tail[e], head[e] = v, w
                lowpt[e] = lowpt2[e] = hv
                out[v].append(e)
                if hw < 0:  # tree edge; finished when w is
                    parent[w] = e
                    height[w] = hv + 1
                    pos[v] = i
                    stack.append(w)
                    break
                lowpt[e] = hw  # back edge
                finish(e)
            else:
                stack.pop()
                if parent[v] >= 0:
                    finish(parent[v])

    # Testing.  A conflict pair is [L.low, L.high, R.low, R.high]; an
    # interval is a chain of return edges linked by ``ref`` from high to low.
    for nv in out:
        nv.sort(key=nesting.__getitem__)
    ref: list[int | None] = [None] * m
    bottom = [0] * m
    pairs: list[list] = []

    def conflicting(high: int | None, b: int) -> bool:
        return high is not None and lowpt[high] > lowpt[b]

    def add_constraints(ei: int, e: int) -> bool:
        p = [None, None, None, None]
        # Merge the return edges of ei into P.R.
        while True:
            q = pairs.pop()
            if q[0] is not None or q[1] is not None:
                q = [q[2], q[3], q[0], q[1]]
                if q[0] is not None or q[1] is not None:
                    return False
            if lowpt[q[2]] > lowpt[e]:
                if p[2] is None and p[3] is None:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            if len(pairs) == bottom[ei]:
                break
        # Merge the conflicting return edges of earlier siblings into P.L.
        while conflicting(pairs[-1][1], ei) or conflicting(pairs[-1][3], ei):
            q = pairs.pop()
            if conflicting(q[3], ei):
                q = [q[2], q[3], q[0], q[1]]
                if conflicting(q[3], ei):
                    return False
            if p[2] is not None:
                ref[p[2]] = q[3]
            if q[2] is not None:
                p[2] = q[2]
            if p[0] is None and p[1] is None:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if any(x is not None for x in p):
            pairs.append(p)
        return True

    def lowest(p: list) -> int:
        if p[0] is None and p[1] is None:
            return lowpt[p[2]]
        if p[2] is None and p[3] is None:
            return lowpt[p[0]]
        return min(lowpt[p[0]], lowpt[p[2]])

    def remove_back_edges(e: int) -> None:
        u = tail[e]
        while pairs and lowest(pairs[-1]) == height[u]:
            pairs.pop()
        if pairs:  # trim the top pair's intervals of edges returning to u
            p = pairs[-1]
            for h, lo in ((1, 0), (3, 2)):
                while p[h] is not None and head[p[h]] == u:
                    p[h] = ref[p[h]]
                if p[h] is None:
                    p[lo] = None

    def integrate(ei: int) -> bool:
        """Take in the return edges of ``ei`` at its tail; the first edge
        out of a vertex has no earlier sibling to conflict with."""
        v = tail[ei]
        return lowpt[ei] >= height[v] or ei == out[v][0] or add_constraints(ei, parent[v])

    pos = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            ov = out[v]
            i = pos[v]
            while i < len(ov):
                ei = ov[i]
                i += 1
                bottom[ei] = len(pairs)
                w = head[ei]
                if parent[w] == ei:  # tree edge; integrated when w is done
                    pos[v] = i
                    stack.append(w)
                    break
                pairs.append([None, None, ei, ei])
                if not integrate(ei):
                    return False
            else:
                stack.pop()
                e = parent[v]
                if e >= 0:
                    remove_back_edges(e)
                    if not integrate(e):
                        return False
    return True
