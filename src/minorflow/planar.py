"""Undirected-graph questions for the structure layer, one way to answer each.

- ``is_planar``: networkx's left-right planarity test (Brandes 2009), yes/no
  only; it builds no embedding, face walk or Kuratowski witness.
- ``planar_embed``: a clockwise rotation system for a planar graph (None for
  a non-planar one); faces come from the standard half-edge walk, so
  triangle/face membership queries are cheap.
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
    return nx.check_planarity(to_nx(adj))[0]
