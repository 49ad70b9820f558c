"""Exact max-flow engine: shortest-augmenting-path with BFS layering (Dinic).

``_compile`` is the single compiler every flow, cut and route goes through:
it turns a network straight into residual arc arrays and joins a super
source and a super sink to it by arcs of given capacities.
``flow_between`` runs Dinic once on that; ``max_flow``, ``min_cut_value``,
``min_cut_side`` and ``external.route_external_flow`` are thin wrappers over
it.  ``min_cut_values`` compiles once for a whole cut table and runs Dinic
per split on a fresh copy of the capacities.  A specialized backend (planar,
bounded-treewidth, ...) replaces the engine by providing the same two entry
points.  Antiparallel and parallel edges are kept as distinct residual arcs,
never merged or canceled.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence

from .network import FlowAssignment, FlowNetwork, UnknownVertexError


def _dinic(adj: list[list[int]], to: list[int], cap: list[int], s: int, t: int) -> tuple[int, list[int]]:
    """Flow value, plus the BFS levels of the last phase: exactly the
    vertices that ``s`` still reaches in the residual network are >= 0."""
    n = len(adj)
    value = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in adj[u]:
                if cap[a] > 0 and level[to[a]] < 0:
                    level[to[a]] = level[u] + 1
                    queue.append(to[a])
        if level[t] < 0:
            return value, level
        it = [0] * n
        # Iterative blocking-flow DFS over the level graph.
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                value += pushed
                # Retreat to just before the first saturated arc.
                for i, a in enumerate(path):
                    if cap[a] == 0:
                        del path[i:]
                        break
                u = to[path[-1]] if path else s
                continue
            advanced = False
            while it[u] < len(adj[u]):
                a = adj[u][it[u]]
                if cap[a] > 0 and level[to[a]] == level[u] + 1:
                    path.append(a)
                    u = to[a]
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            level[u] = -1
            if not path:
                break
            a = path.pop()
            u = to[a ^ 1]
            it[u] += 1


def _compile(
    net: FlowNetwork, sources: Mapping[int, int], sinks: Mapping[int, int]
) -> tuple[dict[int, int], list[list[int]], list[int], list[int]]:
    """Residual arrays of ``net`` plus a super source, joined to each vertex
    v of ``sources`` by an arc of capacity ``sources[v]``, and a super sink
    joined from each vertex of ``sinks`` likewise.  Vertices must lie in
    ``net``.

    Returns the vertex index (the super source is ``len(index)``, the super
    sink one more), the arcs leaving each vertex, each arc's head and each
    arc's capacity.  Arc 2i is edge i of ``net``, arcs 2(m + j) the source
    arcs in the order of ``sources``, then the sink arcs; arc a ^ 1 is the
    reverse of arc a.
    """
    index = {v: i for i, v in enumerate(net.vertices)}
    ss, tt = len(index), len(index) + 1
    edges = net.edges
    tails = [index[e.tail] for e in edges] + [ss] * len(sources) + [index[v] for v in sinks]
    heads = [index[e.head] for e in edges] + [index[v] for v in sources] + [tt] * len(sinks)
    to = [0] * (2 * len(tails))
    to[0::2] = heads
    to[1::2] = tails
    cap = [0] * len(to)
    cap[0::2] = [e.cap for e in edges] + list(sources.values()) + list(sinks.values())
    adj: list[list[int]] = [[] for _ in range(tt + 1)]
    for a, head in enumerate(to):
        adj[head].append(a ^ 1)  # arc a ^ 1 leaves the head of arc a
    return index, adj, to, cap


def flow_between(
    net: FlowNetwork, sources: Mapping[int, int], sinks: Mapping[int, int]
) -> tuple[int, list[int], frozenset[int]]:
    """Maximum flow from a super source, joined to each vertex v of
    ``sources`` by an arc of capacity ``sources[v]``, to a super sink joined
    from each vertex of ``sinks`` likewise.  Vertices must lie in ``net``.

    Returns the value, the residual capacity of every arc (arc 2i is edge i
    of ``net``, which carries ``e.cap - cap[2i]``), and the vertices of
    ``net`` that the super source still reaches in the residual network:
    the source side of the minimal minimum cut.
    """
    index, adj, to, cap = _compile(net, sources, sinks)
    value, level = _dinic(adj, to, cap, len(index), len(index) + 1)
    return value, cap, frozenset(v for v, i in index.items() if level[i] >= 0)


def min_cut_values(
    net: FlowNetwork,
    terminals: Sequence[int],
    splits: Iterable[tuple[Iterable[int], Iterable[int]]],
) -> list[int]:
    """``min_cut_value(net, sources, sinks)`` for each split of the distinct
    vertices ``terminals`` of ``net``, from one compile.

    Every terminal gets a super-source arc and a super-sink arc; each split
    sets those of its sources and sinks to 1 + the sum of all capacities and
    leaves the others at 0, on a fresh copy of the compiled capacities.
    """
    zero = dict.fromkeys(terminals, 0)
    index, adj, to, base = _compile(net, zero, zero)
    source_arc = {q: 2 * (len(net.edges) + j) for j, q in enumerate(zero)}
    to_sink = 2 * len(zero)  # from a terminal's source arc to its sink arc
    inf = net.total_capacity + 1
    ss = len(index)
    values = []
    for sources, sinks in splits:
        cap = base.copy()
        for q in sources:
            cap[source_arc[q]] = inf
        for q in sinks:
            cap[source_arc[q] + to_sink] = inf
        values.append(_dinic(adj, to, cap, ss, ss + 1)[0])
    return values


def max_flow(net: FlowNetwork, s: int, t: int) -> tuple[int, FlowAssignment]:
    """Maximum s-t flow value and an integral flow achieving it."""
    if s not in net.vertices:
        raise UnknownVertexError(f"source {s} not in network")
    if t not in net.vertices:
        raise UnknownVertexError(f"sink {t} not in network")
    if s == t:
        raise ValueError("source and sink must differ")
    inf = net.total_capacity + 1
    value, cap, _ = flow_between(net, {s: inf}, {t: inf})
    return value, {e.id: e.cap - cap[2 * i] for i, e in enumerate(net.edges)}


def _grouped_cut(
    net: FlowNetwork, sources: Iterable[int], sinks: Iterable[int]
) -> tuple[int, list[int], frozenset[int]]:
    """``flow_between`` with effectively-infinite terminal arcs: 1 + the sum
    of all capacities, never a sentinel."""
    sources = sorted(set(sources))
    sinks = sorted(set(sinks))
    if not sources or not sinks:
        raise ValueError("sources and sinks must be nonempty")
    if set(sources) & set(sinks):
        raise ValueError("sources and sinks overlap")
    for v in sources + sinks:
        if v not in net.vertices:
            raise UnknownVertexError(f"vertex {v} not in network")
    inf = net.total_capacity + 1
    return flow_between(net, dict.fromkeys(sources, inf), dict.fromkeys(sinks, inf))


def min_cut_value(net: FlowNetwork, sources: Iterable[int], sinks: Iterable[int]) -> int:
    """Minimum cut with every vertex of ``sources`` on the source side and
    every vertex of ``sinks`` on the sink side (other vertices free)."""
    return _grouped_cut(net, sources, sinks)[0]


def min_cut_side(
    net: FlowNetwork, sources: Iterable[int], sinks: Iterable[int]
) -> tuple[int, frozenset[int]]:
    """Minimum cut value plus its source-side-minimal vertex set.

    The side is the residual-reachable set from the super source, which makes
    it deterministic and minimal among all minimum cuts.
    """
    value, _, side = _grouped_cut(net, sources, sinks)
    return value, side
