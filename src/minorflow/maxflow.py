"""Exact max-flow engine: shortest augmenting paths, one BFS path per
distance until a distance repeats, then Dinic's blocking flows (``_dinic``).

``TerminalKernel`` is the only code that compiles a network (``_compile``)
or runs the engine.  It turns a network, plus any extra arcs glued onto it,
into residual arc arrays with a super-source arc and a super-sink arc at
each of a few terminals, and answers two questions between those
terminals, any number of times, each on a fresh copy of the capacities:
``flow`` gives a maximum flow by edge id with its residual source side,
and ``cut`` a minimum cut's value with its minimal source side.  A cut runs
from and into terminal vertices: a super-source or super-sink arc opens
only on a side with several terminals.  The arc layout stays inside this
module.  Every other flow question is a query on a kernel built where it is
asked: ``max_flow``, ``max_flow_side``, ``min_cut_value`` and
``min_cut_side`` here, ``external.cut_table`` and
``external.route_external_flow``, and the solver's Phase I cuts.  A
specialized backend (planar, bounded-treewidth, ...) replaces the engine by
providing the same entry points.  Antiparallel and parallel edges are kept
as distinct residual arcs, never merged or canceled.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .network import Edge, FlowAssignment, FlowNetwork, UnknownVertexError


def _dinic(
    adj: Sequence[Sequence[int]], to: Sequence[int], cap: list[int], s: int, t: int
) -> tuple[int, list[int]]:
    """Maximum flow by shortest augmenting paths: the flow value, plus the
    BFS levels of the last phase, in which exactly the vertices that ``s``
    still reaches in the residual network are >= 0.

    Each phase is a BFS from ``s`` that records the arc each vertex was
    labelled by and stops as soon as ``t`` is labelled.  While every BFS
    finds ``t`` farther away than the one before, the phase augments along
    that one predecessor path (Edmonds-Karp) and searches no further.  From
    the first BFS that finds ``t`` at the previous distance on, every phase
    runs Dinic's blocking-flow DFS over its BFS levels, which saturates
    every shortest path at once.  A single-path step needs no DFS, which is
    the common case on small cut kernels; blocking phases keep many
    equal-length paths from costing one BFS each.

    Bound: the s-t distance never decreases under shortest-path
    augmentation.  Single-path steps run only at a distance not seen
    before, so there are at most n - 1 of them; each blocking phase raises
    the distance, so there are at most n - 1 of those, each O(V E).  The
    run is O(V^2 E), Dinic's bound.  The BFS that does not reach ``t``
    labels everything ``s`` reaches, so the returned levels are complete.
    """
    n = len(adj)
    value = 0
    pred = [0] * n  # pred[v]: the arc that labelled v in the current BFS
    distance = 0  # s-t distance of the previous BFS; 0 before the first
    blocking = False
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:  # a list grown while it is read is a FIFO queue
            nxt = level[u] + 1
            for a in adj[u]:
                v = to[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = nxt
                    pred[v] = a
                    queue.append(v)
            if level[t] >= 0:
                break
        if level[t] < 0:
            return value, level
        if not blocking and level[t] > distance:
            distance = level[t]
            path: list[int] = []
            v = t
            while v != s:
                a = pred[v]
                path.append(a)
                v = to[a ^ 1]
            pushed = min([cap[a] for a in path])
            for a in path:
                cap[a] -= pushed
                cap[a ^ 1] += pushed
            value += pushed
            continue
        blocking = True
        it = [0] * n
        # Iterative blocking-flow DFS over the level graph; it[u] is the
        # first arc of u not yet known to be useless.
        path = []
        u = s
        while True:
            if u == t:
                pushed = min([cap[a] for a in path])
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
            arcs, nxt = adj[u], level[u] + 1
            for i in range(it[u], len(arcs)):
                a = arcs[i]
                if cap[a] > 0 and level[to[a]] == nxt:
                    it[u] = i
                    path.append(a)
                    u = to[a]
                    break
            else:  # u is a dead end: drop it from the level graph
                level[u] = -1
                if not path:
                    break
                a = path.pop()
                u = to[a ^ 1]
                it[u] += 1


def _compile(
    net: FlowNetwork, terminals: Sequence[int], extra: Sequence[Edge] = ()
) -> tuple[dict[int, int], list[list[int]], list[int], list[int]]:
    """Residual arrays of ``net`` with the ``extra`` arcs glued on (their
    ends outside ``net`` become vertices too), plus a super source joined to
    each of the distinct ``terminals`` (vertices of ``net``) and a super
    sink joined from each, all by arcs of capacity 0.

    Returns the vertex index (the super source is ``len(index)``, the super
    sink one more), the arcs leaving each vertex, each arc's head and each
    arc's capacity.  Arc 2i is edge i of ``net.edges + extra``, arcs
    2(m + j) the source arcs in the order of ``terminals``, then the sink
    arcs; arc a ^ 1 is the reverse of arc a.
    """
    index = {v: i for i, v in enumerate(net.vertices)}
    for e in extra:
        index.setdefault(e.tail, len(index))
        index.setdefault(e.head, len(index))
    ss, tt = len(index), len(index) + 1
    edges = (*net.edges, *extra)
    to = [0] * (2 * (len(edges) + 2 * len(terminals)))
    cap = [0] * len(to)
    adj: list[list[int]] = [[] for _ in range(tt + 1)]
    a = 0
    for e in edges:
        u, v = index[e.tail], index[e.head]
        adj[u].append(a)
        adj[v].append(a + 1)
        to[a], to[a + 1], cap[a] = v, u, e.cap
        a += 2
    ends = [index[q] for q in terminals]
    to[a::2] = ends + [tt] * len(ends)
    to[a + 1 :: 2] = [ss] * len(ends) + ends
    for b in range(a, len(to)):
        adj[to[b ^ 1]].append(b)  # arc b leaves the head of arc b ^ 1
    return index, adj, to, cap


class TerminalKernel:
    """``net`` with the ``extra`` arcs glued on, compiled once with a
    super-source arc and a super-sink arc of capacity 0 at each of the
    distinct ``terminals`` (vertices of ``net``).  Every query opens the
    terminal arcs it needs on a fresh copy of the compiled capacities and
    runs ``_dinic``, so the kernel can be queried any number of times."""

    __slots__ = ("_edges", "_index", "_adj", "_to", "_base", "_source_arc", "_to_sink", "_inf")

    def __init__(self, net: FlowNetwork, terminals: Sequence[int], extra: Sequence[Edge] = ()):
        self._edges = (*net.edges, *extra)
        self._index, self._adj, self._to, self._base = _compile(net, terminals, extra)
        m = len(self._edges)
        self._source_arc = {q: 2 * (m + j) for j, q in enumerate(terminals)}
        self._to_sink = 2 * len(terminals)  # from a terminal's source arc to its sink arc
        self._inf = sum(self._base[0 : 2 * m : 2]) + 1

    def _side(self, level: list[int]) -> frozenset[int]:
        """The vertices with a BFS level: those the run's source still
        reaches in the residual network."""
        return frozenset(v for v, i in self._index.items() if level[i] >= 0)

    def flow(
        self, sources: Mapping[int, int], sinks: Mapping[int, int]
    ) -> tuple[int, FlowAssignment, frozenset[int]]:
        """Maximum flow from terminals ``sources`` (at most ``sources[q]``
        out of q) to terminals ``sinks`` (at most ``sinks[q]`` into q): the
        value, the flow on every edge of ``net.edges + extra`` by id, and
        the vertices the super source still reaches in its residual
        network."""
        cap = list(self._base)
        for q, c in sources.items():
            cap[self._source_arc[q]] = c
        for q, c in sinks.items():
            cap[self._source_arc[q] + self._to_sink] = c
        ss = len(self._adj) - 2
        value, level = _dinic(self._adj, self._to, cap, ss, ss + 1)
        flow = {e.id: e.cap - cap[2 * i] for i, e in enumerate(self._edges)}
        return value, flow, self._side(level)

    def cut(self, sources: Iterable[int], sinks: Iterable[int]) -> tuple[int, frozenset[int]]:
        """Minimum cut with terminals ``sources`` on the source side and
        terminals ``sinks`` on the sink side (other terminals free): its
        value, and the vertices the source side still reaches in the
        residual network, the source side of the minimal minimum cut.  A
        lone source (sink) terminal is the run's own source (sink) vertex;
        only a side with several terminals opens their arcs, at capacity
        ``_inf``."""
        cap = list(self._base)
        out = [self._source_arc[q] for q in sources]
        into = [self._source_arc[q] + self._to_sink for q in sinks]
        for arcs in (out, into):
            if len(arcs) > 1:
                for a in arcs:
                    cap[a] = self._inf
        ss = len(self._adj) - 2
        s = self._to[out[0]] if len(out) == 1 else ss  # the head of a source arc is its terminal
        t = self._to[into[0] ^ 1] if len(into) == 1 else ss + 1  # and the tail of a sink arc
        value, level = _dinic(self._adj, self._to, cap, s, t)
        return value, self._side(level)


def _checked(
    net: FlowNetwork, sources: Iterable[int], sinks: Iterable[int]
) -> tuple[list[int], list[int]]:
    """``sources`` and ``sinks`` sorted and distinct, after checking that
    both are nonempty, lie in ``net`` and are disjoint."""
    sources, sinks = sorted(set(sources)), sorted(set(sinks))
    if not sources or not sinks:
        raise ValueError("sources and sinks must be nonempty")
    for role, group in (("source", sources), ("sink", sinks)):
        for v in group:
            if v not in net.vertices:
                raise UnknownVertexError(f"{role} {v} not in network")
    if set(sources) & set(sinks):
        raise ValueError("source and sink must differ")
    return sources, sinks


def max_flow(net: FlowNetwork, s: int, t: int) -> tuple[int, FlowAssignment]:
    """Maximum s-t flow value and an integral flow achieving it."""
    value, flow, _ = max_flow_side(net, s, t)
    return value, flow


def max_flow_side(net: FlowNetwork, s: int, t: int) -> tuple[int, FlowAssignment, frozenset[int]]:
    """``max_flow`` plus the vertices that s still reaches in the residual
    network of the flow: the source side of the minimal minimum cut, whose
    capacity is the value."""
    _checked(net, (s,), (t,))
    inf = net.total_capacity + 1
    return TerminalKernel(net, (s, t)).flow({s: inf}, {t: inf})


def min_cut_value(net: FlowNetwork, sources: Iterable[int], sinks: Iterable[int]) -> int:
    """Minimum cut with every vertex of ``sources`` on the source side and
    every vertex of ``sinks`` on the sink side (other vertices free)."""
    sources, sinks = _checked(net, sources, sinks)
    return TerminalKernel(net, sources + sinks).cut(sources, sinks)[0]


def min_cut_side(
    net: FlowNetwork, sources: Iterable[int], sinks: Iterable[int]
) -> tuple[int, frozenset[int]]:
    """Minimum cut value plus its source-side-minimal vertex set.

    The side is the residual-reachable set from the super source, which makes
    it deterministic and minimal among all minimum cuts.
    """
    sources, sinks = _checked(net, sources, sinks)
    return TerminalKernel(net, sources + sinks).cut(sources, sinks)
