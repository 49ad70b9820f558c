"""Small mimicking networks and the general cut-collapsing construction.

A mimicking network has the same terminals and exactly the same cut table
as the network it replaces, hence (by the Gale conditions) identical
realizable external flows.  Three-terminal networks collapse to a 4-vertex
star; four-terminal single-source networks to a 5-vertex, 7-edge network;
everything up to four terminals collapses via minimum-cut signatures.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .external import cut_table
from .maxflow import TerminalKernel
from .maxflow import min_cut_side  # unused here: the benchmark's traced run wraps this binding
from .network import (
    FULL,
    SINGLE_SOURCE,
    CutTable,
    Edge,
    FlowNetwork,
    MimicInputError,
    TerminalSet,
    merge_networks,
    nonempty_subsets,
    proper_subsets,
)


def _partitions(items: Sequence[int], parts: int) -> Iterator[list[tuple[int, ...]]]:
    """All assignments of ``items`` into ``parts`` ordered (possibly empty) groups."""
    items = tuple(sorted(items))
    for assign in itertools.product(range(parts), repeat=len(items)):
        groups: list[list[int]] = [[] for _ in range(parts)]
        for item, g in zip(items, assign):
            groups[g].append(item)
        yield [tuple(g) for g in groups]


def check_three_way(table: CutTable) -> bool:
    """Triangle-style inequalities over every 3-way terminal partition:
    (P↛Q∪R) <= (P∪Q↛R) + (P∪R↛Q) and (P∪Q↛R) <= (P↛Q∪R) + (Q↛P∪R)."""
    if table.mode != FULL:
        raise ValueError("three-way check needs a full-mode table")
    for p, q, r in _partitions(table.terminals.order, 3):
        if not (p and q and r):
            continue
        if table.cut(p) > table.cut(p + q) + table.cut(p + r):
            return False
        if table.cut(p + q) > table.cut(p) + table.cut(q):
            return False
    return True


def check_four_way(table: CutTable) -> bool:
    """Quadrilateral inequality over terminal splits.

    Full mode checks (P↛Q∪R∪S) + (P∪Q∪R↛S) <= (P∪Q↛R∪S) + (P∪R↛Q∪S) for
    every partition into four groups with P and S nonempty.  A single-source
    table lacks the source-side-forced entries, so there the equivalent
    submodular instances are checked: s↛X + s↛Y >= s↛(X∪Y) + s↛(X∩Y).
    """
    if table.mode == FULL:
        for p, q, r, s in _partitions(table.terminals.order, 4):
            if not (p and s):
                continue
            lhs = table.cut(p) + table.cut(p + q + r)
            rhs = table.cut(p + q) + table.cut(p + r)
            if lhs > rhs:
                return False
        return True
    others = table.terminals.non_sources
    for x_sub in nonempty_subsets(others):
        for y_sub in nonempty_subsets(others):
            x, y = set(x_sub), set(y_sub)
            union, inter = x | y, x & y
            lhs = table.cut(union) + (table.cut(inter) if inter else 0)
            if table.cut(x) + table.cut(y) < lhs:
                return False
    return True


def build_mimic3(
    table: CutTable,
    hub_vertex: int | None = None,
    first_edge_id: int = 0,
) -> FlowNetwork:
    """4-vertex, 6-edge star mimicking a 3-terminal network: the
    ``build_full_mimic`` of a table over exactly 3 terminals."""
    if table.terminals.k != 3:
        raise ValueError("mimic3 needs a full-mode table over exactly 3 terminals")
    return build_full_mimic(table, hub_vertex, first_edge_id)


def build_mimic4_single_source(
    table: CutTable,
    hub_vertex: int | None = None,
    first_edge_id: int = 0,
) -> tuple[FlowNetwork, tuple[int, int, int]]:
    """5-vertex, 7-edge mimic for a 4-terminal single-source network.

    The non-source terminals are canonically permuted to (a, b, c) so that
    s↛a >= max(s↛b, s↛c) and s↛ab >= s↛ac (ties keep the original order);
    the applied order is returned so callers can map edges back.  Raises
    MimicInputError when a derived capacity is negative, which means the
    input table did not come from a real network.
    """
    if table.mode != SINGLE_SOURCE or table.terminals.k != 4:
        raise ValueError("mimic4 needs a single-source table over exactly 4 terminals")
    s = table.terminals.source
    rest = list(table.terminals.non_sources)
    a = max(rest, key=lambda q: (table.cut([q]), -rest.index(q)))
    rest.remove(a)
    b = max(rest, key=lambda q: (table.cut([a, q]), -rest.index(q)))
    rest.remove(b)
    c = rest[0]

    sa = table.cut([a])
    sb = table.cut([b])
    sc = table.cut([c])
    sab = table.cut([a, b])
    sac = table.cut([a, c])
    sbc = table.cut([b, c])
    sabc = table.cut([a, b, c])
    caps = (
        sa,
        sab - sa,
        sabc - sab,
        sbc + sa - sabc,
        sac + sab - sa - sabc,
        sb + sa - sab,
        sc + sab - sabc,
    )
    if any(cap < 0 for cap in caps):
        raise MimicInputError(f"inconsistent single-source table: derived capacities {caps}")
    hub = max(table.terminals.order) + 1 if hub_vertex is None else hub_vertex
    if hub in table.terminals.order:
        raise ValueError("hub vertex collides with a terminal")
    ends = ((s, a), (s, b), (s, c), (a, hub), (b, hub), (hub, b), (hub, c))
    edges = tuple(
        Edge(first_edge_id + i, u, v, cap) for i, ((u, v), cap) in enumerate(zip(ends, caps))
    )
    return FlowNetwork(frozenset(table.terminals.order) | {hub}, edges), (a, b, c)


def build_mimic_general(
    net: FlowNetwork, terminals: TerminalSet, first_edge_id: int = 0
) -> FlowNetwork:
    """Cut-collapsing mimicking network for up to four terminals.

    One kernel answers the 2^k - 2 cuts with a nonempty proper terminal
    subset on the source side; each gives the minimal source side of its
    minimum cuts (unique).  Vertices with identical cut-side signatures
    merge into supervertices (parallel capacities summed), giving at most
    2^(2^k - 2) vertices and an identical full cut table.  Supervertices
    without a terminal are numbered from max(net.vertices) + 1.
    """
    if terminals.k > 4:
        raise ValueError("general construction supports at most 4 terminals")
    terminals.check_in(net)
    order = sorted(net.vertices)
    signatures: dict[int, int] = {v: 0 for v in order}
    kernel = TerminalKernel(net, terminals.order)
    for bit, subset in enumerate(proper_subsets(terminals.order)):
        rest = [q for q in terminals.order if q not in subset]
        for v in kernel.cut(subset, rest)[1]:
            signatures[v] |= 1 << bit
    groups: dict[int, list[int]] = {}
    for v in order:
        groups.setdefault(signatures[v], []).append(v)
    # Terminals always have pairwise distinct signatures; keep their ids.
    rep: dict[int, int] = {}
    fresh = max(net.vertices) + 1
    for sig in sorted(groups):
        members = groups[sig]
        named = [q for q in members if q in terminals.order]
        if len(named) > 1:
            raise MimicInputError("two terminals share a cut signature")
        target = named[0] if named else fresh
        if not named:
            fresh += 1
        for v in members:
            rep[v] = target
    caps: dict[tuple[int, int], int] = {}
    for e in net.edges:
        u, v = rep[e.tail], rep[e.head]
        if u == v:
            continue
        caps[(u, v)] = caps.get((u, v), 0) + e.cap
    eid = first_edge_id
    edges = []
    for (u, v) in sorted(caps):
        edges.append(Edge(eid, u, v, caps[(u, v)]))
        eid += 1
    return FlowNetwork(frozenset(rep.values()), tuple(edges))


def build_full_mimic(
    table: CutTable,
    hub_vertex: int | None = None,
    first_edge_id: int = 0,
) -> FlowNetwork:
    """Smallest exact full-table mimic for 2 or 3 terminals, its arcs
    numbered from ``first_edge_id``; terminals keep their vertex ids.

    Two terminals u, v need only an antiparallel pair carrying u↛v and v↛u.
    Three get a star around ``hub_vertex`` (by default one past the largest
    terminal) whose arc q->hub carries q↛(rest) and hub->q carries (rest)↛q.
    """
    terms = table.terminals.order
    if table.mode != FULL or len(terms) not in (2, 3):
        raise ValueError("full mimic needs a full-mode table over 2 or 3 terminals")
    if len(terms) == 2:
        u, v = terms
        edges = (
            Edge(first_edge_id, u, v, table.cut((u,))),
            Edge(first_edge_id + 1, v, u, table.cut((v,))),
        )
        return FlowNetwork(frozenset(terms), edges)
    hub = max(terms) + 1 if hub_vertex is None else hub_vertex
    if hub in terms:
        raise ValueError("hub vertex collides with a terminal")
    edges = []
    for i, q in enumerate(terms):
        rest = [w for w in terms if w != q]
        edges.append(Edge(first_edge_id + 2 * i, q, hub, table.cut((q,))))
        edges.append(Edge(first_edge_id + 2 * i + 1, hub, q, table.cut(rest)))
    return FlowNetwork(frozenset(terms) | {hub}, tuple(edges))


def merge_mimics(
    m1: FlowNetwork,
    m2: FlowNetwork,
    terminals: Sequence[int],
    hub_vertex: int | None = None,
    first_edge_id: int = 0,
) -> FlowNetwork:
    """Merge two mimicking networks sharing exactly their terminal set.

    Takes the union (disjoint except at the terminals), recomputes the full
    cut table, and rebuilds a single small mimic, restoring the 4-vertex
    size bound.
    """
    shared = m1.vertices & m2.vertices
    terms = frozenset(terminals)
    if shared != terms:
        raise ValueError(f"shared vertices {sorted(shared)} differ from terminals {sorted(terms)}")
    if len(terminals) > 3:
        raise ValueError("merge supports at most 3 shared terminals")
    union = merge_networks(m1, m2)
    if len(terminals) == 1:
        return FlowNetwork(terms, ())
    table = cut_table(union, TerminalSet(tuple(sorted(terminals))), FULL)
    return build_full_mimic(table, hub_vertex, first_edge_id)
