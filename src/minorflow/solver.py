"""The decomposed max-flow pipeline: replace every component off the
terminal path of the validated clique-sum tree by a mimicking network
(Phase I), glue the path components into one network (Phase II), solve it,
and replay the replacements in reverse to recover a flow on the original
network.  The tree is only read, never copied or changed, and walked once
per query, from s's component (``DecompositionTree.walk``): the walk gives
the terminal path, and read in reverse it gives the off-path components
deepest first.

Phase I compiles each off-path component once (``maxflow.TerminalKernel``):
its own edges, the mimic arcs its children left, and a super-source and a
super-sink arc at each vertex of the clique above it.  That compile gives
every cut of the full table, the mimic built from them
(``mimic.full_mimic_arcs``) waits as arcs in the component above, and the
compile is dropped.  The replay compiles a component again only when its
mimic carries a non-zero demand, and routes that demand on it; a zero
demand gives the component zero flow without compiling anything.

A component whose way up to the path crosses a one-vertex clique is not
compiled at all: its mimic is empty, as is the one-terminal mimic of the
part that hangs at that clique (Hagerup, Katajainen, Nishimura & Ragde,
JCSS 1998).  No s-t flow can cross a part that touches the rest at one
vertex, so an acyclic max flow is zero on all of it, also when that vertex
is s or t; s and t lie on the path, never strictly inside such a part.

The tree is not refined first: every installed mimic has the same cut table
as the component it replaces, which makes the pipeline exact on any valid
tree whose cliques have at most 3 vertices.  Triconnected pieces and facial
gluing triangles (``decomposition.refine``) matter only to a planar-specific
flow engine, which this package does not have.  For the same reason the
path is glued rather than folded into a tiny network by more mimics: with a
generic max-flow engine the fold costs more than it saves.  The network
reassembled from the components not yet replaced plus the waiting arcs keeps
its max-flow value at every step, which the audit hook can check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

# Imported but unused here (``refine``, ``cut_table``, ``route_external_flow``,
# ``min_cut_value``, ``build_full_mimic``, ``merge_mimics``,
# ``build_mimic4_single_source``, ``build_mimic_general``): the benchmark's
# traced run wraps these solver bindings by name.
from .decomposition import (
    DecompositionTree,
    DisconnectedInput,
    InvalidDecomposition,
    decompose_k33_free,
    decompose_k5_free,
    refine,
    underlying,
    validate,
)
from .external import cut_table, route_external_flow
from .maxflow import TerminalKernel, max_flow, min_cut_value
from .mimic import (
    build_full_mimic,
    build_mimic4_single_source,
    build_mimic_general,
    full_mimic_arcs,
    merge_mimics,
)
from .network import (
    Edge,
    FlowAssignment,
    FlowNetwork,
    InfeasibleDemandError,
    UnknownVertexError,
    imbalances,
    merge_networks,
)
from .planar import components

Observer = Callable[[str, FlowNetwork], None]


@dataclass(frozen=True, slots=True)
class ReplacementRecord:
    """One Phase I replacement, replayable in reverse.

    Component ``net`` of the input tree, with the ``children`` arcs (mimics
    that components below it left) glued on, was replaced by the ``mimic``
    arcs on its sorted clique ``terminals``: none for one terminal, an
    antiparallel pair for two, a star around a fresh hub for three.  A
    component cut off from the terminal path by a one-vertex clique has an
    empty ``mimic`` and empty ``children`` whatever its terminals: it and
    everything below it carry zero flow.
    """

    net: FlowNetwork
    children: tuple[Edge, ...]
    terminals: tuple[int, ...]
    mimic: tuple[Edge, ...]

    def snapshot(self) -> FlowNetwork:
        """The network the mimic replaced."""
        return _glue([self.net], self.children)


@dataclass
class SolveState:
    tree: DecompositionTree
    next_vertex: int
    next_edge: int
    records: list[ReplacementRecord] = field(default_factory=list)
    # Mimic arcs waiting in each component not yet replaced.
    pending: dict[int, list[Edge]] = field(default_factory=dict)
    observer: Observer | None = None
    # With an observer only: the input network, then the network after each
    # Phase I replacement; the replay pops them to audit its own steps.
    steps: list[FlowNetwork] = field(default_factory=list)

    def alloc_vertex(self) -> int:
        v = self.next_vertex
        self.next_vertex += 1
        return v


def _glue(nets: Iterable[FlowNetwork], arcs: Iterable[Edge]) -> FlowNetwork:
    """Union of ``nets`` with the mimic ``arcs`` glued on."""
    arcs = tuple(arcs)
    ends = frozenset(v for e in arcs for v in (e.tail, e.head))
    return merge_networks(*nets, FlowNetwork(ends, arcs))


def locate_terminal_path(
    tree: DecompositionTree, s: int, t: int
) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """Path of components from s's component to t's component, plus the
    ``up`` and ``above`` maps of the tree walk from s's component
    (``DecompositionTree.walk``), which Phase I reuses.  The distinguished
    component for a terminal lying in a shared clique is the lowest-id one.
    A tree that the walk does not span is rejected here, before any kernel
    is compiled."""
    homes: dict[int, int] = {}
    for cid, comp in tree.components.items():
        for v in (s, t):
            if v in comp.net.vertices:
                homes[v] = min(cid, homes.get(v, cid))
    for v in (s, t):
        if v not in homes:
            raise UnknownVertexError(f"vertex {v} not in the decomposition")
    up, above = tree.walk(homes[s])
    if homes[t] not in up:
        raise InvalidDecomposition("terminals lie in different tree components")
    if len(up) != len(tree.components):
        raise InvalidDecomposition("tree is disconnected")
    path = [homes[t]]
    while path[-1] != homes[s]:
        path.append(above[up[path[-1]]])
    path.reverse()
    return path, up, above


def cut_off_components(
    tree: DecompositionTree, path_comps: list[int], up: dict[int, int], above: dict[int, int]
) -> set[int]:
    """Off-path components whose way up to the terminal path crosses a
    one-vertex clique: one forward pass over the breadth-first ``up`` map of
    ``locate_terminal_path``, which reaches each component after the one
    above it."""
    on_path = set(path_comps)
    cut: set[int] = set()
    for cid, kid in up.items():
        if cid not in on_path and (len(tree.cliques[kid].vertices) == 1 or above[kid] in cut):
            cut.add(cid)
    return cut


def phase1(
    state: SolveState, path_comps: list[int], up: dict[int, int], above: dict[int, int]
) -> None:
    """Replace every component off the terminal path by its mimic on the
    clique above it, deepest first, and leave the mimic's arcs pending in
    the component above that clique.  ``up`` and ``above`` are the walk of
    ``locate_terminal_path``: an off-path component's way to its root
    passes through the nearest path component, so the clique and component
    above it are the ones a walk from the path would give.

    A component cut off from the path by a one-vertex clique
    (``cut_off_components``) is replaced by nothing: no kernel, no cut, an
    empty mimic and no children, since the components below it are cut off
    too.  That is exact, because the part of the network that hangs at that
    one vertex carries zero in every acyclic s-t max flow, also when the
    vertex is s or t."""
    tree, pending = state.tree, state.pending
    on_path = set(path_comps)
    cut_off = cut_off_components(tree, path_comps, up, above)
    replaced: set[int] = set()
    for cid, kid in reversed(up.items()):
        if cid in on_path:
            continue
        net = tree.components[cid].net
        terminals = tuple(sorted(tree.cliques[kid].vertices))
        children = tuple(pending.pop(cid, ()))
        mimic: tuple[Edge, ...] = ()
        if cid not in cut_off:
            hub = state.alloc_vertex() if len(terminals) == 3 else None
            cut = TerminalKernel(net, terminals, children).cut
            mimic = full_mimic_arcs(cut, terminals, hub, state.next_edge)
            state.next_edge += len(mimic)
            pending.setdefault(above[kid], []).extend(mimic)
        state.records.append(ReplacementRecord(net, children, terminals, mimic))
        if state.observer is not None:
            replaced.add(cid)
            alive = [c.net for k, c in tree.components.items() if k not in replaced]
            step = _glue(alive, (e for arcs in pending.values() for e in arcs))
            state.steps.append(step)
            state.observer("replace", step)


def phase2(state: SolveState, path_comps: list[int]) -> FlowNetwork:
    """Glue the terminal path, all that Phase I leaves, into one network."""
    return _glue(
        (state.tree.components[c].net for c in path_comps),
        (e for c in path_comps for e in state.pending.get(c, ())),
    )


def reconstruct(state: SolveState, final_flow: FlowAssignment) -> FlowAssignment:
    """Pop the replacement stack, converting the flow on each mimic into a
    routed flow on the component and child mimic arcs it replaced.  A zero
    demand gives the component zero flow; any other is routed on a kernel
    compiled for it.  Feasibility of every pop is guaranteed by the
    cut-table equality of the installed mimic; a failure here means a
    mimicking bug, not bad input."""
    flows: dict[int, int] = dict(final_flow)
    audit = state.observer is not None
    if audit:
        state.steps.pop()  # the network after the last replacement, glued by phase2
    while state.records:
        rec = state.records.pop()
        x = dict.fromkeys(rec.terminals, 0)
        for e in rec.mimic:
            f = flows.pop(e.id, 0)
            if e.tail in x:
                x[e.tail] += f
            if e.head in x:
                x[e.head] -= f
        supply = {q: xq for q, xq in x.items() if xq > 0}
        if supply:
            demand = {q: -xq for q, xq in x.items() if xq < 0}
            value, cap = TerminalKernel(rec.net, rec.terminals, rec.children).flow(supply, demand)
            if value != sum(supply.values()):
                raise InfeasibleDemandError(
                    f"demand {tuple(x.values())} not realizable (routed {value})"
                )
            for i, e in enumerate(rec.net.edges + rec.children):
                flows[e.id] = e.cap - cap[2 * i]
        else:
            for e in rec.net.edges:
                flows[e.id] = 0
        if audit:
            net = state.steps.pop()  # the network before this replacement
            _assert_conserving(net, flows)
            state.observer("reconstruct", net)
    return flows


def _assert_conserving(net: FlowNetwork, flows: dict[int, int]) -> None:
    """Audit-mode check: after a pop the working flow must balance at every
    vertex except one source and one sink of equal magnitude."""
    bal = imbalances(net, flows).values()
    pos = [b for b in bal if b > 0]
    neg = [b for b in bal if b < 0]
    if len(pos) > 1 or len(neg) > 1 or sum(pos) + sum(neg) != 0:
        raise AssertionError("conservation violated during reconstruction")


def max_flow_decomposed(
    graph: FlowNetwork,
    tree: DecompositionTree,
    s: int,
    t: int,
    validate_input: bool = True,
    observer: Observer | None = None,
) -> tuple[int, FlowAssignment]:
    """Max s-t flow via the clique-sum pipeline; exact and integral."""
    if s not in graph.vertices or t not in graph.vertices:
        raise UnknownVertexError("terminal missing from the input network")
    if s == t:
        raise ValueError("source and sink must differ")
    if validate_input:
        ok, problems = validate(graph, tree)
        if not ok:
            raise InvalidDecomposition("; ".join(problems[:5]))
    state = SolveState(
        tree=tree,
        next_vertex=graph.next_vertex_id(),
        next_edge=graph.next_edge_id(),
        observer=observer,
    )
    if observer is not None:
        observer("input", graph)  # a validated tree reassembles to graph exactly
        state.steps.append(graph)
    path_comps, up, above = locate_terminal_path(tree, s, t)
    phase1(state, path_comps, up, above)
    final_net = phase2(state, path_comps)
    value, final_flow = max_flow(final_net, s, t)
    if observer is not None:
        observer("final", final_net)
    flows = reconstruct(state, final_flow)
    if len(flows) != len(graph.edges) or not all(e.id in flows for e in graph.edges):
        raise AssertionError("reconstruction did not restore the original edge set")
    return value, flows


FAMILIES = ("k33", "k5")


def decompose(graph: FlowNetwork, family: str) -> DecompositionTree:
    """Clique-sum tree of ``graph`` by the decomposer of ``family`` (one of
    FAMILIES); membership failures raise NotK33MinorFree / NotK5MinorFree."""
    if family == "k33":
        return decompose_k33_free(graph)
    if family == "k5":
        return decompose_k5_free(graph)
    raise ValueError(f"unknown family {family!r}")


def max_flow_family(
    graph: FlowNetwork,
    family: str,
    s: int,
    t: int,
    observer: Observer | None = None,
) -> tuple[int, FlowAssignment]:
    """Decompose by family (see ``decompose``) and solve, on the connected
    component of ``graph`` that holds s.  Every edge outside that component
    carries 0, and the value is 0 when t lies outside it."""
    if s not in graph.vertices or t not in graph.vertices:
        raise UnknownVertexError("terminal missing from the input network")
    flow = {e.id: 0 for e in graph.edges}
    try:
        tree = decompose(graph, family)
    except DisconnectedInput:
        part = next(c for c in components(underlying(graph)) if s in c)
        if t not in part:
            return 0, flow
        graph = FlowNetwork(frozenset(part), tuple(e for e in graph.edges if e.tail in part))
        tree = decompose(graph, family)
    value, part_flow = max_flow_decomposed(
        graph, tree, s, t, validate_input=False, observer=observer
    )
    flow.update(part_flow)
    return value, flow
