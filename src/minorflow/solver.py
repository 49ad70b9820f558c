"""The decomposed max-flow pipeline: on a copy of the validated clique-sum
tree as given, replace every component off the terminal path by a mimicking
network (Phase I), glue the path components into one network (Phase II),
solve it, and replay the replacements in reverse to recover a flow on the
original network.

The tree is not refined first: every installed mimic has the same cut table
as the component it replaces, which makes the pipeline exact on any valid
tree whose cliques have at most 3 vertices.  Triconnected pieces and facial
gluing triangles (``decomposition.refine``) matter only to a planar-specific
flow engine, which this package does not have.  For the same reason the
path is glued rather than folded into a tiny network by more mimics: with a
generic max-flow engine the fold costs more than it saves.

Every network mutation happens at a replacement step that pushes a
ReplacementRecord; gluing only moves edges between components and never
changes the reassembled network, so the working max-flow value is invariant
per record, which the audit hook can check step by step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

# Imported but unused here (``refine``, ``min_cut_value``, ``merge_mimics``,
# ``build_mimic4_single_source``, ``build_mimic_general``): the benchmark's
# traced run wraps these solver bindings by name.
from .decomposition import (
    DecompositionTree,
    InvalidDecomposition,
    Node,
    decompose_k33_free,
    decompose_k5_free,
    refine,
    validate,
)
from .external import cut_table, route_external_flow
from .maxflow import max_flow, min_cut_value
from .mimic import (
    build_full_mimic,
    build_mimic4_single_source,
    build_mimic_general,
    merge_mimics,
)
from .network import (
    FULL,
    Edge,
    FlowAssignment,
    FlowNetwork,
    TerminalSet,
    UnknownVertexError,
    imbalances,
    merge_networks,
)

Observer = Callable[[str, FlowNetwork], None]


@dataclass(frozen=True)
class ReplacementRecord:
    """One simplification step, replayable in reverse.

    ``snapshot`` is the network the installed mimic replaced; its edges may
    themselves be mimics from earlier records, which the stack order
    resolves.  ``terminals`` aligns imbalance extraction with routing.
    """

    snapshot: FlowNetwork
    terminals: tuple[int, ...]
    installed_edge_ids: frozenset[int]
    fresh_vertices: frozenset[int]


@dataclass
class SolveState:
    tree: DecompositionTree
    next_vertex: int
    next_edge: int
    records: list[ReplacementRecord] = field(default_factory=list)
    observer: Observer | None = None

    def alloc_vertex(self) -> int:
        v = self.next_vertex
        self.next_vertex += 1
        return v

    def alloc_edges(self, count: int) -> int:
        first = self.next_edge
        self.next_edge += count
        return first

    def push(
        self, snapshot: FlowNetwork, terminals: Sequence[int], installed: FlowNetwork
    ) -> None:
        self.records.append(
            ReplacementRecord(
                snapshot=snapshot,
                terminals=tuple(terminals),
                installed_edge_ids=frozenset(e.id for e in installed.edges),
                fresh_vertices=frozenset(installed.vertices - set(terminals)),
            )
        )

    def notify(self, stage: str) -> None:
        if self.observer is not None:
            self.observer(stage, self.tree.reassemble())


def locate_terminal_path(
    tree: DecompositionTree, s: int, t: int
) -> tuple[list[int], dict[Node, Node | None]]:
    """Path of components from s's component to t's component, plus the
    parent map of the tree walk from s's component (``DecompositionTree.walk``),
    which Phase I reuses.  The distinguished component for a terminal lying
    in a shared clique is the lowest-id one."""
    homes: dict[int, int] = {}
    for cid, comp in tree.components.items():
        for v in (s, t):
            if v in comp.net.vertices:
                homes[v] = min(cid, homes.get(v, cid))
    for v in (s, t):
        if v not in homes:
            raise UnknownVertexError(f"vertex {v} not in the decomposition")
    parent = tree.walk([("c", homes[s])])
    goal: Node | None = ("c", homes[t])
    if goal not in parent:
        raise InvalidDecomposition("terminals lie in different tree components")
    path: list[int] = []
    while goal is not None:
        if goal[0] == "c":
            path.append(goal[1])
        goal = parent[goal]
    path.reverse()
    return path, parent


def _mimic(state: SolveState, net: FlowNetwork, terminals: tuple[int, ...]) -> FlowNetwork:
    """Exact full-table mimic of ``net`` on 1..3 sorted terminals: a bare
    vertex, an antiparallel edge pair, or a star."""
    if len(terminals) == 1:
        return FlowNetwork(frozenset(terminals), ())
    table = cut_table(net, TerminalSet(terminals), FULL)
    hub = state.alloc_vertex() if len(terminals) == 3 else None
    first = state.alloc_edges(6 if len(terminals) == 3 else 2)
    return build_full_mimic(table, hub, first)


def _replace(state: SolveState, ci_id: int, cj_id: int, terminals: tuple[int, ...]) -> None:
    """Replace component ci by its mimic on ``terminals`` and glue the mimic
    into component cj; ci leaves the tree."""
    tree = state.tree
    ci, cj = tree.components[ci_id], tree.components[cj_id]
    mimic_net = _mimic(state, ci.net, terminals)
    state.push(ci.net, terminals, mimic_net)
    cj.net = merge_networks(cj.net, mimic_net)
    tree.remove_component(ci_id)


def phase1(
    state: SolveState, path_comps: list[int], parent: dict[Node, Node | None]
) -> None:
    """Replace every component off the terminal path by its mimic on the
    clique above it, deepest first, and glue the mimic into the component
    above that clique; a clique leaves the tree once at most one component
    holds it.  ``parent`` is the walk of ``locate_terminal_path``: an
    off-path component's way to its root passes through the nearest path
    component, so its parent is the one a walk from the path would give."""
    tree = state.tree
    on_path = set(path_comps)
    for node, up in reversed(parent.items()):
        if node[0] != "c" or node[1] in on_path:
            continue
        kid, cj_id = up[1], parent[up][1]
        _replace(state, node[1], cj_id, tuple(sorted(tree.cliques[kid].vertices)))
        if len(tree.clique_comps[kid]) <= 1:
            tree.remove_clique(kid)
        state.notify("replace")


def phase2(state: SolveState, path_comps: list[int]) -> FlowNetwork:
    """Glue the terminal path, all that Phase I leaves, into one network."""
    tree = state.tree
    if len(tree.components) != len(path_comps):
        raise InvalidDecomposition("tree is disconnected")
    return merge_networks(*(tree.components[c].net for c in path_comps))


def reconstruct(
    state: SolveState, final_net: FlowNetwork, final_flow: FlowAssignment
) -> FlowAssignment:
    """Pop the replacement stack, converting the flow on each mimic into a
    routed flow on the network it replaced.  Feasibility of every pop is
    guaranteed by the cut-table equality of the installed mimic; a failure
    here means a mimicking bug, not bad input."""
    flows: dict[int, int] = dict(final_flow)
    edges: dict[int, Edge] = dict(final_net.edge_by_id)
    vertices: set[int] = set(final_net.vertices)
    for rec in reversed(state.records):
        x = [0] * len(rec.terminals)
        pos = {q: i for i, q in enumerate(rec.terminals)}
        for eid in sorted(rec.installed_edge_ids):
            e = edges.pop(eid)
            f = flows.pop(eid, 0)
            if e.tail in pos:
                x[pos[e.tail]] += f
            if e.head in pos:
                x[pos[e.head]] -= f
        vertices -= set(rec.fresh_vertices)
        routed = route_external_flow(rec.snapshot, TerminalSet(rec.terminals), x)
        for e in rec.snapshot.edges:
            edges[e.id] = e
        vertices |= set(rec.snapshot.vertices)
        flows.update(routed)
        if state.observer is not None:
            net = FlowNetwork(frozenset(vertices), tuple(edges[k] for k in sorted(edges)))
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
    work = tree.copy()
    state = SolveState(
        tree=work,
        next_vertex=graph.next_vertex_id(),
        next_edge=graph.next_edge_id(),
        observer=observer,
    )
    if observer is not None:
        observer("input", graph)  # a validated tree reassembles to graph exactly
    path_comps, parent = locate_terminal_path(work, s, t)
    phase1(state, path_comps, parent)
    final_net = phase2(state, path_comps)
    value, final_flow = max_flow(final_net, s, t)
    if observer is not None:
        observer("final", final_net)
    flows = reconstruct(state, final_net, final_flow)
    if set(flows) != {e.id for e in graph.edges}:
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
    """Decompose by family (see ``decompose``) and solve."""
    tree = decompose(graph, family)
    return max_flow_decomposed(graph, tree, s, t, validate_input=False, observer=observer)
