"""The decomposed max-flow pipeline: on a copy of the validated clique-sum
tree as given, shrink off-path components (Phase I) and then the terminal
path (Phase II) with mimicking networks, solve the final small network, and
replay the replacements in reverse to recover a flow on the original network.

The tree is not refined first: every installed mimic has the same cut table
as the component it replaces, which makes the pipeline exact on any valid
tree whose cliques have at most 3 vertices.  Triconnected pieces and facial
gluing triangles (``decomposition.refine``) matter only to a planar-specific
flow engine, which this package does not have.

Every network mutation happens at a replacement step that pushes a
ReplacementRecord; gluing only moves edges between components and never
changes the reassembled network, so the working max-flow value is invariant
per record, which the audit hook can check step by step.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .decomposition import (
    PLANAR,
    DecompositionTree,
    InvalidDecomposition,
    Node,
    decompose_k33_free,
    decompose_k5_free,
    refine,  # unused here; the benchmark's traced run wraps solver.refine by name
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
    SINGLE_SOURCE,
    Edge,
    FlowAssignment,
    FlowNetwork,
    MimicInputError,
    TerminalSet,
    UnknownVertexError,
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

    def absorb_ids(self, net: FlowNetwork) -> None:
        self.next_vertex = max(self.next_vertex, max(net.vertices, default=-1) + 1)
        self.next_edge = max(self.next_edge, net.next_edge_id())

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
) -> tuple[list[int], list[int]]:
    """Path of components from s's component to t's component, plus the
    cliques between consecutive path components.  The distinguished component
    for a terminal lying in a shared clique is the lowest-id one."""

    def home(v: int) -> int:
        owners = [cid for cid in sorted(tree.components) if v in tree.components[cid].net.vertices]
        if not owners:
            raise UnknownVertexError(f"vertex {v} not in the decomposition")
        return owners[0]

    cs, ct = home(s), home(t)
    if cs == ct:
        return [cs], []
    parent, _ = tree.walk([("c", cs)])
    goal = ("c", ct)
    if goal not in parent:
        raise InvalidDecomposition("terminals lie in different tree components")
    path: list[Node] = [goal]
    while (up := parent[path[-1]]) is not None:
        path.append(up)
    path.reverse()
    comps = [nid for kind, nid in path if kind == "c"]
    cliques = [nid for kind, nid in path if kind == "k"]
    return comps, cliques


def _small_full_mimic(
    state: SolveState, net: FlowNetwork, terminals: tuple[int, ...]
) -> FlowNetwork:
    """Exact full-table mimic on 1..3 terminals (vertex / edge pair / star)."""
    if len(terminals) == 1:
        return FlowNetwork(frozenset(terminals), ())
    table = cut_table(net, TerminalSet(terminals), FULL)
    hub = state.alloc_vertex() if len(terminals) == 3 else None
    first = state.alloc_edges(6 if len(terminals) == 3 else 2)
    return build_full_mimic(table, hub, first)


def phase1(state: SolveState, path_comps: list[int], path_cliques: list[int]) -> None:
    """Replace every component off the terminal path by a <=4-vertex mimic,
    gluing it into its path-ward neighbor whenever the clique-sum structure
    allows, merging pendant mimics that share a gluing triangle."""
    tree = state.tree
    on_path_comps = set(path_comps)
    path_clique_set = set(path_cliques)
    later_index = {kid: i + 1 for i, kid in enumerate(path_cliques)}
    # Depth from the path through the 2-colored tree.
    _, depth = tree.walk(
        [("c", c) for c in path_comps] + [("k", k) for k in path_cliques]
    )

    def is_leaf(cid: int) -> bool:
        return (
            cid in tree.components
            and cid not in on_path_comps
            and not tree.components[cid].mimic
            and len(tree.comp_cliques[cid]) == 1
        )

    heap: list[tuple[int, int]] = []
    for cid in sorted(tree.components):
        if is_leaf(cid):
            heapq.heappush(heap, (-depth[("c", cid)], cid))
    while heap:
        _, ci_id = heapq.heappop(heap)
        if not is_leaf(ci_id):
            continue
        ci = tree.components[ci_id]
        kid = next(iter(tree.comp_cliques[ci_id]))
        kverts = tree.cliques[kid].vertices
        terms = tuple(sorted(kverts))
        # Path-ward neighbor: on a path clique the later path component,
        # otherwise the unique neighbor closer to the path.
        if kid in path_clique_set:
            cj_id = path_comps[later_index[kid]]
        else:
            cj_id = min(
                c
                for c in tree.clique_comps[kid]
                if c != ci_id and depth[("c", c)] < depth[("k", kid)]
            )
        mimic_net = _small_full_mimic(state, ci.net, terms)
        state.push(ci.net, terms, mimic_net)
        ci.net = mimic_net
        ci.label = PLANAR
        ci.mimic = True
        state.notify("replace")
        pendant = [
            c
            for c in sorted(tree.clique_comps[kid])
            if c != ci_id and tree.components[c].mimic and c not in on_path_comps
        ]
        if pendant:
            other = tree.components[pendant[0]]
            union = merge_networks(other.net, ci.net)
            hub = state.alloc_vertex()
            merged = merge_mimics(
                other.net, ci.net, terms, hub, state.alloc_edges(6)
            )
            state.push(union, terms, merged)
            tree.remove_component(other.id)
            ci.net = merged
            state.notify("replace")
        cj = tree.components[cj_id]
        exclusive = tree.clique_comps[kid] == {ci_id, cj_id}
        if cj.label.kind == "btw" or len(terms) <= 2 or exclusive:
            cj.net = merge_networks(cj.net, ci.net)
            tree.remove_component(ci_id)
            if len(tree.clique_comps[kid]) <= 1 and kid not in path_clique_set:
                tree.remove_clique(kid)
            if is_leaf(cj_id):
                heapq.heappush(heap, (-depth[("c", cj_id)], cj_id))
        # Otherwise the mimic stays as the clique's single pendant.


def _transit_free(net: FlowNetwork, terminals: Sequence[int]) -> bool:
    """No capacity between any ordered terminal pair (source excluded)."""
    for a, b in itertools.permutations(sorted(terminals), 2):
        if min_cut_value(net, (a,), (b,)) > 0:
            return False
    return True


def _forced_cuts_match(net: FlowNetwork, terms: TerminalSet, table) -> bool:
    """True when forcing non-source terminals onto the source side never
    raises a cut above its free-placement table value.  Cuts of the glued
    network decompose over terminal-side assignments, so this makes the
    single-source table determine every composed cut exactly."""
    s = terms.source
    others = terms.non_sources
    for sinks in _proper_splits(others):
        sources = tuple(q for q in others if q not in sinks)
        if min_cut_value(net, (s,) + sources, sinks) != table.cut(sinks):
            return False
    return True


def _proper_splits(items: Sequence[int]):
    items = tuple(sorted(items))
    for r in range(1, len(items)):
        yield from itertools.combinations(items, r)


def _phase2_mimic(
    state: SolveState, net: FlowNetwork, terms: TerminalSet
) -> tuple[FlowNetwork, bool]:
    """Replacement network for the current s-side path component.

    k=2 is a single saturating edge and k=3 a full-table star, both exact.
    For k=4 the 7-edge single-source network is used only when it is provably
    exact here: the component's source-side-forced cuts must match the free
    table (composed min cuts are then determined by the 7 values) and the
    built mimic must carry no terminal-to-terminal flow (restrictions of any
    feasible flow are then single-source, keeping the replay feasible).
    Otherwise flow may re-enter the component, single-source cuts do not
    determine the value, and the full-table collapsing construction is used.
    """
    s = terms.source
    others = terms.non_sources
    if terms.k == 1:
        return FlowNetwork(frozenset((s,)), ()), True
    if terms.k == 2:
        val = min_cut_value(net, (s,), (others[0],))
        eid = state.alloc_edges(1)
        return FlowNetwork(frozenset(terms.order), (Edge(eid, s, others[0], val),)), True
    if terms.k == 3:
        table = cut_table(net, TerminalSet(tuple(sorted(terms.order))), FULL)
        hub = state.alloc_vertex()
        return build_full_mimic(table, hub, state.alloc_edges(6)), False
    ss_table = cut_table(net, terms, SINGLE_SOURCE)
    if _forced_cuts_match(net, terms, ss_table):
        try:
            m4, _ = build_mimic4_single_source(
                ss_table, state.alloc_vertex(), state.alloc_edges(7)
            )
        except MimicInputError:
            m4 = None
        if m4 is not None and _transit_free(m4, others):
            return m4, True
    general = build_mimic_general(
        net,
        TerminalSet(tuple(sorted(terms.order))),
        first_fresh_vertex=state.next_vertex,
        first_edge_id=state.next_edge,
    )
    state.absorb_ids(general)
    return general, False


def phase2(
    state: SolveState, path_comps: list[int], path_cliques: list[int], s: int, t: int
) -> FlowNetwork:
    """Fold the terminal path from the s side into a single component."""
    tree = state.tree
    cur = path_comps[0]
    for step, kid in enumerate(path_cliques):
        nxt = path_comps[step + 1]
        kverts = tree.cliques[kid].vertices
        ci = tree.components[cur]
        if s in kverts:
            order = (s,) + tuple(v for v in sorted(kverts) if v != s)
        else:
            order = (s,) + tuple(sorted(kverts))
        terms = TerminalSet(order, source_index=0)
        mimic_net, _ = _phase2_mimic(state, ci.net, terms)
        state.push(ci.net, terms.order, mimic_net)
        ci.net = mimic_net
        ci.mimic = True
        state.notify("replace")
        pendants = [
            c for c in sorted(tree.clique_comps[kid]) if c not in (cur, nxt)
        ]
        glued = [mimic_net]
        for pid in pendants:
            if not tree.components[pid].mimic:
                raise InvalidDecomposition(
                    f"non-mimic component {pid} left on path clique {kid}"
                )
            glued.append(tree.components[pid].net)
            tree.remove_component(pid)
        target = tree.components[nxt]
        target.net = merge_networks(target.net, *glued)
        tree.remove_component(cur)
        tree.remove_clique(kid)
        cur = nxt
    if len(tree.components) != 1:
        raise InvalidDecomposition("phase II finished with more than one component")
    return tree.components[cur].net


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
            _assert_conserving(edges, flows)
            state.observer(
                "reconstruct",
                FlowNetwork(frozenset(vertices), tuple(edges[k] for k in sorted(edges))),
            )
    return flows


def _assert_conserving(edges: dict[int, Edge], flows: dict[int, int]) -> None:
    """Audit-mode check: after a pop the working flow must balance at every
    vertex except one source and one sink of equal magnitude."""
    bal: dict[int, int] = {}
    for eid, e in edges.items():
        f = flows.get(eid, 0)
        bal[e.tail] = bal.get(e.tail, 0) + f
        bal[e.head] = bal.get(e.head, 0) - f
    pos = [b for b in bal.values() if b > 0]
    neg = [b for b in bal.values() if b < 0]
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
    path_comps, path_cliques = locate_terminal_path(work, s, t)
    phase1(state, path_comps, path_cliques)
    final_net = phase2(state, path_comps, path_cliques, s, t)
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
