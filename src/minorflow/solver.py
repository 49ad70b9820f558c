"""The decomposed max-flow pipeline: solve the terminal path of the
validated clique-sum tree with exact mimicking networks (Hagerup,
Katajainen, Nishimura & Ragde, JCSS 1998) in place of the off-path
components that a minimum cut needs (Phase I), gluing the path into one
network for each solve (Phase II), then replay the replacements in reverse
to recover a flow on the original network.  The tree is only read, never
copied or changed.  It is walked once per query, from s's component, to find
the path (``DecompositionTree.walk``), and a component's off-path children
are read from it only when the component is built.

Every flow question is answered on demand: the s-t solve on the path, and
each cut of an off-path component's full table, which gives the component's
mimic on the clique above it (``mimic.build_full_mimic``: an antiparallel
pair for two terminals, a star around a fresh hub for three).  A question
is asked first with the mimics of the children built so far, compiled with
the component into one ``maxflow.TerminalKernel``, and the same Dinic run
gives the residual source side S.  The children whose clique has vertices
on both sides of S are built, by the same rule one level down (on
``decomposition.run``, so at any depth), and the question is asked again.
When no child is split, the answer is exact:

- the network without the unbuilt children is a subnetwork of the true one,
  in which every child is replaced by its exact mimic, so its min cut is at
  most the true one;
- an unbuilt child's mimic has no arc across S: an antiparallel pair joins
  two vertices on one side, and a star's hub can be put on its terminals'
  side; a one-vertex clique has an empty mimic and is never split;
- so S is a cut of the same capacity in the true network.

A cut value stays exact as more children are built, since building only
adds arcs to a network that is still a subnetwork of the true one.  So a
built component's mimic is the full-table mimic of the component with its
built children's arcs, and every child never built carries zero flow.

The replay starts from zero flow on every input edge and pops only the
records of built components.  It routes a component's demand only when its
mimic carries a non-zero one, with ``external.route_external_flow`` on the
component and its children's arcs glued (``ReplacementRecord.snapshot``); a
zero demand, and every component never built, which has no record, keeps
zero flow without compiling anything.

With an observer, each built component is reported once as it is replaced
and once as it is popped.  The network after each replacement (the
components not yet replaced, every unbuilt one among them, plus the mimic
arcs waiting in them) keeps the max-flow value of the input, which the
audit checks.  A max flow of the input that is zero on every unbuilt
component (the replayed one) stays feasible at each step, so no step has a
smaller value.  No step has a larger one either: replacing a component by
its exact mimic keeps the value, and an unbuilt component left after its
parent was replaced dangles at one vertex at most.  Every cut of a 2- or
3-terminal table separates some two of its terminals, and its S splits no
unbuilt child, so a chain of unbuilt children can join no two vertices of
their parent's clique.  Unbuilt components leave the step networks only at
Phase II's glue of the path.

The tree is not refined first: every installed mimic has the same cut table
as the subtree it replaces, which makes the pipeline exact on any valid tree
whose cliques have at most 3 vertices.  Triconnected pieces and facial
gluing triangles (``decomposition.refine``) matter only to a
planar-specific flow engine, which this package does not have.  For the
same reason the path is glued rather than folded into a tiny network by
more mimics: with a generic max-flow engine the fold costs more than it
saves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Container, Generator, Iterable

# Imported but unused here (``refine``, ``cut_table``, ``max_flow``,
# ``min_cut_value``, ``merge_mimics``, ``build_mimic4_single_source``,
# ``build_mimic_general``): the benchmark's traced run wraps these solver
# bindings by name.
from .decomposition import (
    DecompositionTree,
    DisconnectedInput,
    InvalidDecomposition,
    decompose_k33_free,
    decompose_k5_free,
    refine,
    run,
    underlying,
    validate,
)
from .external import cut_table, route_external_flow
from .maxflow import TerminalKernel, max_flow, max_flow_side, min_cut_value
from .mimic import build_full_mimic, build_mimic4_single_source, build_mimic_general, merge_mimics
from .network import (
    FULL,
    CutTable,
    Edge,
    FlowAssignment,
    FlowNetwork,
    TerminalSet,
    UnknownVertexError,
    imbalances,
    merge_networks,
    proper_subsets,
)
from .planar import components

Observer = Callable[[str, FlowNetwork], None]


@dataclass(frozen=True, slots=True)
class ReplacementRecord:
    """One Phase I replacement, replayable in reverse.

    Component ``net`` of the input tree, with the ``children`` arcs (mimics
    that the built components below it left) glued on, was replaced by the
    ``mimic`` arcs on its sorted clique ``terminals``: an antiparallel pair
    for two, a star around a fresh hub for three.  The mimic is the
    full-table mimic of that snapshot, and also of the component's whole
    subtree, since every cut was asked until it split no unbuilt child.  A
    built component's record comes after its children's.  A component that
    no minimum cut needed, which includes every one below a one-vertex
    clique, is never built and has no record.
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


def locate_terminal_path(tree: DecompositionTree, s: int, t: int) -> list[int]:
    """Path of components from s's component to t's component, climbed on
    the tree walk from s's component (``DecompositionTree.walk``).  The
    distinguished component for a terminal lying in a shared clique is the
    lowest-id one.  A tree that the walk does not span is rejected here,
    before any kernel is compiled."""
    homes: dict[int, int] = {}
    for cid, net in tree.components.items():
        for v in (s, t):
            if v in net.vertices:
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
    return path


Child = tuple[int, int, int]  # (component, clique above it, component above that)


def phase1(
    state: SolveState, path_comps: list[int], s: int, t: int
) -> tuple[FlowNetwork, int, FlowAssignment]:
    """Solve the terminal path on demand (see the module docstring) and
    return the final network (``phase2``'s glue of the last round), its
    max-flow value and a max flow on it.

    The s-t solve and each component's mimic are tasks for ``run``: each
    yields the build of every child whose clique a residual source side
    split, last child first, and resumes once those are done.  A component
    is compiled again only after it gains children's arcs, so at most 1 +
    (its children) times.  Each path component takes the cliques that no
    earlier one holds, as in the walk, and a built component all but the
    clique above it.  Only a built component gets a record; every other
    off-path component is left out of the final network and of the replay."""
    tree, pending = state.tree, state.pending
    on_path = set(path_comps)

    def children_of(cid: int, skip: Container[int]) -> list[Child]:
        # In walk order; a one-vertex clique is never split, so a child
        # below one is left out.
        return [
            (c, kid, cid)
            for kid in tree.comp_cliques[cid]
            if kid not in skip and len(tree.cliques[kid]) > 1
            for c in tree.clique_comps[kid]
            if c != cid and c not in on_path
        ]

    def split_off(children: list[Child], side: frozenset[int]) -> list[Child]:
        # Take out and return the children whose clique ``side`` splits.
        keep: list[Child] = []
        split: list[Child] = []
        for child in children:
            clique = tree.cliques[child[1]]
            (split if 0 < len(clique & side) < len(clique) else keep).append(child)
        children[:] = keep
        return split

    path_children: list[Child] = []
    held: set[int] = set()
    for p in path_comps:
        path_children += children_of(p, held)
        held |= tree.comp_cliques[p]
    replaced: set[int] = set()  # with an observer only

    def build(child: Child) -> Generator[Generator, None, None]:
        cid, kid, parent = child
        net = tree.components[cid]
        terminals = tuple(sorted(tree.cliques[kid]))
        children = children_of(cid, (kid,))
        cuts: dict[frozenset[int], int] = {}
        kernel = None
        for sources in proper_subsets(terminals):
            sinks = [q for q in terminals if q not in sources]
            while True:
                if kernel is None:
                    kernel = TerminalKernel(net, terminals, pending.get(cid, ()))
                value, side = kernel.cut(sources, sinks)
                split = split_off(children, side)
                if not split:
                    break
                for c in reversed(split):
                    yield build(c)
                kernel = None
            cuts[frozenset(sources)] = value
        hub = state.alloc_vertex() if len(terminals) == 3 else None
        table = CutTable(FULL, TerminalSet(terminals), cuts)
        mimic = build_full_mimic(table, hub, state.next_edge).edges
        state.next_edge += len(mimic)
        state.records.append(ReplacementRecord(net, tuple(pending.pop(cid, ())), terminals, mimic))
        pending.setdefault(parent, []).extend(mimic)
        if state.observer is not None:
            replaced.add(cid)
            alive = [n for c, n in tree.components.items() if c not in replaced]
            step = _glue(alive, (e for arcs in pending.values() for e in arcs))
            state.steps.append(step)
            state.observer("replace", step)

    def solve() -> Generator[Generator, None, tuple[FlowNetwork, int, FlowAssignment]]:
        while True:
            net = phase2(state, path_comps)
            value, flow, side = max_flow_side(net, s, t)
            split = split_off(path_children, side)
            if not split:
                return net, value, flow
            for c in reversed(split):
                yield build(c)

    return run(solve())


def phase2(state: SolveState, path_comps: list[int]) -> FlowNetwork:
    """Glue the terminal path, all that Phase I leaves, into one network."""
    return _glue(
        (state.tree.components[c] for c in path_comps),
        (e for c in path_comps for e in state.pending.get(c, ())),
    )


def reconstruct(state: SolveState, final_flow: FlowAssignment) -> FlowAssignment:
    """Pop the replacement stack, converting the flow on each mimic into a
    routed flow on the component and child mimic arcs it replaced.
    ``final_flow`` holds the final network's flow and zero on every other
    input edge; it is updated in place and returned.  A zero demand leaves
    the component at zero; any other is routed on the record's snapshot by
    ``route_external_flow``.  Feasibility of every pop is guaranteed by the
    cut-table equality of the installed mimic; a failure here means a
    mimicking bug, not bad input."""
    audit = state.observer is not None
    if audit:
        state.steps.pop()  # the network after the last replacement, which no pop restores
    while state.records:
        rec = state.records.pop()
        x = dict.fromkeys(rec.terminals, 0)
        for e in rec.mimic:
            f = final_flow.pop(e.id, 0)
            if e.tail in x:
                x[e.tail] += f
            if e.head in x:
                x[e.head] -= f
        demand = tuple(x.values())
        if any(demand):
            routed = route_external_flow(rec.snapshot(), TerminalSet(rec.terminals), demand)
            final_flow.update(routed)
        if audit:
            net = state.steps.pop()  # the network before this replacement
            _assert_conserving(net, final_flow)
            state.observer("reconstruct", net)
    return final_flow


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
    path_comps = locate_terminal_path(tree, s, t)
    final_net, value, final_flow = phase1(state, path_comps, s, t)
    if observer is not None:
        observer("final", final_net)
    flows = reconstruct(state, dict.fromkeys(graph.edge_by_id, 0) | final_flow)
    if len(flows) != len(graph.edges):  # every mimic arc was popped
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
