"""External flows: cut tables, realizability (Gale conditions), routing,
and flow verification."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

# ``max_flow`` and ``min_cut_value`` are imported but unused here: the
# benchmark's traced run wraps this module's bindings by name.
from .maxflow import TerminalKernel, max_flow, min_cut_value
from .network import (
    FULL,
    SINGLE_SOURCE,
    CutTable,
    FlowAssignment,
    FlowNetwork,
    InfeasibleDemandError,
    TerminalSet,
    imbalances,
    nonempty_subsets,
    proper_subsets,
)


def cut_table(net: FlowNetwork, terminals: TerminalSet, mode: str = FULL) -> CutTable:
    """All minimum-cut values over terminal splits.

    Full mode computes the 2^k - 2 values S↛(Q∖S); single-source mode the
    2^(k-1) - 1 values source↛S for nonempty S among the other terminals.
    """
    if not 2 <= terminals.k <= 4:
        raise ValueError(f"cut tables support 2..4 terminals, got {terminals.k}")
    terminals.check_in(net)
    order = terminals.order
    if mode == FULL:
        keys = [frozenset(s_side) for s_side in proper_subsets(order)]
        splits = [(s_side, [q for q in order if q not in s_side]) for s_side in keys]
    elif mode == SINGLE_SOURCE:
        src = terminals.source
        if src is None:
            raise ValueError("single-source mode needs a designated source terminal")
        keys = [frozenset(sinks) for sinks in nonempty_subsets(terminals.non_sources)]
        splits = [((src,), sinks) for sinks in keys]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    kernel = TerminalKernel(net, order)
    return CutTable(mode, terminals, {key: kernel.cut(*split) for key, split in zip(keys, splits)})


def check_external_realizable(table: CutTable, x: Sequence[int]) -> bool:
    """Gale conditions: ``x`` is realizable iff it sums to zero and no
    terminal subset demands more than its cut allows."""
    terms = table.terminals
    if len(x) != terms.k:
        raise ValueError("demand length does not match terminal count")
    if sum(x) != 0:
        return False
    demand = dict(zip(terms.order, x))
    if table.mode == FULL:
        for subset, cut in table.values.items():
            if sum(demand[q] for q in subset) > cut:
                return False
        return True
    src = terms.source
    if any(demand[q] > 0 for q in terms.order if q != src):
        return False
    for subset, cut in table.values.items():
        if sum(-demand[q] for q in subset) > cut:
            return False
    return True


def route_external_flow(
    net: FlowNetwork, terminals: TerminalSet, x: Sequence[int]
) -> FlowAssignment:
    """A feasible flow with net imbalance exactly ``x[i]`` at terminal i.

    Attaches a super source to all supply terminals (capacity x_i) and a
    super sink from all demand terminals (capacity -x_i) and saturates.
    Raises InfeasibleDemandError when the demand violates the Gale bounds,
    which signals a broken mimicking invariant upstream.
    """
    if len(x) != terminals.k:
        raise ValueError("demand length does not match terminal count")
    if sum(x) != 0:
        raise InfeasibleDemandError("demands must sum to zero")
    terminals.check_in(net)
    supply = {q: xi for q, xi in zip(terminals.order, x) if xi > 0}
    need = sum(supply.values())
    if need == 0:
        return {e.id: 0 for e in net.edges}
    demand = {q: -xi for q, xi in zip(terminals.order, x) if xi < 0}
    value, cap = TerminalKernel(net, terminals.order).flow(supply, demand)
    if value != need:
        raise InfeasibleDemandError(f"demand {tuple(x)} not realizable (routed {value} of {need})")
    return {e.id: e.cap - cap[2 * i] for i, e in enumerate(net.edges)}


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    problems: tuple[str, ...] = field(default=())

    def __bool__(self) -> bool:
        return self.ok


def verify_flow(
    net: FlowNetwork,
    terminals: TerminalSet,
    x: Sequence[int],
    flow: Mapping[int, int],
) -> VerifyResult:
    """Check capacity bounds, conservation off the terminals, and exact
    imbalance ``x`` at each terminal.  Never raises; returns diagnostics."""
    problems: list[str] = []
    if len(x) != terminals.k:
        return VerifyResult(False, ("demand length does not match terminal count",))
    known = net.edge_by_id
    for eid in flow:
        if eid not in known:
            problems.append(f"flow on unknown edge {eid}")
    for e in net.edges:
        f = flow.get(e.id, 0)
        if f < 0:
            problems.append(f"negative flow {f} on edge {e.id}")
        elif f > e.cap:
            problems.append(f"flow {f} exceeds capacity {e.cap} on edge {e.id}")
    want = dict(zip(terminals.order, x))
    for v, bal in sorted(imbalances(net, flow).items()):
        if v in want:
            if bal != want[v]:
                problems.append(f"terminal {v} imbalance {bal}, expected {want[v]}")
        elif bal != 0:
            problems.append(f"conservation violated at vertex {v} (imbalance {bal})")
    return VerifyResult(not problems, tuple(problems))


@dataclass(frozen=True)
class CutCertificate(VerifyResult):
    """A ``certify_max_flow`` verdict with the residual source side S and the
    capacity of the edges out of it (empty and 0 when a terminal is missing)."""

    source_side: frozenset[int] = field(default=frozenset())
    cut: int = 0


def certify_max_flow(net: FlowNetwork, s: int, t: int, flow: Mapping[int, int]) -> CutCertificate:
    """Check the min-cut certificate that ``flow`` is a maximum s-t flow
    (McConnell, Mehlhorn, Näher & Schweitzer, "Certifying algorithms",
    2011): the set S that s reaches in the flow's residual network must not
    hold t, the capacity of the edges out of S must equal the flow's value
    (its net outflow at s), and no edge into S may carry flow.  Together
    with the feasibility ``verify_flow`` checks, that proves the value
    maximum without running a max-flow engine.  Never raises; returns
    diagnostics, S and its cut."""
    for role, v in (("source", s), ("sink", t)):
        if v not in net.vertices:
            return CutCertificate(False, (f"{role} {v} not in network",))
    residual: dict[int, list[int]] = {v: [] for v in net.vertices}
    for e in net.edges:
        f = flow.get(e.id, 0)
        if f < e.cap:
            residual[e.tail].append(e.head)
        if f > 0:
            residual[e.head].append(e.tail)
    side = {s}
    stack = [s]
    while stack:
        for w in residual[stack.pop()]:
            if w not in side:
                side.add(w)
                stack.append(w)
    problems: list[str] = []
    if t in side:
        problems.append(f"sink {t} is reachable from source {s} in the residual network")
    value = imbalances(net, flow)[s]
    cut = sum(e.cap for e in net.edges if e.tail in side and e.head not in side)
    if cut != value:
        problems.append(
            f"capacity {cut} out of the residual source side differs from value {value}"
        )
    for e in net.edges:
        if e.tail not in side and e.head in side and flow.get(e.id, 0):
            problems.append(f"flow {flow[e.id]} enters the residual source side on edge {e.id}")
    return CutCertificate(not problems, tuple(problems), frozenset(side), cut)
