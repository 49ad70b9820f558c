"""Core data model: directed integer-capacity flow networks, terminal sets,
and multi-terminal cut tables.

Networks are immutable once built; every derived structure (adjacency, id
indexes) is computed lazily and cached, so values are safe to share between
threads for read-only use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

MAX_CAPACITY = 2**63 - 1  # bound on input arcs (fileio); internal arcs hold sums of them

FULL = "full"
SINGLE_SOURCE = "single_source"


class FlowError(Exception):
    """Base class for errors raised by this package."""


class UnknownVertexError(FlowError):
    pass


class InfeasibleDemandError(FlowError):
    """An external flow demand is not realizable in the given network."""


class MimicInputError(FlowError):
    """A cut table fed to a mimicking-network builder is inconsistent."""


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int
    cap: int

    def __post_init__(self) -> None:
        if self.tail == self.head:
            raise ValueError(f"self-loop at vertex {self.tail} (edge {self.id})")
        if self.cap < 0:
            raise ValueError(f"negative capacity {self.cap} on edge {self.id}")


@dataclass(frozen=True)
class FlowNetwork:
    """Directed multigraph with stable edge ids.

    Parallel edges and antiparallel pairs are permitted; self-loops are not.
    ``vertices`` may include isolated vertices.
    """

    vertices: frozenset[int]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for e in self.edges:
            if e.id in seen:
                raise ValueError(f"duplicate edge id {e.id}")
            seen.add(e.id)
            if e.tail not in self.vertices or e.head not in self.vertices:
                raise UnknownVertexError(f"edge {e.id} references missing vertex")

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int, int, int]],
        extra_vertices: Iterable[int] = (),
    ) -> "FlowNetwork":
        """Build from ``(id, tail, head, cap)`` tuples."""
        es = tuple(Edge(*t) for t in edges)
        verts = set(extra_vertices)
        for e in es:
            verts.add(e.tail)
            verts.add(e.head)
        return cls(frozenset(verts), es)

    @cached_property
    def edge_by_id(self) -> Mapping[int, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def total_capacity(self) -> int:
        return sum(e.cap for e in self.edges)

    def next_vertex_id(self) -> int:
        return max(self.vertices, default=-1) + 1

    def next_edge_id(self) -> int:
        return max((e.id for e in self.edges), default=-1) + 1

    def without_edges(self, edge_ids: Iterable[int], drop_vertices: Iterable[int] = ()) -> "FlowNetwork":
        gone = set(edge_ids)
        dropped = set(drop_vertices)
        kept = tuple(e for e in self.edges if e.id not in gone)
        return FlowNetwork(frozenset(self.vertices - dropped), kept)


def merge_networks(*nets: FlowNetwork) -> FlowNetwork:
    """Union of networks over shared vertex ids; edge ids must be disjoint."""
    edges: list[Edge] = []
    verts: set[int] = set()
    for net in nets:
        edges.extend(net.edges)
        verts |= net.vertices
    return FlowNetwork(frozenset(verts), tuple(edges))


@dataclass(frozen=True)
class TerminalSet:
    """Ordered distinct terminals, at most four, with an optional source."""

    order: tuple[int, ...]
    source_index: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= len(self.order) <= 4:
            raise ValueError(f"terminal count {len(self.order)} out of range 1..4")
        if len(set(self.order)) != len(self.order):
            raise ValueError("terminals must be distinct")
        if self.source_index is not None and not 0 <= self.source_index < len(self.order):
            raise ValueError("source index out of range")

    @classmethod
    def of(cls, *terminals: int) -> "TerminalSet":
        return cls(tuple(terminals))

    @classmethod
    def single_source(cls, source: int, *others: int) -> "TerminalSet":
        return cls((source,) + tuple(others), source_index=0)

    @property
    def k(self) -> int:
        return len(self.order)

    @property
    def source(self) -> int | None:
        return None if self.source_index is None else self.order[self.source_index]

    @property
    def non_sources(self) -> tuple[int, ...]:
        if self.source_index is None:
            return self.order
        return tuple(q for i, q in enumerate(self.order) if i != self.source_index)

    def check_in(self, net: FlowNetwork) -> None:
        for q in self.order:
            if q not in net.vertices:
                raise UnknownVertexError(f"terminal {q} not in network")


def proper_subsets(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Nonempty proper subsets in deterministic (size, lexicographic) order."""
    items = tuple(sorted(items))
    n = len(items)
    masks = sorted(range(1, (1 << n) - 1), key=lambda m: (bin(m).count("1"), m))
    for m in masks:
        yield tuple(items[i] for i in range(n) if m >> i & 1)


def nonempty_subsets(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    items = tuple(sorted(items))
    n = len(items)
    masks = sorted(range(1, 1 << n), key=lambda m: (bin(m).count("1"), m))
    for m in masks:
        yield tuple(items[i] for i in range(n) if m >> i & 1)


@dataclass(frozen=True)
class CutTable:
    """Exact minimum-cut values over terminal splits.

    ``full`` mode maps every nonempty proper subset S of the terminals
    (keyed by frozenset, the source side) to the value S↛(Q∖S).  In
    ``single_source`` mode keys are the nonempty subsets S of the non-source
    terminals and values are source↛S (remaining terminals unconstrained).
    """

    mode: str
    terminals: TerminalSet
    values: Mapping[frozenset[int], int] = field(compare=True)

    def __post_init__(self) -> None:
        if self.mode not in (FULL, SINGLE_SOURCE):
            raise ValueError(f"unknown cut table mode {self.mode!r}")
        if self.mode == SINGLE_SOURCE and self.terminals.source is None:
            raise ValueError("single-source table needs a designated source")
        expected = self.expected_keys()
        if set(self.values) != expected:
            raise ValueError("cut table keys do not cover the required splits")
        for key, val in self.values.items():
            if val < 0:
                raise ValueError(f"negative cut value {val} for {sorted(key)}")

    def expected_keys(self) -> set[frozenset[int]]:
        if self.mode == FULL:
            return {frozenset(s) for s in proper_subsets(self.terminals.order)}
        return {frozenset(s) for s in nonempty_subsets(self.terminals.non_sources)}

    def cut(self, subset: Iterable[int]) -> int:
        return self.values[frozenset(subset)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CutTable):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.terminals == other.terminals
            and dict(self.values) == dict(other.values)
        )


# A flow assignment maps edge id -> nonnegative flow; absent ids carry zero.
FlowAssignment = dict[int, int]


def imbalances(net: FlowNetwork, flow: Mapping[int, int]) -> dict[int, int]:
    """Net outflow minus inflow per vertex under ``flow``."""
    bal = {v: 0 for v in net.vertices}
    for e in net.edges:
        f = flow.get(e.id, 0)
        bal[e.tail] += f
        bal[e.head] -= f
    return bal
