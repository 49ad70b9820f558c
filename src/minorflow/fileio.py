"""Text formats: DIMACS-style network files, JSON decomposition files, and
flow dumps.  Output is canonical (sorted, 1-based contiguous ids) so golden
files are bit-exact; parse(write(x)) is the identity on canonical inputs.
"""

from __future__ import annotations

import json
from typing import Mapping

from .decomposition import (
    Clique,
    Component,
    DecompositionTree,
    InvalidDecomposition,
)
from .network import MAX_CAPACITY, Edge, FlowNetwork


class FormatError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_network(text: str) -> tuple[FlowNetwork, int | None, int | None]:
    """Parse a network file; returns (network, source, sink) where the
    terminals are taken from ``n`` lines when present."""
    n_vertices = None
    m_arcs = None
    edges: list[Edge] = []
    source = sink = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "p":
                if n_vertices is not None:
                    raise FormatError("duplicate problem line", lineno)
                if len(parts) != 4 or parts[1] != "max":
                    raise FormatError("expected 'p max <n> <m>'", lineno)
                n_vertices, m_arcs = int(parts[2]), int(parts[3])
                if n_vertices < 0 or m_arcs < 0:
                    raise FormatError("negative vertex or arc count", lineno)
            elif kind == "n":
                if len(parts) != 3 or parts[2] not in ("s", "t"):
                    raise FormatError("expected 'n <id> s|t'", lineno)
                if parts[2] == "s":
                    source = int(parts[1])
                else:
                    sink = int(parts[1])
            elif kind == "a":
                if n_vertices is None:
                    raise FormatError("arc before problem line", lineno)
                if len(parts) != 4:
                    raise FormatError("expected 'a <tail> <head> <cap>'", lineno)
                tail, head, cap = int(parts[1]), int(parts[2]), int(parts[3])
                if not (1 <= tail <= n_vertices and 1 <= head <= n_vertices):
                    raise FormatError("vertex id out of range", lineno)
                if cap < 0:
                    raise FormatError("negative capacity", lineno)
                if cap > MAX_CAPACITY:
                    raise FormatError(f"capacity {cap} above 2^63-1", lineno)
                try:
                    edges.append(Edge(len(edges) + 1, tail, head, cap))
                except ValueError as exc:  # a self-loop
                    raise FormatError(str(exc), lineno) from None
            else:
                raise FormatError(f"unknown line type {kind!r}", lineno)
        except ValueError as exc:
            raise FormatError(f"bad integer: {exc}", lineno) from None
    if n_vertices is None:
        raise FormatError("missing problem line")
    if m_arcs != len(edges):
        raise FormatError(f"expected {m_arcs} arcs, found {len(edges)}")
    net = FlowNetwork(frozenset(range(1, n_vertices + 1)), tuple(edges))
    return net, source, sink


def write_network(net: FlowNetwork, source: int | None = None, sink: int | None = None) -> str:
    lines = [f"p max {len(net.vertices)} {len(net.edges)}"]
    if source is not None:
        lines.append(f"n {source} s")
    if sink is not None:
        lines.append(f"n {sink} t")
    for e in sorted(net.edges, key=lambda e: e.id):
        lines.append(f"a {e.tail} {e.head} {e.cap}")
    return "\n".join(lines) + "\n"


def canonical_ids(
    net: FlowNetwork, tree: DecompositionTree | None = None
) -> tuple[FlowNetwork, DecompositionTree | None, dict[int, int], dict[int, int]]:
    """Relabel vertices to 1..n (sorted order) and edges to 1..m (id order),
    remapping an accompanying decomposition tree identically."""
    vmap = {v: i + 1 for i, v in enumerate(sorted(net.vertices))}
    emap = {e.id: i + 1 for i, e in enumerate(sorted(net.edges, key=lambda e: e.id))}

    def remap(n: FlowNetwork) -> FlowNetwork:
        return FlowNetwork(
            frozenset(vmap[v] for v in n.vertices),
            tuple(
                Edge(emap[e.id], vmap[e.tail], vmap[e.head], e.cap)
                for e in sorted(n.edges, key=lambda e: e.id)
            ),
        )

    out_tree = None
    if tree is not None:
        out_tree = DecompositionTree()
        for cid in sorted(tree.components):
            comp = tree.components[cid]
            out_tree.components[cid] = Component(cid, remap(comp.net))
            out_tree.comp_cliques[cid] = set(tree.comp_cliques[cid])
        for kid in sorted(tree.cliques):
            k = tree.cliques[kid]
            out_tree.cliques[kid] = type(k)(kid, frozenset(vmap[v] for v in k.vertices))
            out_tree.clique_comps[kid] = set(tree.clique_comps[kid])
    return remap(net), out_tree, vmap, emap


def write_decomposition(tree: DecompositionTree) -> str:
    components = []
    for cid in sorted(tree.components):
        comp = tree.components[cid]
        components.append(
            {
                "id": cid,
                "vertices": sorted(comp.net.vertices),
                "edges": [
                    [e.id, e.tail, e.head, e.cap]
                    for e in sorted(comp.net.edges, key=lambda e: e.id)
                ],
            }
        )
    doc = {
        "components": components,
        "cliques": [
            {"id": kid, "vertices": sorted(tree.cliques[kid].vertices)}
            for kid in sorted(tree.cliques)
        ],
        "tree_edges": sorted(
            [cid, kid] for cid in sorted(tree.comp_cliques) for kid in tree.comp_cliques[cid]
        ),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_decomposition(text: str) -> DecompositionTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
    tree = DecompositionTree()
    try:
        for comp in doc["components"]:
            net = FlowNetwork.from_edges(
                [tuple(int(x) for x in e) for e in comp["edges"]],
                (int(v) for v in comp["vertices"]),
            )
            cid = int(comp["id"])
            if cid in tree.components:
                raise FormatError(f"duplicate component id {cid}")
            tree.components[cid] = Component(cid, net)
            tree.comp_cliques[cid] = set()
        for cl in doc["cliques"]:
            kid = int(cl["id"])
            if kid in tree.cliques:
                raise FormatError(f"duplicate clique id {kid}")
            tree.cliques[kid] = Clique(kid, frozenset(int(v) for v in cl["vertices"]))
            tree.clique_comps[kid] = set()
        for cid, kid in doc["tree_edges"]:
            cid, kid = int(cid), int(kid)
            if cid not in tree.components or kid not in tree.cliques:
                raise FormatError(f"tree edge references missing node [{cid}, {kid}]")
            tree.attach(cid, kid)
    except KeyError as exc:
        raise FormatError(f"missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed value: {exc}") from None
    except InvalidDecomposition as exc:
        raise FormatError(str(exc)) from None
    return tree


def parse_flow(text: str) -> dict[int, int]:
    flow: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "f" or len(parts) != 3:
            raise FormatError("expected 'f <edge_id> <flow>'", lineno)
        try:
            eid, val = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise FormatError(f"bad integer: {exc}", lineno) from None
        if eid in flow:
            raise FormatError(f"duplicate edge id {eid}", lineno)
        flow[eid] = val
    return flow


def write_flow(flow: Mapping[int, int]) -> str:
    return "".join(f"f {eid} {flow[eid]}\n" for eid in sorted(flow))
