"""Text formats: DIMACS-style network files, JSON decomposition files, and
flow dumps.  Output is canonical (sorted, 1-based contiguous ids) so golden
files are bit-exact; parse(write(x)) is the identity on canonical inputs.
"""

from __future__ import annotations

import json
from typing import Mapping

from .decomposition import DecompositionTree
from .network import MAX_CAPACITY, Edge, FlowNetwork


class FormatError(Exception):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


def _not_ascii_decimal(tokens: list[str]) -> None:
    """Raise ``ValueError`` for the first of ``tokens`` that ``int`` reads but
    that is not an ASCII decimal integer: one with a digit-group underscore
    (``4_0``) or a non-ASCII digit (Arabic-Indic four reads as 4)."""
    for token in tokens:
        if not token.isascii() or "_" in token:
            raise ValueError(f"{token!r} is not an ASCII decimal integer")


def parse_network(text: str) -> tuple[FlowNetwork, int | None, int | None]:
    """Parse a network file; returns (network, source, sink) where the
    terminals are taken from ``n`` lines when present, at most one each."""
    n_vertices = None
    m_arcs = None
    edges: list[Edge] = []
    ends: dict[str, int] = {}  # "s" and "t" to the vertex of their ``n`` line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        try:
            if kind == "a":
                if n_vertices is None:
                    raise FormatError("arc before problem line", lineno)
                try:
                    _, tail, head, cap = parts
                except ValueError:
                    raise FormatError("expected 'a <tail> <head> <cap>'", lineno) from None
                if not raw.isascii() or "_" in raw:
                    _not_ascii_decimal(parts[1:])
                tail, head, cap = int(tail), int(head), int(cap)
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
            elif kind[0] == "c":
                continue
            elif kind == "p":
                if n_vertices is not None:
                    raise FormatError("duplicate problem line", lineno)
                if len(parts) != 4 or parts[1] != "max":
                    raise FormatError("expected 'p max <n> <m>'", lineno)
                if not raw.isascii() or "_" in raw:
                    _not_ascii_decimal(parts[2:])
                n_vertices, m_arcs = int(parts[2]), int(parts[3])
                if n_vertices < 0 or m_arcs < 0:
                    raise FormatError("negative vertex or arc count", lineno)
            elif kind == "n":
                if len(parts) != 3 or parts[2] not in ("s", "t"):
                    raise FormatError("expected 'n <id> s|t'", lineno)
                if parts[2] in ends:
                    raise FormatError(f"duplicate 'n <id> {parts[2]}' line", lineno)
                if not raw.isascii() or "_" in raw:
                    _not_ascii_decimal(parts[1:2])
                ends[parts[2]] = int(parts[1])
            else:
                raise FormatError(f"unknown line type {kind!r}", lineno)
        except ValueError as exc:
            raise FormatError(f"bad integer: {exc}", lineno) from None
    if n_vertices is None:
        raise FormatError("missing problem line")
    if m_arcs != len(edges):
        raise FormatError(f"expected {m_arcs} arcs, found {len(edges)}")
    net = FlowNetwork(frozenset(range(1, n_vertices + 1)), tuple(edges))
    return net, ends.get("s"), ends.get("t")


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
            out_tree.components[cid] = remap(tree.components[cid])
            out_tree.comp_cliques[cid] = set(tree.comp_cliques[cid])
        for kid in sorted(tree.cliques):
            out_tree.cliques[kid] = frozenset(vmap[v] for v in tree.cliques[kid])
            out_tree.clique_comps[kid] = set(tree.clique_comps[kid])
    return remap(net), out_tree, vmap, emap


def write_decomposition(tree: DecompositionTree) -> str:
    components = []
    for cid in sorted(tree.components):
        net = tree.components[cid]
        components.append(
            {
                "id": cid,
                "vertices": sorted(net.vertices),
                "edges": [
                    [e.id, e.tail, e.head, e.cap]
                    for e in sorted(net.edges, key=lambda e: e.id)
                ],
            }
        )
    doc = {
        "components": components,
        "cliques": [
            {"id": kid, "vertices": sorted(tree.cliques[kid])}
            for kid in sorted(tree.cliques)
        ],
        "tree_edges": sorted(
            [cid, kid] for cid in sorted(tree.comp_cliques) for kid in tree.comp_cliques[cid]
        ),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _int(x: object, field: str) -> int:
    """``x`` if it is a JSON integer; a float, bool or string is not coerced."""
    if type(x) is not int:
        raise FormatError(f"{field} must be an integer, got {json.dumps(x)}")
    return x


def _ints(xs: list, field: str) -> list:
    """``xs`` if every value in it is a JSON integer; else the first other
    value is named as ``_int`` names it."""
    if not set(map(type, xs)) <= {int}:
        for x in xs:
            _int(x, field)
    return xs


_EDGE_ROW = ("id", "tail", "head", "cap")
_TREE_EDGE = ("component", "clique")


def _list(x: object, field: str, shape: tuple[str, ...]) -> list:
    """``x`` if it is a JSON list with one value per name in ``shape``."""
    if type(x) is not list or len(x) != len(shape):
        raise FormatError(f"{field} must be [{', '.join(shape)}], got {json.dumps(x)}")
    return x


def _shown(x: object) -> str:
    """``x`` as a message shows it: a list or an object, which may hold the
    whole file, by its kind only."""
    if type(x) is list:
        return "a list"
    if type(x) is dict:
        return "an object"
    return json.dumps(x)


def _items(x: object, field: str) -> list:
    """``x`` if it is a JSON list."""
    if type(x) is not list:
        raise FormatError(f"{field} must be a list, got {_shown(x)}")
    return x


def _object(x: object, field: str, keys: tuple[str, ...]) -> dict:
    """``x`` if it is a JSON object; its ``keys`` are read by the caller."""
    if type(x) is not dict:
        raise FormatError(f"{field} must be an object with {', '.join(keys)}, got {_shown(x)}")
    return x


def parse_decomposition(text: str) -> DecompositionTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
    except RecursionError:
        raise FormatError("bad JSON: nested too deeply") from None
    tree = DecompositionTree()
    try:
        doc = _object(doc, "decomposition", ("components", "cliques", "tree_edges"))
        for comp in _items(doc["components"], "components"):
            comp = _object(comp, "component", ("id", "vertices", "edges"))
            rows = _items(comp["edges"], "component edges")
            # The vertex list first, then each edge's ends, as
            # FlowNetwork.from_edges adds them: the frozenset's iteration
            # order, which the solver's kernels follow, depends on it.
            verts = set(
                _ints(_items(comp["vertices"], "component vertices"), "component vertex")
            )
            add = verts.add
            edges = []
            for row in rows:
                # Only a list of four unpacks into four integers; a string of
                # four characters or an object of four keys unpacks too, and
                # is named by its shape once the type test fails.
                try:
                    eid, tail, head, cap = row
                except (TypeError, ValueError):
                    _list(row, "component edge", _EDGE_ROW)
                if not type(eid) is type(tail) is type(head) is type(cap) is int:
                    _list(row, "component edge", _EDGE_ROW)
                    for x in row:
                        _int(x, "component edge field")
                edges.append(Edge(eid, tail, head, cap))
                add(tail)
                add(head)
            net = FlowNetwork(frozenset(verts), tuple(edges))
            cid = _int(comp["id"], "component id")
            if cid in tree.components:
                raise FormatError(f"duplicate component id {cid}")
            tree.components[cid] = net
            tree.comp_cliques[cid] = set()
        for cl in _items(doc["cliques"], "cliques"):
            cl = _object(cl, "clique", ("id", "vertices"))
            kid = _int(cl["id"], "clique id")
            if kid in tree.cliques:
                raise FormatError(f"duplicate clique id {kid}")
            vertices = frozenset(_ints(_items(cl["vertices"], "clique vertices"), "clique vertex"))
            if not 1 <= len(vertices) <= 3:
                raise FormatError(f"clique size {len(vertices)} out of range 1..3")
            tree.cliques[kid] = vertices
            tree.clique_comps[kid] = set()
        for pair in _items(doc["tree_edges"], "tree_edges"):
            try:
                cid, kid = pair
            except (TypeError, ValueError):
                _list(pair, "tree edge", _TREE_EDGE)
            if not type(cid) is type(kid) is int:
                _list(pair, "tree edge", _TREE_EDGE)
                _int(cid, "tree edge component")
                _int(kid, "tree edge clique")
            if cid not in tree.components or kid not in tree.cliques:
                raise FormatError(f"tree edge references missing node [{cid}, {kid}]")
            if kid in tree.comp_cliques[cid]:
                raise FormatError(f"duplicate tree edge [{cid}, {kid}]")
            tree.attach(cid, kid)
    except KeyError as exc:
        raise FormatError(f"missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed value: {exc}") from None
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
            if not raw.isascii() or "_" in raw:
                _not_ascii_decimal(parts[1:])
            eid, val = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise FormatError(f"bad integer: {exc}", lineno) from None
        if eid in flow:
            raise FormatError(f"duplicate edge id {eid}", lineno)
        flow[eid] = val
    return flow


def write_flow(flow: Mapping[int, int]) -> str:
    return "".join(f"f {eid} {flow[eid]}\n" for eid in sorted(flow))
