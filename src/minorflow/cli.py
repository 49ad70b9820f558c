"""Command-line surface: solve, decompose, mimic, gen, verify, oracle."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .decomposition import InvalidDecomposition, NotK33MinorFree, NotK5MinorFree, validate
from .external import cut_table, verify_flow
from .fileio import (
    FormatError,
    canonical_ids,
    parse_decomposition,
    parse_flow,
    parse_network,
    write_decomposition,
    write_flow,
    write_network,
)
from .mimic import build_full_mimic, build_mimic4_single_source
from .network import FULL, SINGLE_SOURCE, FlowNetwork, TerminalSet, imbalances
from .solver import FAMILIES, decompose, max_flow_decomposed, max_flow_family
from .testkit import (
    GenConfig,
    audit_step_values,
    collecting_observer,
    gen_instance,
    oracle_max_flow,
)

_AUDIT_LIMIT = 120  # step-value audits re-run the oracle; keep them small


def _read(path: str) -> str:
    return Path(path).read_text()


def _terminals(args, net: FlowNetwork, src, snk) -> tuple[int, int]:
    s = args.source if args.source is not None else src
    t = args.sink if args.sink is not None else snk
    if s is None or t is None:
        raise FormatError("source and sink must come from flags or 'n' lines")
    for v in (s, t):
        if v not in net.vertices:
            raise FormatError(f"terminal {v} not in the network")
    if s == t:
        raise FormatError(f"source and sink are both {s}")
    return s, t


def _mimic_terminals(text: str, net: FlowNetwork) -> tuple[int, ...]:
    """Distinct vertices of ``net`` from a comma-separated list of 2..4 ids."""
    try:
        terminals = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise FormatError(f"terminals {text!r} are not comma-separated integers") from None
    if not 2 <= len(terminals) <= 4:
        raise FormatError("need 2..4 comma-separated terminals")
    if len(set(terminals)) != len(terminals):
        raise FormatError(f"terminals {text!r} repeat a vertex")
    for v in terminals:
        if v not in net.vertices:
            raise FormatError(f"terminal {v} not in the network")
    return terminals


def cmd_solve(args) -> int:
    net, fsrc, fsnk = parse_network(_read(args.network))
    s, t = _terminals(args, net, fsrc, fsnk)
    observer = None
    nets = None
    if args.audit and len(net.vertices) <= _AUDIT_LIMIT:
        nets, observer = collecting_observer()
    if args.decomposition:
        tree = parse_decomposition(_read(args.decomposition))
        ok, problems = validate(net, tree)
        if not ok:
            raise FormatError("invalid decomposition: " + "; ".join(problems[:3]))
        value, flow = max_flow_decomposed(
            net, tree, s, t, validate_input=False, observer=observer
        )
    else:
        value, flow = max_flow_family(net, args.family, s, t, observer=observer)
    print(f"value {value}")
    if args.audit:
        result = verify_flow(net, TerminalSet.of(s, t), (value, -value), flow)
        print(f"audit flow {'ok' if result.ok else 'FAILED'}")
        if not result.ok:
            for p in result.problems[:10]:
                print(f"audit problem {p}")
            return 1
        if nets is not None:
            steady = audit_step_values(nets, s, t)
            print(f"audit steps {'ok' if steady else 'FAILED'} ({len(nets)} networks)")
            if not steady:
                return 1
        else:
            print("audit steps skipped (network too large)")
    if args.emit_flow:
        Path(args.emit_flow).write_text(write_flow(flow))
    return 0


def cmd_decompose(args) -> int:
    net, _, _ = parse_network(_read(args.network))
    tree = decompose(net, args.family)
    Path(args.output).write_text(write_decomposition(tree))
    print(f"components {len(tree.components)} cliques {len(tree.cliques)}")
    return 0


def cmd_mimic(args) -> int:
    net, _, _ = parse_network(_read(args.network))
    terminals = _mimic_terminals(args.terminals, net)
    if len(terminals) < 4:
        table = cut_table(net, TerminalSet(terminals), FULL)
        mimic = build_full_mimic(table, first_edge_id=1)
    else:
        table = cut_table(net, TerminalSet(terminals, source_index=0), SINGLE_SOURCE)
        mimic, _ = build_mimic4_single_source(table, first_edge_id=1)
    canon, _, _, _ = canonical_ids(mimic)
    text = write_network(canon)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen(args) -> int:
    seed = int(os.environ.get("MINORFLOW_SEED", args.seed))
    cfg = GenConfig(family=args.family, n=args.n, seed=seed, max_cap=args.max_cap)
    graph, tree = gen_instance(cfg)
    graph_c, tree_c, _, _ = canonical_ids(graph, tree)
    Path(args.output).write_text(write_network(graph_c))
    if args.tree:
        Path(args.tree).write_text(write_decomposition(tree_c))
    print(f"generated {len(graph_c.vertices)} vertices {len(graph_c.edges)} edges")
    return 0


def cmd_verify(args) -> int:
    net, fsrc, fsnk = parse_network(_read(args.network))
    s, t = _terminals(args, net, fsrc, fsnk)
    flow = parse_flow(_read(args.flow))
    value = imbalances(net, flow).get(s, 0)
    result = verify_flow(net, TerminalSet.of(s, t), (value, -value), flow)
    if result.ok:
        print(f"value {value}")
        return 0
    for p in result.problems[:20]:
        print(f"problem {p}", file=sys.stderr)
    return 1


def cmd_oracle(args) -> int:
    net, fsrc, fsnk = parse_network(_read(args.network))
    s, t = _terminals(args, net, fsrc, fsnk)
    print(f"value {oracle_max_flow(net, s, t)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minorflow",
        description="Max flow on clique-sum decompositions of minor-free networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_st(p):
        p.add_argument("--source", type=int, default=None)
        p.add_argument("--sink", type=int, default=None)

    p = sub.add_parser("solve", help="compute a maximum flow")
    p.add_argument("--network", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--decomposition")
    group.add_argument("--family", choices=FAMILIES)
    add_st(p)
    p.add_argument("--emit-flow")
    p.add_argument("--audit", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("decompose", help="build a clique-sum decomposition")
    p.add_argument("--network", required=True)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("mimic", help="emit a small mimicking network")
    p.add_argument("--network", required=True)
    p.add_argument("--terminals", required=True, help="comma-separated vertex ids")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_mimic)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--family", choices=("planar", "k33free", "k5free"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-cap", type=int, default=20)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--tree")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check a flow file against a network")
    p.add_argument("--network", required=True)
    p.add_argument("--flow", required=True)
    add_st(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="independent max-flow value")
    p.add_argument("--network", required=True)
    add_st(p)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError, InvalidDecomposition) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotK33MinorFree, NotK5MinorFree) as exc:
        print(f"not in family: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
