#!/usr/bin/env python3
"""Fuzz harness: solve random instances through the decomposition pipeline
and cross-check every value against the independent oracle.  Each round
solves the highest-value s-t pair of four seeded candidates, so most rounds
check a positive flow.  A round draws a generated planar, k33free or k5free
instance of at most --max-n vertices, or ``testkit.nested_triangles`` with
d <= max_n // 2.  With --decomposer, the family decomposer's tree is
validated before it is solved; a k5free or nested round uses the k5
decomposer, and a planar round draws the k33 or the k5 one, since a planar
network is free of both minors.  Every round validates ``refine`` of the
generated tree, and of the decomposer's tree with --decomposer, and checks
that refining it again changes no component (the generated k5free trees
carry the 3-vertex gluing cliques that the triangle split acts on).

    python scripts/fuzz_cross_check.py --rounds 100 --max-n 60
    MINORFLOW_SEED=9 python scripts/fuzz_cross_check.py --rounds 20 --decomposer
"""

import argparse
import os
import random
import time

from minorflow.decomposition import refine, validate
from minorflow.external import verify_flow
from minorflow.network import TerminalSet
from minorflow.solver import FAMILIES, decompose, max_flow_decomposed
from minorflow.testkit import GenConfig, gen_instance, nested_triangles, oracle_max_flow


def shape(tree):
    """Each component's sorted vertices and edge ids, in sorted order."""
    return sorted(
        (sorted(net.vertices), sorted(e.id for e in net.edges)) for net in tree.components.values()
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=50)
    ap.add_argument("--max-n", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--decomposer",
        action="store_true",
        help="run the family decomposer instead of the ground-truth tree",
    )
    args = ap.parse_args()
    env_seed = os.environ.get("MINORFLOW_SEED")
    try:
        seed = args.seed if env_seed is None else int(env_seed)
    except ValueError:
        raise SystemExit(f"error: MINORFLOW_SEED {env_seed!r} is not an integer") from None
    rng = random.Random(seed)
    started = time.monotonic()
    positive = 0
    for round_no in range(args.rounds):
        family = rng.choice(("planar", "k33free", "k5free", "nested"))
        if family == "nested":
            d = rng.randint(2, args.max_n // 2)
            graph, tree, _, _ = nested_triangles(d, rng.getrandbits(32))
            n = len(graph.vertices)
        else:
            n = rng.randint(8, args.max_n)
            graph, tree = gen_instance(GenConfig(family, n, seed=rng.getrandbits(32)))
        vertices = sorted(graph.vertices)
        pairs = [tuple(rng.sample(vertices, 2)) for _ in range(4)]
        values = [oracle_max_flow(graph, *pair) for pair in pairs]
        want = max(values)
        s, t = pairs[values.index(want)]
        named = {"generated": tree}
        if args.decomposer:
            key = {"k33free": "k33", "k5free": "k5", "nested": "k5"}.get(family)
            key = key or rng.choice(FAMILIES)
            tree = named[key] = decompose(graph, key)
        for name, base in named.items():
            refined = refine(base)
            for label, checked in ((name, base), (f"refine({name})", refined)):
                ok, problems = validate(graph, checked)
                if not ok:
                    print(f"round {round_no}: INVALID TREE family={family} n={n} tree={label}")
                    for problem in problems[:5]:
                        print(f"  {problem}")
                    raise SystemExit(1)
            if shape(refine(refined)) != shape(refined):
                print(f"round {round_no}: NOT IDEMPOTENT family={family} n={n} "
                      f"tree=refine({name})")
                raise SystemExit(1)
        value, flow = max_flow_decomposed(graph, tree, s, t)
        ok = verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
        if value != want or not ok:
            print(f"round {round_no}: MISMATCH family={family} n={n} s={s} t={t} "
                  f"got {value} want {want} feasible={bool(ok)}")
            raise SystemExit(1)
        positive += want > 0
        if (round_no + 1) % 10 == 0:
            print(f"{round_no + 1}/{args.rounds} ok ({time.monotonic() - started:.1f}s)")
    print(f"all {args.rounds} rounds agree with the oracle ({positive} with a positive value)")


if __name__ == "__main__":
    main()
