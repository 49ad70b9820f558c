#!/usr/bin/env python3
"""Fuzz harness: solve random instances through the decomposition pipeline
and cross-check every value against the independent oracle.  Each round
solves the highest-value s-t pair of four seeded candidates, so most rounds
check a positive flow.  With --decomposer, the family decomposer's tree is
validated before it is solved.

    python scripts/fuzz_cross_check.py --rounds 100 --max-n 60
    MINORFLOW_SEED=9 python scripts/fuzz_cross_check.py --rounds 20 --decomposer
"""

import argparse
import os
import random
import time

from minorflow.decomposition import validate
from minorflow.external import verify_flow
from minorflow.network import TerminalSet
from minorflow.solver import decompose, max_flow_decomposed
from minorflow.testkit import GenConfig, gen_instance, oracle_max_flow


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
        family = rng.choice(("planar", "k33free", "k5free"))
        n = rng.randint(8, args.max_n)
        graph, tree = gen_instance(GenConfig(family, n, seed=rng.getrandbits(32)))
        vertices = sorted(graph.vertices)
        pairs = [tuple(rng.sample(vertices, 2)) for _ in range(4)]
        values = [oracle_max_flow(graph, *pair) for pair in pairs]
        want = max(values)
        s, t = pairs[values.index(want)]
        if args.decomposer and family != "planar":
            key = "k33" if family == "k33free" else "k5"
            tree = decompose(graph, key)
            ok, problems = validate(graph, tree)
            if not ok:
                print(f"round {round_no}: INVALID TREE family={family} n={n} decomposer={key}")
                for problem in problems[:5]:
                    print(f"  {problem}")
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
