#!/usr/bin/env python3
"""Scale experiment: generate a large clique-sum instance and solve it
end to end, reporting where the time goes.  The s-t pair is the
highest-value one of 8 seeded candidates, ranked by direct Dinic; direct
Dinic is timed beside the pipeline, and the script exits 1 when the two
values differ or the pipeline's flow fails verification.

    python scripts/scale_smoke.py --n 100000 --family k5free --seed 11
"""

import argparse
import random
import time

from minorflow.external import verify_flow
from minorflow.maxflow import max_flow
from minorflow.network import TerminalSet
from minorflow.solver import max_flow_decomposed
from minorflow.testkit import GenConfig, gen_instance


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--family", default="k5free", choices=("planar", "k33free", "k5free"))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--skip-validate", action="store_true")
    args = ap.parse_args()

    t0 = time.monotonic()
    graph, tree = gen_instance(GenConfig(args.family, args.n, seed=args.seed))
    t1 = time.monotonic()
    print(
        f"generated n={len(graph.vertices)} m={len(graph.edges)} "
        f"components={len(tree.components)} in {t1 - t0:.1f}s"
    )

    rng = random.Random(args.seed)
    vertices = sorted(graph.vertices)
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(8)]
    values = [max_flow(graph, *pair)[0] for pair in pairs]
    s, t = pairs[values.index(max(values))]
    t2 = time.monotonic()
    print(f"picked {s} -> {t} of {len(pairs)} candidates in {t2 - t1:.1f}s")

    direct, _ = max_flow(graph, s, t)
    t3 = time.monotonic()
    print(f"direct Dinic: value={direct} in {t3 - t2:.2f}s")

    value, flow = max_flow_decomposed(
        graph, tree, s, t, validate_input=not args.skip_validate
    )
    t4 = time.monotonic()
    print(f"pipeline: value={value} in {t4 - t3:.2f}s")

    result = verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
    t5 = time.monotonic()
    print(f"verify: {'ok' if result.ok else 'FAILED'} in {t5 - t4:.1f}s")
    print(f"total {t5 - t0:.1f}s")
    if value != direct:
        print(f"MISMATCH: pipeline {value}, direct Dinic {direct}")
    if value != direct or not result.ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
