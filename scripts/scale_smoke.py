#!/usr/bin/env python3
"""Scale experiment: generate a large clique-sum instance and solve it
end to end, reporting where the time goes.  The s-t pair is the
highest-value one of 8 seeded candidates, ranked by the direct max flow,
which is timed beside the pipeline.  The tree is written with
``write_decomposition`` and parsed back, so that, as for the CLI and the
benchmark, its edges are other objects than the network's and ``validate``
compares them field by field.  ``validate`` is timed on its own and the
pipeline then solves with ``validate_input=False``, so its line holds only
the solve.  Both lines give the cyclic-GC collections per generation made
inside them (``gc.callbacks``).  The script exits 1, printing the first
problems, when the tree is invalid, and exits 1 when the two values differ
or the pipeline's flow fails verification.  With --decomposer, the
pipeline solves on the family decomposer's tree instead of the generated
one, and the decompose time is printed.  After the pipeline line come Phase
I's time (``solver.phase1`` timed through its module binding) and its work
split, taken from the located path by the solver's own rule
(``cut_off_components``): the off-path components, how many of them a
one-vertex clique cuts off, and how many kernels remain.  The peak RSS of the
process so far (``getrusage``) follows them.

    python scripts/scale_smoke.py --n 100000 --family k5free --seed 11
    python scripts/scale_smoke.py --n 10000 --family k5free --seed 0 --decomposer k5
"""

import argparse
import contextlib
import gc
import random
import resource
import time

from minorflow.decomposition import validate
from minorflow.external import verify_flow
from minorflow.fileio import parse_decomposition, write_decomposition
from minorflow.maxflow import max_flow
from minorflow.network import TerminalSet
from minorflow import solver
from minorflow.solver import cut_off_components, decompose, max_flow_decomposed
from minorflow.testkit import GenConfig, gen_instance


@contextlib.contextmanager
def gc_collections():
    """Cyclic-GC collections per generation (0, 1, 2) made inside the block."""
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        yield counts
    finally:
        gc.callbacks.remove(count)


@contextlib.contextmanager
def timed_phase1():
    """Time ``solver.phase1`` and keep the path and walk it was given."""
    seen = {}
    real = solver.phase1

    def phase1(state, path_comps, up, above):
        start = time.perf_counter()
        real(state, path_comps, up, above)
        seen.update(seconds=time.perf_counter() - start, walk=(path_comps, up, above))

    solver.phase1 = phase1
    try:
        yield seen
    finally:
        solver.phase1 = real


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--family", default="k5free", choices=("planar", "k33free", "k5free"))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument(
        "--decomposer",
        choices=("k33", "k5"),
        help="solve on this family decomposer's tree instead of the generated one",
    )
    args = ap.parse_args()

    t0 = time.monotonic()
    graph, tree = gen_instance(GenConfig(args.family, args.n, seed=args.seed))
    t1 = time.monotonic()
    print(
        f"generated n={len(graph.vertices)} m={len(graph.edges)} "
        f"components={len(tree.components)} in {t1 - t0:.1f}s"
    )
    if args.decomposer:
        tree = decompose(graph, args.decomposer)
        decomposed = time.monotonic()
        print(
            f"decompose ({args.decomposer}): components={len(tree.components)} "
            f"in {decomposed - t1:.2f}s"
        )
        t1 = decomposed

    rng = random.Random(args.seed)
    vertices = sorted(graph.vertices)
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(8)]
    values = [max_flow(graph, *pair)[0] for pair in pairs]
    s, t = pairs[values.index(max(values))]
    t2 = time.monotonic()
    print(f"picked {s} -> {t} of {len(pairs)} candidates in {t2 - t1:.1f}s")

    direct, _ = max_flow(graph, s, t)
    t3 = time.monotonic()
    print(f"direct max_flow: value={direct} in {t3 - t2:.2f}s")

    tree = parse_decomposition(write_decomposition(tree))
    t3 = time.monotonic()
    with gc_collections() as collected:
        ok, problems = validate(graph, tree)
    validated = time.monotonic()
    print(
        f"validate (tree parsed back from text): {'ok' if ok else 'INVALID'} "
        f"in {validated - t3:.2f}s, gc collections {collected}"
    )
    if not ok:
        for problem in problems[:5]:
            print(f"  {problem}")
        raise SystemExit(1)

    with gc_collections() as collected, timed_phase1() as phase1:
        value, flow = max_flow_decomposed(graph, tree, s, t, validate_input=False)
    t4 = time.monotonic()
    print(
        f"pipeline (validate_input=False): value={value} in {t4 - validated:.2f}s, "
        f"gc collections {collected}"
    )
    path, up, above = phase1["walk"]
    off_path = len(tree.components) - len(path)
    cut_off = len(cut_off_components(tree, path, up, above))
    print(
        f"phase I: {phase1['seconds']:.2f}s, off-path components {off_path}, "
        f"cut off {cut_off}, kernels {off_path - cut_off}"
    )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"peak RSS so far: {peak_mb:.1f} MB")

    result = verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
    t5 = time.monotonic()
    print(f"verify: {'ok' if result.ok else 'FAILED'} in {t5 - t4:.1f}s")
    print(f"total {t5 - t0:.1f}s")
    if value != direct:
        print(f"MISMATCH: pipeline {value}, direct max_flow {direct}")
    if value != direct or not result.ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
