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
one, and the decompose line gives its time, the planar blocks kept whole
and the ``spqr`` calls, taken by wrapping the decomposition module's
``_structure_tree`` and ``spqr`` bindings.  After the pipeline line come Phase
I's time and its work, all taken by wrapping the solver's module bindings:
``solver.phase1`` is timed; the records reaching ``solver.reconstruct``
give the off-path components, how many got a mimic (built) and how many
never did; the ``solver.TerminalKernel`` constructions until
``solver.phase1`` returns are the component kernels compiled; the
``solver.phase2`` calls are the solve rounds; the ``solver.build_full_mimic``
calls are the mimics built, and the ``solver.route_external_flow`` calls
the non-zero demands the replay routed.  The peak RSS of the process so far
(``getrusage``) follows them.

    python scripts/scale_smoke.py --n 100000 --family k5free --seed 11
    python scripts/scale_smoke.py --n 10000 --family k5free --seed 0 --decomposer k5
"""

import argparse
import contextlib
import gc
import random
import resource
import time

from minorflow import decomposition
from minorflow.decomposition import validate
from minorflow.external import verify_flow
from minorflow.fileio import parse_decomposition, write_decomposition
from minorflow.maxflow import max_flow
from minorflow.network import TerminalSet
from minorflow import solver
from minorflow.solver import decompose, max_flow_decomposed
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
def decompose_work():
    """Count the planar blocks ``_structure_tree`` keeps whole and the
    ``spqr`` calls, through the decomposition module's bindings."""
    seen = {"kept": 0, "spqr": 0}
    names = ("_structure_tree", "spqr")
    real = {name: getattr(decomposition, name) for name in names}

    def structure_tree(net):
        tree, planar = real["_structure_tree"](net)
        seen["kept"] += len(planar)
        return tree, planar

    def spqr(adj):
        seen["spqr"] += 1
        return real["spqr"](adj)

    for name, wrapper in zip(names, (structure_tree, spqr)):
        setattr(decomposition, name, wrapper)
    try:
        yield seen
    finally:
        for name, fn in real.items():
            setattr(decomposition, name, fn)


@contextlib.contextmanager
def phase1_work():
    """Time ``solver.phase1`` and count its work through the solver's module
    bindings: solve rounds (``phase2`` calls), component kernels
    (``TerminalKernel`` constructions until ``phase1`` returns), the
    components built and never built (the records ``reconstruct``
    receives, with and without a mimic), the mimics built
    (``build_full_mimic`` calls) and the replay routes
    (``route_external_flow`` calls)."""
    seen = {
        "seconds": 0.0, "rounds": 0, "kernels": 0, "built": 0, "unbuilt": 0,
        "mimics": 0, "routes": 0,
    }
    kernels = [0]
    names = (
        "phase1", "phase2", "TerminalKernel", "reconstruct", "build_full_mimic",
        "route_external_flow",
    )
    real = {name: getattr(solver, name) for name in names}

    def phase1(*args):
        start = time.perf_counter()
        try:
            return real["phase1"](*args)
        finally:
            seen["seconds"] = time.perf_counter() - start
            seen["kernels"] = kernels[0]

    def kernel(*args):
        kernels[0] += 1
        return real["TerminalKernel"](*args)

    def reconstruct(state, final_flow):
        seen["built"] = sum(1 for rec in state.records if rec.mimic)
        seen["unbuilt"] = len(state.records) - seen["built"]
        return real["reconstruct"](state, final_flow)

    def counting(name, key):
        def wrapper(*args):
            seen[key] += 1
            return real[name](*args)

        return wrapper

    wrappers = (
        phase1, counting("phase2", "rounds"), kernel, reconstruct,
        counting("build_full_mimic", "mimics"), counting("route_external_flow", "routes"),
    )
    for name, wrapper in zip(names, wrappers):
        setattr(solver, name, wrapper)
    try:
        yield seen
    finally:
        for name, fn in real.items():
            setattr(solver, name, fn)


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
        with decompose_work() as work:
            tree = decompose(graph, args.decomposer)
        decomposed = time.monotonic()
        print(
            f"decompose ({args.decomposer}): components={len(tree.components)} "
            f"(planar blocks kept whole {work['kept']}), spqr calls {work['spqr']} "
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

    with gc_collections() as collected, phase1_work() as work:
        value, flow = max_flow_decomposed(graph, tree, s, t, validate_input=False)
    t4 = time.monotonic()
    print(
        f"pipeline (validate_input=False): value={value} in {t4 - validated:.2f}s, "
        f"gc collections {collected}"
    )
    print(
        f"phase I: {work['seconds']:.2f}s, off-path components {work['built'] + work['unbuilt']}, "
        f"built {work['built']}, never built {work['unbuilt']}, "
        f"kernels compiled {work['kernels']}, solve rounds {work['rounds']}, "
        f"mimics built {work['mimics']}, replay routes {work['routes']}"
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
