#!/usr/bin/env python3
"""Scale experiment: generate a large clique-sum instance and solve it
end to end, reporting where the time goes.  The s-t pair is the
highest-value one of --candidates seeded pairs (8 by default), ranked by
the direct max flow, which is timed beside the pipeline; each candidate
costs one direct max flow, several seconds at n = 1e6.  The network and the
tree are then relabelled by ``canonical_ids``, written as text and parsed
back, as the CLI and the benchmark take them in; the parse line times
``parse_network`` and ``parse_decomposition`` and gives the bytes of both
texts and the cyclic-GC collections per generation made inside both
parses.  So the tree's
edges are other objects than the network's, and ``validate`` compares them
field by field.  ``validate`` is timed on its own, and its line
also gives the torsos whose planarity it tested (those above the size cap)
and the time of those tests, taken by wrapping the decomposition module's
``lr_planarity`` binding.  The pipeline then solves with
``validate_input=False``, so its line holds only the solve.  Both lines
give the cyclic-GC collections per generation made inside them
(``gc.callbacks``).  The script exits 1, printing the first
problems, when the tree is invalid, and exits 1 when the two values differ
or the pipeline's flow fails verification.  With --decomposer, the
pipeline solves on the family decomposer's tree instead of the generated
one, and the decompose line gives its time, the planar blocks kept whole
and the ``spqr`` calls, taken by wrapping the decomposition module's
``biconnected_split`` and ``spqr`` bindings (the blocks kept whole are the
blocks less the ``spqr`` calls), and the cyclic-GC collections per
generation made inside the decomposer with the seconds they took.  After
the pipeline line come Phase I's time and its work, all taken by wrapping
the solver's module bindings: ``solver.phase1`` is timed and its arguments
give the off-path components (the tree's components less the path's); the
records reaching
``solver.reconstruct`` are the components built, and the off-path
components without one were never built; the ``solver.TerminalKernel``
constructions until ``solver.phase1`` returns are the component kernels
compiled; the ``solver.phase2`` calls are the solve rounds; the
``solver.build_full_mimic`` calls are the mimics built, and the
``solver.route_external_flow`` calls the non-zero demands the replay
routed.  The peak RSS of the process so far
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
from minorflow.fileio import (
    canonical_ids,
    parse_decomposition,
    parse_network,
    write_decomposition,
    write_network,
)
from minorflow.maxflow import max_flow
from minorflow.network import TerminalSet
from minorflow import solver
from minorflow.solver import decompose, max_flow_decomposed
from minorflow.testkit import GenConfig, gen_instance


@contextlib.contextmanager
def gc_collections():
    """Cyclic-GC collections per generation (0, 1, 2) made inside the block,
    as the list ``collections``, and the ``seconds`` they took."""
    seen = {"collections": [0, 0, 0], "seconds": 0.0}
    start = [0.0]

    def count(phase, info):
        if phase == "start":
            seen["collections"][info["generation"]] += 1
            start[0] = time.perf_counter()
        else:
            seen["seconds"] += time.perf_counter() - start[0]

    gc.callbacks.append(count)
    try:
        yield seen
    finally:
        gc.callbacks.remove(count)


@contextlib.contextmanager
def decompose_work():
    """Count the blocks and the ``spqr`` calls through the decomposition
    module's ``biconnected_split`` and ``spqr`` bindings.  A decomposer
    splits its input into blocks once and runs ``spqr`` once on each
    non-planar block, so the planar blocks it keeps whole are the blocks
    less the ``spqr`` calls."""
    seen = {"blocks": 0, "spqr": 0}
    names = ("biconnected_split", "spqr")
    real = {name: getattr(decomposition, name) for name in names}

    def biconnected_split(nbrs):
        blocks, arts = real["biconnected_split"](nbrs)
        seen["blocks"] += len(blocks)
        return blocks, arts

    def spqr(nbrs):
        seen["spqr"] += 1
        return real["spqr"](nbrs)

    for name, wrapper in zip(names, (biconnected_split, spqr)):
        setattr(decomposition, name, wrapper)
    try:
        yield seen
    finally:
        for name, fn in real.items():
            setattr(decomposition, name, fn)


@contextlib.contextmanager
def planarity_work():
    """Count and time ``validate``'s planarity tests through the
    decomposition module's ``lr_planarity`` binding."""
    seen = {"torsos": 0, "seconds": 0.0}
    real = decomposition.lr_planarity

    def lr_planarity(nbrs):
        start = time.perf_counter()
        try:
            return real(nbrs)
        finally:
            seen["seconds"] += time.perf_counter() - start
            seen["torsos"] += 1

    decomposition.lr_planarity = lr_planarity
    try:
        yield seen
    finally:
        decomposition.lr_planarity = real


@contextlib.contextmanager
def phase1_work():
    """Time ``solver.phase1`` and count its work through the solver's module
    bindings: solve rounds (``phase2`` calls), component kernels
    (``TerminalKernel`` constructions until ``phase1`` returns), the
    off-path components (``phase1``'s tree less its path), the components
    built (the records ``reconstruct`` receives) and never built (the
    off-path components less those records), the mimics built
    (``build_full_mimic`` calls) and the replay routes
    (``route_external_flow`` calls)."""
    seen = {
        "seconds": 0.0, "rounds": 0, "kernels": 0, "off_path": 0, "built": 0,
        "mimics": 0, "routes": 0,
    }
    kernels = [0]
    names = (
        "phase1", "phase2", "TerminalKernel", "reconstruct", "build_full_mimic",
        "route_external_flow",
    )
    real = {name: getattr(solver, name) for name in names}

    def phase1(state, path_comps, *args):
        seen["off_path"] = len(state.tree.components) - len(path_comps)
        start = time.perf_counter()
        try:
            return real["phase1"](state, path_comps, *args)
        finally:
            seen["seconds"] = time.perf_counter() - start
            seen["kernels"] = kernels[0]

    def kernel(*args):
        kernels[0] += 1
        return real["TerminalKernel"](*args)

    def reconstruct(state, final_flow):
        seen["built"] = len(state.records)
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
    ap.add_argument(
        "--candidates",
        type=int,
        default=8,
        help="seeded s-t pairs to rank by the direct max flow (at least 1)",
    )
    args = ap.parse_args()
    if args.candidates < 1:
        ap.error("--candidates must be at least 1")

    t0 = time.monotonic()
    graph, tree = gen_instance(GenConfig(args.family, args.n, seed=args.seed))
    t1 = time.monotonic()
    print(
        f"generated n={len(graph.vertices)} m={len(graph.edges)} "
        f"components={len(tree.components)} in {t1 - t0:.1f}s"
    )
    if args.decomposer:
        with gc_collections() as collected, decompose_work() as work:
            tree = decompose(graph, args.decomposer)
        decomposed = time.monotonic()
        kept = work["blocks"] - work["spqr"]
        print(
            f"decompose ({args.decomposer}): components={len(tree.components)} "
            f"(planar blocks kept whole {kept}), spqr calls {work['spqr']} "
            f"in {decomposed - t1:.2f}s, gc collections {collected['collections']} "
            f"taking {collected['seconds']:.2f}s"
        )
        t1 = decomposed

    rng = random.Random(args.seed)
    vertices = sorted(graph.vertices)
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(args.candidates)]
    values = [max_flow(graph, *pair)[0] for pair in pairs]
    s, t = pairs[values.index(max(values))]
    t2 = time.monotonic()
    print(f"picked {s} -> {t} of {len(pairs)} candidates in {t2 - t1:.1f}s")

    direct, _ = max_flow(graph, s, t)
    t3 = time.monotonic()
    print(f"direct max_flow: value={direct} in {t3 - t2:.2f}s")

    canon_graph, canon_tree, vmap, _ = canonical_ids(graph, tree)
    net_text, tree_text = write_network(canon_graph), write_decomposition(canon_tree)
    with gc_collections() as collected:
        start = time.perf_counter()
        graph, _, _ = parse_network(net_text)
        parsed = time.perf_counter()
        tree = parse_decomposition(tree_text)
        done = time.perf_counter()
    print(
        f"parse (from text): network {parsed - start:.2f}s, tree {done - parsed:.2f}s, "
        f"{len(net_text) + len(tree_text)} bytes, gc collections {collected['collections']}"
    )
    s, t = vmap[s], vmap[t]
    t3 = time.monotonic()
    with gc_collections() as collected, planarity_work() as planarity:
        ok, problems = validate(graph, tree)
    validated = time.monotonic()
    print(
        f"validate (tree parsed back from text): {'ok' if ok else 'INVALID'} "
        f"in {validated - t3:.2f}s, planarity-tested torsos {planarity['torsos']} "
        f"in {planarity['seconds']:.3f}s, gc collections {collected['collections']}"
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
        f"gc collections {collected['collections']}"
    )
    print(
        f"phase I: {work['seconds']:.2f}s, off-path components {work['off_path']}, "
        f"built {work['built']}, never built {work['off_path'] - work['built']}, "
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
