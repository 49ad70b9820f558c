"""Seeded inputs for the benchmark's workloads.

Every instance comes from ``testkit.gen_instance`` and is relabelled with
``fileio.canonical_ids`` (``write_network`` on raw generator ids emits a file
that ``parse_network`` rejects).  The program under test only ever sees the
canonical text; s-t pairs and their reference values come from
``testkit.oracle_max_flow``, so pair choice never depends on the engine.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from minorflow import fileio, testkit

# Candidate pairs drawn per batch; more batches are drawn only while too few
# candidates have a positive value (at n = 10,000 about 6 in 16 are 0).
PAIR_BATCH = 16
MAX_PAIR_BATCHES = 16


def best_pairs(
    vertices: Iterable[int],
    rng: random.Random,
    value_of: Callable[[int, int], int],
    count: int = 1,
    batch: int = PAIR_BATCH,
) -> list[tuple[int, int, int]]:
    """The ``count`` highest-value (s, t, value) pairs from seeded batches of
    random candidates, all with positive value; ties keep draw order."""
    ordered = sorted(vertices)
    if len(ordered) < 2:
        raise ValueError("need at least two vertices")
    scored: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for _ in range(MAX_PAIR_BATCHES):
        for _ in range(batch):
            s, t = rng.sample(ordered, 2)
            if (s, t) not in seen:
                seen.add((s, t))
                scored.append((s, t, value_of(s, t)))
        positive = sorted((p for p in scored if p[2] > 0), key=lambda p: -p[2])
        if len(positive) >= count:
            return positive[:count]
    raise RuntimeError(f"fewer than {count} positive-value pairs in {len(scored)} candidates")


@dataclass
class Instance:
    """One generated input: the canonical text the program parses, the
    chosen pairs with their oracle values, and a fingerprint of the input."""

    family: str
    decomposer: str | None  # "k33"/"k5" when the program decomposes itself
    network_text: str
    decomposition_text: str | None  # given to the program only with a tree
    pairs: list[tuple[int, int, int]]
    fingerprint: dict
    gen_s: float
    oracle_s: float

    def parse(self):
        """What the program takes in: the network, and the tree if given."""
        graph, _, _ = fileio.parse_network(self.network_text)
        tree = None
        if self.decomposition_text is not None:
            tree = fileio.parse_decomposition(self.decomposition_text)
        return graph, tree

    @property
    def bytes(self) -> int:
        return len(self.network_text) + len(self.decomposition_text or "")


def make_instance(
    family: str, n: int, gen_seed: int, rng: random.Random, decomposer: str | None, pairs: int
) -> Instance:
    """Generate, relabel and serialise one instance; ``rng`` draws its pairs."""
    t0 = time.perf_counter()
    graph, tree = testkit.gen_instance(testkit.GenConfig(family, n, gen_seed))
    graph, tree, _, _ = fileio.canonical_ids(graph, tree)
    net_text = fileio.write_network(graph)
    dec_text = fileio.write_decomposition(tree)
    gen_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    chosen = best_pairs(
        graph.vertices, rng, lambda s, t: testkit.oracle_max_flow(graph, s, t), pairs
    )
    oracle_s = time.perf_counter() - t0
    fingerprint = {
        "family": family,
        "n": len(graph.vertices),
        "m": len(graph.edges),
        "components": len(tree.components),
        "gen_seed": gen_seed,
        "pairs": [list(p) for p in chosen],
        "sha256": hashlib.sha256((net_text + dec_text).encode()).hexdigest(),
    }
    return Instance(
        family,
        decomposer,
        net_text,
        None if decomposer else dec_text,
        chosen,
        fingerprint,
        gen_s,
        oracle_s,
    )


@dataclass(frozen=True)
class Workload:
    """A fixed set of instances; ``--seed`` picks their s-t pairs.

    ``shapes`` is cycled by instance index: (family, n range, decomposer).
    The network of instance i depends on the workload and i alone: query
    time varies between generated networks of one shape by 20-50 %, so
    every seed measures the same networks.  A run makes its ``count``
    instances before timing and queries each of their ``pairs`` pairs once
    per round, round after round, so every run measures the same query set
    however fast the host is."""

    name: str
    shapes: tuple[tuple[str, tuple[int, int], str | None], ...]
    count: int
    pairs: int = 1

    def instance(self, seed: int, index: int) -> Instance:
        net_rng = random.Random(f"{self.name}:{index}")
        family, (lo, hi), decomposer = self.shapes[index % len(self.shapes)]
        n = net_rng.randint(lo, hi)
        gen_seed = net_rng.randrange(2**31)
        pair_rng = random.Random(f"{self.name}:{seed}:{index}")
        return make_instance(family, n, gen_seed, pair_rng, decomposer, self.pairs)

    def instances(self, seed: int) -> list[Instance]:
        return [self.instance(seed, i) for i in range(self.count)]

    def round(self) -> list[tuple[int, int]]:
        """(instance index, pair index) of each query of one round."""
        return [(i, p) for i in range(self.count) for p in range(self.pairs)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("k5free-tree-2k", (("k5free", (2_000, 2_000), None),), count=1, pairs=4),
        Workload(
            "small-fresh-mix",
            (
                ("planar", (30, 60), None),
                ("k33free", (50, 400), None),
                ("k5free", (50, 400), None),
            ),
            count=36,
        ),
        Workload(
            "family-decompose",
            (
                ("k33free", (80, 160), "k33"),
                ("k5free", (80, 160), "k5"),
                ("planar", (50, 80), "k5"),
            ),
            count=6,
        ),
    )
}


def inputs_sha256(instances: Iterable[Instance]) -> str:
    """One hash over the fingerprints of a run's instances; runs whose
    hashes differ measured different inputs and are not compared."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(repr(sorted(inst.fingerprint.items())).encode())
    return h.hexdigest()
