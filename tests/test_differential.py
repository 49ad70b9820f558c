"""Differential test: the decomposition pipeline against the independent
oracle on generated instances, with the ground-truth tree and, for the
K3,3-free and K5-free families, with the family decomposers' tree."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from minorflow.external import verify_flow
from minorflow.network import TerminalSet
from minorflow.solver import max_flow_decomposed, max_flow_family
from minorflow.testkit import GenConfig, gen_instance, oracle_max_flow

FAMILY_KEYS = {"k33free": "k33", "k5free": "k5"}


def best_pair(graph, seed, tries=4):
    """Highest-value s-t pair of a few seeded samples, so most checks run
    on a positive flow rather than a zero one."""
    rng = random.Random(seed)
    vertices = sorted(graph.vertices)
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(tries)]
    return max(pairs, key=lambda p: oracle_max_flow(graph, *p))


def assert_exact(graph, s, t, want, solved):
    value, flow = solved
    assert value == want
    assert verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(("planar", "k33free", "k5free")),
    n=st.integers(8, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_pipeline_matches_oracle(family, n, seed):
    graph, tree = gen_instance(GenConfig(family, n, seed=seed))
    s, t = best_pair(graph, seed)
    want = oracle_max_flow(graph, s, t)
    assert_exact(graph, s, t, want, max_flow_decomposed(graph, tree, s, t))
    if family in FAMILY_KEYS:
        assert_exact(graph, s, t, want, max_flow_family(graph, FAMILY_KEYS[family], s, t))
