"""Golden instances: the generators must keep drawing exactly these inputs.

``gen_instance`` is pinned per family by one sha256 over the canonical text
(``canonical_ids``, then ``write_network`` and ``write_decomposition``) of
seeds 0-2 at a small and a 2,000-vertex size.  ``random_network`` is pinned
by one sha256 over 300 seeded networks and their ``build_mimic_general``
mimics (vertices and every edge's id, ends and capacity).
"""

import hashlib
import random

import pytest

from minorflow.fileio import canonical_ids, write_decomposition, write_network
from minorflow.mimic import build_mimic_general
from minorflow.network import TerminalSet
from minorflow.testkit import GenConfig, gen_instance, random_network

GOLDEN_INSTANCES = {
    "k33free": "eb47efddfe6bd5d43d64c31e884510c26fb1a15224d9329a601b4eec514122cf",
    "k5free": "6e0b03eec1135c6765172e685356a29cb0754eb22d1cc7a4e18fb7ab61f7ef37",
    "planar": "69fa26c50796aa0cad62271ba68f55f554aa5fc253afa6b4e951e1d1f93a2bb8",
}
GOLDEN_RANDOM_NETWORKS = "43d0982f2490a46f5a8efdc928c81b00c1ffee0a3ea761394aba1042e0bd76de"


@pytest.mark.parametrize("family", sorted(GOLDEN_INSTANCES))
def test_gen_instance_draws_the_golden_instances(family):
    digest = hashlib.sha256()
    for seed in range(3):
        for n in (40, 2000):
            graph, tree = gen_instance(GenConfig(family, n, seed=seed))
            graph, tree, _, _ = canonical_ids(graph, tree)
            digest.update(write_network(graph).encode())
            digest.update(write_decomposition(tree).encode())
    assert digest.hexdigest() == GOLDEN_INSTANCES[family]


def test_random_network_and_its_general_mimic_are_the_golden_ones():
    rng = random.Random(0)
    digest = hashlib.sha256()
    for _ in range(300):
        net = random_network(rng, rng.randint(2, 12))
        k = rng.randint(2, min(4, len(net.vertices)))
        mimic = build_mimic_general(net, TerminalSet(tuple(rng.sample(sorted(net.vertices), k))))
        for g in (net, mimic):
            edges = [(e.id, e.tail, e.head, e.cap) for e in g.edges]
            digest.update(repr((sorted(g.vertices), edges)).encode())
    assert digest.hexdigest() == GOLDEN_RANDOM_NETWORKS
