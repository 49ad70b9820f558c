"""Golden trees: the decomposers and ``refine`` must keep building exactly
these trees on a fixed generated set.

Each tree is pinned by one sha256 over its ids and shape: every component's
id, sorted vertex list and sorted edge ids, every clique's id and sorted
vertices, and the sorted (component, clique) tree edges.  A decomposer that
rejects its input is pinned by the exception's name.  The order in which a
component's ``vertices`` iterate is not pinned.
"""

import hashlib

import pytest

from minorflow.decomposition import (
    NotK5MinorFree,
    NotK33MinorFree,
    decompose_k5_free,
    decompose_k33_free,
    refine,
)
from minorflow.testkit import GenConfig, gen_instance, nested_triangles

from conftest import backtracking_net

SIZES = {"k33free": 240, "k5free": 260, "planar": 170}

# (family, seed) -> tree name -> sha256 of the tree, or the name of the
# exception its decomposer raised.
GOLDEN = {
    ("k33free", 0): {
        "k33": "47c0bb1fd084fc8e20a993547419b0da9cfe6ba227ac0271671681b2ac973af0",
        "refine(k33)": "7b3b47dc23d81ccf4cb5d6314d7972f9558148db2ad5ae930ef9007ddd09eea5",
        "k5": "NotK5MinorFree",
    },
    ("k33free", 1): {
        "k33": "0fd1ed3d0d9aa713233c19b7e1c53e84de4fff9405a413c81e8fc2ed535b9980",
        "refine(k33)": "57d3d88a120896c7f224dfbf37c7c6d0ee09d347fefe72cb4fbd9667bfe5a00f",
        "k5": "NotK5MinorFree",
    },
    ("k33free", 2): {
        "k33": "ec1bfb6a7e2148254d7e24c75d9baca8a06e63a028f781f4a82511f432d7640a",
        "refine(k33)": "3812463f37318998babf9ab0a320d929060795cc7d8733aaa9846ec184c3f5ed",
        "k5": "NotK5MinorFree",
    },
    ("k5free", 0): {
        "k33": "NotK33MinorFree",
        "k5": "fa8269e420faabcacb5cd3be411a513bb680a6c70151c211e0e0ef98153b2389",
        "refine(k5)": "00d628230e388724087d3d3ae2e1608f0802da8bb7f5ffc24c03d4668ecf596c",
    },
    ("k5free", 1): {
        "k33": "NotK33MinorFree",
        "k5": "46021325595227cef9ad6ae441f65d4d20451c96d72767d5b499a217718b60d9",
        "refine(k5)": "ece012453f1eef2f479c1d6a97094ca1029242810d5bc6975792b85797731fae",
    },
    ("k5free", 2): {
        "k33": "NotK33MinorFree",
        "k5": "986d25804dbbb4ce537773073f30c0c7d3a7a12842fcfa8b818036adaac48d7e",
        "refine(k5)": "dd94f2ba660e52eb38fbc4d3f427ff8c3a2d49a0d596ec50448e8c40810589f9",
    },
    ("planar", 0): {
        "k33": "0bbe3d7060921fed32fb2decab3eb038589729cf1349922144785fa23352746c",
        "refine(k33)": "b289de181e9a779892b1e050840ca7b63c83def1e8fbacc4575d92608066563a",
        "k5": "0bbe3d7060921fed32fb2decab3eb038589729cf1349922144785fa23352746c",
        "refine(k5)": "b289de181e9a779892b1e050840ca7b63c83def1e8fbacc4575d92608066563a",
    },
    ("planar", 1): {
        "k33": "287d603fca358666a8b71be13837faee2d044d88f63ef07c020dd46718d99ca0",
        "refine(k33)": "b2f439bd9a34d52c3a89311168d33a615abe377bfef973c92349f57a8fc99ee6",
        "k5": "287d603fca358666a8b71be13837faee2d044d88f63ef07c020dd46718d99ca0",
        "refine(k5)": "b2f439bd9a34d52c3a89311168d33a615abe377bfef973c92349f57a8fc99ee6",
    },
    ("planar", 2): {
        "k33": "4c8f7544e31c03197c8d8bc027d7bb7cd474accc9c2f3db5b855c5a44cff32fa",
        "refine(k33)": "eecf53ca366c9cd6842b491bc03d488f77e73b86f8ab6bf0ba5aa86745f48602",
        "k5": "4c8f7544e31c03197c8d8bc027d7bb7cd474accc9c2f3db5b855c5a44cff32fa",
        "refine(k5)": "eecf53ca366c9cd6842b491bc03d488f77e73b86f8ab6bf0ba5aa86745f48602",
    },
}


def tree_sha256(tree) -> str:
    record = (
        [(cid, sorted(net.vertices), sorted(e.id for e in net.edges))
         for cid, net in sorted(tree.components.items())],
        [(kid, sorted(verts)) for kid, verts in sorted(tree.cliques.items())],
        sorted((cid, kid) for cid, kids in tree.comp_cliques.items() for kid in kids),
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


def golden_trees(family: str, seed: int) -> dict[str, str]:
    graph, _ = gen_instance(GenConfig(family, SIZES[family], seed=seed))
    out = {}
    for name, decompose in (("k33", decompose_k33_free), ("k5", decompose_k5_free)):
        try:
            tree = decompose(graph)
        except (NotK33MinorFree, NotK5MinorFree) as exc:  # pinned by its name
            out[name] = type(exc).__name__
            continue
        out[name] = tree_sha256(tree)
        out[f"refine({name})"] = tree_sha256(refine(tree))
    return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", sorted(SIZES))
def test_decomposers_and_refine_build_the_golden_trees(family, seed):
    assert golden_trees(family, seed) == GOLDEN[family, seed]


# Trees on paths that no generated input above reaches: refine splitting at
# nested separating triangles, and the K5-free decomposer backtracking.
NESTED = nested_triangles(40, 0)
PATH_GOLDEN = {
    "k5(nested_triangles(40))": (
        lambda: decompose_k5_free(NESTED[0]),
        "f179456a3e4e04a00eedcd65686a88eeda02712ce51d73cf565f50e2306bdc53",
    ),
    "refine(nested_triangles(40) tree)": (
        lambda: refine(NESTED[1]),
        "0467a044c162ff6c63351bd4af3bf3ba34529fe923718619d7409527f05f08c9",
    ),
    "k5(backtracking)": (
        lambda: decompose_k5_free(backtracking_net()),
        "2db70cfa6a09154fdf48a05ea497dc1e3d8674d95c6ddfeefc88b662d7f2b8bd",
    ),
}


@pytest.mark.parametrize("name", PATH_GOLDEN)
def test_nested_triangle_and_backtracking_paths_build_the_golden_trees(name):
    build, want = PATH_GOLDEN[name]
    assert tree_sha256(build()) == want
