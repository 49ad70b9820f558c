import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minorflow
from minorflow import cli
from minorflow.cli import main
from minorflow.decomposition import DecompositionTree
from minorflow.external import certify_max_flow
from minorflow.fileio import (
    FormatError,
    canonical_ids,
    parse_decomposition,
    parse_flow,
    parse_network,
    write_decomposition,
    write_flow,
    write_network,
)
from minorflow.network import FlowNetwork
from minorflow.testkit import GenConfig, gen_instance, oracle_max_flow

from conftest import overflow_tree


def test_network_round_trip():
    text = "c comment\np max 3 2\nn 1 s\nn 3 t\na 1 2 4\na 2 3 7\n"
    net, s, t = parse_network(text)
    assert (s, t) == (1, 3)
    assert len(net.edges) == 2 and net.edge_by_id[2].cap == 7
    again, s2, t2 = parse_network(write_network(net, s, t))
    assert again == net and (s2, t2) == (s, t)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p max 2 z\n", "line 1"),
        ("a 1 2 3\n", "arc before"),
        ("p max 2 1\na 1 5 3\n", "out of range"),
        ("p max 2 2\na 1 2 3\n", "expected 2 arcs"),
        ("p max 2 1\na 1 2 -3\n", "negative"),
        ("p max 2 1\na 1 2 9223372036854775808\n", "line 2: capacity"),
        ("p max 2 1\na 1 1 3\n", "line 2: self-loop"),
        ("p max -3 0\n", "line 1: negative vertex or arc count"),
        ("p max 3 0\nn 1 s\nn 2 s\n", "line 3: duplicate 'n <id> s' line"),
        ("p max 3 0\nn 1 t\nn 3 s\nn 2 t\n", "line 4: duplicate 'n <id> t' line"),
        ("p max 2 0\np max 2 0\n", "line 2: duplicate problem line"),
        ("p min 2 0\n", "line 1: expected 'p max <n> <m>'"),
        ("p max 2 0\nn 1 x\n", "line 2: expected 'n <id> s|t'"),
        ("p max 2 1\na 1 2\n", "line 2: expected 'a <tail> <head> <cap>'"),
        ("p max 2 0\nx 1\n", "line 2: unknown line type 'x'"),
        ("c no problem line\n", "missing problem line"),
        ("p max 2 1\na 1 y 3\n", "line 2: bad integer"),
        # int() alone reads digit-group underscores and non-ASCII digits.
        ("p max 3 1\na 2 3 4_0\n", "line 2: bad integer: '4_0' is not an ASCII decimal integer"),
        ("p max 3 1\na 2 3 \u0664\n", "line 2: bad integer: '\u0664' is not an ASCII decimal integer"),
        ("p max 1_0 0\n", "line 1: bad integer: '1_0'"),
        ("p max 3 0\nn \u0661 s\n", "line 2: bad integer: '\u0661'"),
    ],
)
def test_network_parse_errors(text, fragment):
    with pytest.raises(FormatError) as err:
        parse_network(text)
    assert fragment in str(err.value)


def test_decomposition_round_trip():
    graph, tree = gen_instance(GenConfig("k33free", 18, seed=2))
    graph_c, tree_c, _, _ = canonical_ids(graph, tree)
    text = write_decomposition(tree_c)
    back = parse_decomposition(text)
    assert write_decomposition(back) == text
    doc = json.loads(text)
    assert set(doc) == {"components", "cliques", "tree_edges"}


def test_decomposition_label_keys_of_older_files_are_ignored():
    graph, tree = gen_instance(GenConfig("k5free", 30, seed=4))
    _, tree, _, _ = canonical_ids(graph, tree)
    text = write_decomposition(tree)
    doc = json.loads(text)
    assert all(set(comp) == {"id", "vertices", "edges"} for comp in doc["components"])
    for i, comp in enumerate(doc["components"]):
        comp["label"] = ("planar", "btw")[i % 2]
    old = parse_decomposition(json.dumps(doc))
    assert old == parse_decomposition(text)
    assert write_decomposition(old) == text


def test_flow_round_trip():
    flow = {3: 1, 1: 0, 2: 9}
    assert parse_flow(write_flow(flow)) == flow
    with pytest.raises(FormatError):
        parse_flow("f 1 2\nf 1 3\n")
    # int() alone reads digit-group underscores and non-ASCII digits.
    for text in ("f 1 4_0\n", "f \u0664 1\n", "f 2 1\nf 1 1_0\n"):
        with pytest.raises(FormatError, match=r"^line \d: bad integer: '.*' is not an ASCII decimal"):
            parse_flow(text)


def test_comment_lines_stay_free_form():
    text = "c caf\u00e9 4_0 \u0664\np max 2 1\n  c indented_comment\na 1 2 3\n"
    net, _, _ = parse_network(text)
    assert [(e.tail, e.head, e.cap) for e in net.edges] == [(1, 2, 3)]
    assert parse_flow("c \u0664_0\nf 1 3\n") == {1: 3}


@pytest.mark.parametrize("family", ["planar", "k33free", "k5free"])
@pytest.mark.parametrize("n", [30, 120, 300])
def test_parse_round_trip_keeps_every_component_vertex_order(family, n):
    # The frozenset of a component's vertices iterates in the order its
    # values were inserted, and the solver numbers a component's kernel
    # vertices in that order: a parsed component must add the file's
    # vertex list first and then each edge's tail and head, as
    # FlowNetwork.from_edges does.
    graph, tree = gen_instance(GenConfig(family, n, seed=n))
    graph, tree, _, _ = canonical_ids(graph, tree)
    parsed, _, _ = parse_network(write_network(graph))
    assert parsed == graph
    text = write_decomposition(tree)
    back = parse_decomposition(text)
    assert back == tree
    doc = json.loads(text)
    for comp in doc["components"]:
        expected = FlowNetwork.from_edges(map(tuple, comp["edges"]), comp["vertices"])
        assert list(back.components[comp["id"]].vertices) == list(expected.vertices)


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def test_cli_solve_single_edge(tmp_path, capsys):
    net = tmp_path / "net.max"
    net.write_text("p max 2 1\na 1 2 5\n")
    code = run(tmp_path, "solve", "--network", net, "--family", "k33", "--source", 1, "--sink", 2)
    assert code == 0
    assert capsys.readouterr().out.startswith("value 5\n")


def test_cli_gen_solve_oracle_verify_cycle(tmp_path, capsys):
    net = tmp_path / "net.max"
    tree = tmp_path / "tree.json"
    flow = tmp_path / "flow.txt"
    assert run(tmp_path, "gen", "--family", "k5free", "--n", 30, "--seed", 3, "-o", net, "--tree", tree) == 0
    capsys.readouterr()
    assert (
        run(
            tmp_path,
            "solve", "--network", net, "--decomposition", tree,
            "--source", 1, "--sink", 5, "--emit-flow", flow, "--audit",
        )
        == 0
    )
    out = capsys.readouterr().out
    value = int(out.splitlines()[0].split()[1])
    assert "audit flow ok" in out and "audit steps ok" in out
    assert run(tmp_path, "oracle", "--network", net, "--source", 1, "--sink", 5) == 0
    assert capsys.readouterr().out == f"value {value}\n"
    assert run(tmp_path, "verify", "--network", net, "--flow", flow, "--source", 1, "--sink", 5) == 0
    side = certify_max_flow(
        parse_network(net.read_text())[0], 1, 5, parse_flow(flow.read_text())
    ).source_side
    assert capsys.readouterr().out == (
        f"value {value}\ncut ok (source side {len(side)} vertices, cut {value})\n"
    )


def test_cli_verify_rejects_a_feasible_flow_that_is_not_maximum(tmp_path, capsys):
    # A flow from solve, less one unit on one s-t path that carries flow:
    # still feasible, so only the cut certificate can reject it.
    net = tmp_path / "net.max"
    flow = tmp_path / "flow.txt"
    less = tmp_path / "less.txt"
    assert run(tmp_path, "gen", "--family", "k5free", "--n", 30, "--seed", 3, "-o", net) == 0
    args = ("--network", net, "--source", 1, "--sink", 5)
    assert run(tmp_path, "solve", *args, "--family", "k5", "--emit-flow", flow) == 0
    value = int(capsys.readouterr().out.split()[-1])
    assert value > 0
    graph, _, _ = parse_network(net.read_text())
    flows = parse_flow(flow.read_text())
    via = {1: None}  # vertex -> the edge that first reached it, on edges carrying flow
    todo = [1]
    for u in todo:
        for e in sorted(graph.edges, key=lambda e: e.id):
            if e.tail == u and flows[e.id] > 0 and e.head not in via:
                via[e.head] = e
                todo.append(e.head)
    v = 5
    while via[v] is not None:
        flows[via[v].id] -= 1
        v = via[v].tail
    less.write_text(write_flow(flows))
    assert run(tmp_path, "verify", *args, "--flow", less) == 1
    out, err = capsys.readouterr()
    assert out == f"value {value - 1}\n"
    assert err.splitlines()[0] == "problem sink 5 is reachable from source 1 in the residual network"


def test_cli_audit_certifies_the_cut_above_the_step_audit_limit(tmp_path, capsys):
    net = tmp_path / "net.max"
    flow = tmp_path / "flow.txt"
    assert run(tmp_path, "gen", "--family", "k5free", "--n", 200, "--seed", 5, "-o", net) == 0
    capsys.readouterr()
    graph, _, _ = parse_network(net.read_text())
    assert len(graph.vertices) > cli._AUDIT_LIMIT
    s, t = max(
        ((1, v) for v in (50, 100, 150, 200)), key=lambda pair: oracle_max_flow(graph, *pair)
    )
    want = oracle_max_flow(graph, s, t)
    assert want > 0
    args = ("solve", "--network", net, "--family", "k5", "--source", s, "--sink", t)
    assert run(tmp_path, *args, "--audit", "--emit-flow", flow) == 0
    side = certify_max_flow(graph, s, t, parse_flow(flow.read_text())).source_side
    assert capsys.readouterr().out == (
        f"value {want}\naudit flow ok\n"
        f"audit cut ok (source side {len(side)} vertices, cut {want})\n"
        "audit steps skipped (network too large)\n"
    )
    assert s in side and t not in side


def test_cli_audit_rejects_a_flow_that_is_not_maximum(tmp_path, capsys, monkeypatch):
    # A zero flow is feasible, so only the cut certificate can catch it.
    net = tmp_path / "net.max"
    net.write_text("p max 3 2\na 1 2 5\na 2 3 4\n")

    def zero_flow(graph, family, s, t, observer=None):
        return 0, {e.id: 0 for e in graph.edges}

    monkeypatch.setattr(cli, "max_flow_family", zero_flow)
    args = ("solve", "--network", net, "--family", "k33", "--source", 1, "--sink", 3, "--audit")
    assert run(tmp_path, *args) == 1
    assert capsys.readouterr().out == (
        "value 0\naudit flow ok\naudit cut FAILED\n"
        "audit problem sink 3 is reachable from source 1 in the residual network\n"
    )


def test_cli_gen_is_deterministic_and_seed_env_overrides(tmp_path, monkeypatch, capsys):
    a, b, c = tmp_path / "a.max", tmp_path / "b.max", tmp_path / "c.max"
    run(tmp_path, "gen", "--family", "k5free", "--n", 40, "--seed", 7, "-o", a)
    run(tmp_path, "gen", "--family", "k5free", "--n", 40, "--seed", 7, "-o", b)
    assert a.read_text() == b.read_text()
    monkeypatch.setenv("MINORFLOW_SEED", "8")
    run(tmp_path, "gen", "--family", "k5free", "--n", 40, "--seed", 7, "-o", c)
    assert a.read_text() != c.read_text()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,seed_env,fragment",
    [
        (("--n", 1), None, "need n >= 2"),
        (("--n", 10, "--max-cap", 0), None, "need max capacity >= 1"),
        (("--n", 12, "--max-cap", 2**63), None, "need max capacity <= 2^63-1"),
        (("--n", 10), "abc", "MINORFLOW_SEED 'abc' is not an integer"),
    ],
    ids=["n-1", "max-cap-0", "max-cap-2^63", "seed-abc"],
)
def test_cli_gen_rejects_bad_config(tmp_path, monkeypatch, capsys, argv, seed_env, fragment):
    if seed_env is not None:
        monkeypatch.setenv("MINORFLOW_SEED", seed_env)
    out = tmp_path / "g.max"
    assert run(tmp_path, "gen", "--family", "k5free", *argv, "-o", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert not out.exists()


def test_cli_solve_rejects_an_invalid_decomposition(tmp_path, capsys):
    # K5 on 1..5 with a pendant path on to 11: one non-planar component
    # above the 10-vertex cap.
    arcs = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
    arcs += [(v, v + 1) for v in range(5, 11)]
    net = tmp_path / "k5-path.max"
    dec = tmp_path / "dec.json"
    net.write_text(f"p max 11 {len(arcs)}\n" + "".join(f"a {a} {b} 1\n" for a, b in arcs))
    doc = {
        "components": [
            {
                "id": 0,
                "vertices": list(range(1, 12)),
                "edges": [[i, a, b, 1] for i, (a, b) in enumerate(arcs, start=1)],
            }
        ],
        "cliques": [],
        "tree_edges": [],
    }
    dec.write_text(json.dumps(doc))
    assert run(tmp_path, "solve", "--network", net, "--decomposition", dec, "--source", 1, "--sink", 5) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "torso is not planar and has more than 10 vertices" in err


def _float_vertex(doc):
    doc["components"][0]["vertices"][0] += 0.7


def _float_capacity(doc):
    doc["components"][0]["edges"][0][3] += 0.9


def _bool_component_id(doc):
    assert doc["components"][1]["id"] == 1
    doc["components"][1]["id"] = True


def _string_clique_vertex(doc):
    doc["cliques"][0]["vertices"][0] = str(doc["cliques"][0]["vertices"][0])


@pytest.mark.parametrize(
    "corrupt,fragment",
    [
        (_float_vertex, "component vertex must be an integer, got 1.7"),
        (_float_capacity, "component edge field must be an integer, got 7.9"),
        (_bool_component_id, "component id must be an integer, got true"),
        (_string_clique_vertex, 'clique vertex must be an integer, got "4"'),
    ],
    ids=["vertex-float", "capacity-float", "component-id-bool", "vertex-string"],
)
def test_cli_solve_rejects_non_integer_decomposition_values(tmp_path, capsys, corrupt, fragment):
    # Each of these values was once coerced by int() into a valid tree.
    net = tmp_path / "net.max"
    dec = tmp_path / "tree.json"
    assert run(tmp_path, "gen", "--family", "k5free", "--n", 30, "--seed", 3, "-o", net, "--tree", dec) == 0
    doc = json.loads(dec.read_text())
    corrupt(doc)
    dec.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "solve", "--network", net, "--decomposition", dec, "--source", 1, "--sink", 5) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def _three_field_component_edge(doc):
    del doc["components"][0]["edges"][0][3]
    return doc


def _bare_integer_tree_edge(doc):
    doc["tree_edges"][0] = doc["tree_edges"][0][0]
    return doc


def _top_level_list(doc):
    return [doc]


def _integer_component(doc):
    doc["components"][0] = 5
    return doc


def _integer_component_vertices(doc):
    doc["components"][0]["vertices"] = 5
    return doc


def _integer_tree_edges(doc):
    doc["tree_edges"] = 5
    return doc


def _repeated_tree_edge(doc):
    doc["tree_edges"].append(list(doc["tree_edges"][0]))
    return doc


def _empty_clique(doc):
    doc["cliques"][0]["vertices"] = []
    return doc


def _four_vertex_clique(doc):
    vertices = doc["cliques"][0]["vertices"]
    vertices += [v for v in range(1, 5) if v not in vertices][: 4 - len(vertices)]
    return doc


def _self_loop_component_edge(doc):
    doc["components"][0]["edges"][0] = [1, 2, 2, 3]
    return doc


def _negative_capacity_component_edge(doc):
    doc["components"][0]["edges"][0] = [1, 2, 3, -1]
    return doc


@pytest.mark.parametrize(
    "corrupt,fragment",
    [
        (_three_field_component_edge, "component edge must be [id, tail, head, cap], got ["),
        (_bare_integer_tree_edge, "tree edge must be [component, clique], got "),
        (
            _top_level_list,
            "decomposition must be an object with components, cliques, tree_edges, got a list",
        ),
        (_integer_component, "component must be an object with id, vertices, edges, got 5"),
        (_integer_component_vertices, "component vertices must be a list, got 5"),
        (_integer_tree_edges, "tree_edges must be a list, got 5"),
        (_empty_clique, "clique size 0 out of range 1..3"),
        (_four_vertex_clique, "clique size 4 out of range 1..3"),
        (_repeated_tree_edge, "duplicate tree edge [0, 0]"),
        (_self_loop_component_edge, "error: malformed value: self-loop at vertex 2 (edge 1)\n"),
        (
            _negative_capacity_component_edge,
            "error: malformed value: negative capacity -1 on edge 1\n",
        ),
    ],
    ids=[
        "edge-three-fields",
        "tree-edge-integer",
        "top-level-list",
        "component-integer",
        "vertices-integer",
        "tree-edges-integer",
        "clique-empty",
        "clique-four",
        "tree-edge-repeated",
        "edge-self-loop",
        "edge-negative-capacity",
    ],
)
def test_cli_solve_names_the_field_of_a_decomposition_list_of_the_wrong_shape(
    tmp_path, capsys, corrupt, fragment
):
    # These once surfaced Python's own messages: a missing positional
    # argument of Edge, a failed tuple unpacking, a list indexed by a key,
    # an integer subscripted and integers iterated.  A clique list of 0 or
    # 4 vertices is refused by its size, and a tree edge listed twice,
    # which the incidence sets once dropped, is refused by name.  A row
    # that Edge refuses keeps Edge's own message.
    net = tmp_path / "net.max"
    dec = tmp_path / "tree.json"
    assert run(tmp_path, "gen", "--family", "k5free", "--n", 30, "--seed", 3, "-o", net, "--tree", dec) == 0
    dec.write_text(json.dumps(corrupt(json.loads(dec.read_text()))))
    capsys.readouterr()
    assert run(tmp_path, "solve", "--network", net, "--decomposition", dec, "--source", 1, "--sink", 5) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_cli_solve_rejects_a_disconnected_tree(tmp_path, capsys):
    # Two triangles, one component each and no clique: each component is
    # valid, but the tree has two parts.
    net = tmp_path / "net.max"
    dec = tmp_path / "tree.json"
    tree = DecompositionTree()
    for c in (0, 1):
        tree.add_component(
            FlowNetwork.from_edges([(3 * c + i, 3 * c + i, 3 * c + i % 3 + 1, 3) for i in (1, 2, 3)])
        )
    net.write_text(write_network(tree.reassemble()))
    dec.write_text(write_decomposition(tree))
    assert run(tmp_path, "solve", "--network", net, "--decomposition", dec, "--source", 1, "--sink", 2) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "tree is disconnected" in err


def test_cli_solve_rejects_a_decomposition_nested_too_deeply(tmp_path, capsys):
    # json.loads recurses once per nesting level and raised RecursionError.
    net = tmp_path / "net.max"
    dec = tmp_path / "deep.json"
    net.write_text("p max 2 1\na 1 2 5\n")
    dec.write_text("[" * 100_000 + "]" * 100_000)
    assert run(tmp_path, "solve", "--network", net, "--decomposition", dec, "--source", 1, "--sink", 2) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: bad JSON: nested too deeply\n"


def test_cli_solve_rejects_a_second_source_line(tmp_path, capsys):
    # The first source gives value 3; the second, with no arc out, would
    # give 0 if it silently replaced the first.
    net = tmp_path / "net.max"
    net.write_text("p max 3 1\nn 1 s\nn 3 t\nn 2 s\na 1 3 3\n")
    assert run(tmp_path, "solve", "--network", net, "--family", "k5") == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: line 4: duplicate 'n <id> s' line\n"
    net.write_text("p max 3 1\nn 1 s\nn 3 t\na 1 3 3\n")
    assert run(tmp_path, "solve", "--network", net, "--family", "k5") == 0
    assert capsys.readouterr().out == "value 3\n"


def test_cli_decompose_matches_solve_and_rejects_k33(tmp_path, capsys):
    net = tmp_path / "net.max"
    dec = tmp_path / "dec.json"
    run(tmp_path, "gen", "--family", "k33free", "--n", 24, "--seed", 5, "-o", net)
    capsys.readouterr()
    assert run(tmp_path, "decompose", "--network", net, "--family", "k33", "-o", dec) == 0
    capsys.readouterr()
    assert run(tmp_path, "solve", "--network", net, "--decomposition", dec, "--source", 1, "--sink", 2) == 0
    solve_out = capsys.readouterr().out
    assert run(tmp_path, "oracle", "--network", net, "--source", 1, "--sink", 2) == 0
    assert capsys.readouterr().out == solve_out

    k33 = tmp_path / "k33.max"
    lines = ["p max 6 9"] + [f"a {a} {b} 1" for a in (1, 2, 3) for b in (4, 5, 6)]
    k33.write_text("\n".join(lines) + "\n")
    assert run(tmp_path, "decompose", "--network", k33, "--family", "k33", "-o", dec) == 2


def test_cli_mimic_emits_star(tmp_path, capsys):
    net = tmp_path / "path.max"
    net.write_text("p max 3 2\na 1 2 2\na 2 3 2\n")
    assert run(tmp_path, "mimic", "--network", net, "--terminals", "1,2,3") == 0
    out = capsys.readouterr().out
    parsed, _, _ = parse_network(out)
    assert len(parsed.vertices) == 4 and len(parsed.edges) == 6


@pytest.mark.parametrize(
    "terminals,fragment",
    [
        ("1,x", "not comma-separated integers"),
        ("1,1", "repeat a vertex"),
        ("1,99", "terminal 99 not in the network"),
        ("1", "need 2..4"),
    ],
)
def test_cli_mimic_rejects_bad_terminals(tmp_path, capsys, terminals, fragment):
    net = tmp_path / "path.max"
    net.write_text("p max 3 2\na 1 2 2\na 2 3 2\n")
    assert run(tmp_path, "mimic", "--network", net, "--terminals", terminals) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_cli_rejects_equal_source_and_sink(tmp_path, capsys):
    net = tmp_path / "net.max"
    net.write_text("p max 2 1\na 1 2 5\n")
    for argv in (("oracle",), ("solve", "--family", "k33")):
        assert run(tmp_path, *argv, "--network", net, "--source", 2, "--sink", 2) == 1
        assert capsys.readouterr().err.startswith("error: source and sink are both 2")


def test_cli_malformed_header_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.max"
    bad.write_text("p max 2 z\n")
    assert run(tmp_path, "solve", "--network", bad, "--family", "k33", "--source", 1, "--sink", 2) == 1
    assert "line 1" in capsys.readouterr().err


def test_cli_rejects_a_capacity_with_an_underscore(tmp_path, capsys):
    # int("4_0") is 40: the solve once ran on that capacity and exited 0.
    bad = tmp_path / "bad.max"
    bad.write_text("p max 3 2\na 1 2 7\na 2 3 4_0\n")
    assert run(tmp_path, "solve", "--network", bad, "--family", "k33", "--source", 1, "--sink", 3) == 1
    out, err = capsys.readouterr()
    assert out == "" and "line 3: bad integer: '4_0' is not an ASCII decimal integer" in err


def test_cli_disconnected_network_solves_but_does_not_decompose(tmp_path, capsys):
    net = tmp_path / "iso.max"
    dec = tmp_path / "dec.json"
    text = "p max 4 2\na 1 2 3\na 2 3 4\n"  # vertex 4 is isolated
    net.write_text(text)
    want = oracle_max_flow(parse_network(text)[0], 1, 3)
    args = ("solve", "--network", net, "--family", "k5", "--source", 1, "--sink", 3, "--audit")
    assert run(tmp_path, *args) == 0
    assert capsys.readouterr().out.startswith(f"value {want}\naudit flow ok\n")
    assert run(tmp_path, "decompose", "--network", net, "--family", "k33", "-o", dec) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not dec.exists()


def test_cli_solves_past_the_input_capacity_bound(tmp_path, capsys):
    tree = overflow_tree()
    net = tmp_path / "net.max"
    dec = tmp_path / "dec.json"
    net.write_text(write_network(tree.reassemble()))
    dec.write_text(write_decomposition(tree))
    assert run(tmp_path, "solve", "--network", net, "--decomposition", dec, "--source", 1, "--sink", 4) == 0
    assert capsys.readouterr().out.startswith("value 9223372036854775808\n")


def test_importing_the_cli_loads_neither_networkx_nor_numpy():
    # A solve's fixed cost is mostly imports: networkx is loaded only to
    # embed and by testkit's minor check, numpy only by testkit's cut-table
    # oracle.
    src = str(Path(minorflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, minorflow, minorflow.cli; "
        "print(sorted(m for m in ('networkx', 'numpy') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_gen_and_audited_solve_run_without_networkx(tmp_path):
    # networkx is needed only by testkit's exact minor check and numpy only
    # by its cut-table oracle, so gen, solve --audit (which imports testkit
    # for the step audit), decompose, mimic and verify run in a process
    # where importing either fails.
    src = str(Path(minorflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    net, tree, flow = tmp_path / "net.max", tmp_path / "tree.json", tmp_path / "flow.txt"
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "sys.modules['numpy'] = None\n"
        "from minorflow.cli import main\n"
        f"assert main(['gen', '--family', 'k5free', '--n', '40', '--seed', '2',"
        f" '-o', {str(net)!r}, '--tree', {str(tree)!r}]) == 0\n"
        f"for how in (['--decomposition', {str(tree)!r}], ['--family', 'k5']):\n"
        f"    assert main(['solve', '--network', {str(net)!r}, *how,"
        " '--source', '1', '--sink', '7', '--audit']) == 0\n"
        f"assert main(['decompose', '--network', {str(net)!r}, '--family', 'k5',"
        f" '-o', {str(tmp_path / 'k5.json')!r}]) == 0\n"
        "for terms in ('1,7', '1,7,9', '1,7,9,12'):\n"
        f"    assert main(['mimic', '--network', {str(net)!r}, '--terminals', terms,"
        f" '-o', {str(tmp_path / 'mimic.max')!r}]) == 0\n"
        f"assert main(['solve', '--network', {str(net)!r}, '--decomposition', {str(tree)!r},"
        f" '--source', '1', '--sink', '7', '--emit-flow', {str(flow)!r}]) == 0\n"
        f"assert main(['verify', '--network', {str(net)!r}, '--flow', {str(flow)!r},"
        " '--source', '1', '--sink', '7']) == 0\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("audit steps ok") == 2
    assert "cut ok" in out.stdout
