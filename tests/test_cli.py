import json

import pytest

from minorflow.cli import main
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
from minorflow.testkit import GenConfig, gen_instance

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
    assert capsys.readouterr().out == f"value {value}\n"


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
        (("--n", 10), "abc", "MINORFLOW_SEED 'abc' is not an integer"),
    ],
    ids=["n-1", "max-cap-0", "seed-abc"],
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


def test_cli_disconnected_network_exits_one(tmp_path, capsys):
    net = tmp_path / "iso.max"
    dec = tmp_path / "dec.json"
    net.write_text("p max 4 2\na 1 2 3\na 2 3 4\n")  # vertex 4 is isolated
    assert run(tmp_path, "solve", "--network", net, "--family", "k5", "--source", 1, "--sink", 3) == 1
    assert capsys.readouterr().err.startswith("error: ")
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
