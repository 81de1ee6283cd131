import json
from fractions import Fraction
from pathlib import Path

import pytest

from murlab.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from murlab.engine import (
    Budget,
    Certificate,
    MurResult,
    _refine_algebraic,
    compute_mur,
    mur_spread,
)
from murlab.graphs import (
    Graph,
    complete,
    cycle,
    disjoint_union,
    empty,
    encode_graph6,
    p_prime,
    parse_graph6,
    path,
    petersen,
)
from murlab.report import (
    FORMAT,
    ReportError,
    build_report,
    parse_report,
    replay_report,
    report_to_json,
)

def make_report(g, spread_vertex=None):
    res = compute_mur(g)
    spread = mur_spread(g, spread_vertex) if spread_vertex is not None else None
    return build_report(g, res, Budget(), 0.1, spread)


def report_with_beta(beta):
    """A C5 report whose upper bound 5 is certified at (beta, 0, 0)."""
    doc = make_report(cycle(5))
    doc["result"].update(upper=5, exact=False, value=None)
    doc["upper_certificate"] = {
        "kind": "explicit_params",
        "data": {"beta": beta, "gamma": "0", "delta": "0", "rank": 5},
    }
    return doc


def test_report_budget_records_the_search_run():
    # The budget keys are frozen by the format; the delta search has no grid,
    # random points or candidate cap, whatever the retired fields hold.
    res = compute_mur(cycle(5))
    for budget in (Budget(), Budget(search_nodes=7, grid_den=3, random_points=9, seed=4)):
        assert build_report(cycle(5), res, budget, 0.1)["budget"] == {
            "search_nodes": budget.search_nodes,
            "grid_den": 0,
            "grid_num": 0,
            "random_points": 0,
            "max_candidates": None,
            "seed": 0,
        }


def test_report_roundtrip():
    doc = make_report(cycle(6))
    parsed = parse_report(report_to_json(doc))
    assert parsed == json.loads(json.dumps(doc))
    assert parsed["format"] == FORMAT
    assert parsed["result"]["value"] == 3


def test_parse_rejects_other_documents():
    with pytest.raises(ReportError):
        parse_report("{}")
    with pytest.raises(ValueError):
        parse_report("not json")
    with pytest.raises(ReportError):
        replay_report({"format": FORMAT})
    doc = make_report(cycle(5))
    doc["graph"]["graph6"] = "!"
    with pytest.raises(ReportError):
        replay_report(doc)
    with pytest.raises(ReportError):
        parse_report("[" * 100_000 + "]" * 100_000)
    doc = make_report(path(5), spread_vertex=0)
    doc["spread"]["deleted"]["spread"] = doc["spread"]
    with pytest.raises(ReportError):
        replay_report(doc)


def test_replay_passes_on_fresh_reports():
    graphs = (
        path(6),
        cycle(7),
        disjoint_union([complete(3), complete(4)]),
        p_prime(4),
        parse_graph6("DJC"),  # minors weights with denominators 2, 3 and 12
    )
    for g in graphs:
        checks = replay_report(make_report(g))
        assert all(c.ok for c in checks), [(c.name, c.message) for c in checks]


def test_replay_accepts_a_trivial_upper_bound_only_with_no_vertices():
    assert all(c.ok for c in replay_report(make_report(empty(0))))
    for g in (path(4), petersen()):  # mur 2 and 4
        doc = make_report(g)
        doc["result"].update(lower=0, upper=0, exact=True, value=0)
        doc["lower_certificate"] = doc["upper_certificate"] = {"kind": "trivial", "data": {}}
        message = f"a trivial upper bound needs a graph with no vertices, not {g.n}"
        assert [(c.name, c.message) for c in replay_report(doc) if not c.ok] == [
            ("upper certificate", message)
        ]


def test_replay_with_spread():
    checks = replay_report(make_report(path(5), spread_vertex=0))
    assert any(c.name == "spread arithmetic" for c in checks)
    assert all(c.ok for c in checks), [(c.name, c.message) for c in checks]


def test_replay_catches_tampering():
    doc = make_report(path(6))
    doc["result"]["lower"] = doc["result"]["upper"] = 1
    doc["result"]["value"] = 1
    checks = replay_report(doc)
    assert any(not c.ok for c in checks)

    doc = make_report(cycle(6))
    doc["upper_certificate"]["data"]["value"] = 2
    checks = replay_report(doc)
    assert any(not c.ok for c in checks)

    assert all(c.ok for c in replay_report(report_with_beta("-1")))
    for beta in ("1/0", "1e999999999", "x", None, [1]):
        check = next(c for c in replay_report(report_with_beta(beta)) if c.name == "upper certificate")
        assert not check.ok and check.message


@pytest.mark.parametrize("key", ["branch", "beta", "gamma", "delta"])
def test_replay_rejects_unreadable_algebraic_coefficients(key):
    """P'6 with its lowest rank at an irrational Laplacian-shift point."""
    g = p_prime(6)
    res = compute_mur(g)
    upper, ucert = _refine_algebraic(g, 0, g.n, Certificate("trivial"))
    assert "modulus" in ucert.data
    doc = build_report(g, MurResult(res.lower, res.lower_cert, upper, ucert), Budget(), 0.1)
    assert all(c.ok for c in replay_report(doc))
    doc["upper_certificate"]["data"][key][0] = "1e999999999"
    check = next(c for c in replay_report(doc) if c.name == "upper certificate")
    assert not check.ok and "not a rational" in check.message


def p4_algebraic_report():
    """The stored P'4 report whose upper certificate is rank 3 on the branch
    x - 1 of the Laplacian factor x^4 - 8x^3 + 20x^2 - 18x + 5."""
    data = json.loads((Path(__file__).parents[1] / "perfbench/data/reports.json").read_text())
    return next(e["doc"] for e in data["genuine"] if e["name"] == "P'4-algebraic")


def upper_check(doc):
    check = next(c for c in replay_report(doc) if c.name == "upper certificate")
    return check.ok, check.message


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda d: d.update(branch=d["modulus"], rank=2), "recomputed ranks [3, 3] != 2"),
        (lambda d: d.update(branch=["2"]),
         "unreadable certificate data: ValueError: modulus must have degree >= 1"),
        (lambda d: d.update(branch=["-3", "0", "1"]),
         "branch modulus does not divide the Laplacian spectrum"),
        (lambda d: d.pop("source"), "algebraic certificate without an eigenvalue provenance"),
    ],
)
def test_replay_messages_of_algebraic_certificates(tamper, message):
    doc = p4_algebraic_report()
    data = doc["upper_certificate"]["data"]
    assert upper_check(doc) == (True, "certified 3, claimed 3")
    tamper(data)
    assert upper_check(doc) == (False, message)
    if data["rank"] == 2:
        # replay splits the reducible modulus; rank 3 holds on both branches
        data["rank"] = 3
        assert upper_check(doc) == (True, "certified 3, claimed 3")


def test_replay_rejects_a_repeated_branch_factor():
    # (x - 2)^2 divides the Petersen graph's Laplacian polynomial (2 has
    # multiplicity 5), so only the squarefree check can reject it.
    doc = make_report(petersen())
    doc["upper_certificate"] = {
        "kind": "explicit_params",
        "data": {
            "modulus": ["4", "-4", "1"], "branch": ["4", "-4", "1"], "beta": ["0", "1"],
            "gamma": ["0", "-1/10"], "delta": ["-1"], "rank": 4, "source": "laplacian_eigenvalue",
        },
    }
    message = "unreadable certificate data: ValueError: modulus must be squarefree"
    assert upper_check(doc) == (False, message)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda d: d["minors"][0].update(weight=str(Fraction(d["minors"][0]["weight"]) + 1)),
        lambda d: d["minors"][0].update(weight="1/0"),
        lambda d: d["minors"][0].update(weight="1e999999999"),
        lambda d: d["minors"].pop(),
        lambda d: d["minors"][0].update(rows=[0, 1, 4]),
        lambda d: d["minors"][0].update(rows=[0, 1]),
        lambda d: d["minors"][0].update(rows=[0, 0, 1]),
        lambda d: d["minors"][0].update(cols=[0, 1, 5]),
        lambda d: d.update(k=4),
        lambda d: d.update(k=9),
        lambda d: d.update(minors=[]),
    ],
)
def test_replay_rejects_tampered_minor_combination(tamper):
    doc = make_report(p_prime(4))
    tamper(doc["lower_certificate"]["data"])
    check = next(c for c in replay_report(doc) if c.name == "lower certificate")
    assert not check.ok and check.message


def test_replay_names_the_first_point_where_minors_miss_1():
    # Raising one weight of the P'5 certificate by 1 leaves the sum off 1;
    # replay reports its value at the first point of minor_points(4) where
    # it is not 1, in the words replay has always used.
    doc = make_report(p_prime(5))
    values = []
    for i in range(len(doc["lower_certificate"]["data"]["minors"])):
        bad = json.loads(json.dumps(doc))
        minor = bad["lower_certificate"]["data"]["minors"][i]
        minor["weight"] = str(Fraction(minor["weight"]) + 1)
        check = next(c for c in replay_report(bad) if c.name == "lower certificate")
        assert not check.ok
        values.append(check.message)
    want = ["0", "2", "0", "0", "2", "5", "-1", "0"]
    assert values == [f"minor combination evaluates to {v}, not 1" for v in want]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_mur_graph6(capsys):
    code, out, _ = run_cli(capsys, "mur", encode_graph6(path(6)))
    assert code == EXIT_OK
    assert "mur = 4 (exact)" in out


def test_cli_mur_complement(capsys):
    code, out, _ = run_cli(
        capsys, "mur", encode_graph6(complete(5)), "--complement"
    )
    assert code == EXIT_OK
    assert "mur = 0 (exact)" in out


def test_cli_mur_edge_list_file(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "mur", str(f))
    assert code == EXIT_OK
    assert "mur = 2 (exact)" in out


def test_cli_mur_json_and_spread(capsys, monkeypatch):
    import murlab.cli
    import murlab.engine

    orders = []

    def counted(g, *args, **kwargs):
        orders.append(g.n)
        return compute_mur(g, *args, **kwargs)

    monkeypatch.setattr(murlab.engine, "compute_mur", counted)
    monkeypatch.setattr(murlab.cli, "compute_mur", counted)
    code, out, _ = run_cli(
        capsys, "mur", encode_graph6(path(5)), "--json", "--spread", "0"
    )
    assert code == EXIT_OK
    # mur(G) is computed once, for the whole graph and the spread together
    assert orders == [5, 4]
    doc = parse_report(out)
    assert doc["result"]["value"] == 3
    assert doc["spread"]["vertex"] == 0 and doc["spread"]["lower"] == 1
    assert all(c.ok for c in replay_report(doc))

    # an out-of-range vertex is rejected before any computation
    orders.clear()
    code, _, err = run_cli(capsys, "mur", encode_graph6(path(5)), "--spread", "5")
    assert code == EXIT_USAGE and "out of range" in err
    assert orders == []


def test_cli_mur_json_replays_minor_combination(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "mur", encode_graph6(p_prime(4)), "--json")
    assert code == EXIT_OK
    assert parse_report(out)["lower_certificate"]["kind"] == "minor_combination"
    f = tmp_path / "report.json"
    f.write_text(out)
    code, out, _ = run_cli(capsys, "replay", str(f))
    assert code == EXIT_OK and "replay: ok" in out


@pytest.mark.parametrize(
    "flag", [["--grid-den", "2"], ["--grid-num", "2"], ["--random-points", "5"],
             ["--seed", "1"], ["--no-algebraic"]],
)
def test_cli_search_flags_are_gone(capsys, flag):
    for command in (["mur", "A_"], ["batch", "graphs.g6"]):
        with pytest.raises(SystemExit) as exc:
            main(command + flag)
        assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("value", ["-5", "-1", "x"])
def test_cli_rejects_a_bad_budget(capsys, value):
    for command in (["mur", "Dhc", "--json"], ["batch", "graphs.g6"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--budget", value])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument --budget: not a node count: '{value}'" in err


def test_cli_budget_zero_searches_nothing(capsys):
    code, out, _ = run_cli(capsys, "mur", "Dhc", "--json", "--budget", "0")
    assert code == EXIT_OK and json.loads(out)["budget"]["search_nodes"] == 0


def test_cli_mur_bad_input(capsys):
    code, _, err = run_cli(capsys, "mur", "B\x07")
    assert code == EXIT_USAGE and "error" in err


@pytest.mark.parametrize(
    "text, line",
    [("0 1\na b\n", 2), ("n=x\n0 1\n", 1), ("n=-3\n", 1), ("0 1\nn=65\n", 2),
     ("0 -1\n", 1), ("0 64\n", 1), ("0 1000000000000000\n", 1), ("0 1\n2 2\n", 2)],
)
def test_cli_mur_edge_list_with_a_bad_token(tmp_path, capsys, text, line):
    f = tmp_path / "g.txt"
    f.write_text(text)
    code, out, err = run_cli(capsys, "mur", str(f))
    assert code == EXIT_USAGE and not out
    assert err.startswith(f"error: line {line}: ") and "Traceback" not in err


@pytest.mark.parametrize("text, n", [("n=1000000000000000\n", 10**15)])
def test_cli_mur_edge_list_with_too_many_vertices(tmp_path, capsys, text, n):
    # the bound is checked before any adjacency row is allocated
    f = tmp_path / "g.txt"
    f.write_text(text)
    code, out, err = run_cli(capsys, "mur", str(f))
    assert code == EXIT_USAGE and not out
    assert err == f"error: line 1: vertex count {n} outside 0..64\n"


def test_cli_mur_directory(tmp_path, capsys):
    code, out, err = run_cli(capsys, "mur", str(tmp_path))
    assert code == EXIT_USAGE and not out and err.startswith("error: ")


@pytest.mark.parametrize("command", ["mur", "batch"])
def test_cli_file_that_is_not_text(tmp_path, capsys, command):
    f = tmp_path / "g.bin"
    f.write_bytes(b"\xff\xfe\x00\n")
    code, out, err = run_cli(capsys, command, str(f))
    assert code == EXIT_USAGE and not out and err.startswith("error: ")


def test_cli_batch(tmp_path, capsys):
    import networkx as nx

    graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 4]
    assert len(graphs) == 11
    tokens = [
        encode_graph6(Graph.from_edges(4, list(g.edges()))) for g in graphs
    ]
    f = tmp_path / "batch.g6"
    f.write_text("\n".join(tokens) + "\n")
    code, out, err = run_cli(capsys, "batch", str(f))
    assert code == EXIT_OK
    assert out.count("(exact)") == 11
    assert "11 graphs, 11 exact, 0 interval, 0 errors" in err


def test_cli_batch_json(tmp_path, capsys):
    # One document per graph, each on one line, and blank lines skipped.
    # Each document parses and replays with every check passing, and
    # --indent prints the same documents.
    tokens = [encode_graph6(g) for g in (cycle(5), p_prime(6), petersen())] + ["F~aK?"]
    f = tmp_path / "batch.g6"
    f.write_text("\n" + "\n\n".join(tokens) + "\n  \n")
    code, out, err = run_cli(capsys, "batch", str(f), "--json")
    assert code == EXIT_OK
    assert "4 graphs, 4 exact, 0 interval, 0 errors" in err
    lines = out.splitlines()
    docs = [parse_report(line) for line in lines]
    assert [doc["graph"]["graph6"] for doc in docs] == tokens
    assert docs[-1]["lower_certificate"]["kind"] == "minor_combination"
    for doc in docs:
        assert all(check.ok for check in replay_report(doc))
    code, out, _ = run_cli(capsys, "batch", str(f), "--json", "--indent")
    assert code == EXIT_OK
    # an indented document ends with a brace at the start of its last line
    indented = [json.loads(text + "}") for text in out.split("\n}\n")[:-1]]
    for doc in docs + indented:
        doc["elapsed_seconds"] = 0
    assert indented == docs


def test_cli_batch_bad_line_continues(tmp_path, capsys):
    f = tmp_path / "batch.g6"
    f.write_text("A_\n!!bad!!\nBw\n")
    code, out, err = run_cli(capsys, "batch", str(f))
    assert code == EXIT_USAGE
    assert out.count("(exact)") == 2
    assert "line 2: error" in err
    assert "1 errors" in err


def test_cli_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "complements")
    assert code == EXIT_OK
    assert "checks passed" in out
    code, _, err = run_cli(capsys, "verify", "no-such-suite")
    assert code == EXIT_USAGE and "error" in err


def test_cli_verify_pprime_verbose(capsys):
    code, out, _ = run_cli(capsys, "verify", "pprime", "--verbose")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[-1] == "pprime: 10/10 checks passed"
    assert [line.split("  ")[1] for line in lines if "fixture" in line] == [
        "fixture pprime8-golden", "fixture pprime10-heptagon", "fixture path-laplacian-shift",
    ]
    assert all(line.startswith("PASS  ") for line in lines[:-1])


def test_cli_replay(tmp_path, capsys):
    doc = make_report(cycle(5))
    f = tmp_path / "report.json"
    f.write_text(report_to_json(doc))
    code, out, _ = run_cli(capsys, "replay", str(f))
    assert code == EXIT_OK and "replay: ok" in out

    doc["result"]["upper"] = 0
    doc["result"]["exact"] = False
    f.write_text(report_to_json(doc))
    code, out, _ = run_cli(capsys, "replay", str(f))
    assert code == EXIT_VERIFY

    f.write_text(report_to_json(report_with_beta("1/0")))
    code, out, _ = run_cli(capsys, "replay", str(f))
    assert code == EXIT_VERIFY and "FAIL  upper certificate" in out

    for text in ("{}", json.dumps({"format": FORMAT})):
        f.write_text(text)
        code, _, err = run_cli(capsys, "replay", str(f))
        assert code == EXIT_USAGE and "error" in err
