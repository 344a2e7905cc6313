"""Golden-file tests for every CLI subcommand.

Golden cases run with ``tests/data`` as the current directory and name data
files by their bare file names, so the argv that a ``--json`` report echoes
in its ``command`` field, and hence every golden file, holds no checkout path.

Regenerate the golden outputs with:  GOLDEN_UPDATE=1 pytest tests/test_cli.py
"""

import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from cayleykit import cli
from cayleykit.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DATA = pathlib.Path(__file__).resolve().parent / "data"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

CASES = {
    "enumerate.txt": ["enumerate", "<r,s | r^5=s^2=1, r^3s=sr, srs=r^2>"],
    "enumerate.json": [
        "enumerate",
        "<r,s | r^5=s^2=1, r^3s=sr, srs=r^2>",
        "--json",
    ],
    "identify_presentation.txt": [
        "identify",
        "--presentation",
        "<r,f | r^6=f^2=1, rfr=f>",
    ],
    "identify_table.txt": ["identify", "--table", "latin_cyclic5.txt"],
    "identify_graph.txt": ["identify", "--graph", "petersen_graph.json"],
    "check_graph.txt": ["check-graph", "petersen_graph.json"],
    "check_graph_full.json": [
        "check-graph",
        "petersen_graph.json",
        "--full-order",
        "--json",
    ],
    "check_table.txt": ["check-table", "latin_nonassoc5.txt"],
    "check_table.json": ["check-table", "latin_nonassoc5.txt", "--json"],
    "make.txt": ["make", "dihedral", "4", "--table"],
    "make_pauli.json": ["make", "pauli", "1", "--json"],
    "quotient.txt": [
        "quotient",
        "--presentation",
        "<r,s | r^8=1, s^2=r^4, s^-1 r s=r^-1>",
        "--normal",
        "r^4",
        "--table",
    ],
    "fixture_emit.txt": ["fixture", "petersen"],
    "fixture_analyze.txt": ["fixture", "petersen", "--analyze"],
    "fixture_analyze_all.txt": ["fixture", "--analyze-all"],
}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_err(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.err


def canonical(name, text):
    if not name.endswith(".json"):
        return text
    document = json.loads(text)
    document.pop("timing_ms", None)
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code, out = run_cli(CASES[name], capsys)
    assert code == 0
    got = canonical(name, out)
    path = GOLDEN / name
    if os.environ.get("GOLDEN_UPDATE"):
        path.write_text(got)
    assert path.exists(), f"golden file {name} missing; run with GOLDEN_UPDATE=1"
    assert got == path.read_text()


def test_json_output_is_deterministic(capsys):
    args = ["fixture", "mirror16", "--analyze", "--json"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    strip = lambda text: canonical("x.json", text)
    assert strip(first) == strip(second)


def test_usage_error_exit_code(capsys):
    code, err = run_cli_err(["enumerate", "<r | r"], capsys)
    assert code == 2
    assert "error:" in err


def test_unknown_family_exit_code(capsys):
    code, _ = run_cli(["make", "heisenberg", "3"], capsys)
    assert code == 2


def test_family_usage_errors_have_no_text_position(capsys):
    assert run_cli_err(["make", "heisenberg", "3"], capsys) == (
        2,
        "error: unknown family 'heisenberg' (use: cyclic n | abelian d1,d2,... | "
        "dihedral n | quaternion m | semidihedral m | semiabelian m | sdp m k | dq m | "
        "pauli q)\n",
    )
    assert run_cli_err(["make", "dq", "8", "2"], capsys) == (
        2, "error: dq takes 1 integer argument(s)\n"
    )
    assert run_cli_err(["make", "sdp", "x"], capsys) == (
        2, "error: sdp takes 2 integer argument(s)\n"
    )
    assert run_cli_err(["make", "abelian", "4", "6"], capsys) == (
        2, "error: abelian takes one comma-separated factor list\n"
    )


def test_family_usage_lists_the_family_table():
    from cayleykit import families
    usage = " | ".join(
        " ".join((entry.cli, *entry.labels)) for entry in families.FAMILIES.values()
    )
    assert cli.FAMILY_USAGE == usage


def test_fixture_help_lists_the_bundled_fixtures():
    from cayleykit import graphs
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    name = next(a for a in sub.choices["fixture"]._actions if a.dest == "name")
    assert sorted(name.help.split(", ")) == graphs.fixture_names()


def test_cap_exceeded_exit_code(capsys):
    code, err = run_cli_err(
        ["enumerate", "<r,f | r^4=f^2=1, rfr=f>", "--max-cosets", "4"], capsys
    )
    assert code == 3
    assert "cap exceeded" in err


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CAYLEY_MAX_COSETS", "4")
    code, _ = run_cli(["enumerate", "<r,f | r^4=f^2=1, rfr=f>"], capsys)
    assert code == 3
    monkeypatch.setenv("CAYLEY_MAX_COSETS", "64")
    code, _ = run_cli(["enumerate", "<r,f | r^4=f^2=1, rfr=f>"], capsys)
    assert code == 0


def test_cayley_graph_over_the_coset_cap_exits_3(capsys, monkeypatch):
    # a Cayley graph is read as its own coset table, which has a row per node
    monkeypatch.setenv("CAYLEY_MAX_COSETS", "8")
    graph = SRC / "cayleykit" / "fixtures" / "mirror16.json"
    code = main(["check-graph", str(graph), "--json"])
    captured = capsys.readouterr()
    message = "cap exceeded: coset cap 8 exceeded (a regular graph on 16 nodes has 16 cosets)\n"
    assert (code, captured.out, captured.err) == (3, "", message)


def test_coset_cap_bounds_the_presented_order_of_a_non_cayley_graph(capsys, monkeypatch):
    # ring18 has 18 nodes and presents C_6: its quotient, not the graph, is charged
    graph = str(SRC / "cayleykit" / "fixtures" / "ring18.json")
    monkeypatch.setenv("CAYLEY_MAX_COSETS", "6")
    code, out = run_cli(["check-graph", graph], capsys)
    assert code == 0 and "presented group: C_6 (order 6)\n" in out
    monkeypatch.setenv("CAYLEY_MAX_COSETS", "5")
    message = "cap exceeded: coset cap 5 exceeded (a regular graph on 6 nodes has 6 cosets)\n"
    assert run_cli_err(["check-graph", graph], capsys) == (3, message)


def test_make_enumerates_under_the_coset_cap(capsys, monkeypatch):
    # a presentation family enumerates under the same cap as enumerate
    monkeypatch.setenv("CAYLEY_MAX_COSETS", "10")
    enumerated = run_cli_err(["enumerate", "<r | r^100>"], capsys)
    assert enumerated == (3, "cap exceeded: coset cap 10 exceeded (10 live cosets)\n")
    assert run_cli_err(["make", "cyclic", "100"], capsys) == enumerated


def test_make_rejects_a_malformed_coset_cap(capsys, monkeypatch):
    monkeypatch.setenv("CAYLEY_MAX_COSETS", "abc")
    message = "error: CAYLEY_MAX_COSETS must be an integer, got 'abc'\n"
    assert run_cli_err(["make", "cyclic", "4"], capsys) == (2, message)


@pytest.mark.parametrize(
    "cap, message",
    [
        ("99999999999999", "error: max_cosets must be at most 1048576 for 2 generators\n"),
        ("0", "error: max_cosets must be at least 1\n"),
    ],
    ids=["above-the-ceiling", "zero"],
)
def test_both_graph_routes_accept_the_same_caps(cap, message, capsys, monkeypatch):
    # flower16_fwd is a Cayley graph, read as its own coset table;
    # flower16_rev is not, and is read as its finest regular quotient
    monkeypatch.setenv("CAYLEY_MAX_COSETS", cap)
    for name in ("flower16_fwd", "flower16_rev"):
        assert run_cli_err(["fixture", name, "--analyze"], capsys) == (2, message), name


def test_main_runs_the_handler_the_module_holds_now(capsys, monkeypatch):
    # the parser is built once per process; the handler is found by name
    cli.build_parser()
    monkeypatch.setattr(cli, "cmd_check_table", lambda args: ({}, ["replaced"], None))
    assert run_cli(["check-table", "any.txt"], capsys) == (0, "replaced\n")


PARSER_REUSE = [
    ["enumerate", "<r,f | r^4=f^2=1, rfr=f>", "--json"],
    ["check-graph", "petersen_graph.json"],
    ["frobnicate", "1"],
    ["fixture", "mirror16", "--analyze", "--json"],
    ["enumerate", "<r | r^4>", "--max-cosets", "four"],
    ["make", "dihedral", "4", "--table"],
    ["identify", "--table", "latin_cyclic5.txt", "--json"],
    ["check-table", "latin_nonassoc5.txt"],
    ["check-graph", "--json"],
    ["enumerate", "<r | r^6>"],
]


def test_parser_reused_across_calls_matches_fresh_runs(capsys, monkeypatch):
    # one process, one parser: each call, parse errors included, must print
    # what a fresh interpreter prints for the same argv
    monkeypatch.chdir(DATA)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    codes = set()
    for argv in PARSER_REUSE:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "cayleykit.cli", *argv],
            capture_output=True, text=True, env=env, cwd=DATA, timeout=60,
        )
        name = "x.json" if "--json" in argv and code == 0 else "x.txt"
        assert (code, canonical(name, captured.out), captured.err) == (
            fresh.returncode, canonical(name, fresh.stdout), fresh.stderr
        ), argv
        codes.add(code)
    assert codes == {0, 2}


def test_expect_assertion(capsys):
    code, _ = run_cli(["make", "quaternion", "16", "--expect", "Q_16"], capsys)
    assert code == 0
    code, _ = run_cli(["make", "quaternion", "16", "--expect", "Q_32"], capsys)
    assert code == 4
    code, _ = run_cli(
        ["fixture", "twist32_k3", "--analyze", "--expect", "SD_8"], capsys
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["make", "quaternion", "16", "--json", "--expect", "Q_32"], 4,
         "expectation failed: expected 'Q_32', got 'Q_16'\n"),
        (["check-table", str(DATA / "latin_nonassoc5.txt"), "--expect", "not-a-group"], 0, ""),
        (["identify", "--table", str(DATA / "latin_nonassoc5.txt"), "--expect", "C_5"], 4,
         "expectation failed: expected 'C_5', got 'not-a-group'\n"),
        # --expect does not apply to an emitted fixture or to --analyze-all
        (["fixture", "petersen", "--expect", "C_5"], 0, ""),
        (["fixture", "--analyze-all", "--expect", "C_5"], 0, ""),
    ],
)
def test_expect_is_compared_once_after_the_handler(argv, code, err, capsys):
    assert run_cli_err(argv, capsys) == (code, err)


def test_dot_output_written(tmp_path, capsys):
    out = tmp_path / "graph.dot"
    code, _ = run_cli(["fixture", "petersen", "--dot", str(out)], capsys)
    assert code == 0
    text = out.read_text()
    assert text.startswith("digraph G {")
    assert "dir=none" in text


def test_make_dot_output(tmp_path, capsys):
    out = tmp_path / "d4.dot"
    code, _ = run_cli(["make", "dihedral", "4", "--dot", str(out)], capsys)
    assert code == 0
    assert len([l for l in out.read_text().splitlines() if "->" in l]) == 12


def test_identify_rejects_nongroup_table(capsys):
    code, out = run_cli(["identify", "--table", str(DATA / "latin_nonassoc5.txt")], capsys)
    assert code == 0
    assert "not a group" in out


def test_identify_table_names_an_accepted_table_once(tmp_path, capsys, monkeypatch):
    # the table route names the group as it accepts it, and the report reuses
    # that name: one catalog search per table, abelian or not
    from cayleykit import families, groups, tables
    d3 = tmp_path / "d3.txt"
    d3.write_text(tables.render_table(families.dihedral(3)))
    calls, identify = [], groups.identify
    counted = lambda G: calls.append(G) or identify(G)
    for module in ("cli", "groups", "tables"):
        monkeypatch.setattr(f"cayleykit.{module}.identify", counted)
    for path, name in ((DATA / "latin_cyclic5.txt", "C_5"), (d3, "D_3")):
        for extra in ([], ["--json"]):
            calls.clear()
            code, out = run_cli(["identify", "--table", str(path), *extra], capsys)
            assert code == 0 and name in out
            assert len(calls) == 1


def test_fixture_requires_name_or_all(capsys):
    code, _ = run_cli(["fixture"], capsys)
    assert code == 2


def test_quotient_rejects_bad_word(capsys):
    code, _ = run_cli(
        ["quotient", "--presentation", "<r | r^6>", "--normal", "q^2"], capsys
    )
    assert code == 2


# a valid two-node Cayley graph, so that only the field under test is wrong
TWO_CYCLE = {"name": "r", "directed": True, "edges": [[0, 1], [1, 0]]}


@pytest.mark.parametrize(
    "document",
    [
        {"nodes": 2, "labels": 5, "colors": []},
        {"nodes": 2, "colors": 5},
        {"nodes": [2], "colors": []},
        {"nodes": 2.5, "colors": [TWO_CYCLE]},
        {"nodes": True, "colors": [TWO_CYCLE]},
        {"nodes": 2, "colors": [{**TWO_CYCLE, "edges": [[0, 1.7], [1, 0]]}]},
        {"nodes": 2, "colors": [{**TWO_CYCLE, "edges": [[0, True], [True, 0]]}]},
        {"nodes": 2, "colors": [{**TWO_CYCLE, "directed": "false"}]},
    ],
)
def test_malformed_graph_json_exit_code(document, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(document))
    code, err = run_cli_err(["check-graph", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


# r is a 4-cycle; with f matching {0,1},{2,3} the graph is not a Cayley graph
FOUR_CYCLE = {"name": "r", "directed": True, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
MATCHING = {"name": "f", "directed": False, "edges": [[0, 1], [2, 3]]}


@pytest.mark.parametrize("colors", [[FOUR_CYCLE, MATCHING], [FOUR_CYCLE]])
def test_duplicate_labels_are_named(colors, tmp_path, capsys):
    document = {"nodes": 4, "labels": ["a", "a", "b", "c"], "colors": colors}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(document))
    code, err = run_cli_err(["check-graph", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and "'a'" in err


@pytest.mark.parametrize(
    "directed, message",
    [
        (True, "error: color 'r': node 0 has 0 incoming edges\n"),
        (False, "error: color 'r': node 2 is unmatched (an order-2 generator fixes no vertex)\n"),
    ],
)
def test_graph_with_too_few_edges_fails_before_allocating(
    directed, message, tmp_path, capsys
):
    # a list with one slot per node cannot even be requested at this size,
    # so building one would end in a MemoryError rather than exit 2
    color = {"name": "r", "directed": directed, "edges": [[0, 1]]}
    document = {"nodes": 10**15, "colors": [color]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(document))
    code, err = run_cli_err(["check-graph", str(path)], capsys)
    assert (code, err) == (2, message)


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_max_cosets_flag_below_one_is_usage_error(cap, capsys):
    code, err = run_cli_err(["enumerate", "<r | r^4>", f"--max-cosets={cap}"], capsys)
    assert (code, err) == (2, "error: max_cosets must be at least 1\n")


def test_max_cosets_env_below_one_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("CAYLEY_MAX_COSETS", "0")
    code, err = run_cli_err(["enumerate", "<r | r^4>"], capsys)
    assert (code, err) == (2, "error: max_cosets must be at least 1\n")


def test_max_cosets_above_the_ceiling_is_usage_error(monkeypatch, capsys):
    # Z^2 is infinite: a cap this large would run until memory ran out
    argv = ["enumerate", "<a,b | a b a^-1 b^-1>"]
    message = "error: max_cosets must be at most 1048576 for 2 generators\n"
    assert run_cli_err([*argv, "--max-cosets=99999999999999"], capsys) == (2, message)
    monkeypatch.setenv("CAYLEY_MAX_COSETS", "99999999999999")
    assert run_cli_err(argv, capsys) == (2, message)


@pytest.mark.parametrize(
    "argv, position",
    [
        (["enumerate", "<r | r^100000000000>"], 19),
        (["enumerate", "<a,b | (a b)^99999999999>"], 24),
        (["make", "cyclic", "100000000000"], 19),
    ],
)
def test_huge_power_fails_before_expanding(argv, position, capsys):
    # unbounded, each of these asks for a tuple of ~10^11 letters (MemoryError)
    code, err = run_cli_err(argv, capsys)
    message = "error: words expand to more than 1000000 letters"
    assert (code, err) == (2, f"{message} (at position {position})\n")


NESTED_WORD = "(" * 5000 + "a" + ")" * 5000


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["check-graph"], "[" * 100000, "error: invalid graph JSON: maximum recursion depth"),
        (["enumerate", f"<a | {NESTED_WORD}>"], None, "error: parentheses nested too deeply"),
        (["quotient", "--presentation", "<a | a^4>", "--normal", NESTED_WORD], None,
         "error: parentheses nested too deeply"),
    ],
)
def test_deeply_nested_input_is_a_usage_error(argv, text, message, tmp_path, capsys):
    # each nesting level is a stack frame of the JSON decoder or the word parser
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = [*argv, str(path)]
    code, err = run_cli_err(argv, capsys)
    assert code == 2
    assert err.startswith(message) and err.count("\n") == 1


def test_duplicate_header_symbol_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "table.txt"
    path.write_text("e a a\ne a a\na e a\na a e\n")
    code, err = run_cli_err(["check-table", str(path)], capsys)
    assert (code, err) == (2, "error: duplicate header symbol\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("a b\na b\n", "error: expected 2 rows, got 1\n"),
        ("a b\na b b\nb a\n", "error: row 0 has 3 cells, expected 2\n"),
    ],
    ids=["missing-row", "long-row"],
)
def test_table_shape_is_checked_by_the_table(text, message, tmp_path, capsys):
    path = tmp_path / "table.txt"
    path.write_text(text)
    assert run_cli_err(["check-table", str(path)], capsys) == (2, message)


@pytest.mark.parametrize(
    "argv, order, code, message",
    [
        (["check-table"], 4097, 3,
         "cap exceeded: table cap 16777216 cells exceeded (order 4097)\n"),
        (["identify", "--table"], 4097, 3,
         "cap exceeded: table cap 16777216 cells exceeded (order 4097)\n"),
        (["check-table"], 4096, 2, "error: expected 4096 rows, got 0\n"),
    ],
)
def test_table_header_is_checked_against_the_cap_first(
    argv, order, code, message, tmp_path, capsys
):
    # past the cap, no body row is split; at the cap, the missing body shows
    path = tmp_path / "table.txt"
    path.write_text(" ".join(f"s{i}" for i in range(order)) + "\n")
    assert run_cli_err([*argv, str(path)], capsys) == (code, message)


def two_node_graph(*names):
    return {"nodes": 2, "colors": [
        {"name": name, "directed": False, "edges": [[0, 1]]} for name in names
    ]}


@pytest.mark.parametrize(
    "graph, message",
    [
        (two_node_graph("r", "r"), "error: duplicate generator name 'r'\n"),
        (two_node_graph("red color"), "error: invalid generator name 'red color'\n"),
    ],
    ids=["duplicate", "invalid"],
)
def test_colour_names_are_checked_as_generator_names(graph, message, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    for argv in (["check-graph", str(path)], ["identify", "--graph", str(path)]):
        assert run_cli_err(argv, capsys) == (2, message)


def test_unknown_fixture_is_a_usage_error(capsys):
    code, err = run_cli_err(["fixture", "nosuch"], capsys)
    assert code == 2
    assert err.startswith("error: unknown fixture 'nosuch' (known: flower16_fwd, ")
    assert err.count("\n") == 1


ADDRESS_SPACE = 600 * 2**20


def run_cli_limited(argv, max_cosets=None, address_space=ADDRESS_SPACE):
    """The CLI in a child process whose address space is capped, so that a
    table built before its cap ends in a MemoryError there, not here.
    ``max_cosets``, if given, is the child's CAYLEY_MAX_COSETS."""
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    script = "import sys; from cayleykit.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if max_cosets is not None:
        env["CAYLEY_MAX_COSETS"] = max_cosets
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120,
    )


@pytest.mark.parametrize(
    "argv, order",
    [
        (["make", "dq", "4096"], 8192),
        (["make", "dq", "1099511627776"], 2**41),
        (["enumerate", "<r | r^5000>"], 5000),
        (["make", "pauli", "6"], "4^7"),
        (["make", "pauli", "1000000000000"], "4^1000000000001"),
    ],
)
def test_table_cap_exits_before_allocating(argv, order):
    # unbounded, the first and last build a dense table of 25-67 million
    # cells, the second a rotation matrix entry of 2^38 coefficients, and the
    # Pauli groups a table of 2^28 cells or Kronecker products of 2^10^12 rows
    out = run_cli_limited(argv)
    message = f"cap exceeded: table cap 16777216 cells exceeded (order {order})\n"
    assert (out.returncode, out.stdout, out.stderr) == (3, "", message)


def test_enumerate_at_the_order_cap_builds_no_table():
    # C_4096 is named from its action: no 16.8-million-cell table, which does
    # not fit in 80 MB, and the cap is still checked before any work
    out = run_cli_limited(["enumerate", "<r | r^4096>"], address_space=80 * 2**20)
    assert (out.returncode, out.stderr) == (0, "")
    assert "order: 4096\nidentified: C_4096\n" in out.stdout
    out = run_cli_limited(["enumerate", "<r | r^5000>"], address_space=80 * 2**20)
    message = "cap exceeded: table cap 16777216 cells exceeded (order 5000)\n"
    assert (out.returncode, out.stdout, out.stderr) == (3, "", message)


def test_infinite_presentation_stops_at_the_default_cap():
    # Z^2 never closes: each completeness check resumes where the last stopped
    out = run_cli_limited(["enumerate", "<a,b | a b a^-1 b^-1>"])
    message = "cap exceeded: coset cap 65536 exceeded (54951 live cosets)\n"
    assert (out.returncode, out.stdout, out.stderr) == (3, "", message)


def test_infinite_presentation_stops_at_the_coset_ceiling():
    # the largest cap two generators accept fits in the child's 600 MB
    out = run_cli_limited(["enumerate", "<a,b | a b a^-1 b^-1>"], max_cosets="1048576")
    message = "cap exceeded: coset cap 1048576 exceeded (875044 live cosets)\n"
    assert (out.returncode, out.stdout, out.stderr) == (3, "", message)


def test_largest_table_under_the_cap_builds():
    out = run_cli_limited(["make", "dq", "2048"])
    assert (out.returncode, out.stderr) == (0, "")
    assert "order: 4096\n" in out.stdout


def test_largest_pauli_group_under_the_cap_builds():
    out = run_cli_limited(["make", "pauli", "5"])
    assert (out.returncode, out.stderr) == (0, "")
    assert "order: 4096\n" in out.stdout


def test_full_order_closure_cap_exits_before_allocating(tmp_path):
    # an n-cycle and a random perfect matching generate a group far past the
    # closure's cell cap: 83,886 permutations of 200 nodes fill it
    n = 200
    nodes = list(range(n))
    random.Random(200).shuffle(nodes)
    graph = {"nodes": n, "colors": [
        {"name": "r", "directed": True, "edges": [[i, (i + 1) % n] for i in range(n)]},
        {"name": "s", "directed": False,
         "edges": [[nodes[i], nodes[i + 1]] for i in range(0, n, 2)]},
    ]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    out = run_cli_limited(["check-graph", str(path), "--full-order"])
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr.startswith("cap exceeded: closure cap 16777216 cells exceeded")
    assert out.stderr.count("\n") == 1


NESTED_LIST = "[" * 980 + "]" * 980


@pytest.mark.parametrize(
    "document, message",
    [
        ('{"nodes": 2, "colors": [{"name": %s, "directed": false, "edges": [[0, 1]]}]}'
         % NESTED_LIST, "error: malformed color entry: color name must be a string, got list\n"),
        ('{"nodes": 2, "labels": ["x", %s], "colors": []}' % NESTED_LIST,
         "error: label must be a string, got list\n"),
    ],
    ids=["name", "label"],
)
def test_graph_name_that_is_not_a_string_is_a_usage_error(document, message, tmp_path):
    # in a fresh interpreter, where 980 levels still decode
    path = tmp_path / "graph.json"
    path.write_text(document)
    out = run_cli_limited(["check-graph", str(path)])
    assert (out.returncode, out.stdout, out.stderr) == (2, "", message)


# Generated CLI inputs: presentation text, table text, graph JSON and
# CAYLEY_MAX_COSETS values.  Each kind is drawn either shaped like a valid
# input, so that it reaches enumeration, the axiom checks or the graph
# analysis, or as free text that mostly fails to parse.
SYLLABLES = st.tuples(st.sampled_from(["a", "b", "(a b)", "(a b^-1 a)"]), st.integers(-3, 9))
RELATORS = st.lists(SYLLABLES, min_size=1, max_size=3).map(
    lambda word: " ".join(f"{g}^{k}" for g, k in word)
)
PRESENTATIONS = st.lists(RELATORS, max_size=3).map(lambda rels: f"<a,b | {', '.join(rels)}>")
TABLES = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from("eabc"[:n]), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: "\n".join(" ".join(row) for row in ["eabc"[:n], *rows]))
)
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 10**12)
    | st.floats(allow_nan=False) | st.text("ab", max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["nodes", "labels", "colors", "name", "directed", "edges"]),
        inner, max_size=4,
    ),
    max_leaves=10,
)
COLORS = st.fixed_dictionaries({
    "name": st.sampled_from(["r", "s"]) | JSON_LEAVES,
    "directed": st.booleans(),
    "edges": st.lists(st.lists(st.integers(-1, 4), min_size=2, max_size=2), max_size=6),
})
GRAPHS = st.fixed_dictionaries(
    {"nodes": st.integers(0, 5), "colors": st.lists(COLORS, min_size=1, max_size=2)}
) | JSON_VALUES
CLI_INPUTS = st.one_of(
    st.tuples(st.just("enumerate"), PRESENTATIONS | st.text("<>|,=^-()ab 0123456789",
                                                              max_size=30)),
    st.tuples(st.just("check-table"), TABLES | st.text("eab x1\n", max_size=30)),
    st.tuples(st.just("check-graph"), GRAPHS.map(json.dumps)),
)
# graphs whose BFS words hold Theta(n^2) letters: a 20,000-node directed cycle
# (one loop of 20,000 letters) and an 8,000-node one with the matching
# (2i, 2i+1), whose 4,002 loops hold 16,012,002 letters and present C_2
LONG_CYCLE = {"nodes": 20000, "colors": [
    {"name": "r", "directed": True, "edges": [[i, (i + 1) % 20000] for i in range(20000)]},
]}
LADDER = {"nodes": 8000, "colors": [
    {"name": "r", "directed": True, "edges": [[i, (i + 1) % 8000] for i in range(8000)]},
    {"name": "s", "directed": False, "edges": [[2 * i, 2 * i + 1] for i in range(4000)]},
]}
MAX_COSETS = st.none() | st.integers(-2, 300).map(str) | st.sampled_from(
    ["", "ten", "1e3", "4194305", "99999999999999"]
)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(request=CLI_INPUTS, max_cosets=MAX_COSETS)
@example(request=("check-graph", "[" * 100000), max_cosets=None)
@example(request=("check-graph", json.dumps(LONG_CYCLE)), max_cosets=None)
@example(request=("check-graph", json.dumps(LADDER)), max_cosets=None)
@example(request=("enumerate", f"<a | {NESTED_WORD}>"), max_cosets=None)
@example(request=("enumerate", "<a,b | a b a^-1 b^-1>"), max_cosets="99999999999999")
@example(
    request=("check-graph", '{"nodes": 2, "colors": [{"name": %s, "directed": false, '
             '"edges": [[0, 1]]}]}' % NESTED_LIST),
    max_cosets=None,
)
def test_generated_inputs_end_in_an_exit_code_not_a_traceback(request, max_cosets):
    command, text = request
    with tempfile.TemporaryDirectory() as tmp:
        if command == "enumerate":
            argv = [command, text]
        else:
            path = pathlib.Path(tmp, "input")
            path.write_text(text)
            argv = [command, str(path)]
        out = run_cli_limited(argv, max_cosets)
    assert out.returncode in (0, 2, 3, 4), out.stderr
    assert "Traceback" not in out.stderr
