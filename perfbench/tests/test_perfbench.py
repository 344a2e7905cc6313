"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import groups_oracle as go  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ORACLE = json.loads((ROOT / "tests" / "data" / "puzzle_oracle.json").read_text())
FIXTURES = sorted(p.stem for p in (ROOT / "src" / "cayleykit" / "fixtures").glob("*.json"))


def run_cli(argv):
    from cayleykit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


# --- seeded requests ----------------------------------------------------------


def test_requests_repeat_for_one_seed_and_differ_across_seeds():
    for name in workloads.WORKLOADS:
        first = workloads.block(name, 7, 0, ORACLE)
        assert first == workloads.block(name, 7, 0, ORACLE), name
        for other in (workloads.block(name, 8, 0, ORACLE), workloads.block(name, 7, 1, ORACLE)):
            assert (first.requests, first.files) != (other.requests, other.files), name
            assert sorted(r.kind for r in first.requests) == sorted(
                r.kind for r in other.requests), name


def test_every_workload_has_distinct_kinds_and_expected_exit_codes():
    codes = {r.expect.code for w in workloads.WORKLOADS
             for r in workloads.block(w, 1, 0, ORACLE).requests}
    assert codes == {workloads.EXIT_OK, workloads.EXIT_USAGE, workloads.EXIT_CAP}


# --- expected outcomes --------------------------------------------------------


def test_fixture_expectations_agree_with_the_oracle_for_all_nine():
    assert len(FIXTURES) == 9 and sorted(ORACLE) == FIXTURES
    graphs = workloads.block("graphs", 3, 0, ORACLE)
    by_file = {r.argv[1]: r for r in graphs.requests if r.kind == "fixture"}
    for name in FIXTURES:
        req = by_file[f"src/cayleykit/fixtures/{name}.json"]
        fields = dict(req.expect.fields)
        entry = ORACLE[name]
        assert fields["is_cayley"] == entry["is_cayley"]
        assert fields["presented_order"] == entry["presented_order"]
        assert fields["presented_group"] == entry["presented_name"]
        assert fields["nodes"] == entry["nodes"]
        # the program at this commit agrees with the oracle-derived expectation
        code, out = run_cli(["check-graph", str(ROOT / req.argv[1]), "--json"])
        assert workloads.check(req.expect, code, out), name


def test_check_rejects_wrong_exit_codes_and_fields():
    expect = workloads.Expect(fields=(("order", 8), ("identified", "D_4")))
    good = json.dumps({"report": {"order": 8, "identified": "D_4"}})
    assert workloads.check(expect, 0, good)
    assert not workloads.check(expect, 2, good)
    assert not workloads.check(expect, 0, good.replace("D_4", "Q_8"))
    assert not workloads.check(expect, 0, good.replace("8", "8.0"))
    assert not workloads.check(expect, 0, "not json")
    assert workloads.check(workloads.Expect(workloads.EXIT_CAP), 3, "")


def test_markers():
    unrec = go.unrecognized(120)
    assert workloads.matches(unrec, "unrecognized(order=120, abelian=False, exponent=30)")
    assert not workloads.matches(unrec, "unrecognized(order=12, abelian=False, exponent=6)")
    assert workloads.matches(("at_most", 10), 10)
    assert not workloads.matches(("at_most", 10), 11)
    assert not workloads.matches(("at_most", 10), True)


def test_names_from_formulas():
    assert go.invariant_factors([20, 30]) == [60, 10]
    assert go.abelian_name([2, 4, 6]) == "C_12xC_2xC_2"
    assert go.abelian_name([]) == "C_1"
    assert go.sdp_name(16, 7) == "SD_16" and go.sdp_name(16, 9) == "SA_16"
    assert go.sdp_name(8, 1) == "C_8xC_2" and go.sdp_name(40, 39) == go.unrecognized(80)
    assert go.collapse_order_and_name(5, 3) == (2, "C_2")  # the README example
    assert go.collapse_order_and_name(20, 4) == (10, "D_5")


def _is_group(t):
    n = len(t)
    rng = range(n)
    return (
        t[0] == list(rng)
        and all(t[i][0] == i for i in rng)
        and all(sorted(row) == list(rng) for row in t)
        and all(t[t[a][b]][c] == t[a][t[b][c]] for a in rng for b in rng for c in rng)
    )


def test_constructed_tables_are_groups():
    for t in (go.cyclic_table(9), go.abelian_table([2, 6]), go.dihedral_table(7),
              go.quaternion_table(16), go.direct_product_table(go.dihedral_table(3),
                                                                go.cyclic_table(4))):
        assert _is_group(t)
    q = go.quaternion_table(16)
    assert q[8][8] == 4 and q[4][4] == 0  # x^2 = a^4, an involution


def test_non_groups_are_latin_and_not_associative():
    rng = random.Random(0)
    s, (a, b, c) = go.intercalate_swap(go.dihedral_table(10), rng)
    assert all(sorted(row) == list(range(20)) for row in s)
    assert s[s[a][b]][c] != s[a][s[b][c]]
    q = go.affine_quasigroup(11, 2, 3, 5)
    assert all(sorted(row) == list(range(11)) for row in q)
    assert not _is_group(q)


def test_perturbed_graph_breaks_semiregularity_and_stays_connected():
    rng = random.Random(1)
    graph = go.cayley_graph(go.dihedral_table(20), [("r", 1), ("f", 20)])
    bent = go.perturb(graph, rng)
    assert go.connected(bent)
    succ = dict(map(tuple, bent["colors"][0]["edges"]))
    lengths = set()
    for start in range(40):
        x, k = succ[start], 1
        while x != start:
            x, k = succ[x], k + 1
        lengths.add(k)
    assert len(lengths) > 1


# --- spans --------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # root [0,10] with children A [1,4] and B [3,6] overlapping (two threads),
    # and C [2,3] under A
    tree = [
        ["cli.main", 0.0, 10.0, None, 0, None],
        ["groups.identify", 1.0, 4.0, 0, 0, None],
        ["groups.is_isomorphic", 3.0, 6.0, 0, 0, None],
        ["groups.center", 2.0, 3.0, 1, 0, None],
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 3.0, 1.0]
    assert spans.buckets(tree) == [
        "cli.main_self", "groups.identify", "groups.is_isomorphic", "groups.identify",
    ]
    times = spans.layer_times(tree)
    assert times["groups.identify_s"] == 3.0
    assert times["cli.main_self_s"] == 5.0


def test_unnamed_spans_do_not_inherit_across_layers():
    tree = [
        ["groups.identify", 0.0, 10.0, None, 0, None],
        ["families.nonabelian_catalog", 1.0, 9.0, 0, 0, None],
        ["groups.direct_product", 2.0, 5.0, 1, 0, None],
    ]
    assert spans.buckets(tree) == ["groups.identify", "families.catalog", "groups.other"]
    assert spans.layer_times(tree)["families.catalog_s"] == 8.0


def test_recorder_sees_nested_calls_and_counts_work():
    from cayleykit import cosets, groups

    original = groups.is_isomorphic
    original_init = groups.Group.__dict__["__init__"]
    original_build = cosets.group_from_coset_table
    rec = spans.Recorder()
    rec.install()
    try:
        rec.begin(0)
        code, out = run_cli(["enumerate", "<r,f | r^4=f^2=1, r f r=f>", "--json"])
        rec.begin(1)
        capped = run_cli(["enumerate", "<a,b | a^2, b^3>", "--max-cosets", "50"])[0]
        rec.begin(2)
        run_cli(["identify", "--presentation", "<r | r^6>", "--json"])
        rec.begin(3)
        run_cli(["fixture", "--analyze-all", "--json"])  # worker threads
    finally:
        rec.uninstall()
    assert groups.is_isomorphic is original
    assert groups.Group.__dict__["__init__"] is original_init
    assert cosets.group_from_coset_table is original_build
    assert (code, json.loads(out)["report"]["identified"], capped) == (0, "D_4", 3)
    tree = rec.finish()
    names = [s[0] for s in tree]

    def parent_name(child):
        return tree[tree[names.index(child)][3]][0]

    assert parent_name("groups.is_isomorphic") == "groups.identify"
    assert parent_name("cosets.group_from_coset_table") == "cli.cmd_enumerate"
    assert ("cosets.group_from_presentation", "cosets.group_from_coset_table") in {
        (tree[s[3]][0], s[0]) for s in tree if s[3] is not None}
    roots = [s for s in tree if s[3] is None]
    assert [(s[0], s[4]) for s in roots] == [("cli.main", r) for r in range(4)]
    threaded = [s for s in tree if s[4] == 3 and s[0] == "graphs.analyze"]
    assert len(threaded) == 9 and all(tree[s[3]][0] == "cli.main" for s in threaded)
    counts = spans.layer_counts([s for s in tree if s[4] < 2])
    assert counts["cosets.calls"] == 2 and counts["cosets.cap_hits"] == 1
    assert counts["cosets.cosets_total"] == 8
    assert counts["cosets.scan_letters"] == 8 * (4 + 2 + 4)
    assert counts["groups.iso_calls"] >= 1 and counts["groups.iso_hits"] == 1
