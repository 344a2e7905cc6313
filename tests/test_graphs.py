import json
import os
import pathlib
import tracemalloc
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st

from cayleykit import families
from cayleykit.cli import _graph_report
from cayleykit.cosets import CosetTable, group_from_coset_table, group_from_presentation
from cayleykit.graphs import (
    _closure,
    _regular_quotient,
    ColoredDigraph,
    EdgeColor,
    GraphError,
    analyze,
    build_cayley_graph,
    color_permutations,
    dump_graph_json,
    export_dot,
    extract_presentation,
    fixture,
    fixture_names,
    is_cayley,
    load_graph_json,
)
from cayleykit.groups import (
    CapExceeded, _along, _inverse, _spanning_tree, cayley_table, group_from_action, identify,
    is_isomorphic, subgroup_closure,
)
from cayleykit.words import Presentation, free_reduce

DATA = pathlib.Path(__file__).parent / "data"
ORACLE = json.loads((DATA / "puzzle_oracle.json").read_text())


def perm_cycle_lengths(perm):
    seen = set()
    lengths = []
    for start in range(len(perm)):
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        lengths.append(length)
    return sorted(lengths)


# --- building Cayley graphs ---------------------------------------------------


def test_build_dihedral_graph_shape():
    G = families.dihedral(4)
    g = build_cayley_graph(G)
    assert g.node_count == 8
    red, blue = g.colors
    assert red.name == "r" and red.directed
    assert blue.name == "f" and not blue.directed
    perms = color_permutations(g)
    assert perm_cycle_lengths(perms[0]) == [4, 4]
    assert perm_cycle_lengths(perms[1]) == [2, 2, 2, 2]
    assert len(blue.edges) == 4


def test_build_two_element_graph():
    G = families.cyclic(2)
    g = build_cayley_graph(G)
    assert g.node_count == 2
    (color,) = g.colors
    assert not color.directed
    assert color.edges == ((0, 1),)
    assert color_permutations(g)[0] == (1, 0)


def test_build_quaternion_graph_two_directed_colors():
    Q8 = families.quaternion(8)
    gens = dict(Q8.generators)
    g = build_cayley_graph(Q8, [("i", gens["r"]), ("j", gens["s"])])
    assert g.node_count == 8
    assert all(color.directed for color in g.colors)
    for perm in color_permutations(g):
        assert perm_cycle_lengths(perm) == [4, 4]


def test_build_rejects_identity_and_nongenerating():
    G = families.dihedral(4)
    gens = dict(G.generators)
    with pytest.raises(GraphError):
        build_cayley_graph(G, [("e", 0)])
    with pytest.raises(GraphError):
        build_cayley_graph(G, [("r", gens["r"])])  # <r> is proper


def table_cayley_graph(G, gens):
    """The reference for build_cayley_graph: each colour read off the drawn
    table, a generator being an involution when its square is the identity."""
    t = cayley_table(G)
    colors = []
    for name, el in gens:
        matching = t[el][el] == 0
        edges = tuple((g, t[g][el]) for g in range(G.order) if not matching or g < t[g][el])
        colors.append(EdgeColor(name, not matching, edges))
    labels = G.element_names if G.element_names is not None else tuple(map(str, range(G.order)))
    return ColoredDigraph(G.order, tuple(colors), labels)


def test_build_matches_the_table_reference():
    # catalog generators, and explicit ones with involutions and redundancy
    D8, Q8, C42 = families.dihedral(4), families.quaternion(8), families.abelian([4, 2])
    t, c42 = cayley_table(D8), cayley_table(C42)
    (_, r), (_, f) = D8.generators
    (_, i), (_, j) = Q8.generators
    cases = [(G, G.generators) for _, G in families.catalog_groups(32) if G.order > 1]
    cases += [
        (D8, [("f", f), ("rf", t[r][f])]),  # two involutions: two matchings
        (D8, [("r", r), ("f", f), ("r2", t[r][r])]),  # a redundant involution
        (Q8, [("i", i), ("j", j), ("k", cayley_table(Q8)[i][j])]),
    ]
    for G, gens in cases:
        assert build_cayley_graph(G, gens) == table_cayley_graph(G, gens)
    rejected = [
        (D8, [("r", r)], "do not generate"),
        (D8, [("f", f), ("r2", t[r][r])], "do not generate"),
        (C42, [(str(x), x) for x in range(1, 8) if c42[x][x] == 0], "do not generate"),
        (D8, [("r", r), ("e", 0)], "is the identity"),  # the identity is named first
        (group_from_action([]), [("e", 0)], "is the identity"),
        # a negative index would otherwise wrap round to the last element
        (families.cyclic(5), [("x", -1)], "is not an element"),
        (D8, [("r", r), ("x", 8)], "is not an element"),
    ]
    for G, gens, error in rejected:
        if error == "do not generate":
            assert len(subgroup_closure(G, [el for _, el in gens]).members) < G.order
        with pytest.raises(GraphError, match=error):
            build_cayley_graph(G, gens)


def test_build_cayley_graph_reads_no_table():
    # the graph of D_2048 reads one column per generator off the action, in
    # well under 4 MB: its 4096 x 4096 table alone would take about 130 MB
    D = families.dihedral(2048)
    tracemalloc.start()
    try:
        graph = build_cayley_graph(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    r, f = graph.colors
    assert graph.node_count == 4096 and (r.directed, f.directed) == (True, False)
    assert (len(r.edges), len(f.edges)) == (4096, 2048)
    assert perm_cycle_lengths(color_permutations(graph)[0]) == [2048, 2048]


# --- color permutation validation ----------------------------------------------


def test_petersen_red_permutation():
    perms = color_permutations(fixture("petersen"))
    red = perms[0]
    assert red[:5] == (1, 2, 3, 4, 0)
    assert red[5] == 7 and red[7] == 9 and red[9] == 6 and red[6] == 8 and red[8] == 5
    assert perm_cycle_lengths(red) == [5, 5]
    assert perm_cycle_lengths(perms[1]) == [2, 2, 2, 2, 2]


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        color_permutations(
            ColoredDigraph(2, (EdgeColor("red", True, ((0, 0), (1, 1))),))
        )


def test_unmatched_node_rejected():
    with pytest.raises(GraphError, match="node 2 is unmatched"):
        ColoredDigraph(4, (EdgeColor("blue", False, ((0, 1),)),))


def test_identity_color_rejected():
    # every color must move every node, so none can be the identity
    for nodes, color, message in [
        (1, {"directed": True, "edges": [[0, 0]]}, "self-loop at node 0"),
        (1, {"directed": True, "edges": []}, "node 0 has no outgoing edge"),
        (1, {"directed": False, "edges": []}, "node 0 is unmatched"),
        (2, {"directed": False, "edges": []}, "node 0 is unmatched"),
        (3, {"directed": False, "edges": [[0, 1]]}, "node 2 is unmatched"),
    ]:
        text = json.dumps({"nodes": nodes, "colors": [{"name": "c", **color}]})
        with pytest.raises(GraphError, match=message):
            is_cayley(load_graph_json(text))


def test_colorless_graph_rejected():
    with pytest.raises(GraphError):
        color_permutations(ColoredDigraph(3, ()))


def test_degree_violations_reported():
    with pytest.raises(GraphError):
        color_permutations(
            ColoredDigraph(3, (EdgeColor("red", True, ((0, 1), (0, 2), (1, 0))),))
        )
    with pytest.raises(GraphError):
        ColoredDigraph(2, (EdgeColor("red", True, ((0, 1), (0, 1))),))


def two_step_check(node_count, colors):
    """The colour checks a graph once had, as a reference: the record's range
    and duplicate scan over every colour, then each colour's permutation
    check.  Returns the permutations or raises GraphError."""
    for color in colors:
        seen = set()
        for u, v in color.edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise GraphError(f"color {color.name!r}: edge ({u},{v}) out of range")
            key = (u, v) if color.directed else (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"color {color.name!r}: duplicate edge ({u},{v})")
            seen.add(key)
    if not colors:
        raise GraphError("graph has no colors")
    perms = []
    for color in colors:
        image, indeg, where = {}, {}, f"color {color.name!r}"
        for u, v in color.edges:
            if u == v:
                raise GraphError(f"{where}: self-loop at node {u}")
            if color.directed and u in image:
                raise GraphError(f"{where}: node {u} has two outgoing edges")
            if not color.directed and (u in image or v in image):
                raise GraphError(f"{where}: node {u if u in image else v} is matched twice")
            image[u] = v
            indeg[v] = indeg.get(v, 0) + 1
            if not color.directed:
                image[v] = u
        for node in range(node_count):
            if node not in image:
                raise GraphError(f"{where}: node {node} " + (
                    "has no outgoing edge" if color.directed
                    else "is unmatched (an order-2 generator fixes no vertex)"
                ))
            if color.directed and indeg.get(node, 0) != 1:
                raise GraphError(f"{where}: node {node} has {indeg.get(node, 0)} incoming edges")
        perms.append(tuple(image[node] for node in range(node_count)))
    return perms


def checked(check, *args):
    """check(*args), or the message of the GraphError it raised."""
    try:
        return check(*args)
    except GraphError as exc:
        return str(exc)


def graph_perms(node_count, colors):
    return color_permutations(ColoredDigraph(node_count, colors))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_constructor_accepts_what_the_two_step_check_accepts(data):
    # any edges at all, out of range and repeated ones too
    n = data.draw(st.integers(1, 6))
    ends = st.tuples(st.integers(-1, n), st.integers(-1, n))
    colors = tuple(
        EdgeColor(f"c{i}", data.draw(st.booleans()), tuple(data.draw(st.lists(ends, max_size=8))))
        for i in range(data.draw(st.integers(0, 3)))
    )
    got, want = checked(graph_perms, n, colors), checked(two_step_check, n, colors)
    assert isinstance(got, str) == isinstance(want, str)
    if not isinstance(want, str):
        assert got == want


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_fault_is_named_as_the_two_step_check_names_it(data):
    n = data.draw(st.integers(2, 6))
    colors = []
    for i in range(data.draw(st.integers(1, 3))):
        if n % 2 == 0 and data.draw(st.booleans()):
            colors.append(EdgeColor(f"c{i}", False, data.draw(matchings(n))))
        else:
            edges = tuple(enumerate(data.draw(derangements(n))))
            colors.append(EdgeColor(f"c{i}", True, tuple(data.draw(st.permutations(edges)))))
    assert graph_perms(n, tuple(colors)) == two_step_check(n, tuple(colors))
    fault = data.draw(st.sampled_from(["range", "duplicate", "loop", "drop", "head", "no colour"]))
    ci = data.draw(st.integers(0, len(colors) - 1))
    edges = list(colors[ci].edges)
    j = data.draw(st.integers(0, len(edges) - 1))
    u, v = edges[j]
    if fault == "range":
        edges[j] = (u, data.draw(st.sampled_from([-1, n])))
    elif fault == "duplicate":
        copy = data.draw(st.sampled_from([(u, v), (v, u)]))
        edges.insert(data.draw(st.integers(0, len(edges))), copy)
    elif fault == "loop":
        edges[j] = (u, u)
    elif fault == "drop":
        del edges[j]
    elif fault == "head":
        edges[j] = (u, data.draw(st.sampled_from([x for x in range(n) if x not in (u, v)] or [u])))
    if fault == "no colour":
        colors = []
    else:
        colors[ci] = colors[ci]._replace(edges=tuple(edges))
    want = checked(two_step_check, n, tuple(colors))
    assert isinstance(want, str)
    assert checked(graph_perms, n, tuple(colors)) == want


# --- regularity verdicts --------------------------------------------------------


def test_round_trip_is_cayley():
    for G in (families.dihedral(4), families.quaternion(8), families.abelian([4, 2])):
        g = build_cayley_graph(G)
        verdict = is_cayley(g)
        assert verdict.is_cayley
        assert verdict.perm_group_order == G.order
        assert is_isomorphic(group_from_action(verdict.color_perms), G) is not None


def test_petersen_is_not_cayley():
    verdict = is_cayley(fixture("petersen"))
    assert not verdict.is_cayley
    assert verdict.connected
    assert verdict.order_exceeds_nodes
    assert verdict.perm_group_order is None  # early exit
    full = is_cayley(fixture("petersen"), full_order=True)
    assert full.perm_group_order == 50


def test_full_order_lists_the_group_only_when_the_action_is_not_regular(monkeypatch):
    calls = []

    def spy(perms, limit):
        calls.append(limit)
        return _closure(perms, limit)

    monkeypatch.setattr("cayleykit.graphs._closure", spy)
    verdict = is_cayley(build_cayley_graph(families.dihedral(8)), full_order=True)
    assert (verdict.is_cayley, verdict.perm_group_order, calls) == (True, 16, [])
    verdict = is_cayley(fixture("petersen"), full_order=True)
    assert (verdict.is_cayley, verdict.perm_group_order, len(calls)) == (False, 50, 1)


def test_disconnected_graph_not_cayley():
    red = EdgeColor("red", True, ((0, 1), (1, 0), (2, 3), (3, 2)))
    verdict = is_cayley(ColoredDigraph(4, (red,)))
    assert not verdict.connected
    assert not verdict.is_cayley


# --- presentation extraction ----------------------------------------------------


def test_extract_single_edge():
    g = ColoredDigraph(2, (EdgeColor("s", False, ((0, 1),)),))
    p = extract_presentation(g)
    assert p.generators == ("s",)
    assert p.relators == (((0, 1), (0, 1)),)


def test_extract_petersen_presents_order_two():
    p = extract_presentation(fixture("petersen"))
    assert p.generators == ("red", "blue")
    assert group_from_presentation(p).order == 2


def test_extract_ring14_presents_order_two():
    assert group_from_presentation(extract_presentation(fixture("ring14"))).order == 2


def test_extract_requires_connected():
    red = EdgeColor("red", True, ((0, 1), (1, 0), (2, 3), (3, 2)))
    with pytest.raises(GraphError):
        extract_presentation(ColoredDigraph(4, (red,)))


@pytest.mark.parametrize("name", ["petersen", "mirror16", "flower16_rev"])
def test_loop_letters_are_charged_before_relators_are_built(name, monkeypatch):
    # a loop's length is counted from the depths of its ends, exactly
    graph = fixture(name)
    letters = sum(map(len, extract_presentation(graph, 3).relators))
    monkeypatch.setattr("cayleykit.graphs.MAX_TABLE_CELLS", letters)
    extract_presentation(graph, 3)
    monkeypatch.setattr("cayleykit.graphs.MAX_TABLE_CELLS", letters - 1)
    monkeypatch.setattr("cayleykit.graphs.Presentation", None)  # never reached
    message = rf"^loop cap {letters - 1} letters exceeded \({letters}\)$"
    with pytest.raises(CapExceeded, match=message):
        extract_presentation(graph, 3)


def test_a_long_cycle_builds_one_relator_of_its_length():
    # its BFS words hold ~n^2/4 = 10^8 letters in all, its one loop n letters
    n = 20000
    graph = ColoredDigraph(n, (EdgeColor("r", True, tuple((i, (i + 1) % n) for i in range(n))),))
    assert extract_presentation(graph).relators == (((0, 1),) * n,)


def test_analyze_refuses_a_disconnected_graph_before_its_closure(monkeypatch):
    def closure(perms, limit):
        raise AssertionError("closure ran")

    monkeypatch.setattr("cayleykit.graphs._closure", closure)
    red = EdgeColor("red", True, ((0, 1), (1, 0), (2, 3), (3, 2)))
    with pytest.raises(GraphError, match="not connected"):
        analyze(ColoredDigraph(4, (red,)), full_order=True)


@pytest.mark.parametrize("name", ["petersen", "mirror16", "flower16_rev"])
def test_presented_group_base_independent(name):
    g = fixture(name)
    base_group = group_from_presentation(extract_presentation(g, 0))
    for base in range(1, g.node_count, 5):
        other = group_from_presentation(extract_presentation(g, base))
        assert is_isomorphic(base_group, other) is not None


# --- full analysis against the frozen oracle -------------------------------------


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_fixture_analysis_matches_oracle(name):
    expected = ORACLE[name]
    report = analyze(fixture(name), full_order=True)
    assert report.verdict.connected == expected["connected"]
    assert report.verdict.perm_group_order == expected["perm_group_order"]
    assert report.verdict.is_cayley == expected["is_cayley"]
    assert report.presented_order == expected["presented_order"]
    assert report.presented_name == expected["presented_name"]


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_sabidussi_consistency(name):
    report = analyze(fixture(name), full_order=True)
    nodes = fixture(name).node_count
    if report.is_cayley:
        assert report.presented_order == nodes
        acting = group_from_action(report.verdict.color_perms)
        assert is_isomorphic(report.presented_group, acting) is not None
        assert report.verdict.connected
    else:
        assert report.presented_order < nodes


def test_mirror_fixtures_measured_pair_orders():
    for name in ("mirror16", "mirror32"):
        g = fixture(name)
        perms = color_permutations(g)
        assert all(not c.directed for c in g.colors)
        n = g.node_count
        ident = tuple(range(n))
        for p in perms:
            assert tuple(p[p[x]] for x in range(n)) == ident  # involutions
        names = [c.name for c in g.colors]
        expected = ORACLE[name]["pair_permutation_orders"]
        for i in range(3):
            for j in range(i + 1, 3):
                prod = tuple(perms[j][perms[i][x]] for x in range(n))
                power, order = prod, 1
                while power != ident:
                    power = tuple(prod[power[x]] for x in range(n))
                    order += 1
                assert order == expected[f"{names[i]}*{names[j]}"]


# --- fixtures and serialization ---------------------------------------------------


def test_fixture_names_and_unknown():
    assert fixture_names() == [
        "flower16_fwd",
        "flower16_rev",
        "mirror16",
        "mirror32",
        "petersen",
        "ring14",
        "ring18",
        "twist32_k3",
        "twist32_k5",
    ]
    with pytest.raises(GraphError):
        fixture("moebius")


def test_fixture_refuses_a_path_before_reading_it(tmp_path):
    # both names lead to a readable copy of a fixture's JSON
    root = resources.files("cayleykit").joinpath("fixtures")
    outside = tmp_path / "evil.json"
    outside.write_text(root.joinpath("petersen.json").read_text())
    for name in ("../fixtures/petersen", os.path.relpath(tmp_path / "evil", str(root))):
        with pytest.raises(GraphError) as err:
            fixture(name)
        assert str(err.value).startswith(f"unknown fixture {name!r} (known: ")


def test_twist_fixture_inner_cycle():
    g = fixture("twist32_k5")
    assert g.node_count == 32
    red = color_permutations(g)[0]
    assert red[16] == 16 + 5
    assert red[16 + 5] == 16 + 10
    assert red[16 + 10] == 16 + 15


def test_graph_json_round_trip_is_stable():
    text = dump_graph_json(fixture("petersen"))
    once = dump_graph_json(load_graph_json(text))
    twice = dump_graph_json(load_graph_json(once))
    assert once == twice


def test_graph_json_errors():
    with pytest.raises(GraphError):
        load_graph_json("{not json")
    with pytest.raises(GraphError):
        load_graph_json('{"nodes": 2}')
    with pytest.raises(GraphError):
        load_graph_json('{"nodes": 2, "colors": [{"name": "red"}]}')
    edge = '"directed": false, "edges": [[0, 1]]'
    for name in ("1", "null", "true", '["red"]', '{"red": 1}'):
        with pytest.raises(GraphError, match="color name must be a string"):
            load_graph_json('{"nodes": 2, "colors": [{"name": %s, %s}]}' % (name, edge))
    with pytest.raises(GraphError, match="label must be a string, got int"):
        load_graph_json('{"nodes": 2, "labels": ["x", 1], "colors": [{"name": "r", %s}]}' % edge)


def test_export_dot_counts():
    two = ColoredDigraph(2, (EdgeColor("s", False, ((0, 1),)),))
    body = export_dot(two).strip().splitlines()[1:-1]
    assert len(body) == 3

    d4 = export_dot(build_cayley_graph(families.dihedral(4)))
    lines = d4.strip().splitlines()
    node_lines = [l for l in lines if "label=" in l]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == 8
    assert len(edge_lines) == 12
    assert sum(1 for l in edge_lines if "dir=none" in l) == 4


def test_export_dot_escapes_backslashes_and_quotes():
    graph = ColoredDigraph(
        2, (EdgeColor("s", False, ((0, 1),)),), labels=("a\\", 'say "hi"')
    )
    lines = export_dot(graph).splitlines()
    assert lines[1] == '  0 [label="a\\\\"];'
    assert lines[2] == '  1 [label="say \\"hi\\""];'


def test_export_dot_palette_for_unknown_names():
    g = build_cayley_graph(families.dihedral(3))
    text = export_dot(g)
    assert "color=red" in text and "color=blue" in text


def mirror_variant(m, inner_step, outer_starts_blue, inner_starts_blue):
    outer_a = [(2 * k, 2 * k + 1) for k in range(m // 2)]
    outer_b = [(2 * k + 1, (2 * k + 2) % m) for k in range(m // 2)]
    inner_a, inner_b = [], []
    for k in range(m):
        edge = (m + (inner_step * k) % m, m + (inner_step * (k + 1)) % m)
        (inner_a if k % 2 == 0 else inner_b).append(edge)
    blue = (outer_a if outer_starts_blue else outer_b) + (
        inner_a if inner_starts_blue else inner_b
    )
    red = (outer_b if outer_starts_blue else outer_a) + (
        inner_b if inner_starts_blue else inner_a
    )
    green = [(k, m + k) for k in range(m)]
    return ColoredDigraph(
        2 * m,
        (
            EdgeColor("blue", False, tuple(blue)),
            EdgeColor("red", False, tuple(red)),
            EdgeColor("green", False, tuple(green)),
        ),
    )


def pairwise_product_orders(g):
    perms = color_permutations(g)
    n = g.node_count
    ident = tuple(range(n))
    orders = []
    for i in range(3):
        for j in range(i + 1, 3):
            prod = tuple(perms[j][perms[i][x]] for x in range(n))
            power, order = prod, 1
            while power != ident:
                power = tuple(prod[power[x]] for x in range(n))
                order += 1
            orders.append(order)
    return orders


def test_mirror_phase_flips_give_diquaternion_graphs():
    # the bundled mirror fixtures are one alternation phase away from true
    # Cayley graphs of the diquaternion groups
    flipped16 = mirror_variant(8, 3, outer_starts_blue=False, inner_starts_blue=True)
    report = analyze(flipped16)
    assert report.is_cayley
    assert report.presented_name == "DQ_8"
    acting = group_from_action(report.verdict.color_perms)
    assert is_isomorphic(acting, families.diquaternion(8)) is not None
    assert pairwise_product_orders(flipped16) == [4, 4, 4]

    flipped32 = mirror_variant(16, 9, outer_starts_blue=False, inner_starts_blue=False)
    report32 = analyze(flipped32)
    assert report32.is_cayley
    assert report32.presented_name == "DQ_16"
    assert sorted(pairwise_product_orders(flipped32)) == [4, 4, 8]


def perturbed(graph):
    """Swap the heads of the first two edges of the first colour."""
    color = graph.colors[0]
    edges = list(color.edges)
    (a, b), (c, d) = edges[0], edges[1]
    edges[0], edges[1] = (a, d), (c, b)
    return ColoredDigraph(
        graph.node_count,
        (EdgeColor(color.name, color.directed, tuple(edges)),) + graph.colors[1:],
        graph.labels,
    )


def test_perturbed_cayley_graph_loses_regularity():
    # rewiring one blue spoke pair of a true Cayley graph must not stay regular
    g = fixture("mirror16")
    report = analyze(perturbed(g))
    if report.is_cayley:
        assert report.presented_order == g.node_count
    else:
        assert report.presented_order < g.node_count


# --- a graph's finest regular quotient is its coset table ----------------------------

CAYLEY_FIXTURES = sorted(name for name in ORACLE if ORACLE[name]["is_cayley"])
NON_CAYLEY_FIXTURES = sorted(name for name in ORACLE if not ORACLE[name]["is_cayley"])
CATALOG_GRAPHS = [
    (name, build_cayley_graph(G))
    for name, G in families.catalog_groups(64)
    if G.order > 1
]


def relabelled(graph, order):
    """The same graph with node x renamed order[x]."""
    colors = tuple(
        EdgeColor(c.name, c.directed, tuple((order[u], order[v]) for u, v in c.edges))
        for c in graph.colors
    )
    labels = [None] * graph.node_count
    for x, new in enumerate(order):
        labels[new] = graph.label_of(x)
    return ColoredDigraph(graph.node_count, colors, tuple(labels))


def quotient_rounds(perms):
    """_regular_quotient(perms) and the point count each of its rounds began with."""
    counts = []

    def counted(columns):
        counts.append(len(columns[0]))
        return _spanning_tree(columns)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("cayleykit.graphs._spanning_tree", counted)
        quotient = _regular_quotient(perms)
    return quotient, counts


def assert_read_as_enumerated(graph, bases=(0,)):
    """analyze() reads a graph's presented group off its finest regular
    quotient; it must equal what Todd-Coxeter makes of the graph's loops
    read from each of the ``bases``, the quotient's columns must close every
    such relator at every coset, and each round that merges must at least
    halve the points.  Returns the point counts the rounds began with."""
    report = analyze(graph)
    assert report.presentation == extract_presentation(graph, 0)
    quotient, counts = quotient_rounds(report.verdict.color_perms)
    assert counts[0] == graph.node_count and counts[-1] == len(quotient[0])
    assert all(n % m == 0 and 2 * m <= n for n, m in zip(counts, counts[1:]))
    assert report.is_cayley == (len(counts) == 1)
    for base in bases:
        presentation = extract_presentation(graph, base)
        assert Presentation(*presentation) == presentation  # passes the checks it skips
        table = CosetTable(presentation, tuple(quotient), len(quotient[0]))
        assert table.open_relator() is None
        reference = group_from_presentation(presentation)
        for group in (report.presented_group, group_from_coset_table(table)):
            assert cayley_table(group) == cayley_table(reference)
            assert group.element_names == reference.element_names
            assert group.generators == reference.generators
    return counts


@pytest.mark.parametrize("name", CAYLEY_FIXTURES)
def test_cayley_fixture_read_as_enumerated(name):
    graph = fixture(name)
    assert_read_as_enumerated(graph, (0, 1, 7, graph.node_count - 1))


@pytest.mark.parametrize("name", NON_CAYLEY_FIXTURES)
def test_non_cayley_fixture_read_as_enumerated(name):
    graph = fixture(name)
    assert_read_as_enumerated(graph, (0, 1, 7, graph.node_count - 1))


def coset_graph(G, members, gens):
    """The Schreier graph of G on the right cosets of the subgroup with these
    members, one colour per generator (undirected when it is an involution),
    or None when a generator fixes a coset."""
    t = cayley_table(G)
    coset_of, reps = {}, []
    for x in range(G.order):
        if x not in coset_of:
            reps.append(x)
            coset_of.update((t[k][x], len(reps) - 1) for k in members)
    colors = []
    for i, s in enumerate(gens):
        perm = [coset_of[t[r][s]] for r in reps]
        if any(perm[x] == x for x in range(len(reps))):
            return None
        if all(perm[perm[x]] == x for x in range(len(reps))):
            edges = tuple((x, y) for x, y in enumerate(perm) if x < y)
            colors.append(EdgeColor(f"c{i}", False, edges))
        else:
            colors.append(EdgeColor(f"c{i}", True, tuple(enumerate(perm))))
    return ColoredDigraph(len(reps), tuple(colors))


SCHREIER_GROUPS = [G for _, G in families.catalog_groups(48) if G.order > 1]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coset_graphs_read_as_enumerated(data):
    # the loops of a Schreier graph present G over the normal closure of the
    # subgroup, a proper quotient of the acting group unless it is normal
    G = data.draw(st.sampled_from(SCHREIER_GROUPS))
    seeds = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=2))
    graph = coset_graph(G, subgroup_closure(G, seeds).members, [s for _, s in G.generators])
    assume(graph is not None)
    assert_read_as_enumerated(graph, (data.draw(st.integers(0, graph.node_count - 1)),))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_graphs_read_as_enumerated(data):
    n = data.draw(st.integers(2, 12))
    colors = []
    for i in range(data.draw(st.integers(1, 3))):
        if n % 2 == 0 and data.draw(st.booleans()):
            colors.append(EdgeColor(f"c{i}", False, data.draw(matchings(n))))
        else:
            colors.append(EdgeColor(f"c{i}", True, tuple(enumerate(data.draw(derangements(n))))))
    graph = ColoredDigraph(n, tuple(colors))
    assume(len(orbit_of_zero(color_permutations(graph))) == n)
    assert_read_as_enumerated(graph, (data.draw(st.integers(0, n - 1)),))


def symmetric_group_coset_graph(n):
    """S_n on the right cosets of <(0 1)>, coloured by an n-cycle and (0 1)
    followed by that cycle, neither of which fixes a coset."""
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple((i + 1) % n for i in range(n))
    gens = (cycle, tuple(cycle[swap[i]] for i in range(n)))
    elements = [tuple(range(n))]
    index = {elements[0]: 0}
    for x in elements:  # a BFS queue, appended to while walked
        for y in (tuple(s[i] for i in x) for s in gens):  # x, then s
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    G = group_from_action([[index[tuple(s[i] for i in x)] for x in elements] for s in gens])
    return coset_graph(G, subgroup_closure(G, [index[swap]]).members, [index[s] for s in gens])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_quotient_rounds_halve_the_points(n):
    # the points are the cosets of a copy of S_2, and each round that merges
    # leaves the cosets of a copy of S_3, S_4, ..., up to S_n itself, the
    # normal closure of a transposition: n - 2 such rounds and a trivial group
    counts = assert_read_as_enumerated(symmetric_group_coset_graph(n))
    assert len(counts) == n - 1 and counts[-1] == 1


def test_catalog_cayley_graphs_read_as_enumerated():
    for _, graph in CATALOG_GRAPHS:
        assert ColoredDigraph(*graph) == graph  # passes the checks it skips
        assert_read_as_enumerated(graph)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabelled_cayley_graphs_read_as_enumerated(data):
    _, graph = data.draw(st.sampled_from([c for c in CATALOG_GRAPHS if c[1].node_count <= 24]))
    order = data.draw(st.permutations(range(graph.node_count)))
    base = data.draw(st.integers(0, graph.node_count - 1))
    assert_read_as_enumerated(relabelled(graph, order), (base,))


def reduced_and_deduplicated(relators):
    """Each relator free-reduced, the empty and repeated ones dropped."""
    out = []
    for rel in map(free_reduce, relators):
        if rel and rel not in out:
            out.append(rel)
    return tuple(out)


def test_loop_relators_are_reduced_and_distinct_as_built():
    graphs = [fixture(name) for name in sorted(ORACLE)]
    graphs += [graph for _, graph in CATALOG_GRAPHS]
    for graph in graphs:
        if len(orbit_of_zero(color_permutations(graph))) != graph.node_count:
            continue
        n = graph.node_count
        edges = sum(len(color.edges) for color in graph.colors)
        undirected = sum(not color.directed for color in graph.colors)
        for base in (0, 1, n - 1) if n > 1 else (0,):
            relators = extract_presentation(graph, base).relators
            assert relators == reduced_and_deduplicated(relators)
            assert len(relators) == edges - (n - 1) + undirected


def test_acting_group_is_named_as_the_presented_group():
    # the report names a Cayley graph's acting group by its presented group;
    # built from the colours, the acting group must get the same name
    for graph in [fixture(name) for name in sorted(ORACLE)] + [g for _, g in CATALOG_GRAPHS]:
        report = analyze(graph)
        named = _graph_report(None, report)["acting_group"]
        if report.is_cayley:
            acting = group_from_action(report.verdict.color_perms)
            assert identify(acting) == report.presented_identification
            assert named == identify(acting).describe()
        else:
            assert named is None


def test_analyze_builds_one_group_per_cayley_graph(monkeypatch):
    # every group the program builds goes through Group.__init__:
    # group_from_action calls it after its checks, group_from_coset_table
    # with its own BFS tree
    from cayleykit.groups import Group

    calls = []
    init = Group.__dict__["__init__"]

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    for graph in (fixture("mirror32"), build_cayley_graph(families.dihedral(12))):
        analyze(graph)  # builds the catalog of the graph's order
        with monkeypatch.context() as mp:
            mp.setattr(Group, "__init__", counted)
            calls.clear()
            assert analyze(graph).is_cayley
        assert len(calls) == 1


def test_no_graph_is_enumerated(monkeypatch):
    # every graph's presented group is read off the graph, Cayley or not
    calls = []
    monkeypatch.setattr("cayleykit.cosets.todd_coxeter", lambda *args: calls.append(args))
    for name in sorted(ORACLE):
        analyze(fixture(name))
    assert calls == []


def counted_constructor(mp, cls):
    """Patch cls.__new__ to record each call's arguments; returns the record."""
    calls, new = [], cls.__new__
    mp.setattr(cls, "__new__", lambda c, *args: calls.append(args) or new(c, *args))
    return calls


def test_graph_layer_skips_the_record_checks(monkeypatch):
    # the loop presentation and a group's Cayley graph are checked as they are
    # built; only the colour names, from outside, are checked again
    graphs = [fixture(name) for name in sorted(ORACLE)] + [perturbed(fixture("mirror16"))]
    presentations = counted_constructor(monkeypatch, Presentation)
    digraphs = counted_constructor(monkeypatch, ColoredDigraph)
    for graph in graphs:
        analyze(graph)
    for G in (families.dihedral(12), families.quaternion(8), families.cyclic(2)):
        build_cayley_graph(G)
    assert presentations == [] and digraphs == []
    Presentation(("r",), ())
    ColoredDigraph(2, (EdgeColor("s", False, ((0, 1),)),))
    assert len(presentations) == len(digraphs) == 1


def test_regular_table_refuses_open_relator_and_cap(monkeypatch):
    graph = build_cayley_graph(families.dihedral(8))
    # every relator is a loop of the graph, closed by construction and not
    # traced again; assert_read_as_enumerated checks it at every coset
    traced = []
    monkeypatch.setattr(CosetTable, "open_relator", lambda table: traced.append(table))
    with pytest.raises(CapExceeded, match=r"^coset cap 15 exceeded \(a regular graph on 16 "
                                          r"nodes has 16 cosets\)$") as err:
        analyze(graph, max_cosets=15)
    assert err.value.cosets_defined == 16
    assert analyze(graph, max_cosets=16).presented_order == 16
    assert traced == []


def test_analyze_inverts_each_colour_once(monkeypatch):
    # extract_presentation walks each colour backwards once; the coset table
    # is the quotient's colour columns alone, with no inverse columns
    calls = []
    monkeypatch.setattr("cayleykit.graphs._inverse", lambda p: calls.append(p) or _inverse(p))
    graphs = [fixture("petersen"), fixture("mirror32"), build_cayley_graph(families.dihedral(12))]
    for graph in graphs:
        calls.clear()
        analyze(graph)
        assert len(calls) == len(graph.colors)


def walks_per_round(perms):
    """_regular_quotient(perms), its rounds and the left multiplications built."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("cayleykit.graphs._along", lambda *args: calls.append(args) or _along(*args))
        quotient, counts = quotient_rounds(perms)
    return quotient, counts, calls


def test_regularity_reads_the_tree_colours_alone():
    # the left multiplications of the colours on the BFS tree carry node 0 to
    # every node, so they decide regularity: 300 copies of one matching build
    # one, and D_6 with each colour given twice builds one per colour of D_6
    many = [(1, 0)] * 300
    quotient, counts, calls = walks_per_round(many)
    assert quotient == many and counts == [2] and len(calls) == 1
    twice = color_permutations(build_cayley_graph(families.dihedral(6))) * 2
    quotient, counts, calls = walks_per_round(twice)
    assert quotient == twice and counts == [12] and len(calls) == 2
    # on a graph that is not regular, copies of its two colours add no walk
    # and leave every round's merges as they were
    perms = color_permutations(symmetric_group_coset_graph(5))
    quotient, counts, calls = walks_per_round(perms * 3)
    assert (quotient, counts) == (_regular_quotient(perms) * 3, [60, 20, 5, 1])
    assert len(calls) <= 2 * len(counts)


def test_analyze_checks_the_cap_before_the_quotient(monkeypatch):
    # the cap is checked against the colour count before the O(n k min(k, n))
    # regularity test: a cap out of range builds no quotient
    calls = []
    monkeypatch.setattr("cayleykit.graphs._regular_quotient", calls.append)
    many = ColoredDigraph(2, tuple(EdgeColor(f"c{i}", False, ((0, 1),)) for i in range(300)))
    with pytest.raises(ValueError, match="at most 27962 for 300 generators"):
        analyze(many)
    with pytest.raises(ValueError, match="at least 1"):
        analyze(fixture("mirror16"), max_cosets=0)
    assert calls == []


# --- the regularity verdict against the closure ----------------------------------


def orbit_of_zero(perms):
    """The nodes the permutations reach from node 0."""
    seen = {0}
    queue = [0]
    while queue:
        x = queue.pop()
        for p in perms:
            y = p[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def closure_verdict(graph):
    """(order, exceeds, capped, is_cayley) as the permutation closure gives them."""
    perms = color_permutations(graph)
    n = graph.node_count
    order = _closure(perms, n)
    return order, order is None or order > n, False, len(orbit_of_zero(perms)) == n == order


def verdict_fields(graph):
    v = is_cayley(graph)
    return v.perm_group_order, v.order_exceeds_nodes, v.order_capped, v.is_cayley


def test_regularity_verdict_matches_closure_on_fixtures_and_catalog():
    graphs = [fixture(name) for name in sorted(ORACLE)]
    graphs += [graph for _, graph in CATALOG_GRAPHS]
    for _, graph in CATALOG_GRAPHS:
        if len(graph.colors[0].edges) > 1 and graph.node_count > 4:
            try:
                graphs.append(perturbed(graph))
            except GraphError:  # a perturbation that made a self-loop
                pass
    verdicts = set()
    for graph in graphs:
        expected = closure_verdict(graph)
        assert verdict_fields(graph) == expected
        verdicts.add(expected[3])
    assert verdicts == {True, False}


def derangements(n):
    return st.permutations(range(n)).filter(lambda p: all(p[x] != x for x in range(n)))


def matchings(n):
    """Perfect matchings of n nodes (n even), as edge lists."""
    return st.permutations(range(n)).map(
        lambda p: tuple((p[i], p[i + 1]) for i in range(0, n, 2))
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_regularity_verdict_matches_closure_on_random_permutations(data):
    n = data.draw(st.integers(2, 9))
    k = data.draw(st.integers(1, 3))
    colors = []
    for i in range(k):
        # an undirected colour is a fixed-point-free involution
        if n % 2 == 0 and data.draw(st.booleans()):
            colors.append(EdgeColor(f"c{i}", False, data.draw(matchings(n))))
        else:
            colors.append(EdgeColor(f"c{i}", True, tuple(enumerate(data.draw(derangements(n))))))
    graph = ColoredDigraph(n, tuple(colors))
    assert verdict_fields(graph) == closure_verdict(graph)
