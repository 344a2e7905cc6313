"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every expected value here is frozen (hand derivations and the
pre-build oracle record in tests/data/puzzle_oracle.json).
"""

import json
import pathlib
import random

from cayleykit import families
from cayleykit.cosets import group_from_presentation
from cayleykit.graphs import analyze, build_cayley_graph, fixture
from cayleykit.groups import (
    center,
    enumerate_subgroups,
    group_from_action,
    has_semidirect_decomposition,
    identify,
    is_isomorphic,
    subgroup_closure,
)
from cayleykit.matrices import (
    CycInt,
    f_matrix,
    j_matrix,
    matrix_group_closure,
    pauli_group,
    rot_matrix,
)
from cayleykit.tables import group_from_table, parse_table, render_table
from cayleykit.words import parse_presentation

DATA = pathlib.Path(__file__).parent / "data"
ORACLE = json.loads((DATA / "puzzle_oracle.json").read_text())


def passed(n, text):
    print(f"PASS criterion {n:2d}: {text}")


def central_involution(G):
    members = [z for z in center(G).members if z != 0 and G.element_orders()[z] == 2]
    assert len(members) == 1
    return subgroup_closure(G, members)


def test_criterion_01_presentation_collapse():
    G = group_from_presentation(
        parse_presentation("<r,s | r^5=s^2=1, r^3s=sr, srs=r^2>")
    )
    assert G.order == 2
    assert identify(G).name == "C_2"
    passed(1, "collapsing presentation has order 2, identified C_2")


def test_criterion_02_petersen_verdict():
    report = analyze(fixture("petersen"))
    assert report.is_cayley is False
    assert report.presented_order == 2
    assert report.presented_name == "C_2"
    passed(2, "petersen fixture is not a Cayley graph; presents C_2")


def test_criterion_03_quotient_chain():
    expectations = {3: 2, 4: 4, 5: 8}  # quaternion exponent -> dihedral parameter
    from cayleykit.groups import quotient

    for n, d in expectations.items():
        Q = families.quaternion(2**n)
        quotient_group = quotient(Q, central_involution(Q))
        assert quotient_group.order == 2 * d
        assert is_isomorphic(quotient_group, families.dihedral(d)) is not None
    Q8 = families.quaternion(8)
    klein = quotient(Q8, central_involution(Q8))
    assert identify(klein).name == "C_2xC_2"
    passed(3, "Q_8, Q_16, Q_32 mod the central involution give D_2, D_4, D_8")


def test_criterion_04_diquaternion():
    DQ8 = matrix_group_closure(
        [rot_matrix(2), j_matrix(), f_matrix()], names=["i", "j", "f"]
    )
    assert DQ8.order == 16
    assert is_isomorphic(DQ8, pauli_group(1)) is not None
    halves = [s for s in enumerate_subgroups(DQ8) if s.index == 2]
    classes = {identify(s.as_group()).name for s in halves}
    assert classes == {"Q_8", "D_4", "C_4xC_2"}

    DQ16 = matrix_group_closure([rot_matrix(3), j_matrix(), f_matrix()])
    assert DQ16.order == 32
    names16 = [
        identify(s.as_group()).name
        for s in enumerate_subgroups(DQ16)
        if s.index == 2
    ]
    for wanted in ("Q_16", "D_8", "C_8xC_2"):
        assert names16.count(wanted) == 1
    passed(4, "diquaternion closures: order 16 = 1-qubit group, halves as expected")


def test_criterion_05_pauli_orders():
    assert pauli_group(2).order == 64
    assert pauli_group(3).order == 256
    passed(5, "2- and 3-qubit closures have orders 64 and 256")


def test_criterion_06_involution_census():
    D16 = families.dihedral(16)
    assert D16.order_histogram()[2] == 17
    assert families.quaternion(32).order_histogram()[2] == 1
    assert len(center(D16).members) == 2
    assert len(center(families.semidihedral(16)).members) == 2
    assert len(center(families.semiabelian(16)).members) == 8  # frozen oracle value
    passed(6, "involution counts and center sizes of the order-32 twins")


def test_criterion_07_classification():
    assert families.involutive_exponents(16) == [1, 7, 9, 15]
    twists = [families.sdp_c2(16, k) for k in (1, 7, 9, 15)]
    for G in twists:
        assert G.order == 32
    for i in range(4):
        for j in range(i + 1, 4):
            assert is_isomorphic(twists[i], twists[j]) is None
    assert identify(twists[0]).name == "C_16xC_2"
    passed(7, "four twist exponents mod 16; the four twists are distinct groups")


def test_criterion_08_indecomposability():
    for n in (3, 4, 5):
        Q = families.quaternion(2**n)
        involution = central_involution(Q).members[1]
        for sub in enumerate_subgroups(Q):
            if sub.order > 1:
                assert involution in sub.members
        assert has_semidirect_decomposition(Q) is None
    passed(8, "every nontrivial quaternion subgroup holds the involution; no splitting")


def test_criterion_09_latin_squares():
    cyclic = group_from_table(parse_table((DATA / "latin_cyclic5.txt").read_text()))
    assert cyclic.ok
    assert cyclic.identification.name == "C_5"
    assert is_isomorphic(cyclic.group, families.cyclic(5)) is not None
    t = parse_table((DATA / "latin_cyclic5.txt").read_text())
    relabel = {"e": 0, "a": 1, "b": 3, "c": 2, "d": 4}
    for x in range(5):
        for y in range(5):
            image = relabel[t.symbols[t.cells[x][y]]]
            assert image == (relabel[t.symbols[x]] + relabel[t.symbols[y]]) % 5

    bad = parse_table((DATA / "latin_nonassoc5.txt").read_text())
    result = group_from_table(bad)
    assert not result.ok
    witness = result.rejection.witness
    assert witness is not None
    x, y, z = (bad.symbols.index(s) for s in witness)
    assert bad.cells[bad.cells[x][y]][z] != bad.cells[x][bad.cells[y][z]]
    a, b, d = (bad.symbols.index(s) for s in "abd")
    assert bad.cells[bad.cells[a][b]][d] != bad.cells[a][bad.cells[b][d]]
    passed(9, "order-5 squares: one is the cyclic group, one fails associativity")


CANDIDATES = {
    "flower16_fwd": {"C_16", "C_8xC_2"},
    "flower16_rev": {"D_8", "SD_8", "SA_8", "Q_16"},
    "mirror16": {"D_8", "SD_8", "SA_8", "Q_16"},
    "mirror32": {"D_16", "SD_16", "SA_16", "Q_32"},
    "twist32_k3": {"D_16", "SD_16", "SA_16", "Q_32"},
    "twist32_k5": {"D_16", "SD_16", "SA_16", "Q_32"},
}


def test_criterion_10_puzzle_suite():
    for name in sorted(ORACLE):
        expected = ORACLE[name]
        graph = fixture(name)
        report = analyze(graph, full_order=True)
        assert report.verdict.connected == expected["connected"]
        assert report.verdict.perm_group_order == expected["perm_group_order"]
        assert report.verdict.is_cayley == expected["is_cayley"]
        assert report.presented_order == expected["presented_order"]
        assert report.presented_name == expected["presented_name"]
        if report.is_cayley:
            assert report.presented_order == graph.node_count
            if name in CANDIDATES:
                assert report.presented_name in CANDIDATES[name]
        else:
            assert report.presented_order < graph.node_count
    passed(10, "all nine puzzle fixtures match the pre-build oracle record")


def test_criterion_11_round_trip_suite():
    # the catalog lists each group once: 97 up to order 32, 109 up to 36
    checked = 0
    for name, G in families.catalog_groups(36):
        if G.order > 1:
            report = analyze(build_cayley_graph(G))
            assert report.is_cayley, name
            assert report.presented_order == G.order, name
            acting = group_from_action(report.verdict.color_perms)
            assert is_isomorphic(acting, G) is not None, name
        result = group_from_table(parse_table(render_table(G)))
        assert result.ok, name
        assert is_isomorphic(result.group, G) is not None, name
        checked += 1
    assert checked >= 100
    passed(11, f"round-trip over {checked} catalog groups of order <= 36")


def test_criterion_12_cyclotomic_shadow():
    rng = random.Random(20260809)
    worst = 0.0
    for _ in range(10000):
        level = rng.randint(2, 4)
        span = 1 << (level - 1)
        a = CycInt(level, tuple(rng.randint(-9, 9) for _ in range(span)))
        b = CycInt(level, tuple(rng.randint(-9, 9) for _ in range(span)))
        error = abs((a * b).complex_value() - a.complex_value() * b.complex_value())
        worst = max(worst, error)
        assert error < 1e-9
    passed(12, f"10000 products match the complex shadow (worst error {worst:.2e})")
