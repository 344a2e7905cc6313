import os
import pathlib
import random
import subprocess
import sys

import pytest

from cayleykit import families, graphs
from cayleykit.groups import (
    Group,
    GroupError,
    Subgroup,
    abelian_invariants,
    abelian_name,
    center,
    derived_subgroup,
    direct_product,
    enumerate_subgroups,
    group_from_action,
    has_semidirect_decomposition,
    identify,
    is_isomorphic,
    is_normal,
    normal_closure,
    quotient,
    subgroup_closure,
)


def klein():
    return families.abelian([2, 2])


def central_involution(G):
    members = [z for z in center(G).members if z and G.order_of(z) == 2]
    assert len(members) == 1
    return subgroup_closure(G, members)


# --- construction and validation -------------------------------------------


def test_rejects_non_latin_table():
    with pytest.raises(GroupError):
        Group([[0, 1], [1, 1]])


def test_rejects_bad_identity_row():
    with pytest.raises(GroupError):
        Group([[1, 0], [0, 1]])


def test_rejects_non_associative_latin_square():
    # order-5 Latin square with identity first and every square trivial;
    # Lagrange rules it out, and the constructor's scan catches it
    cells = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError) as err:
        Group(cells)
    first = next(
        (a, b, c)
        for a in range(5)
        for b in range(5)
        for c in range(5)
        if cells[cells[a][b]][c] != cells[a][cells[b][c]]
    )
    assert str(err.value) == "associativity fails at ({},{},{})".format(*first)


def test_trusted_constructors_build_groups():
    # trusted=True skips the axiom scans, so every trusted constructor's
    # table must pass them when handed in as an untrusted table
    built = [G for _, G in families.catalog_groups(64)]
    built += [
        families.cyclic(300),
        families.dihedral(200),
        families.pauli(2),
        families.diquaternion(32),
    ]
    Q32 = families.quaternion(32)
    built.append(quotient(Q32, central_involution(Q32)))
    D12 = families.dihedral(12)
    built.append(subgroup_closure(D12, (D12.generators[0][1],)).as_group())
    report = graphs.analyze(graphs.fixture("mirror32"))
    built += [report.presented_group, report.verdict.acting_group]
    for G in built:
        assert Group(G.table).order == G.order


def test_group_from_action_rebuilds_each_catalog_table():
    # right multiplication by the recorded generators is a regular action
    for name, G in families.catalog_groups(64):
        columns = [[G.table[x][g] for x in range(G.order)] for _, g in G.generators]
        rebuilt = group_from_action(columns, G.element_names, G.generators)
        assert rebuilt.table == G.table, name
        assert rebuilt.generators == G.generators, name


def test_non_transitive_action_is_rejected_under_optimize():
    # two disjoint transpositions on 4 points reach only {0, 1} from 0; the
    # check is a real exception, so python -O keeps it
    script = """
if __debug__:
    raise SystemExit("asserts are live: not running under -O")
from cayleykit.cosets import CosetTable, group_from_coset_table
from cayleykit.groups import GroupError, group_from_action
from cayleykit.words import parse_presentation

swaps = ((1, 0, 2, 3), (0, 1, 3, 2))
try:
    group_from_action(swaps)
except GroupError as exc:
    print(exc)
p = parse_presentation("<a,b | a^2, b^2, a b a b>")
try:
    group_from_coset_table(CosetTable(p, swaps, swaps, 4))
except GroupError as exc:
    print(exc)
"""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out == (
        "action is not transitive: 2 of 4 reached\n"
        "coset table is not transitive: 2 of 4 reached\n"
    )


# --- element orders and center ----------------------------------------------


def test_involution_counts():
    assert families.dihedral(16).order_histogram()[2] == 17
    assert families.quaternion(32).order_histogram()[2] == 1
    assert families.cyclic(1).order_histogram() == {1: 1}


def test_center_sizes():
    assert len(center(families.dihedral(16)).members) == 2
    assert len(center(families.semidihedral(16)).members) == 2
    # frozen brute-force value; <r^2> is central since s r^2 s = r^18 = r^2
    assert len(center(families.semiabelian(16)).members) == 8
    abelian = families.abelian([4, 2])
    assert center(abelian).members == tuple(range(8))


def test_exponent_and_histogram():
    G = families.quaternion(8)
    assert G.exponent() == 4
    assert G.order_histogram() == {1: 1, 2: 1, 4: 6}


# --- subgroups ---------------------------------------------------------------


def test_subgroup_closure_examples():
    G = families.quaternion(16)
    assert subgroup_closure(G, [0]).members == (0,)
    r = dict(G.generators)["r"]
    sub = subgroup_closure(G, [r])
    assert sub.order == 8 and sub.index == 2
    C5 = families.cyclic(5)
    for g in range(1, 5):
        assert subgroup_closure(C5, [g]).order == 5


def test_is_normal():
    D4 = families.dihedral(4)
    r = dict(D4.generators)["r"]
    f = dict(D4.generators)["f"]
    assert is_normal(D4, subgroup_closure(D4, [r]))  # index 2
    reflection = subgroup_closure(D4, [f])
    # brute-force conjugation over the table as an independent check
    conjugates = {
        D4.table[D4.table[g][h]][D4.inverse[g]]
        for g in range(8)
        for h in reflection.members
    }
    assert not conjugates <= set(reflection.members)
    assert not is_normal(D4, reflection)
    assert is_normal(D4, center(D4))


def test_normal_closure():
    D4 = families.dihedral(4)
    f = dict(D4.generators)["f"]
    closure = normal_closure(D4, [f])
    assert is_normal(D4, closure)
    assert closure.order == 4


def test_quotient_examples():
    Q8 = families.quaternion(8)
    q = quotient(Q8, central_involution(Q8))
    assert q.order == 4
    assert is_isomorphic(q, klein()) is not None
    assert identify(q).name == "C_2xC_2"

    Q16 = families.quaternion(16)
    q16 = quotient(Q16, central_involution(Q16))
    assert q16.order == 8
    assert is_isomorphic(q16, families.dihedral(4)) is not None

    G = families.dihedral(6)
    whole = Subgroup(G, tuple(range(G.order)))
    assert quotient(G, whole).order == 1


def test_quotient_requires_normal():
    D4 = families.dihedral(4)
    f = dict(D4.generators)["f"]
    with pytest.raises(GroupError):
        quotient(D4, subgroup_closure(D4, [f]))


def test_quotient_properties():
    for G in (families.dihedral(6), families.quaternion(16), families.abelian([4, 4])):
        for N in enumerate_subgroups(G):
            if not is_normal(G, N):
                continue
            q = quotient(G, N)
            assert q.order * N.order == G.order
            if G.is_abelian():
                assert q.is_abelian()


def test_enumerate_subgroups_counts():
    for p in (5, 7):
        assert len(enumerate_subgroups(families.cyclic(p))) == 2
    subs = enumerate_subgroups(families.quaternion(8))
    assert len(subs) == 6
    assert sorted(s.order for s in subs) == [1, 2, 4, 4, 4, 8]
    # every subgroup order divides the group order (checked internally too)
    for s in subs:
        assert 8 % s.order == 0


def test_enumerate_subgroups_cap():
    with pytest.raises(GroupError):
        enumerate_subgroups(families.abelian([68]))


def test_diquaternion_index_two_subgroups():
    # seven subgroups of index 2, in exactly the three expected classes
    DQ8 = families.diquaternion(8)
    halves = [s for s in enumerate_subgroups(DQ8) if s.order == 8]
    names = sorted(identify(s.as_group()).name for s in halves)
    assert names == ["C_4xC_2"] * 3 + ["D_4"] * 3 + ["Q_8"]
    for s in halves:
        assert is_normal(DQ8, s)


def test_semidirect_decomposition():
    assert has_semidirect_decomposition(families.quaternion(16)) is None
    d4 = has_semidirect_decomposition(families.dihedral(4))
    assert d4 is not None
    N, H = d4
    assert N.order * H.order == 8
    assert set(N.members) & set(H.members) == {0}
    c6 = has_semidirect_decomposition(families.cyclic(6))
    assert c6 is not None
    assert {c6[0].order, c6[1].order} == {2, 3}


# --- isomorphism and identification -----------------------------------------


def test_is_isomorphic_examples():
    assert is_isomorphic(families.cyclic(14), families.dihedral(7)) is None
    G = families.dihedral(5)
    assert is_isomorphic(G, G) == tuple(range(G.order))
    assert is_isomorphic(families.diquaternion(8), families.pauli(1)) is not None


def test_is_isomorphic_is_a_homomorphism():
    G = families.semidihedral(8)
    H = families.make(families.FamilySpec("sdp", (8, 3)))
    phi = is_isomorphic(G, H)
    assert phi is not None
    for a in range(G.order):
        for b in range(G.order):
            assert phi[G.table[a][b]] == H.table[phi[a]][phi[b]]


def test_is_isomorphic_symmetry():
    pairs = [
        (families.dihedral(6), direct_product(families.dihedral(3), families.cyclic(2))),
        (families.quaternion(8), families.quaternion(8)),
        (families.dihedral(8), families.semidihedral(8)),
    ]
    for G, H in pairs:
        assert (is_isomorphic(G, H) is None) == (is_isomorphic(H, G) is None)


def test_abelian_invariants():
    assert abelian_invariants(families.cyclic(1)) == []
    assert abelian_invariants(families.cyclic(6)) == [6]
    assert abelian_invariants(klein()) == [2, 2]
    assert abelian_invariants(families.abelian([2, 8])) == [8, 2]
    assert abelian_name([8, 2]) == "C_8xC_2"
    assert abelian_name([]) == "C_1"


def test_identify_examples():
    from cayleykit.cosets import group_from_presentation
    from cayleykit.words import parse_presentation

    collapsed = group_from_presentation(
        parse_presentation("<r,s | r^5=s^2=1, r^3s=sr, srs=r^2>")
    )
    assert identify(collapsed).name == "C_2"
    assert identify(families.cyclic(1)).name == "C_1"
    assert identify(families.sdp_c2(16, 1)).name == "C_16xC_2"
    assert identify(families.dihedral(9)).name == "D_9"
    assert identify(families.make(families.FamilySpec("sdp", (16, 7)))).name == "SD_16"


def test_identify_order18_catalog():
    named = dict(families.nonabelian_catalog(18))
    for name in ("D_9", "C_3xD_3", "C_3:D_3"):
        assert identify(named[name]).name == name
    assert identify(families.abelian([3, 6])).name == "C_6xC_3"
    assert identify(families.cyclic(18)).name == "C_18"


def test_identify_unmatched_reports_fingerprint():
    # the 2-qubit closure is outside the catalog; the report carries invariants
    ident = identify(families.pauli(2))
    assert ident.name is None
    assert "order=64" in ident.describe()


def test_identify_round_trip_over_catalog():
    # names can alias (D_6 and D_3xC_2 are the same group), so check that
    # the returned name points back to an isomorphic catalog member
    rng = random.Random(11)
    members = list(families.catalog_groups(24))
    by_name: dict = {}
    for name, G in members:
        by_name.setdefault(name, G)
    for name, G in rng.sample(members, 12):
        ident = identify(G)
        assert ident.name is not None
        assert is_isomorphic(by_name[ident.name], G) is not None


def test_fingerprint_fields():
    fp = families.quaternion(8).fingerprint()
    assert fp.order == 8
    assert not fp.abelian
    assert fp.exponent == 4
    assert fp.center_order == 2
    assert fp.derived_order == 2
    assert fp.order_histogram == ((1, 1), (2, 1), (4, 6))


def test_derived_subgroup():
    D8 = families.dihedral(8)
    derived = derived_subgroup(D8)
    assert derived.order == 4
    assert is_normal(D8, derived)
    assert derived_subgroup(families.abelian([12])).order == 1


def test_direct_product_structure():
    G = direct_product(families.cyclic(3), families.cyclic(5))
    assert identify(G).name == "C_15"
    H = direct_product(families.dihedral(3), families.cyclic(4))
    assert H.order == 24
    assert identify(H).name == "D_3xC_4"
