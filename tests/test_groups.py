import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations
from math import isqrt, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from cayleykit import families, graphs
from cayleykit.cosets import (
    CapExceeded,
    CosetTable,
    group_from_coset_table,
    group_from_presentation,
    todd_coxeter,
)
from cayleykit.groups import (
    MAX_TABLE_CELLS,
    Fingerprint,
    Group,
    GroupError,
    Subgroup,
    _generating_subset,
    abelian_invariants,
    abelian_name,
    cayley_table,
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
from cayleykit.tables import LAGRANGE_PRECHECK, FiniteTable, group_from_table, parse_table
from cayleykit.words import (
    Presentation, evaluate_word, free_reduce, label_word, parse_presentation, parse_word,
)


DATA = pathlib.Path(__file__).resolve().parent / "data"


def klein():
    return families.abelian([2, 2])


def central_involution(G):
    members = [z for z in center(G).members if z and G.element_orders()[z] == 2]
    assert len(members) == 1
    return subgroup_closure(G, members)


# --- construction and validation -------------------------------------------


def first_triple(cells):
    """The lexicographically first non-associative triple, by brute force."""
    n = len(cells)
    return next(
        (
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if cells[cells[a][b]][c] != cells[a][cells[b][c]]
        ),
        None,
    )


def rejection_of(cells):
    """The Rejection of a table of the symbols 0..n-1, checking the witness
    that the table validator reports against the brute-force first triple."""
    symbols = tuple(map(str, range(len(cells))))
    result = group_from_table(FiniteTable(symbols, tuple(map(tuple, cells))))
    assert not result.ok
    assert result.witness == first_triple(cells)
    return result.rejection


def test_rejects_non_latin_table():
    rejection = rejection_of([[0, 1], [1, 1]])
    assert rejection.reason == "not a Latin square"
    assert rejection.latin_violation == ("row", 1, "1")


def test_rejects_bad_identity_row():
    # row 0 reads the header but column 0 does not, and no other element is
    # a two-sided identity
    rejection = rejection_of([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    assert rejection.reason == "no two-sided identity"


def test_one_sided_inverse_is_an_associativity_failure():
    # a Latin square with identity 0 where 2 * 3 = 0 but 3 * 2 = 1; inverses
    # have no check of their own, since an associative loop is a group
    cells = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    assert cells[2][3] == 0 != cells[3][2]
    rejection = rejection_of(cells)
    assert rejection.reason == "associativity fails"
    assert rejection.witness == tuple(map(str, first_triple(cells)))


def test_rejects_non_associative_latin_square():
    # order-5 Latin square with identity first and every square trivial;
    # Lagrange rules it out, and the validator's scan names the witness
    cells = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    rejection = rejection_of(cells)
    assert rejection.reason == "associativity fails"
    assert rejection.precheck == LAGRANGE_PRECHECK
    assert rejection.witness == tuple(map(str, first_triple(cells)))


def checked(G):
    """G's table through the table validator, which must accept it with
    element 0 as its identity."""
    symbols = tuple(map(str, range(G.order)))
    result = group_from_table(FiniteTable(symbols, cayley_table(G)))
    assert result.ok and result.identity == "0"
    return result.group


def test_trusted_constructors_build_groups():
    # group_from_action skips the axiom scans, so every table the program
    # builds must pass them when handed to the table validator
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
    sub = subgroup_closure(D12, (D12.generators[0][1],))
    H = sub.as_group()
    built.append(H)
    report = graphs.analyze(graphs.fixture("mirror32"))
    built += [report.presented_group, group_from_action(report.verdict.color_perms)]
    for G in built:
        assert checked(G).order == G.order
    # the subgroup's own table, in member order, through the validator
    pos = {m: i for i, m in enumerate(sub.members)}
    t = cayley_table(D12)
    table = FiniteTable(
        tuple(D12.name_of(m) for m in sub.members),
        tuple(tuple(pos[t[a][b]] for b in sub.members) for a in sub.members),
    )
    validated = group_from_table(table).group
    assert (cayley_table(H), H.element_names, H.generators) == (
        cayley_table(validated), validated.element_names, validated.generators
    )


def test_group_from_action_rebuilds_each_catalog_table():
    # right multiplication by the recorded generators is a regular action
    for name, G in families.catalog_groups(64):
        t = cayley_table(G)
        columns = [[t[x][g] for x in range(G.order)] for _, g in G.generators]
        rebuilt = group_from_action(columns, G.element_names, G.generators)
        assert cayley_table(rebuilt) == t == oracle_table(columns), name
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
    group_from_coset_table(CosetTable(p, swaps, 4))
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


AXIOM_CHECKS = (
    "latin_check", "identity_check", "_generating_sequence", "_light_test",
    "associativity_witness",
)


def spy_on_axiom_checks(monkeypatch):
    """Record the name of each table-axiom check of ``tables`` as it is called."""
    from cayleykit import tables

    calls = []
    for name in AXIOM_CHECKS:
        helper = getattr(tables, name)
        monkeypatch.setattr(
            tables, name,
            lambda *args, name=name, helper=helper: calls.append(name) or helper(*args),
        )
    return calls


def test_built_tables_go_through_group_from_action_unchecked(monkeypatch):
    # quotients, direct products and checked tables are groups by
    # construction: one group_from_action call each, and no axiom scan but
    # the validator's own, once per axiom, on a table from outside
    from cayleykit import groups, tables

    Q16, C3 = families.quaternion(16), families.cyclic(3)
    N = central_involution(Q16)
    cyclic5 = parse_table((DATA / "latin_cyclic5.txt").read_text())
    built = []

    def spy(*args, **kwargs):
        built.append(group_from_action(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(groups, "group_from_action", spy)
    monkeypatch.setattr(tables, "group_from_action", spy)
    scans = spy_on_axiom_checks(monkeypatch)
    for build, expected in (
        (lambda: quotient(Q16, N), []),
        (lambda: direct_product(Q16, C3), []),
        (lambda: tables.group_from_table(cyclic5).group, list(AXIOM_CHECKS[:4])),
    ):
        built.clear()
        scans.clear()
        G = build()
        assert len(built) == 1 and built[0] is G
        assert scans == expected


def test_as_group_builds_without_axiom_scan(monkeypatch):
    # a subgroup's action is a group by construction: only the validator of
    # tables from outside scans the axioms
    calls = spy_on_axiom_checks(monkeypatch)
    D12 = families.dihedral(12)
    subgroups = [subgroup_closure(D12, (g,)) for g in range(D12.order)]
    subgroups.append(subgroup_closure(D12, [g for _, g in D12.generators]))
    built = [H.as_group() for H in subgroups]
    assert calls == []
    assert checked(built[-1]).order == D12.order
    assert calls == list(AXIOM_CHECKS[:4])


def test_group_from_action_without_columns_is_trivial():
    # a trivial factor or quotient has an empty generating sequence
    G = group_from_action([])
    assert (G.order, cayley_table(G), G.generators) == (1, ((0,),), ())


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
    t = cayley_table(D4)
    inv = inverses(t)
    conjugates = {t[t[g][h]][inv[g]] for g in range(8) for h in reflection.members}
    assert not conjugates <= set(reflection.members)
    assert not is_normal(D4, reflection)
    assert is_normal(D4, center(D4))


def test_is_normal_matches_conjugation_by_every_element():
    # conjugating by the generators suffices: in a finite group each inverse
    # is a positive word in them
    for G in CATALOG:
        if G.order > 32:
            continue
        t = cayley_table(G)
        inv = inverses(t)
        for H in enumerate_subgroups(G):
            members = set(H.members)
            normal = all(
                t[t[g][h]][inv[g]] in members for g in range(G.order) for h in H.members
            )
            assert is_normal(G, H) == normal


def test_normal_closure():
    D4 = families.dihedral(4)
    f = dict(D4.generators)["f"]
    closure = normal_closure(D4, [f])
    assert is_normal(D4, closure)
    assert closure.order == 4


def conjugation_normal_closure(G, seed):
    """The subgroup generated by every conjugate g x g^-1 of each seed x."""
    t = cayley_table(G)
    inv = inverses(t)
    conjugates = {0}
    for x in seed:
        for g in range(G.order):
            conjugates.add(t[t[g][x]][inv[g]])
    return subgroup_closure(G, conjugates)


def test_normal_closure_matches_closing_every_conjugate():
    # the orbit of 1 under right multiplication by the seed and conjugation
    # by the generators is the subgroup that all conjugates of the seed generate
    rng = random.Random(32)
    for G in CATALOG:
        if G.order > 32:
            continue
        for size in (1, 1, 2, 3):
            seed = rng.choices(range(G.order), k=size)
            assert normal_closure(G, seed) == conjugation_normal_closure(G, seed), seed


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
    # elementary abelian p-groups: the sum over k of the Gaussian binomials
    # [n choose k]_p counts the subgroups of C_p^n
    for factors, count in (([2] * 4, 67), ([2] * 5, 374), ([3] * 3, 28)):
        assert len(enumerate_subgroups(families.abelian(factors))) == count


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
    # is_isomorphic returns its map closed under products with no final check
    pairs = [(families.semidihedral(8), families.make(families.FamilySpec("sdp", (8, 3))))]
    pairs += [(G, relabelled_group(G, seed)) for seed, G in enumerate(CATALOG) if G.order <= 32]
    order_64 = [build() for _, _, build in families.nonabelian_catalog(64)]
    pairs += [(G, relabelled_group(G, 64)) for G in order_64]
    for G, H in pairs:
        for A, B in ((G, H), (H, G)):
            phi = is_isomorphic(A, B)
            assert phi is not None and sorted(phi) == list(range(B.order))
            ta, tb = cayley_table(A), cayley_table(B)
            for a in range(A.order):
                for b in range(A.order):
                    assert phi[ta[a][b]] == tb[phi[a]][phi[b]]


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
    named = {name: build() for name, _, build in families.nonabelian_catalog(18)}
    for name in ("D_9", "C_3xD_3", "C_3:D_3"):
        assert identify(named[name]).name == name
    assert identify(families.abelian([3, 6])).name == "C_6xC_3"
    assert identify(families.cyclic(18)).name == "C_18"


def test_generating_subset_is_computed_once_per_group(monkeypatch):
    from cayleykit import groups

    families.nonabelian_catalog(10)  # the candidate D_5 has its fingerprint
    slot = Group.__dict__["_subset"]
    computed, sorted_perms = [], []
    inverse = groups._inverse
    monkeypatch.setattr(groups, "_inverse", lambda p: sorted_perms.append(p) or inverse(p))

    class CountingSlot:
        """Group's ``_subset`` slot, noting each group given a computed subset."""

        def __get__(self, G, owner):
            return slot.__get__(G, owner)

        def __set__(self, G, value):
            if value is not None:
                computed.append(G)
            slot.__set__(G, value)

    monkeypatch.setattr(Group, "_subset", CountingSlot())
    # the fingerprint, the catalog search of D_5, the second identify and
    # the normality checks all read the subset that the first read computed
    # and kept, with its conjugations: each permutation is inverted once,
    # for a conjugation or for the derived subgroup's commutators
    for G, name in ((families.abelian([4, 6]), "C_12xC_2"), (families.dihedral(5), "D_5")):
        computed.clear()
        sorted_perms.clear()
        G.fingerprint()
        assert identify(G).name == name
        assert identify(G).name == name
        assert is_normal(G, center(G)) and is_normal(G, center(G))
        assert computed.count(G) == 1, name
        assert len(computed) == len(set(map(id, computed))), name
        assert len(sorted_perms) == len(set(map(id, sorted_perms))), name
        subset = groups._generating_subset(G)
        own = {id(perm) for left, col, _ in subset for perm in (left, col)}
        own_sorts = sum(id(perm) in own for perm in sorted_perms)
        assert own_sorts == 2 * len(subset), name


def test_table_is_built_only_where_read(monkeypatch, tmp_path, capsys):
    # every query walks the action, and so does the graph of --dot; only the
    # printer of --table draws the table, once a request
    from cayleykit import cli, groups, tables

    drawn = []
    draw = groups.cayley_table
    for module in (groups, tables):
        monkeypatch.setattr(module, "cayley_table", lambda G: drawn.append(G) or draw(G))
    D420, C600, D8 = families.dihedral(420), families.cyclic(600), families.dihedral(4)
    # the last identifies D_8 by a search against the catalog's D_4
    for G, name in ((D420, None), (C600, "C_600"), (D8, "D_4")):
        assert identify(G).name == name
        assert is_isomorphic(G, G) is not None
        first, *rest = G.generators
        assert subgroup_closure(G, [first[1]]).as_group().order > 1
        N = normal_closure(G, [el for _, el in rest] or [first[1]])
        assert quotient(G, N).order == G.order // N.order
        assert quotient(G, center(G)).order == G.order // center(G).order
        assert is_normal(G, center(G)) and is_normal(G, derived_subgroup(G))
        assigned = {i: el for i, (_, el) in enumerate(G.generators)}
        names = tuple(name for name, _ in G.generators)
        square = evaluate_word(G, assigned, parse_word(f"{first[0]}^-1 {first[0]}^3", names))
        assert square == evaluate_word(G, assigned, parse_word(f"{first[0]}^2", names)) != 0
    assert len(enumerate_subgroups(D8)) == 10
    n = 150
    lines = [" ".join(f"g{b}" for b in range(n))]
    lines += [" ".join(f"g{(a + b) % n}" for b in range(n)) for a in range(n)]
    (tmp_path / "c150.txt").write_text("\n".join(lines) + "\n")
    assert cli.main(["check-table", str(tmp_path / "c150.txt"), "--json"]) == 0
    assert '"group": "C_150"' in capsys.readouterr().out
    assert cli.main(["make", "dihedral", "6", "--dot", str(tmp_path / "d6.dot")]) == 0
    assert drawn == []
    for argv in (
        ["make", "dihedral", "6", "--table"],
        ["quotient", "--presentation", "<a,b | a^6, b^2, (a b)^2>", "--normal", "a^-2",
         "--table"],
    ):
        drawn.clear()
        assert cli.main(argv) == 0
        assert len(drawn) == 1, argv
    capsys.readouterr()


def test_redundant_columns_keep_the_fingerprint_cheap(monkeypatch):
    # C_64 and D_32 acting by all 63 non-identity elements: the fingerprint
    # reads a generating subset of at most log2 64 = 6 columns, so no orbit
    # walks more than 15 commutators and 6 conjugations, not 1953 and 63
    from cayleykit import groups

    widths = []
    orbit = groups._orbit
    monkeypatch.setattr(groups, "_orbit", lambda x, maps: widths.append(len(maps)) or orbit(x, maps))
    for G in (families.cyclic(64), families.dihedral(32)):
        t = cayley_table(G)
        columns = [[row[g] for row in t] for g in range(1, G.order)]
        assert group_from_action(columns).fingerprint() == G.fingerprint()
    assert 0 < max(widths) <= 15 + 6


def test_identify_unmatched_reports_fingerprint():
    # the 2-qubit closure is outside the catalog; the report carries invariants
    ident = identify(families.pauli(2))
    assert ident.name is None
    assert "order=64" in ident.describe()


def test_identify_round_trip_over_catalog():
    # the catalog lists each group once, so identify gives back its own name
    rng = random.Random(11)
    members = list(families.catalog_groups(24))
    for name, G in rng.sample(members, 12):
        assert identify(G).name == name


def relabelled_group(G, seed):
    """G with its non-identity elements listed in a seeded random order, read
    back through the table validator, so it acts by its table's greedy
    generating sequence."""
    order = list(range(1, G.order))
    random.Random(seed).shuffle(order)
    order = [0, *order]
    pos = {g: i for i, g in enumerate(order)}
    t = cayley_table(G)
    table = tuple(tuple(pos[t[a][b]] for b in order) for a in order)
    return group_from_table(FiniteTable(tuple(map(str, range(G.order))), table)).group


def test_shuffled_order_64_catalog_groups_keep_their_names():
    for name, _, build in families.nonabelian_catalog(64):
        G = build()
        assert identify(relabelled_group(G, 64)).name == identify(G).name, name


def first_isomorphism_by_element_orders(G, H):
    """The isomorphism search with candidates pruned by element order alone and
    no injectivity check before the end: the first mapping, in ascending
    candidate order, of G's generators."""
    gens = oracle_generators(G)
    orders_g, orders_h = G.element_orders(), H.element_orders()
    tg, th = cayley_table(G), cayley_table(H)

    def saturate(phi):
        queue = list(phi)
        while queue:
            a = queue.pop()
            for b in list(phi):
                for x, y in (
                    (tg[a][b], th[phi[a]][phi[b]]),
                    (tg[b][a], th[phi[b]][phi[a]]),
                ):
                    if x not in phi:
                        phi[x] = y
                        queue.append(x)
                    elif phi[x] != y:
                        return None
        return phi

    def extend(phi, k):
        if k == len(gens):
            return phi if len(set(phi.values())) == G.order else None
        if gens[k] in phi:
            return extend(phi, k + 1)
        for h in range(H.order):
            if h not in phi.values() and orders_h[h] == orders_g[gens[k]]:
                trial = saturate({**phi, gens[k]: h})
                result = trial and extend(trial, k + 1)
                if result:
                    return result
        return None

    phi = extend({0: 0}, 0)
    return phi and tuple(phi[g] for g in range(G.order))


def pairwise_isomorphism(G, H):
    """The isomorphism search that closes each partial map under the product
    of every pair of mapped elements, in both orders, with candidates pruned
    by element order and centraliser order: the first mapping, in ascending
    candidate order, of G's generators."""
    if G.order != H.order or G.fingerprint() != H.fingerprint():
        return None
    n = G.order
    kind_g = list(zip(G.element_orders(), G.centralizer_orders()))
    kind_h = list(zip(H.element_orders(), H.centralizer_orders()))
    gens = oracle_generators(G)
    tg, th = cayley_table(G), cayley_table(H)

    def saturate(phi, g):
        images = set(phi.values())
        queue = [g]
        while queue:
            a = queue.pop()
            for b in list(phi):
                for x, y in (
                    (tg[a][b], th[phi[a]][phi[b]]),
                    (tg[b][a], th[phi[b]][phi[a]]),
                ):
                    if x in phi:
                        if phi[x] != y:
                            return None
                    elif y in images:
                        return None
                    else:
                        phi[x] = y
                        images.add(y)
                        queue.append(x)
        return phi

    def extend(phi, k):
        if k == len(gens):
            return phi if len(phi) == n else None
        g = gens[k]
        if g in phi:
            return extend(phi, k + 1)
        used = set(phi.values())
        for h in range(n):
            if h in used or kind_h[h] != kind_g[g]:
                continue
            trial = saturate({**phi, g: h}, g)
            if trial is None:
                continue
            result = extend(trial, k + 1)
            if result is not None:
                return result
        return None

    phi = extend({0: 0}, 0)
    return None if phi is None else tuple(phi[g] for g in range(n))


# non-isomorphic catalog groups with equal fingerprints
FINGERPRINT_TWINS = [
    ("DQ_16", "SD_8xC_2"),
    ("DQ_32", "SD_16xC_2"),
    ("Q_8xC_2xC_2xC_2", "DQ_8xC_4"),
    ("SD_8xC_2xC_2", "DQ_16xC_2"),
]


def test_pruned_search_keeps_the_mapping():
    # candidates are tried in ascending order either way, and an isomorphism
    # is injective and keeps centraliser orders, so pruning on them finds the
    # mapping that element orders alone find
    pairs = [(G, relabelled_group(G, seed)) for seed, G in enumerate(CATALOG) if G.order <= 32]
    for G, H in pairs:
        assert is_isomorphic(G, H) == first_isomorphism_by_element_orders(G, H)
        assert is_isomorphic(H, G) == first_isomorphism_by_element_orders(H, G)
    # a map that respects each assigned generator on their whole span is a
    # homomorphism there, so walking the span accepts the maps that closing
    # every pair of products accepts, and the search returns the same value
    named = {
        name: build()
        for order in range(1, 65)
        for name, _, build in families.nonabelian_catalog(order)
    }
    assert len(named) == 120
    twins = [(named[a], named[b]) for a, b in FINGERPRINT_TWINS]
    pairs = [(G, relabelled_group(G, seed)) for seed, G in enumerate(named.values())]
    pairs.append((families.dihedral(420), relabelled_group(families.dihedral(420), 420)))
    for G, H in pairs + twins:
        for A, B in ((G, H), (H, G)):
            phi = is_isomorphic(A, B)
            assert phi == pairwise_isomorphism(A, B)
            assert (phi is None) == ((G, H) in twins)


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


def test_direct_product_matches_cell_formula():
    small = [G for _, G in families.catalog_groups(8)]
    for G in small:
        for H in small:
            P, nb = direct_product(G, H), H.order
            tg, th = cayley_table(G), cayley_table(H)
            assert cayley_table(P) == tuple(
                tuple(
                    tg[a1][a2] * nb + th[b1][b2]
                    for a2 in range(G.order)
                    for b2 in range(nb)
                )
                for a1 in range(G.order)
                for b1 in range(nb)
            )


def test_direct_product_structure():
    G = direct_product(families.cyclic(3), families.cyclic(5))
    assert identify(G).name == "C_15"
    H = direct_product(families.dihedral(3), families.cyclic(4))
    assert H.order == 24
    assert identify(H).name == "D_3xC_4"


def test_direct_product_past_the_table_cap_builds_nothing(monkeypatch):
    G, H = families.cyclic(65), families.cyclic(64)
    from cayleykit import groups

    monkeypatch.setattr(groups, "_spanning_tree", lambda columns: pytest.fail("a group was built"))
    with pytest.raises(CapExceeded) as err:
        direct_product(G, H)
    assert str(err.value) == f"table cap {MAX_TABLE_CELLS} cells exceeded (order 4160)"
    assert err.value.cosets_defined == 4160


# --- the library's invariants against their pairwise definitions -------------
#
# The library reads every invariant off a generating subset of the action's
# columns and the cached element orders.  These reference versions scan all
# elements or all pairs, and keep generators by subgroup closure, as the
# textbook definitions do; on every group they must give the same answers.


def oracle_generators(G):
    """Each generator of G's action, col[0], that lies outside the subgroup
    the ones kept before it generate."""
    gens: list[int] = []
    span = {0}
    for col in G._columns:
        if col[0] not in span:
            gens.append(col[0])
            span = set(subgroup_closure(G, gens).members)
    return gens


def inverses(t):
    """Each element's inverse, read off a table's rows."""
    return tuple(row.index(0) for row in t)


def oracle_is_abelian(G):
    t = cayley_table(G)
    return all(t[a][b] == t[b][a] for a in range(G.order) for b in range(G.order))


def oracle_center(G):
    t = cayley_table(G)
    n = G.order
    return tuple(z for z in range(n) if all(t[z][g] == t[g][z] for g in range(n)))


def oracle_derived_subgroup(G):
    t, n = cayley_table(G), G.order
    inv = inverses(t)
    comms = {t[t[inv[a]][inv[b]]][t[a][b]] for a in range(n) for b in range(n)}
    return subgroup_closure(G, comms | {0}).members


def oracle_abelian_invariants(G):
    # quotient by a cyclic subgroup of largest order, again and again
    factors = []
    H = G
    while H.order > 1:
        t = cayley_table(H)
        orders = [order_by_walk(t, g) for g in range(H.order)]
        m = max(orders)
        factors.append(m)
        H = quotient(H, subgroup_closure(H, (orders.index(m),)))
    return factors


def oracle_centralizer_orders(G):
    t = cayley_table(G)
    return tuple(
        sum(t[g][x] == t[x][g] for x in range(G.order)) for g in range(G.order)
    )


def order_by_walk(t, g):
    """The order of g, by walking its powers in table t until the identity."""
    x, m = g, 1
    while x != 0:
        x = t[x][g]
        m += 1
    return m


def assert_invariants_match_oracle(G):
    t = cayley_table(G)
    orders = [order_by_walk(t, g) for g in range(G.order)]
    abelian = oracle_is_abelian(G)
    assert G.is_abelian() == abelian
    assert center(G).members == oracle_center(G)
    assert derived_subgroup(G).members == oracle_derived_subgroup(G)
    assert G.fingerprint() == Fingerprint(
        order=G.order,
        abelian=abelian,
        exponent=lcm(*orders),
        order_histogram=tuple(sorted(Counter(orders).items())),
        center_order=len(oracle_center(G)),
        derived_order=len(oracle_derived_subgroup(G)),
    )
    if abelian:
        assert abelian_invariants(G) == oracle_abelian_invariants(G)
    # is_isomorphic backtracks over these generators, pruned by the element
    # and centraliser orders, so equal generators and orders mean equal mappings
    assert [col[0] for _, col, _ in _generating_subset(G)] == oracle_generators(G)
    assert G.element_orders() is G.element_orders()
    assert list(G.element_orders()) == orders
    assert G.centralizer_orders() is G.centralizer_orders()
    assert G.centralizer_orders() == oracle_centralizer_orders(G)


CATALOG = [G for _, G in families.catalog_groups(64)]


# S_4, A_4 (twice) and A_5: the commutators of their two generators generate
# a proper subgroup of the derived subgroup, which only conjugates complete
COMMUTATORS_NEED_CONJUGATES = [
    "<a,b | a^4, b^2, (a b)^3>",
    "<a,b | a^3, b^2, (a b)^3>",
    "<a,b | a^3, b^3, (a b)^2>",
    "<a,b | a^5, b^2, (a b)^3>",
]


def test_catalog_invariants_match_pairwise_definitions():
    presented = [
        group_from_presentation(parse_presentation(text))
        for text in COMMUTATORS_NEED_CONJUGATES
    ]
    for G in CATALOG + presented:
        assert_invariants_match_oracle(G)


LETTERS = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))
WORDS = st.lists(st.lists(LETTERS, min_size=1, max_size=6), min_size=1, max_size=3)


@st.composite
def coset_tables(draw):
    # random relators on two powers mostly collapse to orders 1-6, so most
    # draws are split metacyclic groups C_m : C_k of order up to 200.  About
    # one draw in ten is non-abelian of order 65-200 (18, 21 and 27 of 200 in
    # three runs with no example database); alone, the random relators
    # reached no order above 6 in 100 draws.  Some draws (12 of 150 in one
    # run) are S_4 or A_4 on two generators times C_k, k <= 4, whose
    # generators' commutators close to a normal subgroup only with conjugations
    if draw(st.integers(0, 4)) == 4:
        text = draw(st.sampled_from(COMMUTATORS_NEED_CONJUGATES[:3]))
        commuting = f"c^{draw(st.integers(1, 4))}, a^-1 c^-1 a c, b^-1 c^-1 b c>"
        text = text.replace("<a,b |", "<a,b,c |").replace(">", ", " + commuting)
        return todd_coxeter(parse_presentation(text), max_cosets=2000)
    if draw(st.integers(0, 3)):
        k = draw(st.integers(2, 6))
        m = draw(st.integers(2, 200 // k))
        # r = 1, the direct product, last: hypothesis favours the first
        r = draw(st.sampled_from([r for r in range(2, m) if pow(r, k, m) == 1] + [1]))
        # <a, b | a^m, b^k, b^-1 a b a^-r>, of order m k since r^k = 1 mod m
        relators = ((0, 1),) * m, ((1, 1),) * k, ((1, -1), (0, 1), (1, 1)) + ((0, -1),) * r
    else:
        powers = [[(0, 1)] * draw(st.integers(2, 6)), [(1, 1)] * draw(st.integers(2, 6))]
        words = powers + draw(WORDS)
        relators = tuple(r for r in (free_reduce(tuple(w)) for w in words) if r)
    try:
        return todd_coxeter(Presentation(("a", "b"), relators), max_cosets=2000)
    except CapExceeded:
        assume(False)


@st.composite
def presented_groups(draw):
    return group_from_coset_table(draw(coset_tables()))


@st.composite
def subgroups_and_quotients(draw):
    # no recorded generators (as_group), or only the images of G's (quotient)
    G = draw(st.one_of(st.sampled_from(CATALOG), presented_groups()))
    seed = draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
    if draw(st.booleans()):
        return subgroup_closure(G, seed).as_group()
    return quotient(G, normal_closure(G, seed))


def shuffled_text(G, order):
    """G's table as text, its rows and columns listed in ``order``."""
    t = cayley_table(G)
    lines = [" ".join(f"g{b}" for b in order)]
    lines += [" ".join(f"g{t[a][b]}" for b in order) for a in order]
    return "\n".join(lines)


@st.composite
def shuffled_tables(draw):
    # the same group read back from text whose rows and columns are permuted,
    # the identity anywhere, through the table validator
    G = draw(st.sampled_from(CATALOG))
    order = draw(st.permutations(range(G.order)))
    return group_from_table(parse_table(shuffled_text(G, order))).group


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CATALOG), st.randoms(use_true_random=False))
def test_shuffled_catalog_tables_keep_their_name_and_fingerprint(G, rng):
    # the validator renumbers the symbols so that the identity, at a random
    # row, becomes element 0
    order = list(range(G.order))
    rng.shuffle(order)
    result = group_from_table(parse_table(shuffled_text(G, order)))
    assert result.ok and result.identity == "g0"
    assert result.group.element_names[0] == "g0"
    assert result.identification == identify(G)
    assert result.group.fingerprint() == G.fingerprint()


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from(CATALOG),
        presented_groups(),
        subgroups_and_quotients(),
        shuffled_tables(),
    )
)
def test_invariants_match_pairwise_definitions(G):
    assert_invariants_match_oracle(G)


@settings(max_examples=100, deadline=None)
@given(presented_groups(), st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
def test_normal_closures_match_conjugation_by_every_element(G, seed):
    # normal_closure and is_normal take the same conjugations as
    # derived_subgroup; here against all n conjugates of each element
    seed = [x % G.order for x in seed]
    N = normal_closure(G, seed)
    assert N == conjugation_normal_closure(G, seed)
    assert is_normal(G, N)
    H = subgroup_closure(G, seed)
    t = cayley_table(G)
    inv = inverses(t)
    members = set(H.members)
    normal = all(t[t[g][h]][inv[g]] in members for g in range(G.order) for h in H.members)
    assert is_normal(G, H) == normal


def peak_bytes(build):
    """(build(), the peak of the memory it traced)."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_subgroups_and_quotients_of_large_groups_read_no_table():
    # as_group, normal_closure and quotient walk the action of D_2048, in
    # well under 4 MB: its 4096 x 4096 table alone would take about 130 MB
    D = families.dihedral(2048)
    f = dict(D.generators)["f"]
    Z = center(D)
    H, peak_h = peak_bytes(lambda: subgroup_closure(D, (f,)).as_group())
    N, peak_n = peak_bytes(lambda: normal_closure(D, Z.members[1:]))
    Q, peak_q = peak_bytes(lambda: quotient(D, Z))
    assert max(peak_h, peak_n, peak_q) < 4 * 2**20
    assert_invariants_match_oracle(H)
    assert H.order == 2 and N == Z == subgroup_closure(D, Z.members)
    assert Z.order == 2 and D.element_orders()[Z.members[1]] == 2
    assert Q.fingerprint() == families.dihedral(1024).fingerprint()
    assert is_isomorphic(Q, families.dihedral(1024)) is not None


# --- subgroups by cyclic extension, against pairwise joins ----------------------


def pairwise_subgroups(G):
    """Every subgroup's members, sorted by (order, members): the cyclic
    subgroups, closed by joining every pair found, round after round."""
    found = {subgroup_closure(G, (g,)).members for g in range(G.order)}
    while True:
        new = set()
        for a, b in combinations(sorted(found), 2):
            if set(a) <= set(b) or set(b) <= set(a):
                continue
            joined = subgroup_closure(G, set(a) | set(b)).members
            if joined not in found:
                new.add(joined)
        if not new:
            return sorted(found, key=lambda m: (len(m), m))
        found |= new


def test_subgroups_match_pairwise_joins():
    # C_2^5 is left out: pairwise joins alone take seconds on its 374
    # subgroups; test_enumerate_subgroups_counts checks its count
    small = [G for name, G in families.catalog_groups(32) if name != "C_2xC_2xC_2xC_2xC_2"]
    presented = [
        group_from_presentation(parse_presentation(text))
        for text in COMMUTATORS_NEED_CONJUGATES
    ]
    assert len(small) == 96
    for G in small + presented:
        assert [s.members for s in enumerate_subgroups(G)] == pairwise_subgroups(G)


@settings(max_examples=100, deadline=None)
@given(presented_groups())
def test_subgroups_match_pairwise_joins_on_presented_groups(G):
    assume(G.order <= 64)
    assert [s.members for s in enumerate_subgroups(G)] == pairwise_subgroups(G)


# --- building a group from an action, against the direct definitions ----------
#
# group_from_action composes each row from its BFS parent's row and a
# generator's left multiplication, group_from_coset_table grows each label
# from its parent's, and element_orders walks each cyclic subgroup once.
# These reference versions compose right-multiplication maps and transpose
# them, render each element's whole BFS word, and walk every element's powers.


def oracle_table(columns):
    n = len(columns[0])
    right = [None] * n
    right[0] = list(range(n))
    reached = [0]
    for y in reached:
        for col in columns:
            z = col[y]
            if right[z] is None:
                right[z] = [col[v] for v in right[y]]
                reached.append(z)
    return tuple(zip(*right))


def oracle_group_from_coset_table(table):
    """(table, labels, generators) relabelled by BFS words, as the library's."""
    words = {0: ()}
    bfs = [0]
    for old in bfs:
        for g, col in enumerate(table.forward):
            if col[old] not in words:
                words[col[old]] = words[old] + ((g, 1),)
                bfs.append(col[old])
    new = {old: k for k, old in enumerate(bfs)}
    succ = [[new[col[old]] for old in bfs] for col in table.forward]
    names = table.presentation.generators
    labels = tuple(label_word(words[old], names) for old in bfs)
    return oracle_table(succ), labels, tuple(zip(names, (col[0] for col in succ)))


def right_action(G):
    """The coset table of G over the trivial subgroup, one column per
    recorded generator; no relators, which the conversion never reads."""
    t = cayley_table(G)
    forward = tuple(tuple(t[x][g] for x in range(G.order)) for _, g in G.generators)
    names = tuple(name for name, _ in G.generators)
    return CosetTable(Presentation(names, ()), forward, G.order)


def assert_builders_match_oracle(table):
    G = group_from_coset_table(table)
    expected, labels, generators = oracle_group_from_coset_table(table)
    t = cayley_table(G)
    assert t == expected
    assert G.element_names == labels
    assert G.generators == generators
    columns = [[t[x][g] for x in range(G.order)] for _, g in G.generators]
    assert cayley_table(group_from_action(columns)) == oracle_table(columns) == t
    assert list(G.element_orders()) == [order_by_walk(t, g) for g in range(G.order)]


def test_builders_match_definitions_on_catalog_and_large_groups():
    large = [families.cyclic(600), families.dihedral(420)]
    for G in CATALOG + large:
        assert_builders_match_oracle(right_action(G))
    for text in ["<r | r^600>", "<r,f | r^420, f^2, (r f)^2>"]:
        assert_builders_match_oracle(todd_coxeter(parse_presentation(text)))


@settings(max_examples=100, deadline=None)
@given(coset_tables())
def test_builders_match_definitions_on_presented_groups(table):
    assert_builders_match_oracle(table)


def test_table_cap_admits_order_4096_only():
    cycle = lambda n: [[(x + 1) % n for x in range(n)]]
    largest = isqrt(MAX_TABLE_CELLS)
    assert group_from_action(cycle(largest)).order == largest
    with pytest.raises(CapExceeded) as err:
        group_from_action(cycle(largest + 1))
    assert str(err.value) == f"table cap {MAX_TABLE_CELLS} cells exceeded (order {largest + 1})"
