import pathlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from cayleykit import families
from cayleykit.groups import cayley_table, is_isomorphic, quotient, subgroup_closure
from cayleykit.tables import (
    FiniteTable,
    LatinViolation,
    TableError,
    _generating_sequence,
    _light_test,
    associativity_witness,
    group_from_table,
    identity_check,
    latin_check,
    parse_table,
    render_table,
)

DATA = pathlib.Path(__file__).parent / "data"

CYCLIC5 = parse_table((DATA / "latin_cyclic5.txt").read_text())
NONASSOC5 = parse_table((DATA / "latin_nonassoc5.txt").read_text())


def cells_of(t, x, y):
    return t.cells[x][y]


def table_from_group(G):
    return FiniteTable(tuple(G.name_of(i) for i in range(G.order)), cayley_table(G))


# --- parsing -------------------------------------------------------------------


def test_parse_five_by_five():
    assert CYCLIC5.order == 5
    assert CYCLIC5.symbols == ("e", "a", "b", "c", "d")
    assert CYCLIC5.cell_symbol(1, 1) == "c"


def test_parse_trivial_table():
    t = parse_table("e\ne\n")
    assert t.order == 1


def test_parse_rejects_unknown_symbol():
    with pytest.raises(TableError):
        parse_table("a b\na b\nb x\n")


def test_parse_rejects_ragged_rows():
    with pytest.raises(TableError, match="^row 0 has 3 cells, expected 2$"):
        parse_table("a b\na b b\nb a\n")
    with pytest.raises(TableError, match="^expected 2 rows, got 1$"):
        parse_table("a b\na b\n")


def test_parse_rejects_duplicate_header():
    with pytest.raises(TableError):
        parse_table("a a\na a\na a\n")


def test_comments_ignored():
    t = parse_table("# heading\ne a\n# body\ne a\na e\n")
    assert t.order == 2


def test_parser_skips_the_record_scan(monkeypatch):
    # every cell comes out of the header's index, so the parser checks the
    # shape only and never enters the constructor that range-scans the cells
    texts = [path.read_text() for path in sorted(DATA.glob("*.txt"))]
    texts.append(render_table(families.dihedral(100)))
    calls, new = [], FiniteTable.__new__
    monkeypatch.setattr(FiniteTable, "__new__", lambda cls, *a: calls.append(a) or new(cls, *a))
    tables = [parse_table(text) for text in texts]
    assert calls == [] and tables[-1].order == 200
    for t in tables:
        assert FiniteTable(*t) == t  # passes the scan it skips
    assert len(calls) == len(tables)


def test_constructor_refuses_cells_that_are_not_indices():
    # a symbol, None or a float is no index into the header
    for bad in ("a", None, 1.0):
        with pytest.raises(TableError, match=f"^cell value {bad!r} out of range in row 1$"):
            FiniteTable(("a", "b"), ((0, 1), (1, bad)))
    with pytest.raises(TableError, match="^cell value 'a' out of range in row 0$"):
        FiniteTable(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(TableError, match="^cell value 2 out of range in row 0$"):
        FiniteTable(("a", "b"), ((2, 1), (1, 0)))


# --- axiom checks ----------------------------------------------------------------


def test_latin_check_samples():
    assert latin_check(CYCLIC5) is None
    assert latin_check(NONASSOC5) is None
    broken = FiniteTable(("e", "a"), ((0, 0), (1, 0)))
    violation = latin_check(broken)
    assert violation is not None
    assert violation.kind == "row" and violation.index == 0 and violation.symbol == "e"


def test_latin_check_group_tables():
    for G in (families.dihedral(4), families.quaternion(8)):
        assert latin_check(table_from_group(G)) is None


def test_identity_check():
    assert identity_check(CYCLIC5) == "e"
    assert identity_check(NONASSOC5) == "e"
    # identity need not come first in the header
    shifted = parse_table("a b e\nb e a\ne a b\na b e\n")
    assert identity_check(shifted) == "e"


def test_no_two_sided_identity_found_by_search():
    # brute-force over row-permutation 3x3 Latin squares for one with no
    # two-sided identity, then confirm the check returns None
    found = None
    rows = list(permutations(range(3)))
    for r0 in rows:
        for r1 in rows:
            for r2 in rows:
                square = (r0, r1, r2)
                cols = list(zip(*square))
                if any(len(set(c)) != 3 for c in cols):
                    continue
                t = FiniteTable(("x", "y", "z"), square)
                if identity_check(t) is None:
                    found = t
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    assert identity_check(found) is None


def test_associativity_witness_samples():
    assert associativity_witness(CYCLIC5) is None
    witness = associativity_witness(NONASSOC5)
    assert witness == (1, 1, 2)  # lexicographically first failing triple
    x, y, z = witness
    t = NONASSOC5
    assert t.cells[t.cells[x][y]][z] != t.cells[x][t.cells[y][z]]


def test_nonassoc_sample_fails_on_named_triple():
    # (a*b)*d = c*d = a but a*(b*d) = a*c = d
    t = NONASSOC5
    a, b, c, d = (t.symbols.index(s) for s in "abcd")
    assert t.cells[a][b] == c
    assert t.cells[c][d] == a
    assert t.cells[b][d] == c
    assert t.cells[a][c] == d
    assert t.cells[t.cells[a][b]][d] != t.cells[a][t.cells[b][d]]


def test_group_tables_have_no_witness():
    for G in (families.dihedral(6), families.abelian([3, 3])):
        assert associativity_witness(table_from_group(G)) is None


# --- light's test ------------------------------------------------------------------


def test_light_agrees_on_samples():
    assert _light_test(CYCLIC5.cells, _generating_sequence(CYCLIC5.cells))
    assert not _light_test(NONASSOC5.cells, _generating_sequence(NONASSOC5.cells))
    for G in (families.dihedral(4), families.quaternion(8), families.cyclic(7)):
        cells = table_from_group(G).cells
        assert _light_test(cells, _generating_sequence(cells))


def test_light_agrees_on_fuzzed_perturbations():
    rng = random.Random(99)
    base = table_from_group(families.dihedral(5))
    for _ in range(40):
        t = intercalate_perturb(base, rng)
        if t is None:
            continue
        light = _light_test(t.cells, _generating_sequence(t.cells))
        assert light == (associativity_witness(t) is None)


def intercalate_perturb(t, rng):
    """Swap a random 2x2 Latin subsquare, keeping rows/columns Latin."""
    n = t.order
    cells = [list(row) for row in t.cells]
    for _ in range(200):
        r1, r2 = rng.sample(range(n), 2)
        c1, c2 = rng.sample(range(n), 2)
        if cells[r1][c1] == cells[r2][c2] and cells[r1][c2] == cells[r2][c1]:
            if cells[r1][c1] != cells[r1][c2]:
                cells[r1][c1], cells[r1][c2] = cells[r1][c2], cells[r1][c1]
                cells[r2][c1], cells[r2][c2] = cells[r2][c2], cells[r2][c1]
                return FiniteTable(t.symbols, tuple(tuple(r) for r in cells))
    return None


def first_witness_by_brute_force(t):
    n = t.order
    c = t.cells
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if c[c[x][y]][z] != c[x][c[y][z]]:
                    return (x, y, z)
    return None


@st.composite
def small_magmas(draw):
    n = draw(st.integers(1, 6))
    flat = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    rows = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
    return FiniteTable(tuple(f"s{i}" for i in range(n)), rows)


SMALL_GROUPS = [
    table_from_group(G)
    for G in (
        families.cyclic(6),
        families.dihedral(5),
        families.quaternion(8),
        families.abelian([2, 2, 2]),
        families.dihedral(6),
    )
]


@st.composite
def perturbed_group_tables(draw):
    """A small group table with up to two intercalate swaps, relabelled so
    the identity can sit anywhere."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    t = draw(st.sampled_from(SMALL_GROUPS))
    for _ in range(draw(st.integers(0, 2))):
        t = intercalate_perturb(t, rng) or t
    n = t.order
    p = list(range(n))
    rng.shuffle(p)
    cells = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cells[p[i]][p[j]] = p[t.cells[i][j]]
    return FiniteTable(t.symbols, tuple(map(tuple, cells)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_magmas(), perturbed_group_tables()))
def test_light_and_reported_witness_agree_with_full_scan(t):
    first = first_witness_by_brute_force(t)
    assert _light_test(t.cells, _generating_sequence(t.cells)) == (first is None)
    result = group_from_table(t)  # what check-table and identify --table report
    assert result.witness == first
    assert result.identity == identity_check(t)
    assert result.latin_violation == latin_check(t)
    if result.rejection is not None and result.rejection.witness is not None:
        assert result.rejection.witness == tuple(t.symbols[i] for i in first)
    if result.ok:
        assert first is None


def with_identity_first(t):
    """The table relabelled so that its two-sided identity, if any, is symbol 0."""
    e = identity_check(t)
    if e is None:
        return t
    swap = list(range(t.order))
    e = t.symbols.index(e)
    swap[0], swap[e] = e, 0
    cells = [[0] * t.order for _ in range(t.order)]
    for i, row in enumerate(t.cells):
        for j, x in enumerate(row):
            cells[swap[i]][swap[j]] = swap[x]
    return FiniteTable(t.symbols, tuple(map(tuple, cells)))


@st.composite
def unital_magmas(draw):
    """Symbol 0 a two-sided identity, every other product drawn at random: a
    few are associative without being Latin (monoids that are not groups)."""
    n = draw(st.integers(1, 4))
    rows = [list(range(n))]
    for i in range(1, n):
        rows.append([i] + draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1)))
    return FiniteTable(tuple(f"s{i}" for i in range(n)), tuple(map(tuple, rows)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_magmas(), unital_magmas(), perturbed_group_tables()))
def test_verdict_does_not_depend_on_where_the_identity_sits(t):
    # relabelling a table is an isomorphism of magmas: it keeps each axiom,
    # so the validator accepts the table iff it accepts its relabelling
    result, moved = group_from_table(t), group_from_table(with_identity_first(t))
    assert result.ok == moved.ok
    if result.ok:
        assert result.identification == moved.identification
        assert is_isomorphic(result.group, moved.group) is not None
    else:
        assert result.rejection.reason == moved.rejection.reason


# --- the Latin check against a per-cell reference scan --------------------------------


def latin_check_by_cell_scan(t):
    """First repeated symbol, rows top-down then columns left-right, cell by cell."""
    n = t.order
    for i in range(n):
        seen = set()
        for j in range(n):
            x = t.cells[i][j]
            if x in seen:
                return LatinViolation("row", i, t.symbols[x])
            seen.add(x)
    for j in range(n):
        seen = set()
        for i in range(n):
            x = t.cells[i][j]
            if x in seen:
                return LatinViolation("column", j, t.symbols[x])
            seen.add(x)
    return None


@st.composite
def magmas_with_repeats_in(draw, where):
    """An order 1-7 magma whose repeats lie in its rows only, its columns only,
    in both, or nowhere (a Latin square: a relabelled cyclic group table)."""
    n = draw(st.integers(1, 7))
    perm = st.permutations(range(n))
    if where == "rows":  # every column a permutation
        columns = [draw(perm) for _ in range(n)]
        rows = [[columns[j][i] for j in range(n)] for i in range(n)]
    elif where == "columns":  # every row a permutation
        rows = [draw(perm) for _ in range(n)]
    elif where == "both":
        line = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        rows = [draw(line) for _ in range(n)]
    else:
        p, r, c = draw(perm), draw(perm), draw(perm)
        rows = [[p[(r[i] + c[j]) % n] for j in range(n)] for i in range(n)]
    return FiniteTable(tuple(f"s{i}" for i in range(n)), tuple(map(tuple, rows)))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["rows", "columns", "both", "nowhere"]).flatmap(magmas_with_repeats_in))
def test_latin_check_matches_cell_scan(t):
    assert latin_check(t) == latin_check_by_cell_scan(t)


# --- group_from_table ---------------------------------------------------------------


def test_cyclic_sample_is_z5():
    result = group_from_table(CYCLIC5)
    assert result.ok
    assert result.identification.name == "C_5"
    assert is_isomorphic(result.group, families.cyclic(5)) is not None
    # the classic relabeling e=0, a=1, b=3, c=2, d=4 is a homomorphism
    relabel = {"e": 0, "a": 1, "b": 3, "c": 2, "d": 4}
    t = CYCLIC5
    for x in range(5):
        for y in range(5):
            lhs = relabel[t.symbols[t.cells[x][y]]]
            rhs = (relabel[t.symbols[x]] + relabel[t.symbols[y]]) % 5
            assert lhs == rhs


def test_nonassoc_sample_rejected_with_precheck_and_witness():
    result = group_from_table(NONASSOC5)
    assert not result.ok
    rejection = result.rejection
    assert rejection.reason == "associativity fails"
    assert rejection.precheck == "odd order with all elements self-inverse"
    assert rejection.witness == ("a", "a", "b")
    # the reported witness really fails
    t = NONASSOC5
    x, y, z = (t.symbols.index(s) for s in rejection.witness)
    assert t.cells[t.cells[x][y]][z] != t.cells[x][t.cells[y][z]]


def test_precheck_never_fires_on_trivial_group():
    t = parse_table("e\ne\n")
    result = group_from_table(t)
    assert result.ok
    assert result.identification.name == "C_1"


def test_rejection_on_latin_violation():
    broken = FiniteTable(("e", "a"), ((0, 0), (1, 0)))
    result = group_from_table(broken)
    assert not result.ok
    assert result.rejection.reason == "not a Latin square"


def test_non_latin_table_without_identity_is_not_a_latin_square():
    # the Latin property is checked first, so the table's first fault is its
    # repeated symbol, not its missing identity
    t = parse_table("e a\na a\ne e\n")
    assert identity_check(t) is None
    result = group_from_table(t)
    assert result.rejection.reason == "not a Latin square"
    assert result.rejection.describe() == "not a Latin square; row 0 repeats 'a'"


def test_rejection_without_identity():
    square = FiniteTable(("x", "y", "z"), ((1, 0, 2), (0, 2, 1), (2, 1, 0)))
    result = group_from_table(square)
    assert not result.ok
    assert result.rejection.reason == "no two-sided identity"


def test_round_trip_render_parse():
    for G in (families.dihedral(4), families.quaternion(16), families.abelian([4, 2])):
        result = group_from_table(parse_table(render_table(G)))
        assert result.ok
        assert is_isomorphic(result.group, G) is not None


def test_fuzzed_perturbations_detected():
    rng = random.Random(5)
    detected = 0
    base = table_from_group(families.dihedral(4))
    for _ in range(30):
        t = intercalate_perturb(base, rng)
        if t is None:
            continue
        result = group_from_table(t)
        if result.ok:
            continue
        detected += 1
        if result.rejection.witness:
            x, y, z = (t.symbols.index(s) for s in result.rejection.witness)
            assert t.cells[t.cells[x][y]][z] != t.cells[x][t.cells[y][z]]
    assert detected > 0


def test_lagrange_precheck_is_safe():
    # wherever the precheck would fire, the scan must find a witness
    rng = random.Random(17)
    base = table_from_group(families.cyclic(5))
    for _ in range(60):
        t = intercalate_perturb(base, rng)
        if t is None:
            continue
        e = identity_check(t)
        if e is None:
            continue
        ei = t.symbols.index(e)
        if all(t.cells[i][i] == ei for i in range(t.order)):
            assert associativity_witness(t) is not None


# --- quotient rendering ---------------------------------------------------------------


def quotient_by_central_involution(G):
    z = [g for g in range(1, G.order) if G.element_orders()[g] == 2]
    t = cayley_table(G)
    central = [g for g in z if all(t[g][h] == t[h][g] for h in range(G.order))]
    return subgroup_closure(G, central[:1])


def test_render_quotient_quaternion_eight():
    Q8 = families.quaternion(8)
    text = render_table(quotient(Q8, quotient_by_central_involution(Q8)))
    parsed = parse_table(text)
    assert parsed.order == 4
    result = group_from_table(parsed)
    assert result.ok
    assert result.identification.name == "C_2xC_2"


def test_render_quotient_quaternion_sixteen():
    Q16 = families.quaternion(16)
    text = render_table(quotient(Q16, quotient_by_central_involution(Q16)))
    parsed = parse_table(text)
    assert parsed.order == 8
    result = group_from_table(parsed)
    assert result.identification.name == "D_4"


def test_render_quotient_whole_group():
    from cayleykit.groups import Subgroup

    G = families.dihedral(3)
    text = render_table(quotient(G, Subgroup(G, tuple(range(G.order)))))
    assert parse_table(text).order == 1
