import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cayleykit import cosets, families
from cayleykit.cosets import (
    CapExceeded,
    group_from_coset_table,
    group_from_presentation,
    todd_coxeter,
)
from cayleykit.graphs import (
    ColoredDigraph,
    EdgeColor,
    build_cayley_graph,
    extract_presentation,
)
from cayleykit.groups import _inverse, cayley_table, identify
from cayleykit.words import Presentation, free_reduce, parse_presentation

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def enumerate_text(text, max_cosets=65536):
    return todd_coxeter(parse_presentation(text), max_cosets)


def trace(table, start, word):
    """The coset that ``word`` takes coset ``start`` to, one letter at a time;
    an inverse letter steps back along its generator's column."""
    k = start
    for gen, sign in word:
        col = table.forward[gen]
        k = col[k] if sign > 0 else col.index(k)
    return k


def test_dihedral_closes_at_eight():
    table = enumerate_text("<r,f | r^4=f^2=1, rfr=f>")
    assert table.num_cosets == 8


def test_order_two():
    assert enumerate_text("<s | s^2>").num_cosets == 2


def test_collapsing_presentation_closes_at_two():
    table = enumerate_text("<r,s | r^5=s^2=1, r^3s=sr, srs=r^2>")
    assert table.num_cosets == 2


def test_trivial_presentation():
    table = enumerate_text("<r | r>")
    assert table.num_cosets == 1
    assert group_from_coset_table(table).order == 1


def test_twisted_sixteen():
    # srs = r^3 applied twice forces r = r^9, so r^8 = 1 and the group
    # has order 16; frozen against the affine model x -> 3x + b on Z_8
    G = group_from_presentation(
        parse_presentation("<r,s | r^16=s^2=1, s r s=r^3>")
    )
    assert G.order == 16
    assert identify(G).name == "SD_8"


def test_relators_trace_home_from_every_coset():
    texts = [
        "<r,f | r^4=f^2=1, rfr=f>",
        "<r,s | r^8=1, s^2=r^4, s^-1 r s=r^-1>",
        "<r,s | r^16=s^2=1, s r s=r^9>",
        "<a,b | a^6, b^4, a b a^-1 b^-1>",
    ]
    for text in texts:
        p = parse_presentation(text)
        table = todd_coxeter(p)
        for rel in p.relators:
            for k in range(table.num_cosets):
                assert trace(table, k, rel) == k


def test_columns_are_permutations():
    # one column per generator; the inverse columns HLT filled in are the
    # inverses of these (CheckedEnumerator asserts it at every compaction)
    p = parse_presentation("<r,s | r^8=1, s^2=r^4, s^-1 r s=r^-1>")
    table = checked_todd_coxeter(p, 65536)
    assert table._fields == ("presentation", "forward", "num_cosets")
    n = table.num_cosets
    assert len(table.forward) == 2
    for col in table.forward:
        assert sorted(col) == list(range(n))


def test_enumeration_is_deterministic():
    a = enumerate_text("<r,s | r^16=s^2=1, s r s=r^9>")
    b = enumerate_text("<r,s | r^16=s^2=1, s r s=r^9>")
    assert a.forward == b.forward
    assert a == b


def test_group_table_is_reproducible_and_verified():
    G = group_from_presentation(parse_presentation("<r,f | r^6=f^2=1, rfr=f>"))
    H = group_from_presentation(parse_presentation("<r,f | r^6=f^2=1, rfr=f>"))
    assert cayley_table(G) == cayley_table(H)
    assert G.element_names == H.element_names
    assert G.element_names[0] == "1"
    assert dict(G.generators).keys() == {"r", "f"}


def test_generator_assignment_satisfies_relators():
    p = parse_presentation("<r,s | r^12=s^2=1, s r s=r^5>")
    G = group_from_presentation(p)
    assignment = {i: el for i, (_, el) in enumerate(G.generators)}
    t = cayley_table(G)
    inverse = [row.index(0) for row in t]
    for rel in p.relators:
        value = 0
        for gen, sign in rel:
            el = assignment[gen]
            value = t[value][el if sign > 0 else inverse[el]]
        assert value == 0


def test_cap_exceeded_reports_count():
    with pytest.raises(CapExceeded) as err:
        enumerate_text("<r,f | r^4=f^2=1, rfr=f>", max_cosets=4)
    assert err.value.cosets_defined >= 1
    with pytest.raises(ValueError):
        enumerate_text("<s | s^2>", max_cosets=0)


def test_cap_ceiling_keeps_the_default_up_to_rank_128():
    # the ceiling is MAX_TABLE_CELLS // (2 * max(rank, 8)) = 2^24 // (2 * max(rank, 8))
    # cosets: a row is charged at least 16 cells, so 1 to 8 generators share one
    def trivial(rank):
        names = tuple(f"g{i}" for i in range(rank))
        return Presentation(names, tuple(((i, 1),) for i in range(rank)))

    assert todd_coxeter(trivial(128)).num_cosets == 1
    with pytest.raises(ValueError, match="at most 65027 for 129 generators"):
        todd_coxeter(trivial(129))
    for rank, ceiling in ((1, 1048576), (2, 1048576), (8, 1048576), (16, 524288)):
        assert todd_coxeter(trivial(rank), max_cosets=ceiling).num_cosets == 1
        with pytest.raises(ValueError, match=f"at most {ceiling} for {rank} generators"):
            todd_coxeter(trivial(rank), max_cosets=ceiling + 1)


def test_heavy_coincidence_collapse():
    # every relator pair here forces massive coset merging
    cases = {
        "<r,s | r^7=s^2=1, s r s=r^2>": 2,
        "<r,s | r^9=s^2=1, s r s=r^4>": 6,
        "<a,b | a^2, b^3, a b a b, a b^-1 a b>": 2,
    }
    for text, order in cases.items():
        assert group_from_presentation(parse_presentation(text)).order == order


def test_pauli_style_presentation_closes_at_sixteen():
    text = "<a,b,c | a^4=c^2=1, a^2=b^2, ab=ba, ac=ca, a^2b=cbc>"
    G = group_from_presentation(parse_presentation(text))
    assert G.order == 16
    assert identify(G).name == "DQ_8"


def test_triangle_style_presentations():
    # (2,3,n) presentations: orders 12, 24, 60 for n = 3, 4, 5
    for n, order in ((3, 12), (4, 24), (5, 60)):
        G = group_from_presentation(
            parse_presentation(f"<a,b | a^2, b^3, (a b)^{n}>")
        )
        assert G.order == order
    # the order-24 one is not in the identification catalog
    sym4 = group_from_presentation(parse_presentation("<a,b | a^2, b^3, (a b)^4>"))
    ident = identify(sym4)
    assert ident.name is None
    assert "order=24" in ident.describe()


def _closure_order(perms, limit):
    """Order of the group the permutations generate, or limit + 1 if larger."""
    identity = tuple(range(len(perms[0])))
    seen = {identity}
    frontier = [identity]
    while frontier and len(seen) <= limit:
        nxt = []
        for p in frontier:
            for g in perms:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return min(len(seen), limit + 1)


class CheckedEnumerator(cosets._Enumerator):
    """HLT as todd_coxeter runs it, checking the invariant that lets the
    completeness check walk each row O(1) times: every live row below
    first_open stays full through each coincidence pass, and first_open
    never decreases.  ``walked`` counts the rows is_complete looks at."""

    def __init__(self, presentation, max_cosets):
        super().__init__(presentation, max_cosets)
        self.walked = 0
        self.lowest_open = 0

    def check_first_open(self):
        assert self.first_open >= self.lowest_open
        self.lowest_open = self.first_open
        table, parent = self.table, self.parent
        for k in range(self.first_open):
            assert parent[k] != k or None not in table[k], k

    def process_coincidences(self):
        super().process_coincidences()
        self.check_first_open()

    def is_complete(self):
        self.check_first_open()
        start = self.first_open
        complete = super().is_complete()
        self.walked += self.first_open - start + (not complete)
        return complete

    def _compact(self):
        # the inverse entries HLT filled in, dropped as the table compacts,
        # are the inverses of its columns: so the relator check, which
        # derives them, traces what the enumeration built
        closed = super()._compact()
        live = [k for k, p in enumerate(self.parent) if p == k]
        number = {k: i for i, k in enumerate(live)}
        for g, col in enumerate(closed.forward):
            dropped = [number[self.rep(self.table[k][2 * g + 1])] for k in live]
            assert dropped == _inverse(col)
        return closed


def checked_todd_coxeter(presentation, max_cosets):
    """todd_coxeter's table or CapExceeded, from a CheckedEnumerator whose
    completeness check walked at most two rows per coset defined."""
    enumerator = CheckedEnumerator(presentation, max_cosets)
    try:
        return enumerator.run()
    finally:
        assert enumerator.walked <= 2 * len(enumerator.table)


LETTERS = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))
WORDS = st.lists(st.lists(LETTERS, min_size=1, max_size=6), min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), WORDS)
def test_random_presentations_close_or_hit_the_cap(i, j, words):
    # a^i and b^j keep many of these finite; the short words add collapses
    powers = [[(0, 1)] * i, [(1, 1)] * j]
    relators = tuple(r for r in (free_reduce(tuple(w)) for w in powers + words) if r)
    p = Presentation(("a", "b"), relators)
    try:
        table = checked_todd_coxeter(p, 200)
    except CapExceeded:
        return
    n = table.num_cosets
    for col in table.forward:
        assert sorted(col) == list(range(n))
    for rel in p.relators:
        for k in range(n):
            assert trace(table, k, rel) == k
    # the columns act regularly: the group they generate has one element per coset
    assert _closure_order(table.forward, n) == n


@pytest.mark.parametrize(
    "text, max_cosets, order",
    [
        ("<a,b | a^20, b^25, a b a^-1 b^-1>", 65536, 500),
        ("<a,b | a b a^-1 b^-1>", 3500, None),
        ("<r,s | s r^40 s^-1, r s^2 r^-1, s^-1 r s r s^-1 s, r^80, s r^40 s^-1>", 65536, 80),
        ("<a,b | a b a^-1 b^-2, b a b^-1 a^-2>", 65536, 1),
    ],
    ids=["abelian", "z2-capped", "conjugated-dihedral", "collapse"],
)
def test_first_open_is_monotone_and_the_completeness_walk_linear(text, max_cosets, order):
    try:
        num_cosets = checked_todd_coxeter(parse_presentation(text), max_cosets).num_cosets
    except CapExceeded:
        num_cosets = None
    assert num_cosets == order


def test_enumeration_resumes_when_first_complete_table_fails_check(monkeypatch):
    # D_4's Cayley graph with two rotation edges crossed over: its loop
    # relators collapse the presented group to order 2, and the first
    # complete table HLT reaches does not yet close every relator
    graph = build_cayley_graph(families.dihedral(4))
    colors = list(graph.colors)
    ci = next(i for i, c in enumerate(colors) if c.directed)
    edges = list(colors[ci].edges)
    (u, v), (x, y) = edges[1], edges[5]
    edges[1], edges[5] = (u, y), (x, v)
    colors[ci] = EdgeColor(colors[ci].name, True, tuple(edges))
    p = extract_presentation(ColoredDigraph(graph.node_count, tuple(colors)))

    checks = []
    open_relator = cosets.CosetTable.open_relator

    def spy(table):
        result = open_relator(table)
        checks.append(result is None)
        return result

    monkeypatch.setattr(cosets.CosetTable, "open_relator", spy)
    table = todd_coxeter(p)
    assert checks == [False, True]
    assert table.num_cosets == 2


def test_corrupted_table_is_rejected_under_optimize():
    # the closing check is a real exception, so python -O keeps it
    script = """
if __debug__:
    raise SystemExit("asserts are live: not running under -O")
from cayleykit import cosets
from cayleykit.words import parse_presentation

compact = cosets._Enumerator._compact

def corrupted(self):
    t = compact(self)
    fwd = list(t.forward[0])
    fwd[0], fwd[1] = fwd[1], fwd[0]
    return cosets.CosetTable(t.presentation, (tuple(fwd),) + t.forward[1:], t.num_cosets)

cosets._Enumerator._compact = corrupted
try:
    cosets.todd_coxeter(parse_presentation("<r,f | r^4=f^2=1, rfr=f>"))
except RuntimeError as exc:
    print(exc)
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.startswith("coset table does not close relator")


def reference_open_relator(table):
    """The relator check with one pass over all cosets per letter: the
    reference for the check that traces one column power per run.  An
    inverse letter's column is the inverse of its generator's, derived as
    the check derives it, so the two agree on maps that are not permutations."""
    start = list(range(table.num_cosets))
    inverses = [_inverse(col) for col in table.forward]
    for rel in table.presentation.relators:
        k = start
        for gen, sign in rel:
            col = table.forward[gen] if sign > 0 else inverses[gen]
            k = [col[x] for x in k]
        if k != start:
            return rel, next(x for x in start if k[x] != x)
    return None


class ReferenceEnumerator(cosets._Enumerator):
    """HLT that scans every relator at every live coset, with no skip of
    single-letter powers, checked by reference_open_relator."""

    def run(self):
        table, parent, queue = self.table, self.parent, self.queue
        early_check = True
        alpha = 0
        while alpha < len(table):
            if parent[alpha] != alpha:
                alpha += 1
                continue
            for cols in self.relator_cols:
                self.scan_and_fill(alpha, cols)
                if queue:
                    self.process_coincidences()
                if parent[alpha] != alpha:
                    break
            if parent[alpha] == alpha:
                row = table[alpha]
                for col in range(self.ncols):
                    if row[col] is None:
                        self.define(alpha, col)
            alpha += 1
            if early_check and self.is_complete():
                early_check = False
                closed = self._compact()
                if reference_open_relator(closed) is None:
                    return closed
        closed = self._compact()
        if reference_open_relator(closed) is not None:
            raise RuntimeError("coset table does not close")
        return closed


def enumerate_or_count(enumerate_with, presentation, max_cosets):
    """The closed table's columns, or the live-coset count of a cap hit."""
    try:
        table = enumerate_with(presentation, max_cosets)
    except CapExceeded as exc:
        return exc.cosets_defined
    return table.forward


RANK_LETTERS = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)))
RELATORS = st.one_of(
    # single-letter powers, long ones included
    st.builds(lambda letter, e: [letter] * e, RANK_LETTERS, st.integers(1, 40)),
    # proper powers (w)^k of a short word
    st.builds(
        lambda w, k: w * k, st.lists(RANK_LETTERS, min_size=2, max_size=3),
        st.integers(2, 8),
    ),
    # the twist s r s^-1 = r^k, which collapses for most k
    st.builds(
        lambda k: [(1, 1), (0, 1), (1, -1)] + [(0, -1)] * k, st.integers(0, 12)
    ),
    st.lists(RANK_LETTERS, min_size=1, max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.lists(RELATORS, min_size=1, max_size=4))
def test_power_skip_and_run_check_leave_tables_unchanged(rank, words):
    relators = tuple(
        r
        for r in (free_reduce(tuple((g % rank, s) for g, s in w)) for w in words)
        if r
    )
    if not relators:
        return
    p = Presentation(("a", "b", "c")[:rank], relators)
    expected = enumerate_or_count(
        lambda q, cap: ReferenceEnumerator(q, cap).run(), p, 300
    )
    assert enumerate_or_count(todd_coxeter, p, 300) == expected


CHECKED_PRESENTATIONS = [
    "<r,s | r^{m}, s^2, s r s r>",
    "<r,s | r^{m}, s^2 r^-{m}, s^-1 r s r>",
    "<r,s | r^{m}, s^2, s r s r^-3>",
    "<a,b | a^{m}, b^3, a b a^-1 b^-1>",
    "<a,b | a^2, b^2, (a b)^{m}>",
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(CHECKED_PRESENTATIONS), st.integers(2, 40), st.integers(0, 3),
    st.booleans(), st.data(),
)
def test_run_check_finds_the_same_failure_on_a_corrupted_column(
    text, m, which, swap, data
):
    table = todd_coxeter(parse_presentation(text.format(m=m)))
    n = table.num_cosets
    columns = list(table.forward)
    which %= len(columns)
    col = list(columns[which])
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    if swap:  # still a permutation, and so is its inverse, but not this group's
        col[i], col[j] = col[j], col[i]
    else:  # a map that is not a permutation unless j == col[i]
        col[i] = j
    columns[which] = tuple(col)
    corrupted = cosets.CosetTable(table.presentation, tuple(columns), n)
    assert corrupted.open_relator() == reference_open_relator(corrupted)


def test_inverse_letters_are_traced_on_the_inverse_column():
    # the check reads no column besides the generators': a relator with
    # inverse letters closes exactly where the group built from them obeys it
    p = parse_presentation("<a,b | a^-3, b^-1 a b a^-1>")
    cycle = cosets.CosetTable(p, ((1, 2, 0), (0, 1, 2)), 3)
    assert cycle.open_relator() is None
    swap = cosets.CosetTable(p, ((1, 0, 2), (0, 1, 2)), 3)
    assert swap.open_relator() == reference_open_relator(swap) == (p.relators[0], 0)
    conjugated = cosets.CosetTable(p, ((1, 2, 0), (0, 2, 1)), 3)
    assert conjugated.open_relator() == reference_open_relator(conjugated)
    assert conjugated.open_relator() == (p.relators[1], 0)


def test_single_letter_power_is_scanned_once_per_cycle(monkeypatch):
    # the scan of r^50 at coset 0 closes the r-cycle through it; the early
    # stop comes before any coset of the other r-cycle is reached
    scans = []
    scan_and_fill = cosets._Enumerator.scan_and_fill

    def spy(self, alpha, cols):
        if len(cols) == 50:
            scans.append(alpha)
        return scan_and_fill(self, alpha, cols)

    monkeypatch.setattr(cosets._Enumerator, "scan_and_fill", spy)
    assert enumerate_text("<r,s | r^50, s^2, s r s r>").num_cosets == 100
    assert scans == [0]


def test_corruption_inside_a_long_run_is_found_where_the_reference_finds_it():
    table = todd_coxeter(parse_presentation("<r,s | r^60, s^2, s r s r>"))
    r = list(table.forward[0])
    r[7], r[8] = r[8], r[7]
    corrupted = cosets.CosetTable(table.presentation, (tuple(r),) + table.forward[1:], 120)
    failure = corrupted.open_relator()
    assert failure is not None and failure == reference_open_relator(corrupted)
    assert failure[0] == ((0, 1),) * 60
