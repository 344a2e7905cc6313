"""Cayley-table and Latin-square ingestion, validation, and rendering.

Text format: a header line of whitespace-separated symbols, then n body rows
of n symbols; cell (i, j) is row-symbol-i times column-symbol-j.  Lines
starting with '#' are comments.

Each axiom is decided by one function: ``latin_check`` (the first repeat),
``identity_check`` (the two-sided identity) and Light's test (associativity),
with ``associativity_witness`` naming the first failing triple.
``group_from_table`` is the one validator of a table from outside: it calls
them, renumbers the symbols so the identity is element 0, and builds the
Group from the table's action through ``groups.group_from_action``.
"""

from __future__ import annotations

from collections import namedtuple

from .groups import Group, cayley_table, check_table_cells, group_from_action, identify

__all__ = [
    "TableError",
    "FiniteTable",
    "LatinViolation",
    "Rejection",
    "TableGroupResult",
    "parse_table",
    "render_table",
    "latin_check",
    "identity_check",
    "associativity_witness",
    "group_from_table",
]

LAGRANGE_PRECHECK = "odd order with all elements self-inverse"


class TableError(ValueError):
    pass


def _check_shape(symbols, cells) -> int:
    """n, once a table is checked to have n distinct symbols and n rows of n cells."""
    n = len(symbols)
    if n == 0:
        raise TableError("table needs at least one symbol")
    if len(set(symbols)) != n:
        raise TableError("duplicate header symbol")
    if len(cells) != n:
        raise TableError(f"expected {n} rows, got {len(cells)}")
    for i, row in enumerate(cells):
        if len(row) != n:
            raise TableError(f"row {i} has {len(row)} cells, expected {n}")
    return n


class FiniteTable(namedtuple("FiniteTable", "symbols cells")):
    """A square table: n distinct header symbols and n rows of n symbol
    indices, cell (i, j) being symbol i times symbol j; ``parse_table`` skips the cell scan."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, symbols: tuple[str, ...], cells: tuple[tuple[int, ...], ...]):
        n = _check_shape(symbols, cells)
        for i, row in enumerate(cells):
            for x in row:
                if not isinstance(x, int) or not 0 <= x < n:
                    raise TableError(f"cell value {x!r} out of range in row {i}")
        return super().__new__(cls, symbols, cells)

    @property
    def order(self) -> int:
        return len(self.symbols)

    def cell_symbol(self, i: int, j: int) -> str:
        return self.symbols[self.cells[i][j]]


def parse_table(text: str) -> FiniteTable:
    """The table a text holds; each cell is an index into the header, so only
    its shape is checked.  A header past the dense-table cap raises CapExceeded
    before any body row is split, and no row's strings outlive its mapping."""
    rows = (line.split() for line in text.splitlines())
    rows = (row for row in rows if row and not row[0].startswith("#"))
    symbols = tuple(next(rows, ()))
    if not symbols:
        raise TableError("no table content found")
    check_table_cells(len(symbols))
    index = {s: i for i, s in enumerate(symbols)}
    cells = []
    for i, row in enumerate(rows):
        try:
            cells.append(tuple(map(index.__getitem__, row)))
        except KeyError as missing:
            raise TableError(f"row {i} contains unknown symbol {missing.args[0]!r}") from None
    _check_shape(symbols, cells)
    return tuple.__new__(FiniteTable, (symbols, tuple(cells)))


def render_table(G: Group) -> str:
    names = [G.name_of(i) for i in range(G.order)]
    width = max(len(s) for s in names)
    lines = [" ".join(s.ljust(width) for s in names).rstrip()]
    for row in cayley_table(G):
        lines.append(" ".join(names[x].ljust(width) for x in row).rstrip())
    return "\n".join(lines) + "\n"


class LatinViolation(namedtuple("LatinViolation", "kind index symbol")):
    """The first repeat: ``kind`` "row" or "column", the line's index, and the
    symbol it repeats."""

    __slots__ = ()


def latin_check(t: FiniteTable) -> LatinViolation | None:
    """First repeated symbol, scanning rows top-down then columns left-right."""
    n = t.order
    for kind, lines in (("row", t.cells), ("column", zip(*t.cells))):
        for i, line in enumerate(lines):
            if len(set(line)) != n:
                x = next(x for j, x in enumerate(line) if x in line[:j])
                return LatinViolation(kind, i, t.symbols[x])
    return None


def identity_check(t: FiniteTable) -> str | None:
    """The least symbol whose row and column both reproduce the header, if any."""
    rows, header = t.cells, tuple(range(t.order))
    for e, row in enumerate(rows):
        if row == header and all(r[e] == i for i, r in enumerate(rows)):
            return t.symbols[e]
    return None


def _generating_sequence(rows, identity=None) -> list[int]:
    """Greedy generating sequence of a magma table: the least element not yet
    reached, until every element is.  Reached means a left-normed product of
    the sequence, or the two-sided identity when one is given."""
    n = len(rows)
    gens: list[int] = []
    seeds = [] if identity is None else [identity]
    span = set(seeds)
    while len(span) < n:
        gens.append(min(set(range(n)) - span))
        queue = seeds + gens
        span = set(queue)
        for x in queue:
            for y in map(rows[x].__getitem__, gens):
                if y not in span:
                    span.add(y)
                    queue.append(y)
    return gens


def _light_test(rows, gens) -> bool:
    """Light's associativity test: (x*g)*y == x*(g*y) for all x, y and each g
    of a generating sequence ``gens``.  It is exact for any magma, because the
    middle elements that pass form a submagma; the identity passes trivially."""
    return all([rx[v] for v in rows[g]] == list(rows[rx[g]]) for g in gens for rx in rows)


def associativity_witness(t: FiniteTable) -> tuple[int, int, int] | None:
    """Lexicographically first (x, y, z) with (x*y)*z != x*(y*z)."""
    rows = t.cells
    for x, rx in enumerate(rows):
        for y, ry in enumerate(rows):
            rxy = rows[rx[y]]
            if [rx[v] for v in ry] != list(rxy):
                return next((x, y, z) for z in range(t.order) if rxy[z] != rx[ry[z]])
    return None


class Rejection(namedtuple(
    "Rejection", "reason latin_violation witness precheck", defaults=(None, None, None)
)):
    """Why a table is not a group: the failed axiom, with its LatinViolation
    or its non-associative symbol triple, and the Lagrange precheck if it fired."""

    __slots__ = ()

    def describe(self) -> str:
        parts = [self.reason]
        if self.latin_violation:
            v = self.latin_violation
            parts.append(f"{v.kind} {v.index} repeats {v.symbol!r}")
        if self.precheck:
            parts.append(self.precheck)
        if self.witness:
            x, y, z = self.witness
            parts.append(f"({x}*{y})*{z} != {x}*({y}*{z})")
        return "; ".join(parts)


class TableGroupResult(namedtuple(
    "TableGroupResult",
    "group identification rejection latin_violation identity witness",
)):
    """The verdict on a table: its Group and Identification, or its
    Rejection; and what each axiom check found: the first Latin violation,
    the identity symbol, and the lexicographically first non-associative
    triple (None when the table is associative)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.group is not None


def group_from_table(t: FiniteTable) -> TableGroupResult:
    """Accept the table as a group iff all axioms verify; reject with the
    failed axiom and a concrete witness otherwise.

    This is the one way into a Group for a table from outside, and each
    axiom is checked once.  Light's test decides associativity; the O(n^3)
    scan runs only on rejection, to name the first failing triple.
    """
    violation = latin_check(t)
    identity = identity_check(t)
    e = None if identity is None else t.symbols.index(identity)
    gens = _generating_sequence(t.cells, e)
    witness = None if _light_test(t.cells, gens) else associativity_witness(t)
    rejection = _first_failed_axiom(t, violation, e, witness)
    if rejection is not None:
        return TableGroupResult(None, None, rejection, violation, identity, witness)
    # renumber so the identity is element 0, keeping the remaining symbol
    # order; the table's generating sequence acts on the new numbering
    new_order = [e] + [i for i in range(t.order) if i != e]
    pos = {old: new for new, old in enumerate(new_order)}
    columns = [[pos[t.cells[a][s]] for a in new_order] for s in gens]
    names = [t.symbols[i] for i in new_order]
    group = group_from_action(columns, element_names=names)
    return TableGroupResult(group, identify(group), None, violation, identity, witness)


def _first_failed_axiom(t: FiniteTable, violation, e, witness) -> Rejection | None:
    if violation is not None:
        return Rejection("not a Latin square", violation)
    if e is None:
        return Rejection("no two-sided identity")
    n = t.order
    precheck = None
    if n > 1 and n % 2 == 1 and all(t.cells[i][i] == e for i in range(n)):
        # Lagrange rules this out; the rejection still names a concrete witness.
        precheck = LAGRANGE_PRECHECK
    if witness is not None:
        x, y, z = witness
        return Rejection(
            "associativity fails",
            witness=(t.symbols[x], t.symbols[y], t.symbols[z]),
            precheck=precheck,
        )
    # an associative Latin square with an identity is a group: x*y = e
    # makes y*x idempotent, hence e, so inverses need no check of their own
    if precheck is not None:
        raise RuntimeError("precheck fired but the table is associative")
    return None
