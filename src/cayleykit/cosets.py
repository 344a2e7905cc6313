"""Todd-Coxeter coset enumeration over the trivial subgroup.

HLT (Haselgrove-Leech-Trotter) order: for each live coset in turn, scan
every relator from it, filling the one gap a scan leaves with a deduction and
defining new cosets for longer gaps, then define its still-undefined entries.
Coincidences are merged with union-find, the lower coset surviving.

Enumeration stops early at the first complete table (no live row with an
undefined entry, no pending coincidence) on which every relator closes at
every coset: HLT would scan to the end from there without a definition or a
merge, so that table is the one it would return.  If that first complete
table fails the check, HLT goes on to the end.  Either way the returned table
has passed one relator check, run column by column on the compacted table,
which raises rather than asserts.

A single-letter power relator x^e with e > 2 is scanned only from cosets not
yet known to close it (for x^2, marking a 2-cycle costs what the one scan it
saves costs).  A scan of x^e that leaves no coincidence pending proves that
x^e closes on the whole x-cycle through its coset, so the cycle is marked and
its other cosets skip the scan: it would be a closed walk that defines and
merges nothing, so every table is the one a full scan gives.  The marks
survive later coincidences, since coincidence processing keeps every live
row's entries: a loop closed at c stays closed at rep(c).  (A live row's
entry is detached only as a back-reference to a dead row, and written again
in the same step.)  The same invariant keeps ``first_open`` monotone, so the
completeness checks of a run walk each row O(1) times.

The relator check traces each run x^e of a relator as one power of x's
column, built by repeated squaring and once per (letter, e) in a check, so a
long power costs O(index log e) rather than e passes over the cosets.  A
closed table keeps one column per generator, and x^-1's column is the
inverse of x's, so the check traces the columns the group is built from.

Coset 0 is the trivial subgroup's coset; a closed table's columns are
permutations that realize the right-regular action of the presented group, so
the row count is the group order.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby

from .groups import (
    MAX_TABLE_CELLS, CapExceeded, Group, GroupError, _inverse, _spanning_tree, check_table_cells,
)
from .words import Presentation, Word, format_word

__all__ = [
    "CapExceeded",
    "CosetTable",
    "todd_coxeter",
    "group_from_coset_table",
    "group_from_presentation",
]

DEFAULT_MAX_COSETS = 65536


class CosetTable(namedtuple("CosetTable", "presentation forward num_cosets")):
    """Closed coset table: one column per generator, ``forward[g][k]`` =
    k . g, each a permutation of the cosets."""

    __slots__ = ()

    def open_relator(self) -> tuple[Word, int] | None:
        """The first relator that fails to close and the first coset where it
        fails, or None.  Traces all cosets at once, one column power per run
        of one letter; an inverse letter's column is ``forward``'s inverse.
        Each inverse and each power is built once per check."""
        start = list(range(self.num_cosets))
        runs: dict[tuple[int, int, int], list[int] | tuple[int, ...]] = {}  # (gen, sign, e)
        for rel in self.presentation.relators:
            k = start
            for (gen, sign), run in groupby(rel):
                e = len(list(run))
                if (gen, sign, e) not in runs:
                    if (gen, sign, 1) not in runs:
                        col = self.forward[gen]
                        runs[gen, sign, 1] = col if sign > 0 else _inverse(col)
                    runs[gen, sign, e] = _power(runs[gen, sign, 1], e)
                perm = runs[gen, sign, e]
                k = [perm[x] for x in k]
            if k != start:
                return rel, next(x for x in start if k[x] != x)
        return None


def _power(col: tuple[int, ...], e: int) -> list[int] | tuple[int, ...]:
    """col applied e times, by repeated squaring: at most e - 1 passes over
    the cosets, and correct for any map, not only a permutation."""
    result, base = None, col
    while True:
        if e & 1:
            result = base if result is None else [base[x] for x in result]
        e >>= 1
        if not e:
            return result
        base = [base[x] for x in base]


class _Enumerator:
    def __init__(self, presentation: Presentation, max_cosets: int):
        self.pres = presentation
        self.max_cosets = max_cosets
        ngens = presentation.rank
        self.ncols = 2 * ngens
        # column 2g acts by generator g, column 2g+1 by its inverse (col ^ 1)
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.parent = [0]  # union-find over cosets
        self.queue: list[tuple[int, int]] = []  # pending coincidences
        # every live row below this index has all its entries defined
        self.first_open = 0
        self.relator_cols = [
            [2 * gen if sign > 0 else 2 * gen + 1 for gen, sign in rel]
            for rel in presentation.relators
        ]

    def rep(self, k: int) -> int:
        parent = self.parent
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    def define(self, alpha: int, col: int) -> int:
        if len(self.table) >= self.max_cosets:
            live = sum(1 for i, p in enumerate(self.parent) if p == i)
            raise CapExceeded(
                f"coset cap {self.max_cosets} exceeded ({live} live cosets)", live
            )
        beta = len(self.table)
        row: list[int | None] = [None] * self.ncols
        row[col ^ 1] = alpha
        self.table.append(row)
        self.parent.append(beta)
        self.table[alpha][col] = beta
        return beta

    def merge(self, a: int, b: int):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.parent[b] = a
        self.queue.append((a, b))

    def process_coincidences(self):
        table, queue, rep = self.table, self.queue, self.rep
        while queue:
            live, dead = queue.pop()
            live = rep(live)
            for col, delta in enumerate(table[dead]):
                if delta is None:
                    continue
                inv = col ^ 1
                # detach the back-reference before re-attaching
                if table[delta][inv] == dead:
                    table[delta][inv] = None
                delta = rep(delta)
                mu = rep(live)
                existing = table[mu][col]
                if existing is not None:
                    self.merge(existing, delta)
                    # mu.col = existing ~ delta, so delta's class maps back to mu;
                    # restore the detached back-reference on the survivor
                    survivor = rep(delta)
                    if table[survivor][inv] is None:
                        table[survivor][inv] = mu
                else:
                    table[mu][col] = delta
                    back = table[delta][inv]
                    if back is None:
                        table[delta][inv] = mu
                    else:
                        self.merge(back, mu)

    def scan_and_fill(self, alpha: int, cols: list[int]):
        # table entries can reference merged-away cosets, so resolve on read
        table, parent, rep = self.table, self.parent, self.rep
        front, back = alpha, alpha
        i, j = 0, len(cols) - 1
        while True:
            # scan forward as far as the table is defined
            while i <= j:
                nxt = table[front][cols[i]]
                if nxt is None:
                    break
                front = nxt if parent[nxt] == nxt else rep(nxt)
                i += 1
            if i > j:
                if front != back:
                    self.merge(front, back)
                return
            # scan backward through inverse entries
            while j >= i:
                prv = table[back][cols[j] ^ 1]
                if prv is None:
                    break
                back = prv if parent[prv] == prv else rep(prv)
                j -= 1
            if j < i:
                self.merge(front, back)
                return
            if i == j:
                # one gap: a deduction closes the scan
                col = cols[i]
                table[front][col] = back
                other = table[back][col ^ 1]
                if other is None:
                    table[back][col ^ 1] = front
                elif other != front:
                    self.merge(other, front)
                return
            front = self.define(front, cols[i])
            i += 1

    def mark_cycle(self, alpha: int, col: int, done: set[int]):
        # a scan of x^e at alpha left no coincidence, so x^e closes at alpha
        # and at every coset of alpha's x-cycle
        table, parent = self.table, self.parent
        k = alpha
        while k not in done:
            done.add(k)
            k = table[k][col]
            if parent[k] != k:
                k = self.rep(k)

    def is_complete(self) -> bool:
        """True when no live row has an undefined entry."""
        table, parent = self.table, self.parent
        k = self.first_open
        while k < len(table) and (parent[k] != k or None not in table[k]):
            k += 1
        self.first_open = k
        return k == len(table)

    def run(self) -> CosetTable:
        table, parent, queue = self.table, self.parent, self.queue
        early_check = True
        # each relator's columns and, for a single-letter power x^e with
        # e > 2, the cosets where its scan would be a closed walk (see the
        # module docstring)
        scans = []
        for cols in self.relator_cols:
            power = len(cols) > 2 and cols.count(cols[0]) == len(cols)
            scans.append((cols, set() if power else None))
        alpha = 0
        while alpha < len(table):
            if parent[alpha] != alpha:
                alpha += 1
                continue
            for cols, done in scans:
                if done is not None and alpha in done:
                    continue
                self.scan_and_fill(alpha, cols)
                if queue:
                    self.process_coincidences()
                elif done is not None:
                    self.mark_cycle(alpha, cols[0], done)
                if parent[alpha] != alpha:
                    break
            if parent[alpha] == alpha:
                row = table[alpha]
                for col in range(self.ncols):
                    if row[col] is None:
                        self.define(alpha, col)
            alpha += 1
            # a complete table on which every relator closes is final: HLT
            # would scan every row to the end without a definition or merge
            if early_check and self.is_complete():
                early_check = False
                closed = self._compact()
                if closed.open_relator() is None:
                    return closed
        closed = self._compact()
        failure = closed.open_relator()
        if failure is not None:
            rel, coset = failure
            raise RuntimeError(
                f"coset table does not close relator "
                f"{format_word(rel, self.pres.generators)} at coset {coset}"
            )
        return closed

    def _compact(self) -> CosetTable:
        rep = self.rep
        live = [k for k, p in enumerate(self.parent) if p == k]
        new_index = {old: new for new, old in enumerate(live)}
        rows = [self.table[k] for k in live]
        forward = tuple(
            tuple(new_index[rep(row[col])] for row in rows) for col in range(0, self.ncols, 2)
        )
        return CosetTable(self.pres, forward, len(live))


def todd_coxeter(
    presentation: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> CosetTable:
    """Enumerate cosets of the trivial subgroup; raise CapExceeded on overflow.

    The returned table is checked: every relator closes at every coset."""
    check_max_cosets(max_cosets, presentation.rank)
    return _Enumerator(presentation, max_cosets).run()


def check_max_cosets(max_cosets: int, rank: int):
    """Raise ValueError unless 1 <= max_cosets <= MAX_TABLE_CELLS // (2 * max(rank, 8)):
    a coset table with more rows would hold more cells than a group table may.
    A row's list costs ~125 bytes besides ~15 per generator, so it is charged
    as at least 16 cells: counted by cells alone, fewer than 8 generators
    would admit more rows than fit in memory."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    ceiling = MAX_TABLE_CELLS // (2 * max(rank, 8))
    if max_cosets > ceiling:
        raise ValueError(f"max_cosets must be at most {ceiling} for {rank} generators")


def group_from_coset_table(table: CosetTable) -> Group:
    """Turn a closed coset table into an explicit Group.

    Elements are relabeled by BFS from coset 0 over the generator columns in
    declared order, so element order, names, and tables are reproducible.
    Each element is named by its BFS word as ``words.label_word`` renders
    it, grown from its parent's name: the word's last run of one generator
    either gains a letter or starts after the parent's whole name.
    """
    n = table.num_cosets
    check_table_cells(n)
    names = table.presentation.generators
    tree = _spanning_tree(table.forward)
    if len(tree) != n - 1:
        raise GroupError(f"coset table is not transitive: {len(tree) + 1} of {n} reached")
    bfs = [0] + [x for x, _, _ in tree]
    order_of = [0] * n  # old coset -> new element index
    for i, old in enumerate(bfs):
        order_of[old] = i
    # relabelled, the BFS visits the elements 0, 1, 2, ... in the same order,
    # so this is the new columns' own tree
    tree = [(i, order_of[parent], g) for i, (_, parent, g) in enumerate(tree, 1)]
    labels = ["1"]
    stems = [""]  # label up to the last run, with its "*"
    runs = [(-1, 0)]  # last run of the BFS word: (generator, exponent)
    for _, head, g in tree:
        last, exp = runs[head]
        if last == g:
            stem, exp = stems[head], exp + 1
        else:
            stem, exp = (labels[head] + "*" if head else ""), 1
        stems.append(stem)
        runs.append((g, exp))
        labels.append(stem + names[g] if exp == 1 else f"{stem}{names[g]}^{exp}")

    succ = [[order_of[col[old]] for old in bfs] for col in table.forward]
    generators = tuple((name, succ[g][0]) for g, name in enumerate(names))
    return Group(succ, tree, labels, generators)


def group_from_presentation(
    presentation: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> Group:
    """Convenience: enumerate and convert in one step."""
    return group_from_coset_table(todd_coxeter(presentation, max_cosets))
