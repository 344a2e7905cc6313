"""Explicit finite groups, their multiplication tables and structural queries.

Element 0 is always the identity.  A ``Group`` is built from the right
action of a generating set on its elements and is one by construction, so
its constructor checks no axiom: every group the program builds (from a
closed coset table, a matrix closure, a Cayley graph's colours, a quotient's
cosets, a direct product's pairs, a checked table's symbols or a subgroup's
members) comes through ``group_from_action``, or from the coset-table route
with that route's own BFS tree.  A table from outside enters through
``tables.group_from_table`` only, which checks every axiom.  The group is
only its action: left and right multiplications commute, so x -> g x is one
O(n) walk along the action's BFS tree (``_along``), and only the printer
draws an n x n table (``cayley_table``), of at most ``MAX_TABLE_CELLS``
cells; a larger group is refused with ``CapExceeded`` before it is built.

The fingerprint comes from the action: commuting generators, the centre, the
commutators' normal closure and the element orders, each read along a
generating subset of at most log2 n of the action's columns; the invariant
factors are read off the order histogram.  Maps, normality and quotients
read the same subset: ``is_normal`` conjugates by it, each normal closure is
one orbit walk, ``quotient`` acts by it on the cosets, and ``is_isomorphic``
walks the span of the generators it has mapped, since a map that respects
each generator there is a homomorphism.  Subgroups are spans (``_span``),
and ``enumerate_subgroups`` grows each subgroup found by one cyclic subgroup
at a time.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter

__all__ = [
    "CapExceeded",
    "GroupError",
    "Group",
    "group_from_action",
    "cayley_table",
    "check_table_cells",
    "MAX_TABLE_CELLS",
    "Subgroup",
    "Fingerprint",
    "Identification",
    "subgroup_closure",
    "center",
    "derived_subgroup",
    "is_normal",
    "normal_closure",
    "quotient",
    "enumerate_subgroups",
    "has_semidirect_decomposition",
    "is_isomorphic",
    "abelian_invariants",
    "abelian_name",
    "identify",
    "direct_product",
]

SUBGROUP_ENUM_LIMIT = 64
MAX_TABLE_CELLS = 2**24  # a dense table of order 4096


class GroupError(ValueError):
    pass


class CapExceeded(RuntimeError):
    """A size cap was hit before the work was done: coset enumeration, matrix
    closure or the dense table.  Says nothing about infiniteness.
    ``cosets_defined`` is the count (cosets, elements, order) it stopped at."""

    def __init__(self, message: str, cosets_defined: int):
        super().__init__(message)
        self.cosets_defined = cosets_defined


class Fingerprint(namedtuple(
    "Fingerprint",
    "order abelian exponent order_histogram center_order derived_order",
)):
    """Isomorphism invariants, compared before any isomorphism search:
    ``order_histogram`` holds (element order, count) pairs, ascending."""

    __slots__ = ()


class Group:
    """Finite group on the elements 0..n-1, kept only as the right action of
    a generating set: its columns and their BFS tree from 0.  The constructor
    takes the action, so a table from outside enters through
    ``tables.group_from_table``."""

    __slots__ = (
        "order", "element_names", "generators", "_columns", "_tree", "_subset",
        "_orders", "_centralizers", "_fp",
    )

    def __init__(self, columns, tree, element_names=None, generators=()):
        """The group acting regularly on 0..n-1 by ``columns``, with ``tree``
        their BFS tree from 0, as ``_spanning_tree`` gives it; no columns give
        the trivial group.  No axiom is checked: ``group_from_action`` checks
        that the action reaches every point."""
        n = len(columns[0]) if columns else 1
        self.order = n
        self._columns, self._tree = columns, tree
        if element_names is not None:
            names = tuple(str(x) for x in element_names)
            if len(names) != n or len(set(names)) != n:
                raise GroupError("element names must be unique and match the order")
            self.element_names = names
        else:
            self.element_names = None
        self.generators = tuple((str(name), int(el)) for name, el in generators)
        for _, el in self.generators:
            if not 0 <= el < n:
                raise GroupError("generator element out of range")
        self._subset = self._orders = self._centralizers = self._fp = None

    @property
    def identity(self) -> int:
        return 0

    def element_orders(self) -> tuple[int, ...]:
        """The order of each element and of its centraliser, on the first call only.

        In BFS order, each element x with no order yet walks its powers by
        its tree word; x^j has order m / gcd(j, m) for m the order of x, and
        each element so ordered passes its order on to its conjugacy class,
        its orbit under y -> s^-1 y s for the generators s of
        ``_generating_subset``, and c, its size, gives each a centraliser of n / c."""
        if self._orders is None:
            n = self.order
            link = {x: (y, k) for x, y, k in self._tree}
            conjugations = _conjugations(self)
            orders, centralizers = [0] * n, [0] * n
            for x in [0, *link]:
                if orders[x]:
                    continue
                word, y = [], x
                while y:
                    y, k = link[y]
                    word.append(self._columns[k])
                word.reverse()
                powers, p = [x], x
                while p:
                    for col in word:
                        p = col[p]
                    powers.append(p)
                m = len(powers)
                for j, z in enumerate(powers, 1):
                    if not orders[z]:  # then nor has its class: each is ordered whole
                        cls = _orbit(z, conjugations)
                        for w in cls:
                            orders[w], centralizers[w] = m // gcd(j, m), n // len(cls)
            self._orders, self._centralizers = tuple(orders), tuple(centralizers)
        return self._orders

    def centralizer_orders(self) -> tuple[int, ...]:
        """The order of each element's centraliser, n over the size of its
        conjugacy class, which ``element_orders`` walks."""
        self.element_orders()
        return self._centralizers

    def order_histogram(self) -> Counter[int]:
        return Counter(self.element_orders())

    def is_abelian(self) -> bool:
        """Whether the generators of ``_generating_subset`` commute: s t =
        L_s(t) against t s = R_s(t) for each pair s, t."""
        subset = _generating_subset(self)
        return all(
            left[t[0]] == col[t[0]] for (left, col, _), (_, t, _) in combinations(subset, 2)
        )

    def exponent(self) -> int:
        return lcm(*self.element_orders())

    def name_of(self, g: int) -> str:
        return self.element_names[g] if self.element_names else str(g)

    def fingerprint(self) -> Fingerprint:
        if self._fp is None:
            hist = tuple(sorted(self.order_histogram().items()))
            self._fp = Fingerprint(
                order=self.order,
                abelian=self.is_abelian(),
                exponent=self.exponent(),
                order_histogram=hist,
                center_order=len(center(self).members),
                derived_order=len(derived_subgroup(self).members),
            )
        return self._fp

    def __repr__(self):
        return f"Group(order={self.order})"


def check_table_cells(order: int):
    """Raise CapExceeded if an order-``order`` table exceeds MAX_TABLE_CELLS."""
    if order * order > MAX_TABLE_CELLS:
        raise CapExceeded(
            f"table cap {MAX_TABLE_CELLS} cells exceeded (order {order})", order
        )


def _spanning_tree(columns) -> list[tuple[int, int, int]]:
    """(x, parent, k) with x = parent * generator k, for each point x != 0
    that a BFS from 0 reaches, in BFS order; empty without columns."""
    seen = [True] + [False] * (len(columns[0]) - 1 if columns else 0)
    reached = [0]
    tree = []
    for y in reached:  # a BFS queue, appended to while walked
        for k, col in enumerate(columns):
            z = col[y]
            if not seen[z]:
                seen[z] = True
                reached.append(z)
                tree.append((z, y, k))
    return tree


def _along(maps, tree, start) -> list[int]:
    """The map f with f(0) = start that commutes with ``maps``, walked along
    their BFS ``tree``: f(x) = maps[k](f(y)) for each edge x = maps[k](y).
    Along a group's own tree it is L_g: x -> g x for g = start, since left
    and right multiplications commute (Dixon & Mortimer, Permutation Groups,
    Thm 4.2A); along a tree of a subgroup's left multiplications it is R_g."""
    f = [start] * (len(tree) + 1)
    for x, y, k in tree:
        f[x] = maps[k][f[y]]
    return f


def group_from_action(columns, element_names=None, generators=()) -> Group:
    """The group acting regularly on points 0..n-1, with point 0 as identity.

    ``columns[k][x]`` is point x times generator k; no columns give the
    trivial group.  The group is one by construction, so no axiom is checked:
    this builds the BFS tree x = parent(x) * s(x) from 0 and hands it to
    ``Group``.  Raises GroupError unless every point is reached, CapExceeded
    if the table would exceed MAX_TABLE_CELLS.
    """
    n = len(columns[0]) if columns else 1
    check_table_cells(n)
    tree = _spanning_tree(columns)
    if len(tree) != n - 1:
        raise GroupError(f"action is not transitive: {len(tree) + 1} of {n} reached")
    return Group(columns, tree, element_names, generators)


def cayley_table(G: Group) -> tuple[tuple[int, ...], ...]:
    """G's n x n multiplication table, row x holding x * y at y, drawn anew on
    each call for the printer that shows it: each row follows from its BFS
    parent's and a generator's left multiplication, row(y s)[x] = row(y)[L_s(x)]."""
    getters = [itemgetter(*_along(G._columns, G._tree, col[0])) for col in G._columns]
    rows = [tuple(range(G.order))] * G.order  # row 0 stays; the tree overwrites the rest
    for x, y, k in G._tree:
        rows[x] = getters[k](rows[y])
    return tuple(rows)


def _inverse(perm) -> list[int]:
    """The inverse of a permutation of 0..n-1: x sorted by its image."""
    return sorted(range(len(perm)), key=perm.__getitem__)


def _span(G: Group, elements) -> tuple[list[int], list[list[int]], set[int]]:
    """(kept, their left multiplications, span): each of the ``elements`` is
    kept only if it lies outside the span of those kept before, the subgroup
    they generate.  Each kept element at least doubles the span, so at most
    log2 n are kept, however many are offered."""
    kept, lefts, span = [], [], {0}
    for g in elements:
        if g not in span:
            kept.append(g)
            lefts.append(_along(G._columns, G._tree, g))
            span = set(_orbit(0, lefts))
    return kept, lefts, span


def _generating_subset(G: Group) -> list[tuple[list[int], list[int], list[int]]]:
    """(left multiplication, column, conjugation) of the ``_span`` of the
    elements s = col[0] of G's action, computed on the first call only.  A
    member s's conjugation is y -> s^-1 y s, L_s^-1(R_s(y))."""
    if G._subset is None:
        column_of = {col[0]: col for col in G._columns}
        kept, lefts, _ = _span(G, column_of)
        G._subset = [
            (left, column_of[s], list(map(_inverse(left).__getitem__, column_of[s])))
            for s, left in zip(kept, lefts)
        ]
    return G._subset


def _right(G: Group, g: int) -> list[int]:
    """R_g: x -> x g, walked along a tree of the generating subset's left
    multiplications, since R_g(s x) = s R_g(x)."""
    lefts = [left for left, _, _ in _generating_subset(G)]
    return _along(lefts, _spanning_tree(lefts), g)


def _conjugations(G: Group) -> list[list[int]]:
    """Each generating subset member's map y -> s^-1 y s."""
    return [conj for _, _, conj in _generating_subset(G)]


def _orbit(x: int, maps) -> list[int]:
    """The points that the maps, lists of images, take x to, x first."""
    seen, orbit = {x}, [x]
    for y in orbit:  # a BFS queue, appended to while walked
        for image in maps:
            z = image[y]
            if z not in seen:
                seen.add(z)
                orbit.append(z)
    return orbit


class Subgroup(namedtuple("Subgroup", "parent members")):
    """The sorted ``members`` (a tuple of elements) of a subgroup of ``parent``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, parent: Group, members: tuple[int, ...]):
        if not members or members[0] != 0:
            raise GroupError("subgroup must contain the identity as least member")
        return super().__new__(cls, parent, members)

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.members)

    def as_group(self) -> Group:
        """The subgroup as a standalone Group in member order, acted on by
        right multiplication by the members that ``_span`` keeps: R_g walked
        along a tree of their left multiplications on H, since R_g(k b) =
        k R_g(b), |H| cells per kept member."""
        parent, pos = self.parent, {m: i for i, m in enumerate(self.members)}
        kept, lefts, _ = _span(parent, self.members)
        lefts = [[pos[left[m]] for m in self.members] for left in lefts]
        tree = _spanning_tree(lefts)
        columns = [_along(lefts, tree, pos[g]) for g in kept]
        names = tuple(map(parent.name_of, self.members)) if parent.element_names else None
        return group_from_action(columns, element_names=names)


def subgroup_closure(G: Group, seed) -> Subgroup:
    """Least subgroup containing the seed elements: their ``_span``."""
    seed = tuple(seed)
    if not seed:
        raise GroupError("seed must be nonempty")
    return Subgroup(G, tuple(sorted(_span(G, seed)[2])))


def center(G: Group) -> Subgroup:
    """The z with L_s(z) = R_s(z), that is s z = z s, for each generator s
    of ``_generating_subset``."""
    subset = _generating_subset(G)
    members = [z for z in range(G.order) if all(left[z] == col[z] for left, col, _ in subset)]
    return Subgroup(G, tuple(members))


def derived_subgroup(G: Group) -> Subgroup:
    """The normal closure of the commutators of ``_generating_subset``, each
    pair's y -> y [a, b] = y a^-1 b^-1 a b taken in four column steps."""
    columns = [col for _, col, _ in _generating_subset(G)]
    back = [_inverse(col) for col in columns]
    commutators = [
        [b[a[back[j][back[i][y]]]] for y in range(G.order)]
        for (i, a), (j, b) in combinations(enumerate(columns), 2)
    ]
    return _normal_orbit(G, commutators)


def _normal_orbit(G: Group, maps) -> Subgroup:
    """The normal closure of the elements that ``maps`` multiply by, all on
    the left or all on the right: the orbit of 1 under them and under
    conjugation by each generator (Holt, Eick & O'Brien, 2005); conjugation
    keeps it, so their conjugates do too."""
    return Subgroup(G, tuple(sorted(_orbit(0, maps + _conjugations(G)))))


def is_normal(G: Group, H: Subgroup) -> bool:
    """Whether conjugation by each generator, h -> s^-1 h s, keeps H in H: in
    a finite group each inverse is a positive word in the generators."""
    members = set(H.members)
    return all(conj[h] in members for conj in _conjugations(G) for h in H.members)


def normal_closure(G: Group, seed) -> Subgroup:
    """Least normal subgroup containing the seed elements, by ``_normal_orbit``
    over their left multiplications."""
    return _normal_orbit(G, [_along(G._columns, G._tree, x) for x in set(seed)])


def quotient(G: Group, N: Subgroup) -> Group:
    """Quotient by a normal subgroup; cosets keep their minimal member as label."""
    if N.parent is not G:
        raise GroupError("subgroup belongs to a different group")
    if not is_normal(G, N):
        raise GroupError("subgroup is not normal")
    _, lefts, _ = _span(G, N.members)
    coset_of = [-1] * G.order
    reps: list[int] = []
    for g in range(G.order):
        if coset_of[g] < 0:
            for x in _orbit(g, lefts):  # gN = Ng, walked by N's left multiplications
                coset_of[x] = len(reps)
            reps.append(g)
    # coset rN times gN is (rg)N: G's generators act on the cosets
    columns = [[coset_of[col[r]] for r in reps] for _, col, _ in _generating_subset(G)]
    names = tuple(G.name_of(r) for r in reps)
    gens = []
    seen = set()
    for name, el in G.generators:
        c = coset_of[el]
        if c != 0 and c not in seen:
            gens.append((name, c))
            seen.add(c)
    return group_from_action(columns, element_names=names, generators=gens)


def enumerate_subgroups(G: Group) -> list[Subgroup]:
    """All subgroups by cyclic extension (Neubueser, 1960; Holt, Eick &
    O'Brien, 2005): each layer joins each subgroup of the last with each
    cyclic subgroup <g> it lacks, keeping the new joins, from the layer of
    the <g> until a layer is empty.  Exact, since every subgroup is the join
    of the cyclic subgroups it contains, reached by adding them one by one."""
    if G.order > SUBGROUP_ENUM_LIMIT:
        raise GroupError(
            f"subgroup enumeration capped at order {SUBGROUP_ENUM_LIMIT}"
        )
    cyclic = {subgroup_closure(G, (g,)).members for g in range(G.order)}
    found, layer = set(cyclic), cyclic
    while layer:
        layer = {
            subgroup_closure(G, s + c).members
            for s in layer for c in cyclic if not set(c) <= set(s)
        } - found
        found |= layer
    subs = [Subgroup(G, m) for m in sorted(found, key=lambda m: (len(m), m))]
    for s in subs:
        if G.order % s.order != 0:
            raise GroupError("subgroup order does not divide group order")
    return subs


def has_semidirect_decomposition(G: Group):
    """Some (N, H) with N normal, trivial intersection, |N||H| = |G|, or None.

    Both factors are required to be nontrivial proper subgroups.
    """
    subs = enumerate_subgroups(G)
    normals = [N for N in subs if 1 < N.order < G.order and is_normal(G, N)]
    for N in normals:
        nset = set(N.members)
        for H in subs:
            if H.order * N.order != G.order or H.order == 1:
                continue
            if len(nset & set(H.members)) == 1:
                return N, H
    return None


def is_isomorphic(G: Group, H: Group):
    """An isomorphism as a tuple (image of each G element), or None.

    Backtracks over images of the generators of G's ``_generating_subset``;
    candidate images are those of the same order and centraliser order, tried
    in ascending element order, so the result is deterministic.  Each partial
    map is checked by a walk from the identity over the span of the assigned
    generators: every step x -> g*x must land on phi(g)*phi(x), and no image
    may be used twice.  A map that respects each generator on the whole span
    is a homomorphism there, by induction on word length.  G's steps are its
    subset's left multiplications; each candidate h's, L_h, is walked once
    per call.
    """
    if G.order != H.order or G.fingerprint() != H.fingerprint():
        return None
    n = G.order
    # an isomorphism preserves each element's order and centraliser order
    kind_g = list(zip(G.element_orders(), G.centralizer_orders()))
    kind_h = list(zip(H.element_orders(), H.centralizer_orders()))
    gens = [(col[0], left) for left, col, _ in _generating_subset(G)]
    lefts_h: dict[int, list[int]] = {}

    def walk(assigned: list[tuple[list[int], list[int]]]):
        """phi on the span of the assigned (L_g, L_phi(g)) pairs, or None
        unless it is well defined and injective."""
        phi, queue = {0: 0}, [0]
        for x in queue:  # a BFS queue, appended to while walked
            for left_g, left_h in assigned:
                y, z = left_g[x], left_h[phi[x]]
                if y not in phi:
                    phi[y] = z
                    queue.append(y)
                elif phi[y] != z:
                    return None
        return phi if len(set(phi.values())) == len(phi) else None

    def extend(phi: dict[int, int], assigned: list, k: int):
        if k == len(gens):
            return phi if len(phi) == n else None
        g, left_g = gens[k]  # g is outside the span of gens[:k], so not yet in phi
        used = set(phi.values())
        for h in range(n):
            if h in used or kind_h[h] != kind_g[g]:
                continue
            if h not in lefts_h:
                lefts_h[h] = _along(H._columns, H._tree, h)
            trial = [*assigned, (left_g, lefts_h[h])]
            span = walk(trial)
            result = None if span is None else extend(span, trial, k + 1)
            if result is not None:
                return result
        return None

    # a homomorphism, injective and defined on the span of all of G: an isomorphism
    phi = extend({0: 0}, [], 0)
    return None if phi is None else tuple(phi[g] for g in range(n))


def abelian_invariants(G: Group) -> list[int]:
    """Invariant factors d_k | ... | d_1 listed in decreasing order.

    For a prime p, the x with x^(p^k) = 1 number p^(r_1 + ... + r_k), where
    r_j counts the cyclic p-factors of order at least p^j (Rotman, ch. 6), so
    the order histogram gives each d_i's power of p."""
    if not G.is_abelian():
        raise GroupError("group is not abelian")
    hist = G.order_histogram()
    factors: list[int] = []
    n, p = G.order, 1
    while n > 1:
        p += 1
        if n % p:
            continue
        while n % p == 0:
            n //= p
        q, solved = p, 1  # solved = #{x : x^(q/p) = 1}
        while hist[q]:
            r = 0  # the cyclic p-factors of order at least q
            while solved * p**r < solved + hist[q]:
                r += 1
            factors += [1] * (r - len(factors))
            for i in range(r):
                factors[i] *= p
            solved += hist[q]
            q *= p
    return factors


def abelian_name(factors) -> str:
    if not factors:
        return "C_1"
    return "x".join(f"C_{d}" for d in factors)


class Identification(namedtuple("Identification", "name fingerprint")):
    """A catalog name (None when unrecognized) and the group's Fingerprint."""

    __slots__ = ()

    def describe(self) -> str:
        if self.name is not None:
            return self.name
        fp = self.fingerprint
        hist = ",".join(f"{o}:{c}" for o, c in fp.order_histogram)
        return (
            f"unrecognized(order={fp.order}, abelian={fp.abelian}, "
            f"exponent={fp.exponent}, orders={{{hist}}}, "
            f"center={fp.center_order}, derived={fp.derived_order})"
        )


def identify(G: Group) -> Identification:
    """Name a group: invariant factors if abelian, else catalog matching."""
    fp = G.fingerprint()
    if fp.abelian:
        return Identification(abelian_name(abelian_invariants(G)), fp)
    from . import families  # deferred: families builds groups via this module

    # only a candidate with G's fingerprint is built and searched
    for name, candidate_fp, build in families.nonabelian_catalog(G.order):
        if candidate_fp == fp and is_isomorphic(G, build()) is not None:
            return Identification(name, fp)
    return Identification(None, fp)


def direct_product(G: Group, H: Group) -> Group:
    """G x H on the elements (a, b) numbered a * |H| + b, acted on by both
    factors' actions."""
    nb = H.order
    check_table_cells(G.order * nb)
    columns = [[x * nb + b for x in col for b in range(nb)] for col in G._columns]
    columns += [[a + y for a in range(0, G.order * nb, nb) for y in col] for col in H._columns]
    names = None
    if G.element_names or H.element_names:
        names = tuple(
            f"({G.name_of(a)},{H.name_of(b)})"
            for a in range(G.order)
            for b in range(nb)
        )
    gens: list[tuple[str, int]] = []
    used_names = set()

    def fresh(name: str) -> str:
        if name not in used_names:
            return name
        k = 2
        while f"{name}{k}" in used_names:
            k += 1
        return f"{name}{k}"

    for name, el in G.generators:
        name = fresh(name)
        used_names.add(name)
        gens.append((name, el * nb))
    for name, el in H.generators:
        name = fresh(name)
        used_names.add(name)
        gens.append((name, el))
    return group_from_action(columns, element_names=names, generators=gens)
