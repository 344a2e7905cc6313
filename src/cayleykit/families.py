"""Constructors for the named group families, plus the twist-exponent solver.

Presentation-backed families go through coset enumeration; the diquaternion
and multi-qubit families come from exact matrix closure.  ``sdp_c2(m, k)``
is the semidirect product <r,s | r^m = s^2 = 1, s r s = r^k>, defined exactly
when k^2 = 1 (mod m); the four solutions at m = 2^t are the abelian, dihedral,
semidihedral, and semiabelian twists.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache
from math import gcd, lcm, prod

from .cosets import DEFAULT_MAX_COSETS, group_from_presentation
from .groups import Fingerprint, Group, abelian_name, direct_product
from .words import parse_presentation

__all__ = [
    "FAMILIES", "Family", "FamilySpec", "family_entry", "family_presentation", "make",
    "cyclic", "abelian", "dihedral", "quaternion", "sdp_c2", "semidihedral", "semiabelian",
    "diquaternion", "pauli", "involutive_exponents", "nonabelian_catalog", "catalog_groups",
]

GENERATOR_ALPHABET = "abcdeghklmnpqtuvw"  # skips f, r, s, and the like-i/j/z names


class FamilySpec(namedtuple("FamilySpec", "kind params", defaults=((),))):
    """A family kind, a key of ``FAMILIES``, plus its tuple of integer parameters."""

    __slots__ = ()


def _cyclic_text(n: int) -> str:
    if n < 1:
        raise ValueError("cyclic order must be positive")
    return f"<r | r^{n}>"


def _abelian_text(*invariant_factors: int) -> str:
    factors = [d for d in invariant_factors if d != 1]
    if any(d < 1 for d in factors):
        raise ValueError("factors must be positive")
    if not factors:
        return _cyclic_text(1)
    if len(factors) > len(GENERATOR_ALPHABET):
        raise ValueError("too many factors")
    gens = list(GENERATOR_ALPHABET[: len(factors)])
    relators = [f"{g}^{d}" for g, d in zip(gens, factors)]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            relators.append(f"{gens[i]} {gens[j]} {gens[i]}^-1 {gens[j]}^-1")
    return f"<{','.join(gens)} | {', '.join(relators)}>"


def _dihedral_text(n: int) -> str:
    if n < 1:
        raise ValueError("dihedral parameter must be positive")
    return f"<r,f | r^{n}=f^2=1, r f r=f>"


def _quaternion_text(order: int) -> str:
    if order < 8 or order & (order - 1):
        raise ValueError("quaternion order must be a power of two, at least 8")
    return f"<r,s | r^{order // 2}=1, s^2=r^{order // 4}, s^-1 r s=r^-1>"


def _sdp_text(m: int, k: int) -> str:
    if m < 2:
        raise ValueError("m must be at least 2")
    k %= m
    if (k * k) % m != 1:
        raise ValueError(f"k^2 must be 1 mod {m}; got k={k}")
    return f"<r,s | r^{m}=s^2=1, s r s=r^{k}>"


def _twist_text(m: int, sign: int) -> str:
    """The twist k = m/2 + sign on <r> of order m = 2^t, t >= 3: semidihedral
    for sign -1, semiabelian for +1."""
    if m < 8 or m & (m - 1):
        raise ValueError("modulus must be a power of two, at least 8")
    return _sdp_text(m, m // 2 + sign)


class Family(namedtuple(
    "Family", "cli arity labels text matrix_builder", defaults=(None, None)
)):
    """A row of FAMILIES: the family's name on the command line, its parameter
    count (None: abelian's one list of factors), the parameter names of the
    usage line, and either the function writing its presentation text from
    the parameters or the name of its builder in ``matrices``."""

    __slots__ = ()


FAMILIES = {
    "cyclic": Family("cyclic", 1, ("n",), _cyclic_text),
    "abelian": Family("abelian", None, ("d1,d2,...",), _abelian_text),
    "dihedral": Family("dihedral", 1, ("n",), _dihedral_text),
    "quaternion": Family("quaternion", 1, ("m",), _quaternion_text),
    "semidihedral": Family("semidihedral", 1, ("m",), lambda m: _twist_text(m, -1)),
    "semiabelian": Family("semiabelian", 1, ("m",), lambda m: _twist_text(m, 1)),
    "sdp": Family("sdp", 2, ("m", "k"), _sdp_text),
    "diquaternion": Family("dq", 1, ("m",), matrix_builder="diquaternion_group"),
    "pauli": Family("pauli", 1, ("q",), matrix_builder="pauli_group"),
}


def family_entry(kind: str, count: int) -> Family:
    """The ``FAMILIES`` entry of a kind taking ``count`` parameters; raises
    ValueError for an unknown kind or a wrong count."""
    entry = FAMILIES.get(kind)
    if entry is None:
        raise ValueError(f"unknown family kind {kind!r}")
    if entry.arity is not None and count != entry.arity:
        raise ValueError(f"{entry.cli} takes {entry.arity} integer argument(s)")
    return entry


def family_presentation(spec: FamilySpec):
    """The canonical presentation behind a presentation-backed family, or
    None for the matrix-closure families."""
    entry = family_entry(spec.kind, len(spec.params))
    return None if entry.text is None else parse_presentation(entry.text(*spec.params))


def make(spec: FamilySpec, max_cosets: int = DEFAULT_MAX_COSETS) -> Group:
    """The family member; a presentation family enumerates up to max_cosets."""
    presentation = family_presentation(spec)
    if presentation is not None:
        return group_from_presentation(presentation, max_cosets)
    from . import matrices  # deferred: only the matrix families need it
    return getattr(matrices, FAMILIES[spec.kind].matrix_builder)(*spec.params)


def cyclic(n: int) -> Group:
    return make(FamilySpec("cyclic", (n,)))


def abelian(invariant_factors) -> Group:
    """Direct product of cyclic groups given by an invariant-factor list."""
    return make(FamilySpec("abelian", tuple(invariant_factors)))


def dihedral(n: int) -> Group:
    """Order 2n (subscript counts the rotations)."""
    return make(FamilySpec("dihedral", (n,)))


def quaternion(order: int) -> Group:
    """Generalized quaternion group of order 2^n, n >= 3."""
    return make(FamilySpec("quaternion", (order,)))


def sdp_c2(m: int, k: int) -> Group:
    """<r,s | r^m = s^2 = 1, s r s = r^k>; requires k^2 = 1 mod m."""
    return make(FamilySpec("sdp", (m, k)))


def semidihedral(m: int) -> Group:
    """Twist k = m/2 - 1 on <r> of order m = 2^t, t >= 3; group order 2m."""
    return make(FamilySpec("semidihedral", (m,)))


def semiabelian(m: int) -> Group:
    """Twist k = m/2 + 1 on <r> of order m = 2^t, t >= 3; group order 2m."""
    return make(FamilySpec("semiabelian", (m,)))


def diquaternion(quaternion_order: int) -> Group:
    return make(FamilySpec("diquaternion", (quaternion_order,)))


def pauli(qubits: int) -> Group:
    return make(FamilySpec("pauli", (qubits,)))


def involutive_exponents(m: int) -> list[int]:
    """All k in 1..m-1 with k^2 = 1 (mod m), by exhaustive scan."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    return [k for k in range(1, m) if (k * k) % m == 1]


# A catalog entry is (name, fingerprint, build): build() returns the group,
# constructing it on the first call only.  Every fingerprint follows from a
# formula, so listing a catalog builds no group.


def _entry(name: str, histogram: Counter[int], center: int, derived: int, build):
    """The entry of a group with this element-order histogram and these
    centre and derived-subgroup orders; abelian when the centre is all of it."""
    order = sum(histogram.values())
    fp = Fingerprint(
        order=order,
        abelian=center == order,
        exponent=lcm(*histogram),
        order_histogram=tuple(sorted(histogram.items())),
        center_order=center,
        derived_order=derived,
    )
    return name, fp, cache(build)


def _cyclic_orders(m: int) -> Counter[int]:
    """The element orders of C_m: r^i has order m / gcd(i, m)."""
    return Counter(m // gcd(i, m) for i in range(m))


def _pair_orders(left, right) -> Counter[int]:
    """The element orders of a direct product, from the factors' (order,
    count) pairs: (x, y) has order lcm(|x|, |y|)."""
    histogram: Counter[int] = Counter()
    for p, a in left:
        for q, b in right:
            histogram[lcm(p, q)] += a * b
    return histogram


def _twisted_entry(name: str, m: int, k: int, build):
    """C_m :_k C_2 = <r, s | r^m = s^2 = 1, s r s = r^k> for k != 1 (mod m):
    (r^i s)^2 = r^(i(1+k)), so r^i s has twice that power's order; the centre
    is {r^i : i(k-1) = 0 (mod m)} and the derived subgroup is <r^(k-1)>."""
    histogram = _cyclic_orders(m)
    histogram.update(2 * m // gcd(i * (1 + k), m) for i in range(m))
    center = gcd(k - 1, m)
    return _entry(name, histogram, center, m // center, build)


def _generalized_dihedral_3x3() -> Group:
    return group_from_presentation(
        parse_presentation("<a,b,s | a^3=b^3=s^2=1, a b a^-1 b^-1, s a s a, s b s b>")
    )


@cache
def _plain_entries(order: int) -> tuple:
    """The entries of the plain families of one order; each group is built
    on its entry's first build() only."""
    entries = []
    m = order // 2
    if order % 2 == 0 and m >= 3:
        entries.append(_twisted_entry(f"D_{m}", m, m - 1, lambda: dihedral(m)))
        if m >= 8 and m & (m - 1) == 0:
            entries.append(_twisted_entry(f"SD_{m}", m, m // 2 - 1, lambda: semidihedral(m)))
            entries.append(_twisted_entry(f"SA_{m}", m, m // 2 + 1, lambda: semiabelian(m)))
    if order >= 8 and order & (order - 1) == 0:
        # Q: <r> of index 2, every r^i s of order 4; centre <r^m/2>, derived <r^2>
        histogram = _cyclic_orders(m)
        histogram[4] += m
        entries.append(_entry(f"Q_{order}", histogram, 2, m // 2, lambda: quaternion(order)))
        if order >= 16:
            # DQ_m: besides orders 1, 2 and 4, 2^j elements of order 2^j
            # for each 8 <= 2^j <= m/2
            histogram = Counter({1: 1, 2: m // 2 + 3, 4: m // 2 + 4})
            histogram.update({2**j: 2**j for j in range(3, (m // 2).bit_length())})
            entries.append(_entry(f"DQ_{m}", histogram, 4, m // 4, lambda: diquaternion(m)))
    if order == 18:
        # C_3 x D_3 by the product rule; C_3:D_3 inverts C_3 x C_3, so its
        # other 9 elements are involutions, its centre is trivial and its
        # derived subgroup is C_3 x C_3
        d3 = _plain_entries(6)[0][1]
        entries.append(_entry(
            "C_3xD_3", _pair_orders(_cyclic_orders(3).items(), d3.order_histogram), 3, 3,
            lambda: direct_product(cyclic(3), dihedral(3)),
        ))
        entries.append(_entry(
            "C_3:D_3", Counter({1: 1, 2: 9, 3: 8}), 1, 9, _generalized_dihedral_3x3
        ))
    return tuple(entries)


def _invariant_factor_lists(n: int) -> list[list[int]]:
    out: list[list[int]] = []

    def rec(remaining: int, prev: int, acc: list[int]):
        if remaining == 1:
            out.append(list(acc))
            return
        d = max(prev, 2)
        while d <= remaining:
            if remaining % d == 0 and d % prev == 0:
                rec(remaining // d, d, acc + [d])
            d += 1

    rec(n, 1, [])
    return out


@cache
def _abelian_entry(factors: tuple[int, ...]):
    """An abelian cofactor, built on its first build() only."""
    histogram = Counter({1: 1})
    for d in factors:
        histogram = _pair_orders(histogram.items(), _cyclic_orders(d).items())
    name = abelian_name(sorted(factors, reverse=True))
    return _entry(name, histogram, prod(factors), 1, lambda: abelian(factors))


def _product_bases(order: int) -> tuple:
    """The plain entries of one order that start direct products, except D_k
    for k = 2 (mod 4) and C_3xD_3: as D_k = D_{k/2} x C_2 and C_3xD_3 =
    D_3 x C_3, their products are listed earlier, on base D_{k/2} or D_3."""
    split = {"C_3xD_3", f"D_{order // 2}" if order % 8 == 4 else ""}
    return tuple(entry for entry in _plain_entries(order) if entry[0] not in split)


def _product(left, right):
    """The entry of left x right.  Its fingerprint follows from the factors':
    the centre and the derived subgroup of a direct product are the products
    of the factors' ones."""
    (lname, lfp, lbuild), (rname, rfp, rbuild) = left, right
    return _entry(
        f"{lname}x{rname}",
        _pair_orders(lfp.order_histogram, rfp.order_histogram),
        lfp.center_order * rfp.center_order,
        lfp.derived_order * rfp.derived_order,
        lambda: direct_product(lbuild(), rbuild()),
    )


@cache
def nonabelian_catalog(order: int) -> tuple:
    """Named non-abelian candidates of one order as (name, fingerprint, build)
    entries, plain families first, then direct products of catalog members;
    used by identify.  Each group is listed once, and two bases of one order
    are paired once.  A direct product is built only when build() is called."""
    if order > 64:
        return ()
    entries = list(_plain_entries(order))
    for d in range(6, order):
        if order % d:
            continue
        bases = _product_bases(d)
        # D_m x C_2 is plain D_2m for m odd, and D_3 x C_3 is plain C_3xD_3
        plain = {"D_3xC_3", f"D_{d // 2}xC_2" if d % 4 == 2 else ""}
        cofactor = order // d
        for factors in _invariant_factor_lists(cofactor):
            abelian_cofactor = _abelian_entry(tuple(factors))
            for base in bases:
                if f"{base[0]}x{abelian_cofactor[0]}" not in plain:
                    entries.append(_product(base, abelian_cofactor))
        for d2 in range(6, cofactor + 1):
            if d2 * d != order or d2 < d:
                continue
            for j, base2 in enumerate(_product_bases(d2)):
                for base in bases[j:] if d2 == d else bases:
                    entries.append(_product(base, base2))
    return tuple(entries)


def catalog_groups(max_order: int):
    """Every named catalog group with order <= max_order, abelian included."""
    for order in range(1, max_order + 1):
        for factors in _invariant_factor_lists(order):
            yield abelian_name(sorted(factors, reverse=True)), abelian(factors)
        for name, _, build in nonabelian_catalog(order):
            yield name, build()
