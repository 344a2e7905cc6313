"""Constructors for the named group families, plus the twist-exponent solver.

Presentation-backed families go through coset enumeration; the diquaternion
and multi-qubit families come from exact matrix closure.  ``sdp_c2(m, k)``
is the semidirect product <r,s | r^m = s^2 = 1, s r s = r^k>, defined exactly
when k^2 = 1 (mod m); the four solutions at m = 2^t are the abelian, dihedral,
semidihedral, and semiabelian twists.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import lcm
from typing import Callable, NamedTuple

from .cosets import DEFAULT_MAX_COSETS, group_from_presentation
from .groups import Fingerprint, Group, abelian_name, direct_product
from .words import parse_presentation

__all__ = [
    "FAMILIES", "Family", "FamilySpec", "family_entry", "family_presentation", "make",
    "cyclic", "abelian", "dihedral", "quaternion", "sdp_c2", "semidihedral", "semiabelian",
    "diquaternion", "pauli", "involutive_exponents", "nonabelian_catalog", "catalog_groups",
]

GENERATOR_ALPHABET = "abcdeghklmnpqtuvw"  # skips f, r, s, and the like-i/j/z names


class FamilySpec(NamedTuple):
    """A family kind, a key of ``FAMILIES``, plus its integer parameters."""

    kind: str
    params: tuple[int, ...] = ()


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


class Family(NamedTuple):
    """A row of FAMILIES: the family's name on the command line, its parameter
    count (None: abelian's one list of factors), the parameter names of the
    usage line, and either the function writing its presentation text from
    the parameters or the name of its builder in ``matrices``."""

    cli: str
    arity: int | None
    labels: tuple[str, ...]
    text: Callable[..., str] | None = None
    matrix_builder: str | None = None


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


def _order18_special() -> list[tuple[str, Group]]:
    c3xd3 = direct_product(cyclic(3), dihedral(3))
    gen_dihedral = group_from_presentation(
        parse_presentation(
            "<a,b,s | a^3=b^3=s^2=1, a b a^-1 b^-1, s a s a, s b s b>"
        )
    )
    return [("C_3xD_3", c3xd3), ("C_3:D_3", gen_dihedral)]


# A catalog entry is (name, fingerprint, build): build() returns the group,
# constructing it on the first call only.


def _built(name: str, G: Group):
    return name, G.fingerprint(), lambda: G


@cache
def _plain_entries(order: int) -> tuple:
    """The entries of the plain families of one order, each group built once
    per process."""
    entries: list[tuple[str, Group]] = []
    if order % 2 == 0:
        m = order // 2
        if m >= 3:
            entries.append((f"D_{m}", dihedral(m)))
        if m >= 8 and m & (m - 1) == 0:
            entries.append((f"SD_{m}", semidihedral(m)))
            entries.append((f"SA_{m}", semiabelian(m)))
    if order >= 8 and order & (order - 1) == 0:
        entries.append((f"Q_{order}", quaternion(order)))
        if order >= 16:
            entries.append((f"DQ_{order // 2}", diquaternion(order // 2)))
    if order == 18:
        entries.extend(_order18_special())
    return tuple(_built(name, G) for name, G in entries)


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
    """An abelian cofactor, built once per process."""
    return _built(abelian_name(sorted(factors, reverse=True)), abelian(factors))


def _product_bases(order: int) -> tuple:
    """The plain entries of one order that start direct products, except D_k
    for k = 2 (mod 4) and C_3xD_3: as D_k = D_{k/2} x C_2 and C_3xD_3 =
    D_3 x C_3, their products are listed earlier, on base D_{k/2} or D_3."""
    split = {"C_3xD_3", f"D_{order // 2}" if order % 8 == 4 else ""}
    return tuple(entry for entry in _plain_entries(order) if entry[0] not in split)


def _product(left, right):
    """The entry of left x right.  Its fingerprint follows from the factors':
    (x, y) has order lcm(|x|, |y|), and the centre and the derived subgroup of
    a direct product are the products of the factors' ones."""
    (lname, lfp, lbuild), (rname, rfp, rbuild) = left, right
    histogram: Counter[int] = Counter()
    for p, a in lfp.order_histogram:
        for q, b in rfp.order_histogram:
            histogram[lcm(p, q)] += a * b
    fp = Fingerprint(
        order=lfp.order * rfp.order,
        abelian=lfp.abelian and rfp.abelian,
        exponent=lcm(lfp.exponent, rfp.exponent),
        order_histogram=tuple(sorted(histogram.items())),
        center_order=lfp.center_order * rfp.center_order,
        derived_order=lfp.derived_order * rfp.derived_order,
    )
    return f"{lname}x{rname}", fp, cache(lambda: direct_product(lbuild(), rbuild()))


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
