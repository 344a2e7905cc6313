"""Exact arithmetic in Z[zeta] for zeta a 2^k-th root of unity, and the
closure of monomial matrix groups over it.

CycInt at level k is a polynomial in zeta = e^{2*pi*i/2^k}, stored as the
coefficient vector of length 2^(k-1) and reduced by zeta^(2^(k-1)) = -1.
That reduction makes the representation unique, so equality and hashing are
coefficient-wise (after demoting to the least level that carries the value).
Operations require equal levels; ``promote`` embeds into a higher level by
coefficient spreading.  Python integers never overflow, so coefficients stay
exact at any size.  CycInt and CycMatrix build and check generators.

``matrix_group_closure`` takes monomial generators (one entry +-zeta^m in
each row and column, as every generator built here is) and closes them in
monomial form: a permutation plus zeta exponents mod 2^level, multiplied by
lookups with no CycInt arithmetic.  Each element's label is rendered from
that form as the exact text ``str(CycMatrix)`` gives.
"""

from __future__ import annotations

import cmath

from .groups import (
    MAX_TABLE_CELLS,
    CapExceeded,
    Group,
    check_table_cells,
    group_from_action,
)

__all__ = [
    "LevelMismatch",
    "CycInt",
    "CycMatrix",
    "kronecker",
    "rot_matrix",
    "j_matrix",
    "f_matrix",
    "matrix_group_closure",
    "diquaternion_group",
    "pauli_group",
]

class LevelMismatch(ValueError):
    pass


class CycInt:
    """Element of Z[zeta_{2^level}] in reduced coefficient form; immutable.

    Not a tuple: equality and hashing are by value across levels, and no
    tuple comparison, length or concatenation applies."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: tuple[int, ...]):
        if level < 1:
            raise ValueError("level must be at least 1")
        if len(coeffs) != 1 << (level - 1):
            raise ValueError(f"level {level} needs {1 << (level - 1)} coefficients")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"CycInt is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CycInt is immutable: cannot delete {name!r}")

    @staticmethod
    def from_int(value: int, level: int = 1) -> CycInt:
        coeffs = [0] * (1 << (level - 1))
        coeffs[0] = value
        return CycInt(level, tuple(coeffs))

    @staticmethod
    def zeta(level: int, power: int = 1) -> CycInt:
        """zeta^power at the given level (zeta = e^{2*pi*i/2^level})."""
        span = 1 << (level - 1)
        power %= 2 * span
        coeffs = [0] * span
        if power < span:
            coeffs[power] = 1
        else:
            coeffs[power - span] = -1
        return CycInt(level, tuple(coeffs))

    def promote(self, level: int) -> CycInt:
        if level == self.level:
            return self
        if level < self.level:
            raise LevelMismatch(f"cannot demote level {self.level} to {level}")
        coeffs = self.coeffs
        for _ in range(level - self.level):
            spread = [0] * (2 * len(coeffs))
            spread[::2] = coeffs
            coeffs = tuple(spread)
        return CycInt(level, tuple(coeffs))

    def _canonical(self) -> tuple[int, tuple[int, ...]]:
        level, coeffs = self.level, self.coeffs
        while level > 1 and not any(coeffs[1::2]):
            coeffs = coeffs[::2]
            level -= 1
        return level, tuple(coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self._canonical() == (1, (other,))
        if isinstance(other, CycInt):
            return self._canonical() == other._canonical()
        return NotImplemented

    def __hash__(self):
        return hash(self._canonical())

    def _coerce(self, other) -> CycInt:
        if isinstance(other, int):
            return CycInt.from_int(other, self.level)
        if isinstance(other, CycInt):
            if other.level != self.level:
                raise LevelMismatch(
                    f"level {self.level} vs {other.level}; promote explicitly"
                )
            return other
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.level, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        span = len(self.coeffs)
        prod = [0] * (2 * span)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        out = prod[:span]
        for m in range(span, 2 * span):  # zeta^span = -1
            out[m - span] -= prod[m]
        return CycInt(self.level, tuple(out))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def complex_value(self) -> complex:
        span = len(self.coeffs)
        return sum(
            c * cmath.exp(2j * cmath.pi * m / (2 * span))
            for m, c in enumerate(self.coeffs)
        )

    def __str__(self):
        terms = []
        for m in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[m]
            if c == 0:
                continue
            mag = abs(c)
            if m == 0:
                body = str(mag)
            else:
                power = "z" if m == 1 else f"z^{m}"
                body = power if mag == 1 else f"{mag}{power}"
            terms.append(("-" if c < 0 else "+", body))
        if not terms:
            return "0"
        sign, body = terms[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            text += sign + body
        return text

    def __repr__(self):
        return f"CycInt(level={self.level}, {self})"


class CycMatrix:
    """Square matrix over CycInt with power-of-two dimension, uniform level."""

    __slots__ = ("level", "dim", "rows", "_key")

    def __init__(self, level: int, rows):
        entries = tuple(
            tuple(e if isinstance(e, CycInt) else CycInt.from_int(e) for e in row)
            for row in rows
        )
        dim = len(entries)
        if dim == 0 or dim & (dim - 1):
            raise ValueError("dimension must be a power of two")
        for row in entries:
            if len(row) != dim:
                raise ValueError("matrix must be square")
        self.level = level
        self.dim = dim
        self.rows = tuple(
            tuple(e.promote(level) for e in row) for row in entries
        )
        self._key = (dim, tuple(e._canonical() for row in self.rows for e in row))

    @staticmethod
    def identity(dim: int, level: int = 1) -> CycMatrix:
        return CycMatrix(
            level, [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        )

    def promote(self, level: int) -> CycMatrix:
        if level == self.level:
            return self
        return CycMatrix(level, self.rows)

    def __eq__(self, other):
        return isinstance(other, CycMatrix) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __mul__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch {self.dim} vs {other.dim}")
        if self.level != other.level:
            raise LevelMismatch(
                f"level {self.level} vs {other.level}; promote explicitly"
            )
        zero = CycInt.from_int(0, self.level)
        cols = list(zip(*other.rows))
        rows = [
            tuple(sum((a * b for a, b in zip(row, col)), zero) for col in cols)
            for row in self.rows
        ]
        return CycMatrix(self.level, rows)

    def __str__(self):
        return "[" + ",".join(
            "[" + ",".join(str(e) for e in row) + "]" for row in self.rows
        ) + "]"

    def __repr__(self):
        return f"CycMatrix(level={self.level}, {self})"


def kronecker(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    if a.level != b.level:
        raise LevelMismatch(f"level {a.level} vs {b.level}; promote explicitly")
    # row i*b.dim + k, column j*b.dim + l holds a[i][j] * b[k][l]; a product
    # with a zero factor is the zero entry, as most entries of a product are
    zero = CycInt.from_int(0, a.level)
    zeros = (zero,) * b.dim
    rows = []
    for row_a in a.rows:
        for row_b in b.rows:
            row = []
            for x in row_a:
                if x.is_zero():
                    row.extend(zeros)
                else:
                    row.extend(zero if y.is_zero() else x * y for y in row_b)
            rows.append(row)
    return CycMatrix(a.level, rows)


def rot_matrix(level: int) -> CycMatrix:
    """diag(zeta, zeta^-1) at the given level; level 2 gives diag(i, -i)."""
    z = CycInt.zeta(level)
    zinv = CycInt.zeta(level, -1)
    zero = CycInt.from_int(0, level)
    return CycMatrix(level, [[z, zero], [zero, zinv]])


def j_matrix(level: int = 1) -> CycMatrix:
    return CycMatrix(level, [[0, -1], [1, 0]])


def f_matrix(level: int = 1) -> CycMatrix:
    return CycMatrix(level, [[0, 1], [1, 0]])


def _monomial_codes(g: CycMatrix, name: str) -> tuple[int, ...]:
    """Each row of ``g`` as the code c * 2^level + e of its one non-zero
    entry zeta^e in column c; -zeta^m is zeta^(m + 2^(level-1)).

    Raises ValueError unless every row and every column holds one non-zero
    entry and that entry is +-zeta^m."""
    span = 1 << (g.level - 1)
    codes = []
    for row in g.rows:
        cells = [(col, e) for col, e in enumerate(row) if not e.is_zero()]
        terms = [(m, c) for m, c in enumerate(cells[0][1].coeffs) if c] if len(cells) == 1 else []
        if len(terms) != 1 or terms[0][1] not in (1, -1):
            raise ValueError(f"generator {name} is not monomial: each row needs one entry +-z^m")
        m, c = terms[0]
        codes.append(cells[0][0] * 2 * span + (m if c == 1 else m + span))
    if sorted(code >> g.level for code in codes) != list(range(g.dim)):
        raise ValueError(f"generator {name} is not monomial: each column needs one entry")
    return tuple(codes)


def _render(code: int, level: int, dim: int) -> str:
    """One row of a monomial matrix exactly as ``str(CycMatrix)`` writes it."""
    col, e = code >> level, code & ((1 << level) - 1)
    span = 1 << (level - 1)
    m = e % span
    cells = ["0"] * dim
    cells[col] = ("-" if e >= span else "") + ("1" if m == 0 else "z" if m == 1 else f"z^{m}")
    return "[" + ",".join(cells) + "]"


def matrix_group_closure(gens, names=None) -> Group:
    """BFS closure of monomial matrix generators; the result's element 0 is
    the identity matrix and elements are labeled by their rendered matrices.

    Generators at mixed levels are promoted to the common maximum first.
    Each generator must be monomial (one entry +-zeta^m in each row and
    column; ValueError otherwise), so a matrix is a permutation plus zeta
    exponents mod 2^level, and the BFS runs on that form: a row of m holding
    zeta^e in column c is, in m * g, g's row c with its exponent raised by e.
    A label is rendered from the same form as exactly the text
    ``str(CycMatrix)`` gives.  CapExceeded is raised before the element that
    would make the group's table exceed MAX_TABLE_CELLS is stored.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    if names is None:
        names = [f"g{k}" for k in range(len(gens))]
    names = [str(x) for x in names]
    if len(names) != len(gens):
        raise ValueError("one name per generator")
    dim = gens[0].dim
    level = max(g.level for g in gens)
    gens = [g.promote(level) for g in gens]
    if any(g.dim != dim for g in gens):
        raise ValueError("generators must share one dimension")

    mod = 1 << level
    steps = []  # steps[k][c * mod + e] = g's row c raised by e, for g = gens[k]
    for g, name in zip(gens, names):
        step: list[int] = []
        for code in _monomial_codes(g, name):
            base, shift = code - code % mod, code % mod
            step += [base + (e + shift) % mod for e in range(mod)]
        steps.append(step)

    ident = tuple(i << level for i in range(dim))
    elements = [ident]
    index = {ident: 0}
    columns: list[list[int]] = [[] for _ in gens]  # columns[k][x] = x * gens[k]
    for m in elements:  # a BFS queue, appended to while walked
        for step, col in zip(steps, columns):
            prod = tuple(map(step.__getitem__, m))
            at = index.get(prod)
            if at is None:
                at = len(elements)
                check_table_cells(at + 1)
                index[prod] = at
                elements.append(prod)
            col.append(at)

    rows = {code: _render(code, level, dim) for code in set().union(*elements)}
    labels = tuple("[" + ",".join(map(rows.__getitem__, m)) + "]" for m in elements)
    gen_entries = tuple((name, col[0]) for name, col in zip(names, columns))
    return group_from_action(columns, element_names=labels, generators=gen_entries)


def diquaternion_group(quaternion_order: int) -> Group:
    """Closure of the quaternion rotation matrix with j and the reflection f.

    ``quaternion_order`` is the order 2^n of the quaternion part; the result
    has order 2^(n+1).
    """
    m = quaternion_order
    if m < 8 or m & (m - 1):
        raise ValueError("quaternion order must be a power of two, at least 8")
    check_table_cells(2 * m)  # before rot_matrix builds 2^(level-1) coefficients
    level = m.bit_length() - 2  # zeta of order m/2 drives the rotation
    rot_name = "i" if level == 2 else "z"
    return matrix_group_closure(
        [rot_matrix(level), j_matrix(), f_matrix()],
        names=[rot_name, "j", "f"],
    )


def pauli_group(qubits: int) -> Group:
    """Closure of the per-qubit rotation/j/f generators; order 4^(qubits+1).

    Raises CapExceeded, before any matrix is built, when that order's table
    would exceed MAX_TABLE_CELLS (from 6 qubits on)."""
    if qubits < 1:
        raise ValueError("qubits must be at least 1")
    if 4 * (qubits + 1) >= MAX_TABLE_CELLS.bit_length():  # 4^(q+1) squared > cap
        raise CapExceeded(
            f"table cap {MAX_TABLE_CELLS} cells exceeded (order 4^{qubits + 1})", 0
        )
    base = [("i", rot_matrix(2)), ("j", j_matrix(2)), ("f", f_matrix(2))]
    eye = CycMatrix.identity(2, 2)
    gens = []
    names = []
    for q in range(qubits):
        for name, mat in base:
            full = None
            for slot in range(qubits):
                factor = mat if slot == q else eye
                full = factor if full is None else kronecker(full, factor)
            gens.append(full)
            names.append(f"{name}{q + 1}" if qubits > 1 else name)
    return matrix_group_closure(gens, names=names)
