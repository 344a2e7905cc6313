import random
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from cayleykit import matrices
from cayleykit.cosets import CapExceeded
from cayleykit.groups import (
    MAX_TABLE_CELLS,
    cayley_table,
    enumerate_subgroups,
    group_from_action,
    identify,
    is_isomorphic,
    is_normal,
)
from cayleykit.matrices import (
    CycInt,
    CycMatrix,
    LevelMismatch,
    diquaternion_group,
    f_matrix,
    j_matrix,
    kronecker,
    matrix_group_closure,
    pauli_group,
    rot_matrix,
)


def zeta(level, power=1):
    return CycInt.zeta(level, power)


def rand_cyc(rng, level, lo=-9, hi=9):
    span = 1 << (level - 1)
    return CycInt(level, tuple(rng.randint(lo, hi) for _ in range(span)))


# --- scalar arithmetic --------------------------------------------------------


def test_reduction_relation():
    assert zeta(3) * zeta(3, 3) == CycInt.from_int(-1)
    assert zeta(2) * zeta(2) == -1
    value = (zeta(3) + zeta(3, 3)) * (zeta(3) + zeta(3, 3))
    assert value == CycInt.from_int(-2)


def test_level_mismatch_raises():
    with pytest.raises(LevelMismatch):
        zeta(2) * zeta(3)
    with pytest.raises(LevelMismatch):
        zeta(2) + zeta(3)
    assert zeta(2).promote(3) * zeta(3) == zeta(3, 3)


def test_promotion_preserves_value_and_hash():
    i = zeta(2)
    lifted = i.promote(4)
    assert i == lifted
    assert hash(i) == hash(lifted)
    assert abs(i.complex_value() - lifted.complex_value()) < 1e-12
    with pytest.raises(LevelMismatch):
        lifted.promote(2)


def test_integer_coercion():
    assert zeta(2) * 0 == 0
    assert zeta(3) + 1 - 1 == zeta(3)
    assert -CycInt.from_int(5) == -5


def test_string_rendering():
    assert str(CycInt.from_int(0, 3)) == "0"
    assert str(zeta(3)) == "z"
    assert str(-zeta(3, 3)) == "-z^3"
    assert str(zeta(3) + zeta(3, 3) + 2) == "z^3+z+2"
    assert str(CycInt(3, (1, 0, -2, 0))) == "-2z^2+1"


def test_ring_axioms_randomized():
    rng = random.Random(101)
    for _ in range(300):
        level = rng.randint(2, 4)
        a, b, c = (rand_cyc(rng, level) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert a + (-a) == 0


def test_float_shadow_small():
    rng = random.Random(2024)
    for _ in range(500):
        level = rng.randint(2, 4)
        a, b = rand_cyc(rng, level), rand_cyc(rng, level)
        got = (a * b).complex_value()
        expected = a.complex_value() * b.complex_value()
        assert abs(got - expected) < 1e-9


# --- matrices -----------------------------------------------------------------


def test_mat_mul_examples():
    eye = CycMatrix.identity(2, 2)
    rot = rot_matrix(2)
    assert rot * eye == rot
    j = j_matrix()
    assert j * j == CycMatrix(1, [[-1, 0], [0, -1]])
    f = f_matrix()
    assert f * f == CycMatrix.identity(2)


def test_mat_mul_requires_matching_shapes():
    with pytest.raises(LevelMismatch):
        rot_matrix(2) * rot_matrix(3)
    with pytest.raises(ValueError):
        j_matrix() * kronecker(j_matrix(), j_matrix())


def test_matrix_equality_across_levels():
    j = j_matrix()
    assert j == j.promote(3)
    assert hash(j) == hash(j.promote(3))


def test_matrix_rendering():
    assert str(rot_matrix(2)) == "[[z,0],[0,-z]]"
    assert str(j_matrix()) == "[[0,-1],[1,0]]"
    assert str(rot_matrix(3)) == "[[z,0],[0,-z^3]]"


def test_kronecker():
    eye = CycMatrix.identity(2)
    a = j_matrix()
    block = kronecker(eye, a)
    assert block.dim == 4
    assert block.rows[0][1] == CycInt.from_int(-1)
    assert block.rows[2][3] == CycInt.from_int(-1)
    assert block.rows[0][2] == CycInt.from_int(0)

    f = f_matrix()
    ff = kronecker(f, f)
    for i in range(4):
        for j in range(4):
            assert ff.rows[i][j] == CycInt.from_int(1 if i + j == 3 else 0)

    jf = kronecker(j_matrix(), f_matrix())
    square = jf * jf
    separate = kronecker(j_matrix() * j_matrix(), f * f)
    assert square == separate


def entrywise_kronecker(a, b):
    # the plain formula: every entry a product, zero factors included
    db = b.dim
    dim = a.dim * db
    return CycMatrix(a.level, [
        [a.rows[i // db][j // db] * b.rows[i % db][j % db] for j in range(dim)]
        for i in range(dim)
    ])


def assert_same_matrix(got, want):
    assert got == want
    assert str(got) == str(want)
    assert got.level == want.level
    assert [[e.coeffs for e in row] for row in got.rows] == [
        [e.coeffs for e in row] for row in want.rows
    ]


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_kronecker_of_pauli_generators_matches_entrywise_formula(qubits):
    eye = CycMatrix.identity(2, 2)
    for mat in (rot_matrix(2), j_matrix(2), f_matrix(2)):
        for q in range(qubits):
            fast = slow = None
            for slot in range(qubits):
                factor = mat if slot == q else eye
                fast = factor if fast is None else kronecker(fast, factor)
                slow = factor if slow is None else entrywise_kronecker(slow, factor)
            assert_same_matrix(fast, slow)


def test_kronecker_of_random_matrices_matches_entrywise_formula():
    rng = random.Random(9)
    for _ in range(40):
        level = rng.randint(1, 3)
        a, b = (
            CycMatrix(level, [
                [rand_cyc(rng, level, -2, 2) if rng.random() < 0.5 else 0 for _ in range(dim)]
                for _ in range(dim)
            ])
            for dim in (rng.choice((1, 2, 4)), rng.choice((1, 2, 4)))
        )
        assert_same_matrix(kronecker(a, b), entrywise_kronecker(a, b))


def test_closure_trivial():
    G = matrix_group_closure([CycMatrix.identity(2)])
    assert G.order == 1


def test_closure_diquaternion_eight():
    G = matrix_group_closure(
        [rot_matrix(2), j_matrix(), f_matrix()], names=["i", "j", "f"]
    )
    assert G.order == 16
    assert G.element_names[0] == "[[1,0],[0,1]]"
    assert dict(G.generators).keys() == {"i", "j", "f"}


def test_closure_diquaternion_sixteen():
    G = matrix_group_closure([rot_matrix(3), j_matrix(), f_matrix()])
    assert G.order == 32


def test_closure_cap():
    # diag(z, z^-1) has order 2^level: 4096 elements fit in a table, 4097 do not
    assert matrix_group_closure([rot_matrix(12)]).order == isqrt(MAX_TABLE_CELLS)
    with pytest.raises(CapExceeded) as err:
        matrix_group_closure([rot_matrix(13)])
    assert str(err.value) == f"table cap {MAX_TABLE_CELLS} cells exceeded (order 4097)"
    assert err.value.cosets_defined == 4097


def test_generator_orders_divide_group_order():
    G = diquaternion_group(16)
    for _, el in G.generators:
        assert G.order % G.element_orders()[el] == 0


def test_diquaternion_structure():
    DQ8 = diquaternion_group(8)
    assert DQ8.order == 16
    halves = [s for s in enumerate_subgroups(DQ8) if s.index == 2]
    classes = {identify(s.as_group()).name for s in halves}
    assert classes == {"C_4xC_2", "D_4", "Q_8"}

    DQ16 = diquaternion_group(16)
    assert DQ16.order == 32
    halves16 = [s for s in enumerate_subgroups(DQ16) if s.index == 2]
    names16 = [identify(s.as_group()).name for s in halves16]
    # the quaternion, dihedral, and abelian halves each occur exactly once
    for wanted in ("Q_16", "D_8", "C_8xC_2"):
        assert names16.count(wanted) == 1
    for s in halves16:
        assert is_normal(DQ16, s)


def test_pauli_orders_and_identity():
    P1 = pauli_group(1)
    assert P1.order == 16
    assert is_isomorphic(P1, diquaternion_group(8)) is not None
    assert pauli_group(2).order == 64
    assert pauli_group(4).order == 1024
    # the dense-table cap is the only bound: order 4^6 = 4096 fits, 4^7 does not
    assert pauli_group(5).order == isqrt(MAX_TABLE_CELLS)
    for qubits in (6, 10**12):
        with pytest.raises(CapExceeded) as err:
            pauli_group(qubits)
        cap = f"table cap {MAX_TABLE_CELLS} cells exceeded (order 4^{qubits + 1})"
        assert str(err.value) == cap
    with pytest.raises(ValueError):
        pauli_group(0)


def test_pauli_two_qubit_structure():
    P2 = pauli_group(2)
    hist = P2.order_histogram()
    assert P2.exponent() == 4
    assert hist[1] == 1
    t = cayley_table(P2)
    assert len([g for g in range(1, P2.order) if t[g][g] == 0]) == hist[2]


def test_bad_closure_inputs():
    with pytest.raises(ValueError):
        matrix_group_closure([])
    with pytest.raises(ValueError):
        matrix_group_closure([j_matrix()], names=["a", "b"])
    with pytest.raises(ValueError):
        diquaternion_group(12)


@pytest.mark.parametrize(
    "gen",
    [
        CycMatrix(1, [[1, 1], [0, 1]]),  # two entries in row 0
        CycMatrix(1, [[1, 0], [1, 0]]),  # column 0 twice, column 1 never
        CycMatrix(1, [[2, 0], [0, 1]]),  # an entry that is not a root of unity
        CycMatrix(1, [[0, 0], [0, 1]]),  # an empty row
        CycMatrix(3, [[zeta(3) + 1, 0], [0, 1]]),  # a sum of two roots
    ],
)
def test_non_monomial_generator_is_rejected(gen):
    with pytest.raises(ValueError, match="not monomial"):
        matrix_group_closure([gen])
    with pytest.raises(ValueError, match="not monomial"):
        matrix_group_closure([j_matrix(), gen], names=["j", "x"])


# --- the monomial closure against the CycMatrix closure -----------------------
#
# The library closes over (permutation, exponent) codes and renders labels
# from them.  This reference multiplies whole CycMatrix objects and labels
# each element with str(CycMatrix); both must give the same Group.  The
# reference is slow (seconds per thousand elements), so a caller may bound
# it: past ``bound`` elements it raises BoundReached with the labels of the
# first ``bound``, which both closures list in the same BFS order.


class BoundReached(Exception):
    def __init__(self, labels):
        super().__init__(f"more than {len(labels)} elements")
        self.labels = labels


def reference_closure(gens, names=None, bound=None):
    gens = list(gens)
    if names is None:
        names = [f"g{k}" for k in range(len(gens))]
    level = max(g.level for g in gens)
    gens = [g.promote(level) for g in gens]
    ident = CycMatrix.identity(gens[0].dim, level)
    elements = [ident]
    index = {ident: 0}
    columns = [[] for _ in gens]
    for m in elements:
        for g, col in zip(gens, columns):
            prod = m * g
            if prod not in index:
                if len(elements) == bound:
                    raise BoundReached(tuple(map(str, elements)))
                index[prod] = len(elements)
                elements.append(prod)
            col.append(index[prod])
    labels = tuple(str(m) for m in elements)
    generators = tuple((str(name), col[0]) for name, col in zip(names, columns))
    return group_from_action(columns, element_names=labels, generators=generators)


def outcome(closure, *args):
    try:
        G = closure(*args)
    except CapExceeded as exc:
        return ("cap", str(exc), exc.cosets_defined)
    return (cayley_table(G), G.element_names, G.generators)


def closures_built_by(build):
    """The arguments of every matrix_group_closure call that ``build`` makes."""
    calls = []

    def record(gens, names=None):
        calls.append((list(gens), names))
        return matrix_group_closure(gens, names)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "matrix_group_closure", record)
        build()
    return calls


TEST_CLOSURES = [
    ([CycMatrix.identity(2)],),
    ([rot_matrix(2), j_matrix(), f_matrix()], ["i", "j", "f"]),
    ([rot_matrix(3), j_matrix(), f_matrix()],),
    ([rot_matrix(4), j_matrix()], ["r", "j"]),  # levels 4 and 1
    ([kronecker(j_matrix(2), f_matrix(2)), kronecker(rot_matrix(2), f_matrix(2))],),
    ([CycMatrix(1, [[-1]])],),
]


@pytest.mark.parametrize("args", TEST_CLOSURES)
def test_closure_matches_reference(args):
    assert outcome(matrix_group_closure, *args) == outcome(reference_closure, *args)


@pytest.mark.parametrize(
    "family, param",
    [(pauli_group, q) for q in (1, 2, 3)]
    + [(diquaternion_group, m) for m in (8, 16, 32, 64, 128, 256, 512)],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_family_closures_match_reference(family, param):
    for args in closures_built_by(lambda: family(param)):
        assert outcome(matrix_group_closure, *args) == outcome(reference_closure, *args)


@st.composite
def monomial_matrices(draw, dim):
    level = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(dim)))
    rows = [[0] * dim for _ in range(dim)]
    for i, col in enumerate(perm):
        rows[i][col] = CycInt.zeta(level, draw(st.integers(0, (1 << level) - 1)))
    return CycMatrix(level, rows)


@st.composite
def monomial_generators(draw):
    dim = draw(st.sampled_from((1, 2, 4)))
    return draw(st.lists(monomial_matrices(dim), min_size=1, max_size=3))


@settings(max_examples=80, deadline=None)
@given(monomial_generators(), st.integers(1, 48))
def test_random_monomial_closures_match_reference(gens, bound):
    got = outcome(matrix_group_closure, gens)
    try:
        want = outcome(reference_closure, gens, None, bound)
    except BoundReached as reached:
        if got[0] == "cap":  # more than 4096 elements: no Group to compare
            assert got[1:] == (f"table cap {MAX_TABLE_CELLS} cells exceeded (order 4097)", 4097)
        else:
            table, labels = got[:2]
            assert len(table) > bound and labels[:bound] == reached.labels
    else:
        assert got == want
