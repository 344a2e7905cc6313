import pytest

from cayleykit import families
from cayleykit.families import FamilySpec
from cayleykit.groups import direct_product, identify, is_isomorphic
from cayleykit.words import evaluate_word


@pytest.mark.parametrize(
    "spec, order",
    [
        (FamilySpec("cyclic", (1,)), 1),
        (FamilySpec("cyclic", (12,)), 12),
        (FamilySpec("abelian", (8, 2)), 16),
        (FamilySpec("dihedral", (4,)), 8),
        (FamilySpec("quaternion", (16,)), 16),
        (FamilySpec("semidihedral", (8,)), 16),
        (FamilySpec("semiabelian", (8,)), 16),
        (FamilySpec("sdp", (16, 9)), 32),
        (FamilySpec("diquaternion", (8,)), 16),
        (FamilySpec("pauli", (1,)), 16),
    ],
)
def test_make_orders(spec, order):
    assert families.make(spec).order == order


def test_invalid_parameters():
    with pytest.raises(ValueError):
        families.quaternion(12)
    with pytest.raises(ValueError):
        families.sdp_c2(16, 3)  # 9 != 1 mod 16
    with pytest.raises(ValueError):
        families.semidihedral(12)
    with pytest.raises(ValueError):
        families.cyclic(0)
    with pytest.raises(ValueError):
        families.make(FamilySpec("nonsense", (1,)))


def test_sdp_reduces_twist_modulo_m():
    assert is_isomorphic(families.sdp_c2(8, 15), families.sdp_c2(8, 7)) is not None


def test_sdp_k1_is_abelian():
    G = families.sdp_c2(16, 1)
    assert G.is_abelian()
    assert identify(G).name == "C_16xC_2"


def test_sdp_known_names():
    assert identify(families.sdp_c2(16, 15)).name == "D_16"
    assert identify(families.sdp_c2(16, 7)).name == "SD_16"
    assert identify(families.sdp_c2(16, 9)).name == "SA_16"


def test_quaternion_has_single_involution():
    for order in (8, 16, 32):
        hist = families.quaternion(order).order_histogram()
        assert hist[2] == 1


def test_involutive_exponents():
    assert families.involutive_exponents(16) == [1, 7, 9, 15]
    assert families.involutive_exponents(2) == [1]
    assert families.involutive_exponents(8) == [1, 3, 5, 7]
    assert families.involutive_exponents(15) == [1, 4, 11, 14]
    with pytest.raises(ValueError):
        families.involutive_exponents(1)


@pytest.mark.parametrize("m", [8, 16, 32])
def test_four_twists_pairwise_distinct(m):
    ks = families.involutive_exponents(m)
    assert len(ks) == 4
    groups = [families.sdp_c2(m, k) for k in ks]
    for G in groups:
        assert G.order == 2 * m
        r = dict(G.generators)["r"]
        assert G.element_orders()[r] == m  # index-2 cyclic subgroup
    for i in range(4):
        for j in range(i + 1, 4):
            assert is_isomorphic(groups[i], groups[j]) is None


@pytest.mark.parametrize("n", [4, 5])
def test_quaternion_never_a_twist(n):
    Q = families.quaternion(2**n)
    for k in families.involutive_exponents(2 ** (n - 1)):
        assert is_isomorphic(Q, families.sdp_c2(2 ** (n - 1), k)) is None


AGREEMENT_SPECS = [
    FamilySpec("cyclic", (9,)),
    FamilySpec("abelian", (4, 2, 2)),
    FamilySpec("dihedral", (7,)),
    FamilySpec("quaternion", (32,)),
    FamilySpec("semidihedral", (16,)),
    FamilySpec("semiabelian", (16,)),
    FamilySpec("sdp", (12, 5)),
    # a small grid over every presentation family, invalid parameters included
    FamilySpec("cyclic", (1,)),
    FamilySpec("cyclic", (0,)),
    FamilySpec("abelian", (1,)),
    FamilySpec("abelian", (1, 1)),
    FamilySpec("abelian", (0,)),
    FamilySpec("abelian", (-2,)),
    FamilySpec("abelian", (4, 1, 2)),
    FamilySpec("abelian", ()),
    FamilySpec("dihedral", (1,)),
    FamilySpec("dihedral", (0,)),
    FamilySpec("quaternion", (8,)),
    FamilySpec("quaternion", (12,)),
    FamilySpec("semidihedral", (8,)),
    FamilySpec("semidihedral", (12,)),
    FamilySpec("semiabelian", (4,)),
    FamilySpec("sdp", (2, 1)),
    FamilySpec("sdp", (16, 3)),
    FamilySpec("sdp", (1, 0)),
    FamilySpec("sdp", (8,)),  # wrong parameter count
    FamilySpec("cyclic", (3, 4)),  # wrong parameter count
]


def test_agreement_specs_cover_every_presentation_family():
    kinds = {kind for kind, entry in families.FAMILIES.items() if entry.text}
    assert {spec.kind for spec in AGREEMENT_SPECS} == kinds


@pytest.mark.parametrize("spec", AGREEMENT_SPECS)
def test_defining_relators_hold(spec):
    """make and family_presentation agree: both refuse a spec with
    ValueError, or the group has the presentation's generator names and
    satisfies every relator."""
    try:
        presentation = families.family_presentation(spec)
    except ValueError:
        with pytest.raises(ValueError):
            families.make(spec)
        return
    G = families.make(spec)
    assert [name for name, _ in G.generators] == list(presentation.generators)
    names = dict(G.generators)
    assignment = {
        i: names[g] for i, g in enumerate(presentation.generators)
    }
    for rel in presentation.relators:
        assert evaluate_word(G, assignment, rel) == 0


def test_matrix_families_have_no_presentation():
    assert families.family_presentation(FamilySpec("pauli", (1,))) is None
    assert families.family_presentation(FamilySpec("diquaternion", (8,))) is None


def test_dihedral_convention_is_double():
    for n in (1, 2, 3, 8, 16):
        assert families.dihedral(n).order == 2 * n


def test_catalog_has_expected_members():
    names = {name for name, _, _ in families.nonabelian_catalog(32)}
    assert {"D_16", "SD_16", "SA_16", "Q_32", "DQ_16"} <= names
    names16 = {name for name, _, _ in families.nonabelian_catalog(16)}
    assert {"D_8", "SD_8", "SA_8", "Q_16", "DQ_8", "D_4xC_2", "Q_8xC_2"} <= names16


def test_catalog_lists_each_group_once():
    # D_6 = D_3xC_2, C_3xD_3 = D_3xC_3 and Q_8xD_4 = D_4xQ_8 appear once each
    total = 0
    for order in range(1, 65):
        entries = [(name, build()) for name, _, build in families.nonabelian_catalog(order)]
        total += len(entries)
        for i, (name, G) in enumerate(entries):
            for earlier, H in entries[:i]:
                if G.fingerprint() == H.fingerprint():
                    assert is_isomorphic(G, H) is None, (earlier, name)
    assert total == 120


def test_catalog_fingerprints_follow_from_the_factors():
    # every entry's fingerprint is computed by a formula without building
    # the group; it must equal the fingerprint of the group it builds
    nonabelian = [
        (order, entry) for order in range(1, 65) for entry in families.nonabelian_catalog(order)
    ]
    abelian = [
        (order, families._abelian_entry(tuple(factors)))
        for order in range(1, 65)
        for factors in families._invariant_factor_lists(order)
    ]
    assert len(abelian) == 117  # every abelian group of order <= 64
    for order, (name, fp, build) in nonabelian + abelian:
        G = build()
        assert G.order == order, name
        assert G.fingerprint() == fp, name
        assert build() is G, name


def catalog_builds(monkeypatch, action) -> list:
    """What ``action`` builds with every catalog entry listed anew and
    unbuilt: each enumeration, matrix closure and direct product, as
    (builder name, its first argument)."""
    from cayleykit import matrices

    for listing in (families._plain_entries, families._abelian_entry,
                    families.nonabelian_catalog):
        listing.cache_clear()
    built = []

    def spy(name, builder):
        def call(first, *args, **kwargs):
            built.append((name, first))
            return builder(first, *args, **kwargs)
        return call

    for module, name in ((families, "group_from_presentation"),
                         (families, "direct_product"), (matrices, "matrix_group_closure")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    action()
    return built


def test_listing_the_catalog_builds_no_group(monkeypatch):
    assert catalog_builds(monkeypatch, lambda: families.nonabelian_catalog(64)) == []
    assert "DQ_32" in {name for name, _, _ in families.nonabelian_catalog(64)}


def test_unmatched_order_64_group_builds_no_catalog_entry(monkeypatch):
    pauli2 = families.pauli(2)
    assert catalog_builds(monkeypatch, lambda: identify(pauli2)) == []


def test_identify_builds_only_the_matching_entry(monkeypatch):
    G = families.sdp_c2(32, 15)
    sd32 = families.family_presentation(FamilySpec("semidihedral", (32,)))
    assert catalog_builds(monkeypatch, lambda: identify(G)) == [
        ("group_from_presentation", sd32)
    ]
    assert identify(G).name == "SD_32"


def products_built(monkeypatch, action) -> int:
    """The direct products built by ``action`` with the catalog listed anew
    (the plain entries and abelian cofactors built so far stay built)."""
    for order in range(1, 65):
        families.nonabelian_catalog(order)
    built = []
    monkeypatch.setattr(
        families, "direct_product", lambda G, H: built.append(1) or direct_product(G, H)
    )
    families.nonabelian_catalog.cache_clear()
    action()
    return len(built)


def test_unmatched_order_64_group_builds_no_product(monkeypatch):
    pauli2 = families.pauli(2)
    assert products_built(monkeypatch, lambda: identify(pauli2)) == 0
    assert identify(pauli2).name is None


def test_identify_builds_at_most_two_catalog_products(monkeypatch):
    # at most two entries of one order share a fingerprint
    for order in range(1, 65):
        fingerprints = [fp for _, fp, _ in families.nonabelian_catalog(order)]
        assert max(map(fingerprints.count, fingerprints), default=0) <= 2
    for name, G in families.catalog_groups(64):
        if not G.is_abelian():
            assert products_built(monkeypatch, lambda: identify(G)) <= 2, name
