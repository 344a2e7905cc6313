"""The package's records are immutable, and each one that checks its fields
refuses what it refused as a frozen dataclass."""

import pytest

from cayleykit import families
from cayleykit.cosets import todd_coxeter
from cayleykit.graphs import ColoredDigraph, EdgeColor, GraphError, analyze, fixture
from cayleykit.groups import GroupError, Subgroup, center, identify
from cayleykit.matrices import CycInt
from cayleykit.tables import Rejection, group_from_table, latin_check, parse_table
from cayleykit.words import parse_presentation


def records():
    """One instance of each record type, with one of its field names."""
    d4 = families.dihedral(4)
    pres = parse_presentation("<r,f | r^4=f^2=1, r f r=f>")
    graph = fixture("petersen")
    report = analyze(graph)
    table = parse_table("e a\ne a\na a\n")
    result = group_from_table(table)
    pairs = [
        (d4.fingerprint(), "order"),
        (center(d4), "members"),
        (identify(d4), "name"),
        (pres, "generators"),
        (todd_coxeter(pres), "num_cosets"),
        (graph.colors[0], "edges"),
        (graph, "node_count"),
        (report.verdict, "is_cayley"),
        (report, "verdict"),
        (table, "cells"),
        (latin_check(table), "kind"),
        (Rejection("not a Latin square"), "reason"),
        (result, "group"),
        (CycInt(2, (1, 0)), "coeffs"),
        (families.FamilySpec("cyclic", (3,)), "params"),
        (families.FAMILIES["cyclic"], "arity"),
    ]
    return [pytest.param(record, field, id=type(record).__name__) for record, field in pairs]


@pytest.mark.parametrize("record, field", records())
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dictionary either


def test_replace_checks_as_the_constructor_does():
    table = parse_table("e a\na e\ne a\n")
    cases = [
        (parse_presentation("<a,b | a^2>"), {"generators": ("a", "a")}, "duplicate generator"),
        (center(families.dihedral(4)), {"members": (1,)}, "identity as least member"),
        (table, {"cells": ((0, 1),)}, "expected 2 rows, got 1"),
        (table, {"cells": ((0, 1), (1, 0.0))}, "cell value 0.0 out of range"),
        (table, {"cells": (("e", "a"), ("a", "e"))}, "cell value 'e' out of range"),
        (fixture("petersen"), {"node_count": 0}, "at least one node"),
        (fixture("petersen"), {"colors": (EdgeColor("red", True, ((0, 1), (1, 0))),)},
         "node 2 has no outgoing edge"),
    ]
    for record, change, message in cases:
        with pytest.raises(ValueError, match=message):
            record._replace(**change)


def test_subgroup_needs_the_identity_first():
    G = families.dihedral(3)
    with pytest.raises(GroupError, match="identity as least member"):
        Subgroup(G, (1, 2))
    with pytest.raises(GroupError, match="identity as least member"):
        Subgroup(G, ())


def test_graph_needs_a_node():
    with pytest.raises(GraphError, match="at least one node"):
        ColoredDigraph(0, (EdgeColor("r", True, ()),))


def test_cyc_int_checks_its_level_and_coefficient_count():
    with pytest.raises(ValueError, match="level 3 needs 4 coefficients"):
        CycInt(3, (1, 0))
    with pytest.raises(ValueError, match="level must be at least 1"):
        CycInt(0, ())


def test_cyc_int_is_no_tuple():
    # equal by value across levels, as one hash, and with no tuple order
    one = CycInt(1, (1,))
    assert one == CycInt(2, (1, 0)) == 1
    assert hash(one) == hash(CycInt(3, (1, 0, 0, 0)))
    assert not isinstance(one, tuple)
    with pytest.raises(TypeError):
        sorted([one, CycInt(1, (2,))])
