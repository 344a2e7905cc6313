"""cayleykit: build, analyze, and identify finite groups.

Presentations are enumerated to explicit multiplication tables; candidate
edge-colored graphs and candidate multiplication tables are tested for being
Cayley graphs/tables and the groups they define are named.
"""

from .cosets import (
    CosetTable,
    group_from_coset_table,
    group_from_presentation,
    todd_coxeter,
)
from .graphs import (
    ColoredDigraph,
    EdgeColor,
    GraphError,
    analyze,
    build_cayley_graph,
    export_dot,
    extract_presentation,
    fixture,
    fixture_names,
    is_cayley,
    load_graph_json,
)
from .groups import (
    CapExceeded,
    Fingerprint,
    Group,
    GroupError,
    Identification,
    Subgroup,
    center,
    enumerate_subgroups,
    has_semidirect_decomposition,
    identify,
    is_isomorphic,
    is_normal,
    quotient,
    subgroup_closure,
)
from .tables import (
    FiniteTable,
    TableError,
    associativity_witness,
    group_from_table,
    identity_check,
    latin_check,
    parse_table,
    render_table,
)
from .words import ParseError, Presentation, Word, parse_presentation

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "ColoredDigraph",
    "CosetTable",
    "EdgeColor",
    "Fingerprint",
    "FiniteTable",
    "GraphError",
    "Group",
    "GroupError",
    "Identification",
    "ParseError",
    "Presentation",
    "Subgroup",
    "TableError",
    "Word",
    "analyze",
    "associativity_witness",
    "build_cayley_graph",
    "center",
    "enumerate_subgroups",
    "export_dot",
    "extract_presentation",
    "fixture",
    "fixture_names",
    "group_from_coset_table",
    "group_from_presentation",
    "group_from_table",
    "has_semidirect_decomposition",
    "identify",
    "identity_check",
    "is_cayley",
    "is_isomorphic",
    "is_normal",
    "latin_check",
    "load_graph_json",
    "parse_presentation",
    "parse_table",
    "quotient",
    "render_table",
    "subgroup_closure",
    "todd_coxeter",
    "__version__",
]
