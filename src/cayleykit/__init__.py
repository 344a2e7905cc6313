"""cayleykit: build, analyze, and identify finite groups.

Presentations are enumerated to explicit multiplication tables; candidate
edge-colored graphs and candidate multiplication tables are tested for being
Cayley graphs/tables and the groups they define are named.

Each layer module is imported on first use (PEP 562): ``import cayleykit``
loads none of them, and ``cayleykit.identify`` loads ``groups`` only.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each layer module
_EXPORTS = {
    "cosets": (
        "CosetTable", "group_from_coset_table", "group_from_presentation", "todd_coxeter",
    ),
    "graphs": (
        "ColoredDigraph", "EdgeColor", "GraphError", "analyze", "build_cayley_graph",
        "export_dot", "extract_presentation", "fixture", "fixture_names", "is_cayley",
        "load_graph_json",
    ),
    "groups": (
        "CapExceeded", "Fingerprint", "Group", "GroupError", "Identification", "Subgroup",
        "cayley_table", "center", "enumerate_subgroups", "has_semidirect_decomposition",
        "identify", "is_isomorphic", "is_normal", "quotient", "subgroup_closure",
    ),
    "tables": (
        "FiniteTable", "TableError", "associativity_witness", "group_from_table",
        "identity_check", "latin_check", "parse_table", "render_table",
    ),
    "words": ("ParseError", "Presentation", "Word", "parse_presentation"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF) + ["__version__"]


def __getattr__(name: str):
    """Import the layer behind ``name`` on first access.  Nothing is cached
    here: after the import, a layer module is an attribute of the package,
    and a public name is looked up in its layer on every access."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _LAYER_OF:
        return getattr(import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
