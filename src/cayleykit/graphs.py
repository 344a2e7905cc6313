"""Edge-colored digraphs: Cayley graph generation and recognition.

A candidate graph has one permutation per color (directed colors are node
successions, undirected colors are perfect matchings).  The graph is a Cayley
graph iff it is connected and the color permutations generate a group acting
regularly on the nodes.  A connected graph's action is regular iff each
generator's left multiplication, built along a BFS tree, commutes with every
color; only a disconnected graph, or ``full_order`` on a graph that is not
regular, lists the group's elements, up to ``MAX_TABLE_CELLS`` node images
in all.  Either way the graph's loops present a group, which is identified.
A Cayley graph's color permutations are the closed coset table of that
presentation, so its group is read from the graph; only a non-Cayley
graph's loops are enumerated by Todd-Coxeter, since they present a proper
quotient of the acting group.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cache
from importlib import resources
from operator import itemgetter

from . import cosets
from .groups import (
    MAX_TABLE_CELLS, CapExceeded, Group, _left_multiplications, _spanning_tree, identify,
    subgroup_closure,
)
from .words import Presentation, Word, format_word, inverse_word

__all__ = [
    "GraphError",
    "EdgeColor",
    "ColoredDigraph",
    "GraphVerdict",
    "GraphReport",
    "color_permutations",
    "build_cayley_graph",
    "is_cayley",
    "extract_presentation",
    "analyze",
    "fixture",
    "fixture_names",
    "fixture_text",
    "load_graph_json",
    "dump_graph_json",
    "export_dot",
]

FULL_ORDER_CAP = 10**6

DOT_COLORS = {
    "red", "blue", "green", "orange", "purple", "brown",
    "cyan", "magenta", "black", "gray", "yellow",
}
DOT_PALETTE = ("red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta")


class GraphError(ValueError):
    pass


class EdgeColor(namedtuple("EdgeColor", "name directed edges")):
    """A colour's name, whether its edges are directed, and its (u, v) edges."""

    __slots__ = ()


class ColoredDigraph(namedtuple("ColoredDigraph", "node_count colors labels")):
    """Nodes 0..node_count-1, a tuple of EdgeColors, and optional unique labels."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, node_count: int, colors: tuple[EdgeColor, ...], labels=None):
        if node_count < 1:
            raise GraphError("graph needs at least one node")
        if labels is not None and len(labels) != node_count:
            raise GraphError("one label per node required")
        first: dict[str, int] = {}
        for node, label in enumerate(labels or ()):
            if first.setdefault(label, node) != node:
                raise GraphError(f"nodes {first[label]} and {node} share label {label!r}")
        for color in colors:
            seen = set()
            for u, v in color.edges:
                if not (0 <= u < node_count and 0 <= v < node_count):
                    raise GraphError(
                        f"color {color.name!r}: edge ({u},{v}) out of range"
                    )
                key = (u, v) if color.directed else (min(u, v), max(u, v))
                if key in seen:
                    raise GraphError(
                        f"color {color.name!r}: duplicate edge ({u},{v})"
                    )
                seen.add(key)
        return super().__new__(cls, node_count, colors, labels)

    def label_of(self, node: int) -> str:
        return self.labels[node] if self.labels else str(node)


def color_permutations(graph: ColoredDigraph) -> list[tuple[int, ...]]:
    """One permutation per color; raises GraphError naming the offender."""
    if not graph.colors:
        raise GraphError("graph has no colors")
    n = graph.node_count
    perms = []
    for color in graph.colors:
        # kept by node, so that a colour with fewer edges than it needs fails
        # at its first bare node before anything of size n is built
        image: dict[int, int] = {}
        if color.directed:
            indeg: dict[int, int] = {}
            for u, v in color.edges:
                if u == v:
                    raise GraphError(f"color {color.name!r}: self-loop at node {u}")
                if u in image:
                    raise GraphError(
                        f"color {color.name!r}: node {u} has two outgoing edges"
                    )
                image[u] = v
                indeg[v] = indeg.get(v, 0) + 1
            for node in range(n):
                if node not in image:
                    raise GraphError(
                        f"color {color.name!r}: node {node} has no outgoing edge"
                    )
                if indeg.get(node, 0) != 1:
                    raise GraphError(
                        f"color {color.name!r}: node {node} has "
                        f"{indeg.get(node, 0)} incoming edges"
                    )
        else:
            for u, v in color.edges:
                if u == v:
                    raise GraphError(f"color {color.name!r}: self-loop at node {u}")
                if u in image or v in image:
                    raise GraphError(
                        f"color {color.name!r}: node {u if u in image else v} "
                        "is matched twice"
                    )
                image[u], image[v] = v, u
            for node in range(n):
                if node not in image:
                    raise GraphError(
                        f"color {color.name!r}: node {node} is unmatched "
                        "(an order-2 generator fixes no vertex)"
                    )
        perms.append(tuple(image[node] for node in range(n)))
    return perms


def _closure(perms, limit: int) -> int | None:
    """Order of the group the permutations generate, or None past the limit;
    raises CapExceeded before the elements kept pass MAX_TABLE_CELLS images."""
    n = len(perms[0])
    ident = tuple(range(n))
    elements = [ident]
    seen = {ident}
    for current in elements:  # a BFS queue, appended to while walked
        then = itemgetter(*current)  # then(p): apply current, then p
        for p in perms:
            q = then(p)
            if q not in seen:
                if (len(elements) + 1) * n > MAX_TABLE_CELLS:
                    raise CapExceeded(
                        f"closure cap {MAX_TABLE_CELLS} cells exceeded "
                        f"({len(elements)} permutations of {n} nodes)",
                        len(elements),
                    )
                seen.add(q)
                elements.append(q)
                if len(elements) > limit:
                    return None
    return len(elements)


def _centralised_by_left_multiplications(perms, tree) -> bool:
    """Whether each generator's left multiplication along the spanning tree
    commutes with every colour: L(x.p) == L(x).p for all nodes x and colours p.

    A map that commutes with a transitive group is onto, so a permutation in
    its centraliser in Sym(n).  These maps send node 0 to 0.s for each
    generator s, so they generate a transitive subgroup of the centraliser.
    A g fixing node 0 then fixes every node c(0) with c in it, as c(0).g =
    c(0.g) = c(0), so g = 1 and the action is regular.  Conversely a regular
    action's left multiplications commute with its right ones (Dixon &
    Mortimer, Permutation Groups, Thm 4.2A)."""
    after = [itemgetter(*p) for p in perms]  # after[i](left)[x] = left[p_i[x]]
    for left in _left_multiplications(perms, tree):
        then = itemgetter(*left)  # then(p)[x] = p[left[x]]
        if any(a(left) != then(p) for a, p in zip(after, perms)):
            return False
    return True


class GraphVerdict(namedtuple(
    "GraphVerdict",
    "connected color_perms perm_group_order order_exceeds_nodes order_capped is_cayley",
)):
    """The regularity verdict; ``perm_group_order`` is None when only a lower
    bound is known."""

    __slots__ = ()


def is_cayley(
    graph: ColoredDigraph,
    full_order: bool = False,
    order_cap: int = FULL_ORDER_CAP,
) -> GraphVerdict:
    """Regular-action test: connected and closure order equals node count.

    A transitive group has order n times the size of a point stabiliser, so
    a connected graph's order is n when the generators' left multiplications
    commute with every colour (the action is regular), an O(n k^2) check for
    k colours, and past n otherwise; only ``full_order`` lists a non-regular
    group's elements to count them."""
    perms = color_permutations(graph)
    n = graph.node_count
    tree = _spanning_tree(perms)
    connected = len(tree) == n - 1
    if connected and _centralised_by_left_multiplications(perms, tree):
        order = n
    elif connected and not full_order:
        order = None
    else:
        order = _closure(perms, order_cap if full_order else n)
    return GraphVerdict(
        connected=connected,
        color_perms=tuple(perms),
        perm_group_order=order,
        order_exceeds_nodes=order is None or order > n,
        order_capped=full_order and order is None,
        is_cayley=connected and order == n,
    )


def build_cayley_graph(G: Group, gens=None) -> ColoredDigraph:
    """Edge g -> g*s per generator s; order-2 generators become matchings."""
    if gens is None:
        gens = G.generators
    gens = tuple((str(name), int(el)) for name, el in gens)
    if not gens:
        raise GraphError("no generators supplied or recorded on the group")
    for name, el in gens:
        if el == 0:
            raise GraphError(f"generator {name!r} is the identity")
    if len(subgroup_closure(G, [el for _, el in gens]).members) != G.order:
        raise GraphError("the given elements do not generate the group")
    colors = []
    for name, el in gens:
        if G.element_orders()[el] == 2:
            edges = tuple(
                (g, G.table[g][el]) for g in range(G.order) if g < G.table[g][el]
            )
            colors.append(EdgeColor(name, False, edges))
        else:
            colors.append(
                EdgeColor(name, True, tuple((g, G.table[g][el]) for g in range(G.order)))
            )
    labels = (
        G.element_names
        if G.element_names is not None
        else tuple(str(i) for i in range(G.order))
    )
    return ColoredDigraph(G.order, tuple(colors), labels)


def extract_presentation(graph: ColoredDigraph, base: int = 0) -> Presentation:
    """Generators are the colors; loops through a BFS spanning tree give
    the relators (one per non-tree edge, plus c^2 per undirected color)."""
    perms = color_permutations(graph)
    n = graph.node_count
    inv_perms = [tuple(sorted(range(n), key=p.__getitem__)) for p in perms]

    words: list = [None] * n
    words[base] = ()
    queue = [base]
    for u in queue:  # a BFS queue, appended to while walked
        for ci, color in enumerate(graph.colors):
            steps = [(perms[ci][u], 1)]
            if color.directed:
                steps.append((inv_perms[ci][u], -1))
            for v, sign in steps:
                if words[v] is None:
                    words[v] = words[u] + ((ci, sign),)
                    queue.append(v)
    if len(queue) != n:
        raise GraphError("graph is not connected")

    # Edge u -> v = u.c is a tree edge iff v's word ends in c or u's word in
    # c^-1 (in c, for an undirected colour).  So a loop through any other edge
    # does not cancel where c meets a tree word, and no two loops share their
    # one non-tree edge: every relator is free-reduced and distinct as built.
    relators: list[Word] = []
    for ci, color in enumerate(graph.colors):
        forth, back = ((ci, 1),), ((ci, -1 if color.directed else 1),)
        if not color.directed:
            relators.append(forth + forth)
        for u in range(n):
            v = perms[ci][u]
            tree = words[v][-1:] == forth or words[u][-1:] == back
            if tree or (v < u and not color.directed):
                continue
            relators.append(words[u] + forth + inverse_word(words[v]))

    names = tuple(color.name for color in graph.colors)
    return Presentation(names, tuple(relators))


class GraphReport(namedtuple(
    "GraphReport", "verdict presentation presented_group presented_identification"
)):
    """A GraphVerdict, the loop Presentation, the Group it presents and that
    group's Identification."""

    __slots__ = ()

    @property
    def is_cayley(self) -> bool:
        return self.verdict.is_cayley

    @property
    def presented_order(self) -> int:
        return self.presented_group.order

    @property
    def presented_name(self) -> str:
        return self.presented_identification.describe()


def _regular_coset_table(
    presentation: Presentation, perms, max_cosets: int
) -> cosets.CosetTable:
    """The closed coset table of a regular graph's loop presentation: the
    colour permutations themselves.

    The loops are the Schreier generators of the stabiliser of their base
    node, which for a regular action is the whole relation subgroup, so
    Todd-Coxeter would rebuild this action.  Any node can be coset 0, the
    base or not: left multiplication by an element is a colour-preserving
    automorphism of a Cayley graph, taking node 0 to any node.  A relator
    that fixes one point of a regular action fixes them all, so tracing each
    from coset 0 checks the table."""
    cosets.check_max_cosets(max_cosets, presentation.rank)
    n = len(perms[0])
    if n > max_cosets:
        raise CapExceeded(
            f"coset cap {max_cosets} exceeded (a regular graph on {n} nodes "
            f"has {n} cosets)",
            n,
        )
    inverses = tuple(tuple(sorted(range(n), key=p.__getitem__)) for p in perms)
    table = cosets.CosetTable(presentation, tuple(perms), inverses, n)
    for rel in presentation.relators:
        if table.trace(0, rel) != 0:
            raise RuntimeError(
                f"coset table does not close relator "
                f"{format_word(rel, presentation.generators)} at coset 0"
            )
    return table


def analyze(
    graph: ColoredDigraph,
    base: int = 0,
    full_order: bool = False,
    max_cosets: int = cosets.DEFAULT_MAX_COSETS,
) -> GraphReport:
    """Invariants -> presentation -> regularity verdict -> coset table -> names.

    A disconnected graph is refused before any closure runs.  A Cayley graph
    is its own coset table; only a non-Cayley graph's loops are enumerated."""
    presentation = extract_presentation(graph, base)
    verdict = is_cayley(graph, full_order=full_order)
    if verdict.is_cayley:
        table = _regular_coset_table(presentation, verdict.color_perms, max_cosets)
    else:
        table = cosets.todd_coxeter(presentation, max_cosets)
    presented = cosets.group_from_coset_table(table)
    return GraphReport(
        verdict=verdict,
        presentation=presentation,
        presented_group=presented,
        presented_identification=identify(presented),
    )


@cache
def _fixture_dir():
    """The bundled fixtures directory and its graph names, listed once per process."""
    root = resources.files("cayleykit").joinpath("fixtures")
    names = sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))
    return root, tuple(names)


def fixture_names() -> list[str]:
    return list(_fixture_dir()[1])


def fixture_text(name: str) -> str:
    """The JSON text of one of the bundled puzzle graphs; any other name
    raises GraphError before anything is read."""
    root, names = _fixture_dir()
    if name not in names:
        raise GraphError(f"unknown fixture {name!r} (known: {', '.join(names)})")
    return root.joinpath(f"{name}.json").read_text()


def fixture(name: str) -> ColoredDigraph:
    """One of the bundled puzzle graphs; any other name raises GraphError."""
    return load_graph_json(fixture_text(name))


def _integer(value, what: str) -> int:
    # a JSON integer: not a float, however integral, nor a boolean or string
    if type(value) is not int:
        raise GraphError(f"{what} must be an integer, got {value!r}")
    return value


def _boolean(value, what: str) -> bool:
    # a JSON boolean: any string, even "false", would be truthy
    if type(value) is not bool:
        raise GraphError(f"{what} must be true or false, got {value!r}")
    return value


def _string(value, what: str) -> str:
    # a JSON string: str() would accept a list or an object, echoed in full later
    if type(value) is not str:
        raise GraphError(f"{what} must be a string, got {type(value).__name__}")
    return value


def load_graph_json(text: str) -> ColoredDigraph:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"invalid graph JSON: {exc}") from None
    if not isinstance(data, dict) or "nodes" not in data or "colors" not in data:
        raise GraphError('graph JSON needs "nodes" and "colors"')
    labels = data.get("labels")
    if not isinstance(data["colors"], list):
        raise GraphError('"colors" must be a list')
    if labels is not None and not isinstance(labels, list):
        raise GraphError('"labels" must be a list')
    nodes = _integer(data["nodes"], '"nodes"')
    colors = []
    for entry in data["colors"]:
        try:
            colors.append(
                EdgeColor(
                    _string(entry["name"], "color name"),
                    _boolean(entry["directed"], '"directed"'),
                    tuple(
                        (_integer(u, "edge endpoint"), _integer(v, "edge endpoint"))
                        for u, v in entry["edges"]
                    ),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed color entry: {exc}") from None
    return ColoredDigraph(
        nodes,
        tuple(colors),
        tuple(_string(x, "label") for x in labels) if labels is not None else None,
    )


def dump_graph_json(graph: ColoredDigraph, description: str | None = None) -> str:
    obj: dict = {"nodes": graph.node_count}
    if description is not None:
        obj["description"] = description
    if graph.labels is not None:
        obj["labels"] = list(graph.labels)
    obj["colors"] = [
        {"name": c.name, "directed": c.directed, "edges": [list(e) for e in c.edges]}
        for c in graph.colors
    ]
    return json.dumps(obj, indent=2) + "\n"


def export_dot(graph: ColoredDigraph) -> str:
    """DOT digraph with one statement per node and per edge, stable order."""
    lines = ["digraph G {"]
    for i in range(graph.node_count):
        label = graph.label_of(i).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {i} [label="{label}"];')
    for ci, color in enumerate(graph.colors):
        dot_color = color.name if color.name in DOT_COLORS else DOT_PALETTE[ci % len(DOT_PALETTE)]
        for u, v in color.edges:
            if color.directed:
                lines.append(f"  {u} -> {v} [color={dot_color}];")
            else:
                lines.append(f"  {u} -> {v} [color={dot_color}, dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"
