"""Edge-colored digraphs: Cayley graph generation and recognition.

A graph has one permutation per color (directed: node successions,
undirected: perfect matchings), checked only as its ``ColoredDigraph`` is
made.  It is a Cayley graph iff it is connected and the color permutations
generate a group acting regularly on the nodes.  A connected graph's action
is regular iff the left multiplication of each color on a BFS tree, built
along that tree, commutes with every color; only a disconnected graph, or
``full_order`` on a graph that is not regular, lists the group's elements,
up to ``MAX_TABLE_CELLS`` node images in all.  Either way the graph's loops
present a group, read off the graph as its finest regular quotient (a Cayley
graph is its own), whose colour columns are the closed coset table of the
loop presentation: the coset cap bounds its order, and no coset is
enumerated.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cache
from importlib import resources
from operator import itemgetter

from . import cosets
from .groups import (
    MAX_TABLE_CELLS, CapExceeded, Group, _along, _inverse, _right, _spanning_tree, identify,
)
from .words import Presentation, _check_generator_names

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
    """Nodes 0..node_count-1, one or more EdgeColors, each a permutation or a
    perfect matching, and optional unique labels: the one check of a graph."""

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
        if not colors:
            raise GraphError("graph has no colors")
        for color in colors:
            # kept by node, so that a colour with fewer edges than it needs
            # fails at its first bare node before anything of size n is built
            image, indeg = {}, {}  # node -> its image, and a directed colour's in-degree
            where = f"color {color.name!r}"
            for u, v in color.edges:
                if not (0 <= u < node_count and 0 <= v < node_count):
                    raise GraphError(f"{where}: edge ({u},{v}) out of range")
                if u == v:
                    raise GraphError(f"{where}: self-loop at node {u}")
                if u in image or (v in image and not color.directed):
                    if image.get(u) == v:  # the edge's first copy mapped u to v
                        raise GraphError(f"{where}: duplicate edge ({u},{v})")
                    raise GraphError(f"{where}: node " + (
                        f"{u} has two outgoing edges" if color.directed
                        else f"{u if u in image else v} is matched twice"
                    ))
                image[u] = v
                if color.directed:
                    indeg[v] = indeg.get(v, 0) + 1
                else:
                    image[v] = u
            for node in range(node_count):
                if node not in image:
                    raise GraphError(f"{where}: node {node} " + (
                        "has no outgoing edge" if color.directed
                        else "is unmatched (an order-2 generator fixes no vertex)"
                    ))
                if color.directed and (k := indeg.get(node, 0)) != 1:
                    raise GraphError(f"{where}: node {node} has {k} incoming edges")
        return super().__new__(cls, node_count, colors, labels)

    def label_of(self, node: int) -> str:
        return self.labels[node] if self.labels else str(node)


def color_permutations(graph: ColoredDigraph) -> list[tuple[int, ...]]:
    """One permutation per colour, as the graph's constructor checked it is."""
    perms = []
    for color in graph.colors:
        image = [0] * graph.node_count
        for u, v in color.edges:
            image[u] = v
            if not color.directed:
                image[v] = u
        perms.append(tuple(image))
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


def _regular_quotient(perms):
    """The colour columns of the finest quotient of the nodes on which the
    colours act regularly, node 0's class as point 0; None unless they act
    transitively.  A connected graph is a complete coset table of its base
    node's stabiliser H in the free group F on the colours (Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, ch. 5); this is the
    regular action of F/ncl(H), the group its loops present.

    A round builds, along a BFS tree, the left multiplication L of each
    colour on the tree: at most n - 1 of the k colours.  If every such L
    commutes with every colour p, the action is regular, since the L's carry
    node 0 along the tree to every node (Dixon & Mortimer, Permutation
    Groups, Thm 4.2A).  Otherwise L(x.p) and L(x).p are one point of every
    regular quotient: the round merges them, closes the merges under the
    colours and goes on with the classes.  A round that merges replaces H by
    a proper overgroup, so the point count at least halves."""
    columns = perms
    while True:
        n = len(columns[0])
        tree = _spanning_tree(columns)
        if len(tree) != n - 1:
            return None
        after = [itemgetter(*p) for p in columns]  # after[i](left)[x] = left[p_i[x]]
        pending = []
        tree_colors = sorted({k for _, _, k in tree})
        for left in (_along(columns, tree, columns[k][0]) for k in tree_colors):
            then = itemgetter(*left)  # then(p)[x] = p[left[x]]
            for get, p in zip(after, columns):
                moved, image = get(left), then(p)
                if moved != image:
                    pending += [(x, y) for x, y in zip(moved, image) if x != y]
        if not pending:
            return columns
        cls, members = list(range(n)), [[x] for x in range(n)]  # class of x, members of a
        while pending:
            a, b = (cls[x] for x in pending.pop())
            if a != b:
                if len(members[a]) < len(members[b]):
                    a, b = b, a
                for x in members[b]:
                    cls[x] = a
                members[a] += members[b]
                pending += [(p[a], p[b]) for p in columns]
        number = {a: i for i, a in enumerate(dict.fromkeys(cls))}  # class -> point
        columns = [tuple(number[cls[p[x]]] for x in number) for p in columns]


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
    a connected graph's order is n when it is its own finest regular
    quotient, an O(n k min(k, n)) check for k colours, and past n otherwise; only
    ``full_order`` lists a non-regular group's elements.  Raises no GraphError."""
    perms = color_permutations(graph)
    return _verdict(perms, _regular_quotient(perms), full_order, order_cap)


def _verdict(perms, quotient, full_order, order_cap=FULL_ORDER_CAP) -> GraphVerdict:
    """The verdict on colours whose finest regular quotient is ``quotient``."""
    n = len(perms[0])
    connected = quotient is not None
    order = n if connected and len(quotient[0]) == n else None
    if order is None and (full_order or not connected):
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
    """Edge g -> g*s per generator s, along R_s; order-2 generators become matchings."""
    if gens is None:
        gens = G.generators
    gens = tuple((str(name), int(el)) for name, el in gens)
    if not gens:
        raise GraphError("no generators supplied or recorded on the group")
    for name, el in gens:
        if el == 0:
            raise GraphError(f"generator {name!r} is the identity")
        if not 0 < el < G.order:
            raise GraphError(f"generator {name!r} is not an element of the group")
    columns = [_right(G, el) for _, el in gens]
    if len(_spanning_tree(columns)) != G.order - 1:
        raise GraphError("the given elements do not generate the group")
    colors = []
    for (name, el), col in zip(gens, columns):
        matching = col[el] == 0  # s*s = e: an involution's edges pair up
        edges = tuple((g, col[g]) for g in range(G.order) if not matching or g < col[g])
        colors.append(EdgeColor(name, not matching, edges))
    labels = G.element_names if G.element_names is not None else tuple(map(str, range(G.order)))
    # edges from the action are in range and distinct, and the labels unique
    return tuple.__new__(ColoredDigraph, (G.order, tuple(colors), labels))


def extract_presentation(graph: ColoredDigraph, base: int = 0) -> Presentation:
    """Generators are the colors; loops through a BFS spanning tree give
    the relators (one per non-tree edge, plus c^2 per undirected color).
    Raises GraphError if disconnected, ValueError on a bad colour name, and
    CapExceeded before building over MAX_TABLE_CELLS letters (from loop depths)."""
    perms = color_permutations(graph)
    n = graph.node_count
    inv_perms = list(map(_inverse, perms))

    # a node's BFS word is its parent's and then its letter, whose inverse is
    # kept too: a relator holds these shared letters, a pointer each
    parent, letter, inverse, depth = [None] * n, [None] * n, [None] * n, [0] * n
    parent[base] = base
    queue = [base]
    for u in queue:  # a BFS queue, appended to while walked
        for ci, color in enumerate(graph.colors):
            steps = ((perms[ci][u], 1), (inv_perms[ci][u], -1))
            for v, sign in steps[: 1 + color.directed]:
                if parent[v] is None:
                    parent[v], letter[v], inverse[v] = u, (ci, sign), (ci, -sign)
                    depth[v] = depth[u] + 1
                    queue.append(v)
    if len(queue) != n:
        raise GraphError("graph is not connected")

    # Edge u -> v = u.c is a tree edge iff v's letter is c or u's is c^-1
    # (c, for an undirected colour).  So a loop through any other edge does
    # not cancel where c meets a tree word, and no two loops share their one
    # non-tree edge: every relator is free-reduced and distinct as built.
    loops = []  # (c, u, v) per non-tree edge u -> v = u.c, (c, None, None) for c^2
    for ci, color in enumerate(graph.colors):
        forth, back = (ci, 1), (ci, -1 if color.directed else 1)
        if not color.directed:
            loops.append((ci, None, None))
        for u, v in enumerate(perms[ci]):
            if not (letter[v] == forth or letter[u] == back or (v < u and not color.directed)):
                loops.append((ci, u, v))
    letters = sum(2 if u is None else depth[u] + depth[v] + 1 for _, u, v in loops)
    if letters > MAX_TABLE_CELLS:
        raise CapExceeded(f"loop cap {MAX_TABLE_CELLS} letters exceeded ({letters})", letters)
    names = tuple(color.name for color in graph.colors)
    _check_generator_names(names)  # the colour names come from outside

    def climb(x, per_node):  # per_node[y] for each node y from x up to the base
        out = []
        while x != base:
            out.append(per_node[x])
            x = parent[x]
        return out

    relators = tuple(
        (*reversed(climb(u, letter)), (ci, 1), *climb(v, inverse)) if u is not None
        else ((ci, 1), (ci, 1))
        for ci, u, v in loops
    )
    return tuple.__new__(Presentation, (names, relators))


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


def analyze(
    graph: ColoredDigraph,
    full_order: bool = False,
    max_cosets: int = cosets.DEFAULT_MAX_COSETS,
) -> GraphReport:
    """Invariants -> presentation -> regular quotient -> verdict -> table -> names.

    A disconnected graph is refused before any closure runs.  The presented
    group is the finest regular quotient, the graph itself if it is a Cayley
    graph; its order is charged against ``max_cosets``, and the cap itself is
    checked against the colour count before the quotient runs.  The loop
    presentation is read from node 0; ``extract_presentation`` takes another
    base."""
    presentation = extract_presentation(graph)
    cosets.check_max_cosets(max_cosets, presentation.rank)
    perms = color_permutations(graph)
    quotient = _regular_quotient(perms)
    verdict = _verdict(perms, quotient, full_order)
    # the quotient's m points are the m cosets of the loop presentation.  Every
    # relator is a loop of the graph, and a loop that closes at one point of a
    # regular action closes at all (left multiplication is a colour-preserving
    # automorphism), so the table closes each and none is traced
    m = len(quotient[0])
    if m > max_cosets:
        raise CapExceeded(
            f"coset cap {max_cosets} exceeded (a regular graph on {m} nodes has {m} cosets)", m
        )
    presented = cosets.group_from_coset_table(cosets.CosetTable(presentation, tuple(quotient), m))
    return GraphReport(verdict, presentation, presented, identify(presented))


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
        try:  # the name first, then the direction, then the edges
            name = _string(entry["name"], "color name")
            directed = _boolean(entry["directed"], '"directed"')
            edges = tuple(
                (_integer(u, "edge endpoint"), _integer(v, "edge endpoint"))
                for u, v in entry["edges"]
            )
            colors.append(EdgeColor(name, directed, edges))
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
        style = "" if color.directed else ", dir=none"
        lines += [f"  {u} -> {v} [color={dot_color}{style}];" for u, v in color.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
