"""Seeded request lists for the four workloads, with expected outcomes.

A request is a cayleykit argv plus what a correct run must produce.  Every
expectation comes from ``groups_oracle`` or from the independent fixture
oracle in tests/data, never from running the program.  File arguments are
written as ``@WORK@/name`` and the files themselves are returned alongside,
so one seed always gives byte-identical requests and inputs.

A workload is an endless sequence of blocks.  Each block holds one request
of every shape the workload covers.  Sizes, and any spelling that changes
the work, are drawn per block index, so every seed runs the same mix of work
and a run averages over many draws; the seed picks names and request order.
Untraced runs never repeat a request.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import groups_oracle as go

WORK = "@WORK@"

EXIT_OK, EXIT_USAGE, EXIT_CAP = 0, 2, 3

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "enumerate": "Todd-Coxeter plus dense table and Group build at orders up to ~840, incl. collapses, coincidence-heavy and capped infinite ones",
    "graphs": "check-graph: long loop relators and collapsing enumerations in cosets, the only user of the graphs layer",
    "tables": "check-table and identify --table: Latin, associativity and catalog isomorphism work with no coset enumeration",
    "cli_cold": "fresh interpreter per request: import, cold catalog build, matrix closure and CLI reporting",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Expect:
    code: int = EXIT_OK
    # (dotted path into the JSON "report", wanted value or oracle marker)
    fields: tuple = ()


@dataclass(frozen=True)
class Request:
    kind: str  # short label of the request's shape, shown when it fails
    argv: tuple[str, ...]
    expect: Expect


@dataclass(frozen=True)
class Block:
    workload: str
    requests: tuple[Request, ...]
    files: tuple[tuple[str, str], ...]  # (name under the work dir, text)


def block(name: str, seed: int, index: int, oracle: dict) -> Block:
    """Block ``index`` of a workload's request sequence for one seed.
    ``oracle`` is the parsed tests/data/puzzle_oracle.json.

    ``sz`` depends on the block index only and draws everything that changes
    the work: sizes, group shapes, relator spellings, the element order of
    tables and where a table or graph is broken.  ``rng`` depends on the seed
    and draws the rest: generator, colour, node and symbol names, and the
    order of the requests."""
    sz = random.Random(f"{name}:sizes:{index}")
    rng = random.Random(f"{name}:{seed}:{index}")
    files: dict[str, str] = {}
    if name == "enumerate":
        reqs = _enumerate(rng, sz)
    elif name == "graphs":
        reqs = _graphs(rng, sz, files, oracle)
    elif name == "tables":
        reqs = _tables(rng, sz, files)
    elif name == "cli_cold":
        reqs = _cli_cold(rng, sz, files, oracle)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Block(name, tuple(reqs), tuple(sorted(files.items())))


# --- checking -----------------------------------------------------------------


def matches(want, value) -> bool:
    if isinstance(want, tuple):
        kind, arg = want
        if kind == "unrecognized":
            return isinstance(value, str) and value.startswith(
                f"unrecognized(order={arg}, abelian=False,"
            )
        if kind == "at_most":
            return type(value) is int and 1 <= value <= arg
        raise ValueError(f"unknown marker {kind!r}")
    return type(value) is type(want) and value == want


def check(expect: Expect, code: int, stdout: str) -> bool:
    """True iff the exit code and every expected report field match."""
    if code != expect.code:
        return False
    if not expect.fields:
        return True
    try:
        report = json.loads(stdout)["report"]
    except (ValueError, KeyError, TypeError):
        return False
    for path, want in expect.fields:
        value = report
        for key in path.split("."):
            if not isinstance(value, dict) or key not in value:
                return False
            value = value[key]
        if not matches(want, value):
            return False
    return True


def group_fields(order: int, name):
    return (("order", order), ("identified", name))


# --- presentations -------------------------------------------------------------

GEN_POOL = "abcdghkmnpqtuvxyz"


def _names(rng, k: int) -> list[str]:
    return rng.sample(GEN_POOL, k)


def _word(syllables, names) -> str:
    """Syllables are (generator index, exponent); rendered with spaces."""
    parts = []
    for g, e in syllables:
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
    return " ".join(parts) if parts else "1"


def _inverse(syllables):
    return [(g, -e) for g, e in reversed(syllables)]


def _variant(rng, rel):
    """Same normal closure: a cyclic rotation and maybe the inverse."""
    letters = [(g, 1 if e > 0 else -1) for g, e in rel for _ in range(abs(e))]
    cut = rng.randrange(len(letters))
    letters = letters[cut:] + letters[:cut]
    if rng.random() < 0.5:
        letters = _inverse(letters)
    out: list[list[int]] = []
    for g, e in letters:
        if out and out[-1][0] == g and (out[-1][1] > 0) == (e > 0):
            out[-1][1] += e
        else:
            out.append([g, e])
    return [tuple(x) for x in out]


def _presentation(rng, ngens, relators, vary=None) -> str:
    """Generator names come from ``rng``.  Given ``vary`` (the block's size
    generator), the relators are also rotated, maybe inverted and shuffled,
    which changes how much work the enumeration does."""
    names = _names(rng, ngens)
    rels = list(relators)
    if vary is not None:
        rels = [_variant(vary, r) for r in rels]
        vary.shuffle(rels)
    return f"<{','.join(names)} | {', '.join(_word(r, names) for r in rels)}>"


def _commutator(a, b):
    return [(a, 1), (b, 1), (a, -1), (b, -1)]


def _abelian_relators(factors):
    rels = [[(i, d)] for i, d in enumerate(factors)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            rels.append(_commutator(i, j))
    return rels


def _dihedral_relators(m):
    return [[(0, m)], [(1, 2)], [(0, 1), (1, 1), (0, 1), (1, -1)]]


def _quaternion_relators(order):
    h = order // 2
    return [[(0, h)], [(1, 2), (0, -(h // 2))], [(1, -1), (0, 1), (1, 1), (0, 1)]]


def _sdp_relators(m, k):
    return [[(0, m)], [(1, 2)], [(1, 1), (0, 1), (1, 1), (0, -k)]]


# (name, generator count, relators, order): Coxeter and triangle groups
COXETER = (
    ("A4", 2, [[(0, 2)], [(1, 3)], [(0, 1), (1, 1)] * 3], 12),
    ("S4", 2, [[(0, 2)], [(1, 3)], [(0, 1), (1, 1)] * 4], 24),
    ("A5", 2, [[(0, 2)], [(1, 3)], [(0, 1), (1, 1)] * 5], 60),
    (
        "PSL27",
        2,
        [[(0, 2)], [(1, 3)], [(0, 1), (1, 1)] * 7, [(0, 1), (1, 1), (0, 1), (1, -1)] * 4],
        168,
    ),
    (
        "B3",
        3,
        [[(0, 2)], [(1, 2)], [(2, 2)], [(0, 1), (1, 1)] * 3, [(1, 1), (2, 1)] * 4,
         [(0, 1), (2, 1)] * 2],
        48,
    ),
    (
        "H3",
        3,
        [[(0, 2)], [(1, 2)], [(2, 2)], [(0, 1), (1, 1)] * 3, [(1, 1), (2, 1)] * 5,
         [(0, 1), (2, 1)] * 2],
        120,
    ),
    (
        "S5",
        4,
        [[(0, 2)], [(1, 2)], [(2, 2)], [(3, 2)], [(0, 1), (1, 1)] * 3,
         [(1, 1), (2, 1)] * 3, [(2, 1), (3, 1)] * 3, [(0, 1), (2, 1)] * 2,
         [(0, 1), (3, 1)] * 2, [(1, 1), (3, 1)] * 2],
        120,
    ),
)

# presentations of infinite groups: enumeration must stop at the cap
INFINITE = (
    (2, [[(0, 2)], [(1, 3)]]),  # PSL(2,Z)
    (2, [[(0, 3)], [(1, 3)], [(0, 1), (1, 1)] * 3]),  # Euclidean (3,3,3)
    (2, [_commutator(0, 1)]),  # Z^2
)


def _involutions(m):
    return [k for k in range(1, m) if k * k % m == 1]


def _enum(kind, text, order, name):
    return Request(kind, ("enumerate", text, "--json"), Expect(fields=group_fields(order, name)))


def _enumerate(rng, sz) -> list[Request]:
    out = []
    # the large groups spread over a range of orders so that the slow tail,
    # where p90 falls, is dense rather than a few clusters with gaps between
    n = sz.randint(300, 600)
    out.append(_enum("cyclic", _presentation(rng, 1, [[(0, n)]]), n, f"C_{n}"))
    n = sz.randint(2, 64)
    out.append(_enum("cyclic", _presentation(rng, 1, [[(0, n)]]), n, f"C_{n}"))
    m = sz.randint(200, 420)
    out.append(
        _enum("dihedral", _presentation(rng, 2, _dihedral_relators(m)), 2 * m,
              go.dihedral_name(m))
    )
    m = sz.randint(3, 32)
    out.append(
        _enum("dihedral", _presentation(rng, 2, _dihedral_relators(m)), 2 * m,
              go.dihedral_name(m))
    )
    factors = [sz.randint(14, 20), sz.randint(18, 25)]
    out.append(
        _enum("abelian", _presentation(rng, 2, _abelian_relators(factors)),
              factors[0] * factors[1], go.abelian_name(factors))
    )
    factors = [sz.choice((2, 3, 4)), sz.choice((2, 4, 6)), sz.choice((2, 3))]
    out.append(
        _enum("abelian", _presentation(rng, 3, _abelian_relators(factors)),
              factors[0] * factors[1] * factors[2], go.abelian_name(factors))
    )
    order = sz.choice((256, 512))
    out.append(
        _enum("quaternion", _presentation(rng, 2, _quaternion_relators(order)), order,
              go.quaternion_name(order))
    )
    order = sz.choice((8, 16, 32, 64))
    out.append(
        _enum("quaternion", _presentation(rng, 2, _quaternion_relators(order)), order,
              go.quaternion_name(order))
    )
    m = sz.choice((128, 256))
    k = sz.choice(_involutions(m)[1:])  # k = 1 would take the abelian path
    out.append(
        _enum("sdp", _presentation(rng, 2, _sdp_relators(m, k)), 2 * m,
              go.sdp_name(m, k))
    )
    m = sz.choice((8, 16, 32))
    k = sz.choice((m // 2 - 1, m // 2 + 1, m - 1, 1))
    out.append(
        _enum("sdp", _presentation(rng, 2, _sdp_relators(m, k)), 2 * m,
              go.sdp_name(m, k))
    )
    for _, ngens, rels, order in sz.sample(COXETER, 3):
        out.append(
            _enum("coxeter", _presentation(rng, ngens, rels), order,
                  go.unrecognized(order))
        )
    # collapsing: s r s = r^k with k^2 != 1 (mod m)
    while True:
        m = sz.randint(20, 400)
        k = sz.randint(2, m - 2)
        order, cname = go.collapse_order_and_name(m, k)
        if k * k % m != 1 and cname is not None:
            break
    out.append(
        _enum("collapse", _presentation(rng, 2, _sdp_relators(m, k), vary=sz), order, cname)
    )
    # a b a^-1 = b^2, b a b^-1 = a^2 presents the trivial group
    trivial = [[(0, 1), (1, 1), (0, -1), (1, -2)], [(1, 1), (0, 1), (1, -1), (0, -2)]]
    out.append(_enum("collapse", _presentation(rng, 2, trivial, vary=sz), 1, "C_1"))
    # conjugated and redundant relators: same group, many coincidences
    m = sz.randint(24, 60)
    rels = []
    for rel in _dihedral_relators(m):
        w = [(sz.randrange(2), sz.choice((1, -1))) for _ in range(sz.randint(1, 3))]
        rels.append(w + rel + _inverse(w))
    rels.append([(0, m)] * 2)
    rels.append([(1, 1), (0, m), (1, -1)])
    out.append(
        _enum("conjugated", _presentation(rng, 2, rels, vary=sz), 2 * m,
              go.dihedral_name(m))
    )
    factors = list(sz.choice(((10, 12), (11, 11), (9, 13), (8, 15))))
    out.append(
        _enum("conjugated", _presentation(rng, 2, _abelian_relators(factors), vary=sz),
              factors[0] * factors[1], go.abelian_name(factors))
    )
    ngens, rels = INFINITE[sz.randrange(len(INFINITE))]
    cap = str(sz.randint(3000, 4000))
    out.append(
        Request("infinite", ("enumerate", _presentation(rng, ngens, rels, vary=sz), "--json",
                             "--max-cosets", cap), Expect(EXIT_CAP))
    )
    rng.shuffle(out)
    return out


# --- graphs ------------------------------------------------------------------


def fixture_expect(entry: dict) -> Expect:
    """Expected check-graph report of a bundled fixture, from the
    permutation-group oracle's verdict on it."""
    nodes = entry["nodes"]
    exceeds = entry["perm_group_order"] > nodes
    return Expect(fields=(
        ("nodes", nodes),
        ("connected", entry["connected"]),
        ("is_cayley", entry["is_cayley"]),
        ("perm_group_order", None if exceeds else entry["perm_group_order"]),
        ("perm_group_order_exceeds_nodes", exceeds),
        ("presented_order", entry["presented_order"]),
        ("presented_group", entry["presented_name"]),
    ))


def _labelled_graph(rng, t, gens):
    """Node numbering stays the group's (it decides the relator order, hence
    the enumeration work); the seed picks color and node names."""
    names = _names(rng, len(gens))
    graph = go.cayley_graph(t, [(name, s) for name, (_, s) in zip(names, gens)])
    labels = [f"v{i}" for i in range(len(t))]
    rng.shuffle(labels)
    return {"nodes": graph["nodes"], "labels": labels, "colors": graph["colors"]}


def _graph_cases(sz):
    """(kind, table, generators, name, perturb too) of the generated Cayley graphs."""
    m = sz.randint(60, 130)
    yield "dihedral", go.dihedral_table(m), [("r", 1), ("f", m)], go.dihedral_name(m), True
    n = sz.randint(100, 200)
    yield "cyclic", go.cyclic_table(n), [("r", 1), ("s", sz.randint(2, n // 2 - 1))], \
        f"C_{n}", True
    factors = [sz.randint(6, 12), sz.randint(8, 14)]
    yield "abelian", go.abelian_table(factors), [("a", factors[1]), ("b", 1)], \
        go.abelian_name(factors), True
    m = sz.randint(8, 32)
    yield "dihedral", go.dihedral_table(m), [("r", 1), ("f", m)], go.dihedral_name(m), False
    order = sz.choice((16, 32, 64))
    yield "quaternion", go.quaternion_table(order), [("i", 1), ("j", order // 2)], \
        go.quaternion_name(order), False
    # small ones, so that the median request sits inside a dense cluster
    n = sz.randint(12, 32)
    yield "cyclic", go.cyclic_table(n), [("r", 1)], f"C_{n}", False
    factors = list(sz.choice(((2, 4), (2, 6), (3, 3), (4, 4), (2, 8), (3, 6))))
    yield "abelian", go.abelian_table(factors), [("a", factors[1]), ("b", 1)], \
        go.abelian_name(factors), False
    m = sz.randint(4, 8)
    yield "dihedral", go.dihedral_table(m), [("r", 1), ("f", m)], go.dihedral_name(m), False


def _graphs(rng, sz, files, oracle) -> list[Request]:
    out = []
    for name in sorted(oracle):
        out.append(Request(
            "fixture", ("check-graph", f"src/cayleykit/fixtures/{name}.json", "--json"),
            fixture_expect(oracle[name]),
        ))
    for i, (kind, t, gens, gname, perturbed) in enumerate(_graph_cases(sz)):
        graph = _labelled_graph(rng, t, gens)
        n = len(t)
        files[f"g{i}.json"] = json.dumps(graph)
        out.append(Request(
            kind, ("check-graph", f"{WORK}/g{i}.json", "--json"),
            Expect(fields=(("nodes", n), ("is_cayley", True), ("perm_group_order", n),
                           ("presented_order", n), ("presented_group", gname))),
        ))
        if perturbed:
            files[f"p{i}.json"] = json.dumps(go.perturb(graph, sz))
            out.append(Request(
                "perturbed", ("check-graph", f"{WORK}/p{i}.json", "--json"),
                Expect(fields=(("nodes", n), ("is_cayley", False),
                               ("presented_order", ("at_most", n)))),
            ))
    rng.shuffle(out)
    return out


# --- tables ------------------------------------------------------------------


def _symbols(rng, n):
    pool = [f"{c}{i}" for c in "egxyz" for i in range(n)]
    return rng.sample(pool, n)


def table_text(t, rng, sz) -> str:
    """Shuffle the elements (``sz``: the order decides how soon a scan finds a
    witness) and name them (``rng``); the identity lands anywhere."""
    n = len(t)
    order = list(range(n))
    sz.shuffle(order)  # order[k] = element shown at position k
    sym = _symbols(rng, n)
    pos = {el: k for k, el in enumerate(order)}
    lines = ["# generated by perfbench", " ".join(sym)]
    for el in order:
        lines.append(" ".join(sym[pos[t[el][x]]] for x in order))
    return "\n".join(lines) + "\n"


def _valid_tables(sz):
    """(kind, table, name) of group tables; orders 5..~200."""
    n = sz.randint(100, 190)
    yield "cyclic", go.cyclic_table(n), f"C_{n}"
    n = sz.randint(5, 60)
    yield "cyclic", go.cyclic_table(n), f"C_{n}"
    factors = [sz.randint(6, 12), sz.randint(8, 14)]
    yield "abelian", go.abelian_table(factors), go.abelian_name(factors)
    factors = [2, sz.choice((2, 4)), sz.choice((4, 6, 8))]
    yield "abelian", go.abelian_table(factors), go.abelian_name(factors)
    m = sz.randint(50, 95)
    yield "dihedral", go.dihedral_table(m), go.dihedral_name(m)
    m = sz.randint(3, 32)
    yield "dihedral", go.dihedral_table(m), go.dihedral_name(m)
    order = sz.choice((16, 32, 64))
    yield "quaternion", go.quaternion_table(order), go.quaternion_name(order)
    m, k = sz.choice(((4, 2), (4, 4), (5, 4), (3, 4)))
    # D_m x C_k is named so when it is the first catalog entry of its order
    # that it matches; D_m x C_2 for odd m is D_2m, hence no (odd, 2) pair
    yield "product", go.direct_product_table(go.dihedral_table(m), go.cyclic_table(k)), \
        f"D_{m}xC_{k}"


PRIMES = [p for p in range(53, 200) if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def _tables(rng, sz, files) -> list[Request]:
    out = []
    for i, (kind, t, name) in enumerate(_valid_tables(sz)):
        files[f"t{i}.txt"] = table_text(t, rng, sz)
        n = len(t)
        out.append(Request(kind, ("check-table", f"{WORK}/t{i}.txt", "--json"), Expect(fields=(
            ("order", n), ("latin", "ok"), ("associative", True), ("group", name),
        ))))
        out.append(Request(kind, ("identify", "--table", f"{WORK}/t{i}.txt", "--json"),
                           Expect(fields=group_fields(n, name))))
    # Latin squares that are not associative
    m = sz.randint(45, 50)
    s, _ = go.intercalate_swap(go.dihedral_table(2 * m), sz)
    files["n0.txt"] = table_text(s, rng, sz)
    n = sz.randint(90, 95)
    s2, _ = go.intercalate_swap(go.cyclic_table(2 * n), sz)
    files["n1.txt"] = table_text(s2, rng, sz)
    for f in ("n0.txt", "n1.txt"):
        out.append(Request("intercalate", ("check-table", f"{WORK}/{f}", "--json"),
                           Expect(fields=(("latin", "ok"), ("associative", False),
                                          ("group", None)))))
    p = sz.choice(PRIMES)
    a, b = sz.randint(2, p - 1), sz.randint(2, p - 1)
    files["n2.txt"] = table_text(go.affine_quasigroup(p, a, b, sz.randrange(p)), rng, sz)
    out.append(Request("affine", ("check-table", f"{WORK}/n2.txt", "--json"),
                       Expect(fields=(("order", p), ("latin", "ok"), ("identity", None),
                                      ("associative", False), ("group", None)))))
    out.append(Request("affine", ("identify", "--table", f"{WORK}/n2.txt", "--json"),
                       Expect(fields=(("identified", None),))))
    # not Latin: one cell repeats its row's neighbour
    n = sz.randint(90, 100)
    t = go.cyclic_table(n)
    i, j = sz.randrange(1, n), sz.randrange(1, n - 1)
    t[i][j] = t[i][j + 1]
    files["n3.txt"] = table_text(t, rng, sz)
    out.append(Request("nonlatin", ("check-table", f"{WORK}/n3.txt", "--json"),
                       Expect(fields=(("order", n), ("group", None)))))
    out.append(Request("nonlatin", ("identify", "--table", f"{WORK}/n3.txt", "--json"),
                       Expect(fields=(("identified", None),))))
    rng.shuffle(out)
    return out


# --- cli_cold ----------------------------------------------------------------


def _cli_cold(rng, sz, files, oracle) -> list[Request]:
    out = []

    def make(args, order, name, kind="make"):
        out.append(Request(kind, ("make", *args, "--json"),
                           Expect(fields=group_fields(order, name))))

    # orders are fixed so that every block builds the same cold catalogs
    make(("pauli", "1"), 16, go.diquaternion_name(8), "pauli")
    make(("pauli", "2"), 64, go.unrecognized(64), "pauli")
    for m in (8, 16, 32, 64):
        make(("dq", str(m)), 2 * m, go.diquaternion_name(m), "dq")
    make(("sdp", "32", "15"), 64, go.sdp_name(32, 15))
    make(("dihedral", "8", "--table"), 16, go.dihedral_name(8), "table")
    # order-48/64 presentations identified against a cold catalog
    for m, k in ((24, 23), (32, 17)):
        text = _presentation(rng, 2, _sdp_relators(m, k))
        out.append(Request("identify", ("identify", "--presentation", text, "--json"),
                           Expect(fields=group_fields(2 * m, go.sdp_name(m, k)))))
    fixture_fields = tuple(
        (f"fixtures.{name}.{key}", entry[src])
        for name, entry in sorted(oracle.items())
        for key, src in (("is_cayley", "is_cayley"), ("presented_order", "presented_order"),
                         ("presented_group", "presented_name"))
    )
    out.append(Request("fixture", ("fixture", "--analyze-all", "--json"),
                       Expect(fields=fixture_fields)))
    name = sz.choice(("mirror32", "twist32_k3", "twist32_k5"))
    out.append(Request("fixture", ("fixture", name, "--analyze", "--json"),
                       fixture_expect(oracle[name])))
    m = sz.randint(10, 12)
    files["cold_t.txt"] = table_text(go.dihedral_table(m), rng, sz)
    out.append(Request("table", ("check-table", f"{WORK}/cold_t.txt", "--json"),
                       Expect(fields=(("order", 2 * m), ("group", go.dihedral_name(m))))))
    # the quaternion group of order 32 modulo its centre is D_8
    text = _presentation(rng, 2, _quaternion_relators(32))
    out.append(Request("quotient", ("quotient", "--presentation", text, "--normal",
                                    _center_word(text), "--json"),
                       Expect(fields=(("group_order", 32), ("quotient_order", 16),
                                      ("identified", "D_8")))))
    out.append(Request("malformed", ("enumerate", "<a,b | a^2, b^3", "--json"),
                       Expect(EXIT_USAGE)))
    # cheap requests, mostly interpreter start-up, so that the median falls
    # inside one dense cluster of costs rather than at its edge
    n = sz.randint(6, 16)
    out.append(_enum("cyclic", _presentation(rng, 1, [[(0, n)]]), n, f"C_{n}"))
    n = sz.randint(10, 30)
    make(("cyclic", str(n)), n, f"C_{n}")
    factors = [sz.choice((2, 3, 4)), sz.choice((4, 6))]
    make(("abelian", ",".join(map(str, factors))), factors[0] * factors[1],
         go.abelian_name(factors))
    make(("quaternion", "8"), 8, go.quaternion_name(8))
    name = sz.choice(sorted(oracle))
    out.append(Request("fixture", ("fixture", name, "--json"),
                       Expect(fields=(("fixture", name), ("graph.nodes", oracle[name]["nodes"])))))
    rng.shuffle(out)
    return out


def _center_word(text: str) -> str:
    """r^8 for the order-32 quaternion presentation: its first generator
    has order 16 and its 8th power spans the centre."""
    first = text[1:text.index(",")]
    return f"{first}^8"
