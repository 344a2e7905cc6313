"""Command-line interface.

Subcommands: enumerate, identify, check-graph, check-table, make, quotient,
fixture.  Every command prints a human-readable report by default and a
schema-versioned JSON document with --json; identify-style commands accept
--expect NAME to assert the result for CI use.

Exit codes: 0 success, 2 parse/usage error, 3 enumeration, closure or table
cap exceeded, 4 --expect mismatch.

Each handler imports the layers it uses, so a run loads only those.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .groups import CapExceeded, Identification, identify, normal_closure, quotient as group_quotient
from .words import evaluate_word, format_presentation, parse_presentation, parse_word

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_EXPECT = 4


def default_max_cosets() -> int:
    value = os.environ.get("CAYLEY_MAX_COSETS")
    if value is None:
        from .cosets import DEFAULT_MAX_COSETS
        return DEFAULT_MAX_COSETS
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"CAYLEY_MAX_COSETS must be an integer, got {value!r}")


def group_report(ident: Identification) -> dict:
    return {
        "order": ident.fingerprint.order,
        "identified": ident.describe(),
        "fingerprint": ident.fingerprint._asdict(),
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report dict, human lines, name), where
# name is what --expect is checked against, or None where it does not apply
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> tuple[dict, list[str], str | None]:
    from . import cosets
    presentation = parse_presentation(args.presentation)
    cap = default_max_cosets() if args.max_cosets is None else args.max_cosets
    table = cosets.todd_coxeter(presentation, cap)
    G = cosets.group_from_coset_table(table)
    report = {
        "presentation": format_presentation(presentation),
        "status": "closed",
        **group_report(identify(G)),
    }
    human = [
        f"presentation: {report['presentation']}",
        f"order: {G.order}",
        f"identified: {report['identified']}",
    ]
    return report, human, report["identified"]


def cmd_identify(args) -> tuple[dict, list[str], str | None]:
    if args.presentation:
        from . import cosets
        presentation = parse_presentation(args.presentation)
        G = cosets.group_from_presentation(presentation, default_max_cosets())
        report = {"source": "presentation", **group_report(identify(G))}
    elif args.graph:
        from . import graphs
        graph = graphs.load_graph_json(_read(args.graph))
        analysis = graphs.analyze(graph, max_cosets=default_max_cosets())
        report = {
            "source": "graph",
            "is_cayley": analysis.is_cayley,
            "order": analysis.presented_order,
            "identified": analysis.presented_name,
            "fingerprint": analysis.presented_group.fingerprint()._asdict(),
        }
    else:
        from . import tables
        result = tables.group_from_table(tables.parse_table(_read(args.table)))
        if result.ok:
            report = {"source": "table", **group_report(result.identification)}
        else:
            report = {
                "source": "table",
                "identified": None,
                "rejected": result.rejection.describe(),
            }
            human = [f"not a group: {result.rejection.describe()}"]
            return report, human, "not-a-group"
    human = [f"order: {report['order']}", f"identified: {report['identified']}"]
    if "is_cayley" in report:
        human.insert(0, f"cayley: {'yes' if report['is_cayley'] else 'no'}")
    return report, human, report["identified"]


def _graph_report(name: str | None, analysis) -> dict:
    verdict = analysis.verdict
    report = {
        "nodes": len(verdict.color_perms[0]),
        "colors": [c for c in analysis.presentation.generators],
        "connected": verdict.connected,
        "transitive": verdict.connected,
        "perm_group_order": verdict.perm_group_order,
        "perm_group_order_exceeds_nodes": verdict.order_exceeds_nodes,
        "perm_group_order_capped": verdict.order_capped,
        "is_cayley": verdict.is_cayley,
        "presentation": format_presentation(analysis.presentation),
        "presented_order": analysis.presented_order,
        "presented_group": analysis.presented_name,
        "acting_group": analysis.presented_name if verdict.is_cayley else None,
        "fingerprint": analysis.presented_group.fingerprint()._asdict(),
    }
    if name is not None:
        report = {"fixture": name, **report}
    return report


def _graph_human(report: dict) -> list[str]:
    order = report["perm_group_order"]
    if order is None:
        order_text = (
            f"> {report['nodes']} (early exit)"
            if not report["perm_group_order_capped"]
            else "cap exceeded"
        )
    else:
        order_text = str(order)
    lines = [
        f"nodes: {report['nodes']}",
        f"colors: {', '.join(report['colors'])}",
        f"connected: {'yes' if report['connected'] else 'no'}",
        f"permutation group order: {order_text}",
        f"cayley: {'yes' if report['is_cayley'] else 'no'}",
        f"presented group: {report['presented_group']} (order {report['presented_order']})",
    ]
    if report["acting_group"] is not None:
        lines.append(f"acting group: {report['acting_group']}")
    if report.get("fixture"):
        lines.insert(0, f"fixture: {report['fixture']}")
    return lines


def cmd_check_graph(args) -> tuple[dict, list[str], str | None]:
    from . import graphs
    graph = graphs.load_graph_json(_read(args.file))
    analysis = graphs.analyze(
        graph, full_order=args.full_order, max_cosets=default_max_cosets()
    )
    report = _graph_report(None, analysis)
    if args.dot:
        _write(args.dot, graphs.export_dot(graph))
    return report, _graph_human(report), report["presented_group"]


def cmd_check_table(args) -> tuple[dict, list[str], str | None]:
    from . import tables
    t = tables.parse_table(_read(args.file))
    result = tables.group_from_table(t)
    violation, identity, witness = result.latin_violation, result.identity, result.witness
    report = {
        "symbols": list(t.symbols),
        "order": t.order,
        "latin": "ok"
        if violation is None
        else {
            "kind": violation.kind,
            "index": violation.index,
            "symbol": violation.symbol,
        },
        "identity": identity,
        "associative": witness is None,
        "witness": list(witness) if witness else None,
        "witness_symbols": [t.symbols[i] for i in witness] if witness else None,
        "precheck": result.rejection.precheck if result.rejection else None,
        "group": result.identification.describe() if result.ok else None,
        "rejected": result.rejection.describe() if result.rejection else None,
    }
    human = [f"order: {t.order}"]
    if violation is None:
        human.append("latin square: yes")
    else:
        human.append(
            f"latin square: no ({violation.kind} {violation.index} repeats {violation.symbol!r})"
        )
    human.append(f"identity: {identity if identity else 'none'}")
    if witness:
        x, y, z = report["witness_symbols"]
        human.append(f"associative: no (({x}*{y})*{z} != {x}*({y}*{z}))")
    else:
        human.append("associative: yes")
    if report["precheck"]:
        human.append(f"precheck: {report['precheck']}")
    human.append(
        f"group: {report['group']}" if result.ok else f"rejected: {report['rejected']}"
    )
    return report, human, report["group"] if result.ok else "not-a-group"


FAMILY_USAGE = (
    "cyclic n | abelian d1,d2,... | dihedral n | quaternion m | "
    "semidihedral m | semiabelian m | sdp m k | dq m | pauli q"
)


def _family_spec(family: str, params: list[str]):
    from . import families
    kind = {entry.cli: kind for kind, entry in families.FAMILIES.items()}.get(family)
    if kind is None:
        raise ValueError(f"unknown family {family!r} (use: {FAMILY_USAGE})")
    if families.FAMILIES[kind].arity is None:
        if len(params) != 1:
            raise ValueError(f"{family} takes one comma-separated factor list")
        params = params[0].split(",")
    families.family_entry(kind, len(params))  # the count before int() reads a value
    return families.FamilySpec(kind, tuple(int(x) for x in params))


def cmd_make(args) -> tuple[dict, list[str], str | None]:
    from . import families
    spec = _family_spec(args.family, args.params)
    G = families.make(spec, default_max_cosets())
    report = {
        "family": spec.kind,
        "params": list(spec.params),
        **group_report(identify(G)),
        "generators": [name for name, _ in G.generators],
    }
    human = [
        f"family: {spec.kind}({', '.join(str(p) for p in spec.params)})",
        f"order: {G.order}",
        f"identified: {report['identified']}",
    ]
    if args.table:
        from . import tables
        text = tables.render_table(G)
        report["table"] = text
        human.append(text.rstrip("\n"))
    if args.dot:
        from . import graphs
        _write(args.dot, graphs.export_dot(graphs.build_cayley_graph(G)))
    return report, human, report["identified"]


def cmd_quotient(args) -> tuple[dict, list[str], str | None]:
    from . import cosets
    presentation = parse_presentation(args.presentation)
    G = cosets.group_from_presentation(presentation, default_max_cosets())
    assignment = {i: el for i, (_, el) in enumerate(G.generators)}
    elements = [
        evaluate_word(G, assignment, parse_word(text.strip(), presentation.generators))
        for text in args.normal.split(",")
    ]
    N = normal_closure(G, elements)
    Q = group_quotient(G, N)
    report = {
        "presentation": format_presentation(presentation),
        "group_order": G.order,
        "normal_words": [w.strip() for w in args.normal.split(",")],
        "normal_closure_order": len(N.members),
        "quotient_order": Q.order,
        "identified": identify(Q).describe(),
    }
    human = [
        f"group order: {G.order}",
        f"normal closure order: {len(N.members)}",
        f"quotient order: {Q.order}",
        f"identified: {report['identified']}",
    ]
    if args.table:
        from . import tables
        text = tables.render_table(Q)
        report["table"] = text
        human.append(text.rstrip("\n"))
    return report, human, report["identified"]


def cmd_fixture(args) -> tuple[dict, list[str], str | None]:
    from . import graphs
    if args.analyze_all:
        names = graphs.fixture_names()
        cap = default_max_cosets()

        results = [
            _graph_report(name, graphs.analyze(graphs.fixture(name), max_cosets=cap))
            for name in names
        ]
        report = {"fixtures": {r["fixture"]: r for r in results}}
        human = []
        for r in results:
            verdict = "cayley" if r["is_cayley"] else "not cayley"
            human.append(
                f"{r['fixture']}: {verdict}; presented {r['presented_group']}"
                f" (order {r['presented_order']})"
            )
        return report, human, None
    if not args.name:
        raise ValueError("fixture name required (or use --analyze-all)")
    raw = graphs.fixture_text(args.name)
    graph = graphs.load_graph_json(raw) if args.dot or args.analyze else None
    if args.dot:
        _write(args.dot, graphs.export_dot(graph))
    if not args.analyze:
        return {"fixture": args.name, "graph": json.loads(raw)}, [raw.rstrip("\n")], None
    analysis = graphs.analyze(graph, max_cosets=default_max_cosets())
    report = _graph_report(args.name, analysis)
    return report, _graph_human(report), report["presented_group"]


# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="cayleykit",
        description="Construct, analyze, and identify finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument(
            "--expect",
            metavar="NAME",
            help="exit 4 unless the identified name equals NAME",
        )

    p = sub.add_parser("enumerate", help="enumerate a presentation and identify it")
    p.add_argument("presentation", help='e.g. "<r,f | r^4=f^2=1, r f r=f>"')
    p.add_argument("--max-cosets", type=int, default=None)
    add_common(p)

    p = sub.add_parser("identify", help="identify a presentation, graph, or table")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--presentation", metavar="P")
    source.add_argument("--graph", metavar="FILE")
    source.add_argument("--table", metavar="FILE")
    add_common(p)

    p = sub.add_parser("check-graph", help="full Cayley-graph analysis of a graph file")
    p.add_argument("file")
    p.add_argument("--dot", metavar="OUT", help="also write a DOT rendering")
    p.add_argument(
        "--full-order",
        action="store_true",
        help="report the exact permutation-group order (capped at 10^6 "
        "elements; exit 3 past 2^24 stored node images)",
    )
    add_common(p)

    p = sub.add_parser("check-table", help="group-axioms report for a table file")
    p.add_argument("file")
    add_common(p)

    p = sub.add_parser("make", help="construct a named family member")
    p.add_argument("family", help=FAMILY_USAGE)
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--table", action="store_true", help="print the Cayley table")
    p.add_argument("--dot", metavar="OUT", help="write the Cayley graph as DOT")
    add_common(p)

    p = sub.add_parser("quotient", help="quotient by the normal closure of words")
    p.add_argument("--presentation", required=True, metavar="P")
    p.add_argument("--normal", required=True, metavar="W1,W2,...")
    p.add_argument("--table", action="store_true", help="print the quotient table")
    add_common(p)

    p = sub.add_parser("fixture", help="emit or analyze a bundled puzzle graph")
    p.add_argument(
        "name",
        nargs="?",
        help="petersen, ring14, ring18, mirror16, mirror32, flower16_fwd, "
        "flower16_rev, twist32_k3, twist32_k5",
    )
    p.add_argument("--analyze", action="store_true")
    p.add_argument("--analyze-all", action="store_true")
    p.add_argument("--dot", metavar="OUT")
    add_common(p)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    # by name at call time, so a cmd_* attribute replaced after the parser was built runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    started = time.perf_counter()
    warnings: list[str] = []
    try:
        report, human, name = handler(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.expect is not None and name is not None and args.expect != name:
        print(f"expectation failed: expected {args.expect!r}, got {name!r}", file=sys.stderr)
        return EXIT_EXPECT
    if args.json:
        document = {
            "schema_version": SCHEMA_VERSION,
            "command": argv,
            "report": report,
            "warnings": warnings,
            "timing_ms": int((time.perf_counter() - started) * 1000),
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
