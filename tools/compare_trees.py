"""Send the same requests through two checkouts' ``cli.main`` and report every
difference in exit code, stdout, stderr or the file a request writes with
``--dot``.

    python3 tools/compare_trees.py OLD_ROOT NEW_ROOT --blocks 12

The requests are blocks 0..N-1 of each benchmark workload at seed 1 (drawn
by ``perfbench/workloads.py`` of OLD_ROOT, data files written once to a shared
temporary directory), the commands of the golden cases in
``tests/test_cli.py``, run from OLD_ROOT's ``tests/data``, the fixed
requests of ``PRINTED``, whose tables and DOT files are compared, the graphs
of ``GRAPH_FILES``, checked under ``GRAPH_ENV``, and the fixed malformed
requests of ``MALFORMED``, whose exit codes and one-line errors must match
as well.  Each checkout
answers them all in one child interpreter with its own ``src`` first on
``sys.path``; ``cli_cold`` requests go through ``cli.main`` there too.  A JSON
report is compared without its ``timing_ms``.  Prints one line per difference
and a count, and exits 1 if anything differs.
"""

from __future__ import annotations

import argparse
import ast
import json
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from cayleykit import cli
for cwd, argv, env in json.load(open(sys.argv[2])):
    os.chdir(cwd)
    os.environ.update(env)
    dot = argv[argv.index("--dot") + 1] if "--dot" in argv else None
    if dot and os.path.exists(dot):
        os.remove(dot)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    try:
        document = json.loads(text)
    except ValueError:
        pass
    else:
        if isinstance(document, dict):
            document.pop("timing_ms", None)
            text = json.dumps(document, sort_keys=True)
    written = open(dot).read() if dot and os.path.exists(dot) else None
    for key in env:
        del os.environ[key]
    print(json.dumps([code, text, err.getvalue(), written]))
"""

FIELDS = ("exit code", "stdout", "stderr", "dot file")

# requests that print a whole Cayley table or write a Cayley graph as DOT,
# run in one directory; the quotient's normal words hold inverse letters, and
# the graph of C_8 x C_2 has one matching colour
PRINTED = [
    ["make", "dihedral", "6", "--table", "--dot", "d6.dot"],
    ["make", "dq", "16", "--table", "--dot", "dq16.dot"],
    ["make", "dihedral", "64", "--dot", "d64.dot"],
    ["make", "abelian", "8,2", "--dot", "c8c2.dot"],
    ["make", "quaternion", "16", "--dot", "q16.dot"],
    ["quotient", "--presentation", "<r,f | r^8, f^2, (r f)^2>", "--normal", "r^-2", "--table"],
    ["quotient", "--presentation", "<a,b | a^4, b^4, a^-1 b^-1 a b>",
     "--normal", "a^-2 b^-2", "--table", "--json"],
]


def _graph(nodes, colors):
    """Graph JSON text of ``colors``, (name, directed, successor list) each."""
    return json.dumps({"nodes": nodes, "colors": [
        {"name": name, "directed": directed,
         "edges": [[u, v] for u, v in enumerate(image) if directed or u < v]}
        for name, directed, image in colors
    ]})


# D_6 = {r^i f^j} as node i + 6j, right multiplication by r and by f
_ROTATE = [(i + 1) % 6 for i in range(6)] + [6 + (i - 1) % 6 for i in range(6)]
_FLIP = [i + 6 for i in range(6)] + list(range(6))

# graphs written to the graph directory and sent through check-graph --json
# under GRAPH_ENV: 300 copies of one matching on 2 nodes, which the default
# coset cap refuses for so many colours, and D_6's Cayley graph with every
# colour given twice under new names; in each, the colours on the BFS tree
# are fewer than all colours
GRAPH_FILES = {
    "many_colours.json": _graph(2, [(f"c{i}", False, [1, 0]) for i in range(300)]),
    "d6_twice.json": _graph(12, [
        ("r", True, _ROTATE), ("f", False, _FLIP), ("s", True, _ROTATE), ("g", False, _FLIP),
    ]),
}
GRAPH_ENV = {"CAYLEY_MAX_COSETS": "600"}

# malformed inputs, written to one directory: each request is refused with a
# one-line message, or its table is reported and rejected; and one table
# whose identity is not its first symbol, reported and accepted.  The second
# non-associative square has its identity c on a middle row, and its first
# witness (a*b)*a has its middle b outside the greedy generating sequence a, d
MALFORMED_FILES = {
    "not_latin.txt": "e a\ne a\na a\n",
    "not_latin_no_identity.txt": "e a\na a\ne e\n",
    "not_associative.txt": "e a b c d\ne a b c d\na e c d b\nb d e a c\nc b d e a\nd c a b e\n",
    "middle_identity.txt": (
        "a b c d e f\nf e a c d b\nc f b e a d\na b c d e f\ne c d f b a\nd a e b f c\n"
        "b d f a c e\n"
    ),
    "identity_last.txt": "a b e\nb e a\ne a b\na b e\n",
    "broken.json": '{"nodes": 3, "edges": [',
}
MALFORMED = [
    ["enumerate", "<a | a^>"],
    ["quotient", "--presentation", "<a | a^4>", "--normal", "b"],
    ["identify", "--table", "not_latin.txt"],
    ["check-table", "not_latin.txt", "--json"],
    ["identify", "--table", "not_latin_no_identity.txt"],
    ["check-table", "not_latin_no_identity.txt", "--json"],
    ["identify", "--table", "not_associative.txt"],
    ["check-table", "not_associative.txt", "--json"],
    ["identify", "--table", "middle_identity.txt"],
    ["check-table", "middle_identity.txt", "--json"],
    ["identify", "--table", "identity_last.txt"],
    ["check-table", "identity_last.txt", "--json"],
    ["check-graph", "broken.json"],
    ["enumerate", "<a | a^3>", "--max-cosets", "0"],
]


def golden_commands(root: Path) -> list[list[str]]:
    """The argv of each golden case: the ``CASES`` literal of tests/test_cli.py."""
    tree = ast.parse((root / "tests" / "test_cli.py").read_text())
    (cases,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "CASES"
    ]
    return [cases[name] for name in sorted(cases)]


def requests(root: Path, blocks: int, workdir: Path):
    """(label, cwd, argv, env) of every request, with each block's files written;
    ``env`` holds the environment variables set for that request alone."""
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    oracle = json.loads((root / "tests" / "data" / "puzzle_oracle.json").read_text())
    found = []
    for name in workloads.WORKLOADS:
        for index in range(blocks):
            block = workloads.block(name, 1, index, oracle)
            where = workdir / f"{name}-{index}"
            where.mkdir()
            for file, text in block.files:
                (where / file).write_text(text)
            for i, req in enumerate(block.requests):
                argv = [a.replace(workloads.WORK, str(where)) for a in req.argv]
                found.append((f"{name} block {index} request {i}", str(where), argv, {}))
    data = str(root / "tests" / "data")
    for argv in golden_commands(root):
        found.append(("golden", data, argv, {}))
    where = workdir / "printed"
    where.mkdir()
    for argv in PRINTED:
        found.append(("printed", str(where), argv, {}))
    where = workdir / "graphs"
    where.mkdir()
    for file, text in GRAPH_FILES.items():
        (where / file).write_text(text)
        found.append(("graph", str(where), ["check-graph", file, "--json"], GRAPH_ENV))
    where = workdir / "malformed"
    where.mkdir()
    for file, text in MALFORMED_FILES.items():
        (where / file).write_text(text)
    for argv in MALFORMED:
        found.append(("malformed", str(where), argv, {}))
    return found


def answers(root: Path, listing: Path) -> list[list]:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(root / "src"), str(listing)],
        capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="root of the first checkout")
    parser.add_argument("new", type=Path, help="root of the second checkout")
    parser.add_argument("--blocks", type=int, default=12, help="blocks of each workload")
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        found = requests(old, args.blocks, work)
        listing = work / "requests.json"
        listing.write_text(json.dumps([[cwd, argv, env] for _, cwd, argv, env in found]))
        before, after = answers(old, listing), answers(new, listing)
    differences = 0
    for (label, _, argv, _), a, b in zip(found, before, after, strict=True):
        for field, x, y in zip(FIELDS, a, b):
            if x != y:
                differences += 1
                print(f"{label}: {field} differs for {' '.join(argv)[:100]!r}: "
                      f"{str(x)[:200]!r} != {str(y)[:200]!r}")
    print(f"{len(found)} requests, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
