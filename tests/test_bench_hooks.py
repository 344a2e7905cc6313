"""The benchmark's span recorder finds cayleykit's functions by name; a name it
wraps that is gone from the package would silently read as zero time.  The
benchmark's workload descriptions live in two files that must agree."""

import ast
import importlib
import importlib.util
import inspect
import json
import pathlib

from cayleykit import graphs

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bucket_and_work_count_names_a_callable_of_its_layer():
    spans = load_spans()
    for name in [*spans.BUCKETS, *spans.WORK_COUNTS]:
        layer, *path = name.split(".")
        obj = importlib.import_module(f"cayleykit.{layer}")
        for attr in path:
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_is_cayley_binds_the_arguments_its_work_count_reads():
    spans = load_spans()
    graph = graphs.fixture("petersen")
    bound = inspect.signature(graphs.is_cayley).bind(graph)
    bound.apply_defaults()
    assert {"graph", "full_order", "order_cap"} <= set(bound.arguments)
    # Petersen is connected but not regular: the count is one past its 10 nodes
    note = spans.WORK_COUNTS["graphs.is_cayley"]
    assert note(bound.arguments, graphs.is_cayley(graph), None) == {"perms": 11}


def test_workload_descriptions_match_the_benchmark_declaration():
    # read, not imported: WHY is the literal dict assigned in workloads.py
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    (why,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WHY"
    ]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert [(w["name"], w["why"]) for w in declared] == list(why.items())
