"""Cross-check the stored fixture edge lists against their constructions and
against the generators in tools/."""

import importlib.util
import json
import pathlib
from importlib import resources

import pytest

from cayleykit.graphs import fixture, fixture_names


def double_ring(m, t):
    red = [[k, (k + 1) % m] for k in range(m)]
    red += [[m + k, m + (k + t) % m] for k in range(m)]
    blue = [[k, m + k] for k in range(m)]
    return {"red": (True, red), "blue": (False, blue)}


def flower(m, reverse_inner):
    red = [[k, (k + 1) % m] for k in range(m)]
    step = -1 if reverse_inner else 1
    red += [[m + k, m + (k + step) % m] for k in range(m)]
    blue = [[k, m + (k + 1) % m] for k in range(m)]
    blue += [[m + k, (k + 1) % m] for k in range(m)]
    return {"red": (True, red), "blue": (True, blue)}


def mirror(m, inner_step, outer_starts_blue, inner_starts_blue):
    outer_a = [[2 * k, 2 * k + 1] for k in range(m // 2)]
    outer_b = [[2 * k + 1, (2 * k + 2) % m] for k in range(m // 2)]
    inner_a, inner_b = [], []
    for k in range(m):
        edge = [m + (inner_step * k) % m, m + (inner_step * (k + 1)) % m]
        (inner_a if k % 2 == 0 else inner_b).append(edge)
    blue = (outer_a if outer_starts_blue else outer_b) + (
        inner_a if inner_starts_blue else inner_b
    )
    red = (outer_b if outer_starts_blue else outer_a) + (
        inner_b if inner_starts_blue else inner_a
    )
    green = [[k, m + k] for k in range(m)]
    return {"blue": (False, blue), "red": (False, red), "green": (False, green)}


EXPECTED = {
    "petersen": (10, double_ring(5, 2)),
    "ring14": (14, double_ring(7, 2)),
    "ring18": (18, double_ring(9, 4)),
    "twist32_k3": (32, double_ring(16, 3)),
    "twist32_k5": (32, double_ring(16, 5)),
    "flower16_fwd": (16, flower(8, False)),
    "flower16_rev": (16, flower(8, True)),
    "mirror16": (16, mirror(8, 3, True, True)),
    "mirror32": (32, mirror(16, 9, False, True)),
}


def test_every_fixture_has_an_expectation():
    assert sorted(EXPECTED) == fixture_names()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_matches_construction(name):
    nodes, colors = EXPECTED[name]
    raw = json.loads(
        resources.files("cayleykit").joinpath("fixtures", f"{name}.json").read_text()
    )
    assert raw["nodes"] == nodes
    assert raw["description"]
    got = {c["name"]: (c["directed"], c["edges"]) for c in raw["colors"]}
    assert got == colors


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_loads_and_validates(name):
    g = fixture(name)
    nodes, colors = EXPECTED[name]
    assert g.node_count == nodes
    assert [c.name for c in g.colors] == [c["name"] for c in json.loads(
        resources.files("cayleykit").joinpath("fixtures", f"{name}.json").read_text()
    )["colors"]]


ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "tool, outputs",
    [
        ("make_fixtures", sorted((ROOT / "src" / "cayleykit" / "fixtures").glob("*.json"))),
        ("make_puzzle_oracle", [ROOT / "tests" / "data" / "puzzle_oracle.json"]),
    ],
    ids=["fixtures", "oracle"],
)
def test_tool_reproduces_the_committed_data(tool, outputs, monkeypatch):
    """What the generator's main() would write, compared byte for byte with
    the committed files, with every write captured instead of made."""
    spec = importlib.util.spec_from_file_location(tool, ROOT / "tools" / f"{tool}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    written = {}
    monkeypatch.setattr(pathlib.Path, "mkdir", lambda self, **kwargs: None)
    monkeypatch.setattr(
        pathlib.Path, "write_text", lambda self, text: written.setdefault(self.resolve(), text)
    )
    module.main()
    assert sorted(written) == [path.resolve() for path in outputs]
    for path in outputs:
        assert written[path.resolve()] == path.read_text(), path.name
