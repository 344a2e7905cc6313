"""The package and the CLI load a layer module only when it is used.

Each load check runs in a fresh interpreter and reads ``sys.modules`` there.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import cayleykit

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
DATA = pathlib.Path(__file__).resolve().parent / "data"

REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def loaded_modules(code: str) -> set[str]:
    """The names in sys.modules after running ``code`` in a fresh
    interpreter; the CLI's stdout is discarded."""
    script = (
        "import contextlib, io\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    {code}\n"
        f"{REPORT}"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=60, check=True,
    )
    return set(json.loads(out.stdout))


def loaded_layers(code: str) -> set[str]:
    """The cayleykit submodules loaded by running ``code`` in a fresh interpreter."""
    return {
        m.split(".", 1)[1] for m in loaded_modules(code) if m.startswith("cayleykit.")
    }


def modules_added(code: str) -> set[str]:
    """The modules that ``code`` loads beyond what interpreter start-up (and
    the report's own imports) load, so a site hook importing one does not count."""
    return loaded_modules(code) - loaded_modules("pass")


def cli_layers(argv) -> set[str]:
    return loaded_layers(f"import cayleykit.cli; assert cayleykit.cli.main({argv!r}) == 0")


def test_import_loads_no_layer():
    assert loaded_layers("import cayleykit") == set()


def test_layer_attributes_load_on_first_access():
    layers = ("cosets", "graphs", "groups", "tables", "words")
    code = f"import cayleykit; assert all(getattr(cayleykit, l) for l in {layers!r})"
    assert loaded_layers(code) == set(layers)


def test_cli_import_loads_only_groups_and_words():
    assert loaded_layers("import cayleykit.cli") == {"cli", "groups", "words"}


def test_cli_import_loads_no_dataclasses_or_inspect():
    assert not modules_added("import cayleykit.cli") & {"dataclasses", "inspect"}


def test_every_layer_loads_without_dataclasses():
    layers = ("cosets", "graphs", "tables", "families", "matrices")
    added = modules_added(f"from cayleykit import {', '.join(layers)}")
    assert {f"cayleykit.{layer}" for layer in layers} <= added
    assert "dataclasses" not in added


@pytest.mark.parametrize(
    "argv",
    [
        ["make", "dihedral", "8"],
        ["make", "sdp", "32", "15"],
        ["identify", "--presentation", "<r,f | r^8=f^2=1, r f r=f>"],
    ],
    ids=["dihedral-8", "sdp-32-15", "identify-order-16-dihedral"],
)
def test_catalog_match_off_the_diquaternion_loads_no_matrices(argv):
    # orders 16 and 64 list a DQ entry; only a matching fingerprint builds it
    loaded = cli_layers(argv)
    assert "families" in loaded
    assert "matrices" not in loaded


def test_enumerate_cyclic_loads_no_graphs_tables_or_catalog():
    loaded = cli_layers(["enumerate", "<b | b^14>"])
    assert "cosets" in loaded
    assert not loaded & {"graphs", "tables", "families", "matrices"}


def test_check_table_on_an_abelian_table_loads_no_enumeration_or_catalog():
    loaded = cli_layers(["check-table", str(DATA / "latin_cyclic5.txt")])
    assert "tables" in loaded
    assert not loaded & {"cosets", "graphs", "families", "matrices"}


def test_make_quaternion_loads_no_matrices_graphs_or_tables():
    loaded = cli_layers(["make", "quaternion", "8"])
    assert "families" in loaded
    assert not loaded & {"matrices", "graphs", "tables"}


def test_every_public_name_resolves():
    for name in cayleykit.__all__:
        assert getattr(cayleykit, name) is not None, name
    assert cayleykit.identify is cayleykit.groups.identify
    assert cayleykit.analyze is cayleykit.graphs.analyze


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cayleykit import *", namespace)
    assert set(cayleykit.__all__) <= set(namespace)


def test_readme_family_import_works():
    from cayleykit import families, matrices

    assert families.quaternion(8).order == 8
    assert matrices.pauli_group(1).order == 16


def test_dir_lists_the_public_names():
    assert set(cayleykit.__all__) <= set(dir(cayleykit))


@pytest.mark.parametrize("name", ["no_such_name", "Families", "matrix_group_closure"])
def test_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(cayleykit, name)
