"""tools/compare_trees.py sends the same requests through two checkouts and
reports every difference in their answers."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_trees.py"


def compare(old, new):
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--blocks", "1"],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_matches_itself_and_a_changed_line_is_reported(tmp_path):
    same = compare(ROOT, ROOT)
    assert same.returncode == 0, same.stderr
    *differences, summary = same.stdout.splitlines()
    count = int(summary.split()[0])
    assert differences == [] and summary == f"{count} requests, 0 differences"
    # a copy whose human enumerate report spells one line differently
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "cayleykit" / "cli.py"
    text = cli.read_text()
    assert text.count('f"presentation: {report') == 1
    cli.write_text(text.replace('f"presentation: {report', 'f"presentation:  {report'))
    changed = compare(ROOT, tmp_path)
    assert changed.returncode == 1, changed.stderr
    *differences, summary = changed.stdout.splitlines()
    assert differences and all("stdout differs" in line for line in differences)
    assert summary == f"{count} requests, {len(differences)} differences"


def test_a_changed_error_text_is_reported(tmp_path):
    # the malformed requests compare each one-line error on stderr
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cosets = tmp_path / "src" / "cayleykit" / "cosets.py"
    text = cosets.read_text()
    assert text.count('"max_cosets must be at least 1"') == 1
    cosets.write_text(text.replace('"max_cosets must be at least 1"', '"max_cosets must be positive"'))
    changed = compare(ROOT, tmp_path)
    assert changed.returncode == 1, changed.stderr
    *differences, summary = changed.stdout.splitlines()
    assert differences == [
        "malformed: stderr differs for 'enumerate <a | a^3> --max-cosets 0': "
        "'error: max_cosets must be at least 1\\n' != 'error: max_cosets must be positive\\n'"
    ]
    assert summary.endswith(" requests, 1 differences")


def test_a_changed_dot_file_is_reported(tmp_path):
    # the printed requests compare the DOT file each one writes, whatever it prints
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    graphs = tmp_path / "src" / "cayleykit" / "graphs.py"
    text = graphs.read_text()
    assert text.count('lines = ["digraph G {"]') == 1
    graphs.write_text(text.replace('lines = ["digraph G {"]', 'lines = ["digraph G  {"]'))
    changed = compare(ROOT, tmp_path)
    assert changed.returncode == 1, changed.stderr
    *differences, summary = changed.stdout.splitlines()
    assert [line.split(": dot file differs")[0] for line in differences] == ["printed"] * 5
    assert all("'digraph G {" in line for line in differences)
    assert all("'digraph G  {" in line for line in differences)
    assert summary.endswith(" requests, 5 differences")
