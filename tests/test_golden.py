"""Every row of ``tests/cases.py`` runs as the row says.

A row's command exits with the row's code.  On exit 0 it prints nothing
on stderr.  Otherwise it prints one line there, which starts with the
row's text, and it prints nothing on stdout and writes no file.  Every
warning is an error in tier 1, so a row whose run makes numpy warn
fails too.  Two runs of a threaded or a nodal solve write the same
bytes, and so do verify runs at two seeds.

A golden row's outputs and stdout equal the committed files in
``tests/golden/<row>/``.  Every number must agree to ``REL_TOL``
relative (or ``ABS_TOL`` absolute) and every other character exactly,
so that a new numpy release that moves the last digits does not fail
the check while any change of text still does.  Bytes must match as
well where the numpy and scipy versions and the platform equal those in
the golden manifest.
"""

import json
import math
import os
import re

import cases
import pytest
from golden import regen

REL_TOL, ABS_TOL = 1e-8, 1e-12

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)")


def text_mismatches(got: str, want: str) -> list:
    """Cells of got that differ from want: numbers beyond the tolerance,
    any other text at all."""
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    if len(g) != len(w):
        return [f"{len(g) // 2} numbers against {len(w) // 2}"]
    bad = []
    for i, (a, b) in enumerate(zip(g, w)):
        if i % 2 == 0:          # text between numbers
            ok = a == b
        else:
            x, y = float(a), float(b)
            ok = (math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)
                  or (math.isnan(x) and math.isnan(y)))
        if not ok:
            bad.append(f"{a!r} against {b!r}")
    return bad


def files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("name", cases.ROWS)
def test_command_runs_as_its_row_says(name, runs):
    row, run = cases.ROWS[name], runs[name]
    assert run.code == row.code
    if row.code == 0:
        assert run.stderr == ""
    else:
        assert run.stderr.startswith(row.stderr)
        assert run.stderr.endswith("\n") and run.stderr.count("\n") == 1
        assert run.stdout == ""
        assert os.listdir(run.out) == []


@pytest.mark.parametrize("name", [name for name, row in cases.ROWS.items()
                                  if row.golden])
def test_command_matches_the_golden_outputs(name, runs):
    run = runs[name]
    got = files(run.out)
    got["stdout.txt"] = run.stdout.encode("utf-8")
    want = files(regen.GOLDEN / name)
    assert sorted(got) == sorted(want)
    assert {n: text_mismatches(got[n].decode(), want[n].decode())
            for n in want} == {n: [] for n in want}
    if json.loads(regen.MANIFEST.read_text(encoding="utf-8")) == regen.manifest():
        assert [n for n in sorted(want) if got[n] != want[n]] == []


@pytest.mark.parametrize("name", ["solve_cable_n64", "solve_annulus_nodal_n8"])
def test_a_second_run_writes_the_same_bytes(name, runs, tmp_path):
    # where the libraries differ from the manifest's, the goldens hold each
    # number only to REL_TOL, so a last-bit drift between runs shows here
    first = runs[name]
    again = cases.run(name, tmp_path, runs.inputs)
    assert again[:3] == first[:3]
    assert sorted(files(first.out)) == ["diagnostics.txt", "solution.csv",
                                        "trace.csv"]
    assert files(tmp_path) == files(first.out)


def test_verify_writes_the_same_bytes_at_any_seed(runs):
    seed42, seed7 = runs["verify_seed42"], runs["verify_seed7"]
    assert seed7[:3] == seed42[:3]
    assert files(seed7.out) == files(seed42.out)


@pytest.mark.parametrize("got, equal", [
    ("e = 2.500000000e+00, 3e-13, PASS\n", True),
    ("e = 2.500000002e+00, 3e-13, PASS\n", True),     # 1e-9 relative
    ("e = 2.500000000e+00, 9e-13, PASS\n", True),     # 6e-13 absolute
    ("e = 2.5000003e+00, 3e-13, PASS\n", False),      # 1.2e-7 relative
    ("e = 2.500000000e+00, 3e-12, PASS\n", False),
    ("e = 2.500000000e+00, 3e-13, FAIL\n", False),
    ("e = 2.500000000e+00, 3e-13 PASS\n", False),
    ("e = 2.500000000e+00, 3e-13, 2, PASS\n", False),
    ("e = 2.5, 3e-13, PASS\n", True),
    ("e = nan, 3e-13, PASS\n", False),
])
def test_tolerant_comparison_moves_only_numbers(got, equal):
    want = "e = 2.500000000e+00, 3e-13, PASS\n"
    assert (text_mismatches(got, want) == []) is equal
    assert text_mismatches("e = nan\n", "e = nan\n") == []


def test_golden_manifest_names_the_libraries_and_the_platform():
    manifest = json.loads(regen.MANIFEST.read_text(encoding="utf-8"))
    assert sorted(manifest) == sorted(regen.manifest())
