"""Command outputs equal the committed goldens in ``tests/golden``.

Every number must agree to ``REL_TOL`` relative (or ``ABS_TOL``
absolute) and every other character exactly, so that a new numpy
release that moves the last digits does not fail the check while any
change of text still does.  Bytes must match as well where the numpy
and scipy versions and the platform equal those in the golden manifest.
"""

import json
import math
import re

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


def assert_matches_golden(name, code, stdout, out):
    """The run of case ``name`` into out equals its golden directory."""
    assert code == 0
    got = {p.name: p.read_bytes() for p in out.iterdir()}
    got["stdout.txt"] = stdout.encode("utf-8")
    want = {p.name: p.read_bytes() for p in (regen.GOLDEN / name).iterdir()}
    assert sorted(got) == sorted(want)
    assert {n: text_mismatches(got[n].decode(), want[n].decode())
            for n in want} == {n: [] for n in want}
    if json.loads(regen.MANIFEST.read_text(encoding="utf-8")) == regen.manifest():
        assert [n for n in sorted(want) if got[n] != want[n]] == []


def test_verify_seed42_matches_the_golden_outputs(verify_seed42):
    assert_matches_golden("verify_seed42", *verify_seed42)


@pytest.fixture(scope="module")
def nodal_inputs(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("nodal_inputs")
    regen.write_nodal_inputs(inputs)
    return inputs


@pytest.mark.parametrize("name", [n for n in regen.CASES
                                  if n != "verify_seed42"])
def test_command_matches_the_golden_outputs(name, nodal_inputs, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert_matches_golden(name, *regen.run_case(name, out, nodal_inputs), out)


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
