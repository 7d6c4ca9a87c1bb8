"""Regenerate the golden outputs of the commands in ``CASES``.

    PYTHONPATH=src python tests/golden/regen.py

runs every case in-process and writes its artifacts and its standard
output (``stdout.txt``) into ``tests/golden/<case>/``, and the numpy and
scipy versions and the platform that made them into
``tests/golden/manifest.json``.  The output directory a command echoes
is written as ``OUT``, so the files do not depend on where they were
made.  ``tests/test_golden.py`` compares fresh runs with these files:
byte for byte where ``manifest()`` equals the committed manifest, cell
by cell to a relative tolerance elsewhere.  A change that moves an
output on purpose reruns this script, so that the git diff shows the
moved cells.
"""

import contextlib
import io
import json
import pathlib
import platform
import shutil

import numpy
import scipy

from ventcelfem import cli

GOLDEN = pathlib.Path(__file__).resolve().parent
MANIFEST = GOLDEN / "manifest.json"
OUT = "OUT"

# nodal data of CI's nodal smoke test on the annulus at n = 8
NODAL_FORMULAS = (("a2", lambda x, y: 3.0 + x), ("f1", lambda x, y: x * y),
                  ("phi", lambda x, y: 1.0 + x - 2.0 * y * y))

# case name -> command line, less --output-dir; "{inputs}" stands for
# the directory that ``write_nodal_inputs`` fills
CASES = {
    "verify_seed42": ["verify", "--seed", "42"],
    "verify_seed7": ["verify", "--seed", "7"],
    "solve_cable_n32": ["solve", "--domain", "cable", "--n", "32",
                        "--a2", "inv_curvature", "--phi", "harmonic_cubic",
                        "--exact", "harmonic_cubic"],
    "solve_annulus_nodal_n8": ["solve", "--domain", "annulus", "--n", "8",
                               "--a2", "nodal:{inputs}/a2.csv",
                               "--f1", "nodal:{inputs}/f1.csv",
                               "--phi", "nodal:{inputs}/phi.csv"],
    "solve_square_all_loads_n16": ["solve", "--domain", "square", "--n", "16",
                                   "--a2", "poly:2,0.5", "--a0", "const:1",
                                   "--f1", "poly:1,0.5,-0.25",
                                   "--f2x", "poly:0.5,0,1",
                                   "--f2y", "poly:-0.5,1", "--g1", "const:0.5",
                                   "--g2", "poly:0.2,0.1", "--phi", "affine"],
    "convergence_cable": ["convergence", "--domain", "cable", "--n", "8",
                          "--levels", "3"],
    "convergence_annulus": ["convergence", "--domain", "annulus", "--n", "8",
                            "--levels", "3"],
    "info_cable_n16": ["info", "--domain", "cable", "--n", "16",
                       "--a2", "inv_curvature"],
    "mesh_cable_n16": ["mesh", "--domain", "cable", "--n", "16"],
    "mesh_annulus_n16": ["mesh", "--domain", "annulus", "--n", "16"],
    "mesh_square_n16": ["mesh", "--domain", "square", "--n", "16"],
}


def manifest():
    """The library versions and the platform that the outputs depend on."""
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def _main(argv):
    """``cli.main(argv)`` in-process: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def write_nodal_inputs(inputs):
    """CI's nodal a2, f1 and phi files for the annulus at n = 8, in inputs."""
    code, _ = _main(["mesh", "--domain", "annulus", "--n", "8",
                     "--output-dir", str(inputs)])
    assert code == 0
    rows = (pathlib.Path(inputs) / "mesh.txt").read_text().split("\n")
    n = int(rows[1].split()[1])
    points = [tuple(map(float, row.split()[1:])) for row in rows[2:2 + n]]
    for key, f in NODAL_FORMULAS:
        (pathlib.Path(inputs) / f"{key}.csv").write_text(
            "".join(f"{i},{f(x, y)!r}\n" for i, (x, y) in enumerate(points)))


def run_case(name, out_dir, inputs=None):
    """Case ``name`` in-process into out_dir: (exit code, stdout).

    ``inputs`` is a directory holding ``write_nodal_inputs``' files, for
    the cases that read them.  The echoed out_dir reads ``OUT``.
    """
    argv = [a.format(inputs=inputs) for a in CASES[name]]
    code, stdout = _main(argv + ["--output-dir", str(out_dir)])
    return code, stdout.replace(str(out_dir), OUT)


def main():
    inputs = GOLDEN / "nodal_inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    write_nodal_inputs(inputs)
    try:
        for name in CASES:
            out = GOLDEN / name
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            code, stdout = run_case(name, out, inputs)
            if code != 0:
                raise SystemExit(f"{name} exited {code}")
            (out / "stdout.txt").write_text(stdout, encoding="utf-8")
    finally:
        shutil.rmtree(inputs)
    MANIFEST.write_text(json.dumps(manifest(), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
