"""Regenerate the golden outputs of the golden rows of ``tests/cases.py``.

    PYTHONPATH=src python tests/golden/regen.py

runs every golden row in-process and writes its artifacts and its
standard output (``stdout.txt``) into ``tests/golden/<row>/``, and the
numpy and scipy versions and the platform that made them into
``tests/golden/manifest.json``.  The output directory a command echoes
is written as ``OUT``, so the files do not depend on where they were
made.  ``tests/test_golden.py`` compares fresh runs with these files:
byte for byte where ``manifest()`` equals the committed manifest, cell
by cell to a relative tolerance elsewhere.  A change that moves an
output on purpose reruns this script, so that the git diff shows the
moved cells.
"""

import json
import pathlib
import platform
import shutil
import sys
import tempfile

import numpy
import scipy

GOLDEN = pathlib.Path(__file__).resolve().parent
MANIFEST = GOLDEN / "manifest.json"


def manifest():
    """The library versions and the platform that the outputs depend on."""
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def main():
    sys.path.insert(0, str(GOLDEN.parent))     # tests/, for cases.py
    import cases

    with tempfile.TemporaryDirectory() as inputs:
        cases.write_inputs(pathlib.Path(inputs))
        for name, row in cases.ROWS.items():
            if not row.golden:
                continue
            out = GOLDEN / name
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            run = cases.run(name, out, inputs)
            if run.code != 0:
                raise SystemExit(f"{name} exited {run.code}")
            (out / "stdout.txt").write_text(run.stdout, encoding="utf-8")
    MANIFEST.write_text(json.dumps(manifest(), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
