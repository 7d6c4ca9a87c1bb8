"""Regenerate the golden outputs of ``ventcelfem verify --seed 42``.

    PYTHONPATH=src python tests/golden/regen.py

writes the 14 artifacts and the command's standard output
(``stdout.txt``) into ``tests/golden/verify_seed42/``, and the numpy and
scipy versions and the platform that made them into
``tests/golden/manifest.json``.  ``tests/test_golden.py`` compares a
fresh run with these files: byte for byte where ``manifest()`` equals
the committed manifest, cell by cell to a relative tolerance elsewhere.
A change that moves an output on purpose reruns this script, so that
the git diff shows the moved cells.
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
VERIFY_DIR = GOLDEN / "verify_seed42"
MANIFEST = GOLDEN / "manifest.json"


def manifest():
    """The library versions and the platform that the outputs depend on."""
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def run_verify(out_dir):
    """``verify --seed 42`` in-process into out_dir: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--seed", "42", "--output-dir", str(out_dir)])
    return code, buf.getvalue()


def main():
    shutil.rmtree(VERIFY_DIR, ignore_errors=True)
    code, stdout = run_verify(VERIFY_DIR)
    if code != 0:
        raise SystemExit(f"verify --seed 42 exited {code}")
    (VERIFY_DIR / "stdout.txt").write_text(stdout, encoding="utf-8")
    MANIFEST.write_text(json.dumps(manifest(), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
