"""Test settings: one deterministic hypothesis profile for every run.

Property tests draw the same examples on every machine, never fail on
timing, and keep no example database (no ``.hypothesis/`` directory).
The ``verify --seed 42`` run is shared by the tests that read it.
"""

import pytest
from golden import regen
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def verify_seed42(tmp_path_factory):
    """One in-process ``verify --seed 42`` run: (exit code, stdout, dir)."""
    out = tmp_path_factory.mktemp("verify_seed42")
    code, stdout = regen.run_case("verify_seed42", out)
    return code, stdout, out
