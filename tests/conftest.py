"""Test settings: one deterministic hypothesis profile for every run.

Property tests draw the same examples on every machine, never fail on
timing, and keep no example database (no ``.hypothesis/`` directory).
Each row of ``cases.ROWS`` runs once per session, and the tests that
read its run share it.
"""

import sys
import threading

import cases
import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


class Runs(dict):
    """Row name -> its ``cases.Run``, made on first use.

    Each run goes under a profile hook on its thread and on every thread
    it starts; ``entered`` collects the code objects they enter.
    """

    def __init__(self, tmp_path_factory):
        super().__init__()
        self.tmp_path_factory = tmp_path_factory
        self.inputs = tmp_path_factory.mktemp("inputs")
        cases.write_inputs(self.inputs)
        self.entered = set()

    def hook(self, frame, event, arg):
        if event == "call":
            self.entered.add(frame.f_code)

    def __missing__(self, name):
        out = self.tmp_path_factory.mktemp(name)
        old = sys.getprofile()
        threading.setprofile(self.hook)
        sys.setprofile(self.hook)
        try:
            self[name] = cases.run(name, out, self.inputs)
        finally:
            sys.setprofile(old)
            threading.setprofile(None)
        return self[name]


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    return Runs(tmp_path_factory)
