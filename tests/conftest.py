"""Test settings: one deterministic hypothesis profile for every run.

Property tests draw the same examples on every machine, never fail on
timing, and keep no example database (no ``.hypothesis/`` directory).
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
