"""Session settings: one hypothesis profile, so property tests draw the same
examples on every run and keep no example database.  Hypothesis's other
files (its cache of the constants in the code under test) go to a temporary
directory that is removed when the session ends, not to ``.hypothesis/``."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    config.hypothesis_home.cleanup()
