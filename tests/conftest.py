"""Session-wide test setup."""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = pytest.StashKey[str]()

# every property test replays the same examples on every run, keeps no
# example database and has no per-example time limit; a test's own
# @settings add only its example count and health checks
settings.register_profile("vrusim", derandomize=True, database=None, deadline=None)


def pytest_configure(config):
    """Hypothesis caches what it learns from the source files under its home
    directory, ``.hypothesis`` in the working directory by default, and does
    so while tests are collected; point it at a temporary directory so a
    test run leaves the checkout as it found it. The vrusim profile loads
    here too: a test's @settings take their defaults from the profile
    loaded when its module is imported, at collection."""
    home = tempfile.mkdtemp(prefix="vrusim-hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home)
    settings.load_profile("vrusim")


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    home = config.stash.get(_HYPOTHESIS_HOME, None)
    if home is not None:
        shutil.rmtree(home, ignore_errors=True)
