"""Session-wide test setup."""

import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    """Hypothesis caches what it learns from the source files under its home
    directory, ``.hypothesis`` in the working directory by default, and does
    so while tests are collected; point it at a temporary directory so a
    test run leaves the checkout as it found it."""
    home = tempfile.mkdtemp(prefix="vrusim-hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    home = config.stash.get(_HYPOTHESIS_HOME, None)
    if home is not None:
        shutil.rmtree(home, ignore_errors=True)
