"""Shared test settings: one deterministic hypothesis profile for the suite.

Examples are derandomized so every run checks the same inputs, no deadline
is set so a slow shared host cannot fail a test, and no example database is
kept.  Hypothesis still caches the constants it harvests from the source
under its storage directory, so that directory is moved into pytest's
temporary tree: the suite writes no `.hypothesis/` into the checkout.
"""

import os

import pytest

try:
    from hypothesis import settings
except ImportError:  # a dev extra: only the property tests need it, and they skip
    settings = None

if settings is not None:
    settings.register_profile("scdkit", derandomize=True, deadline=None, database=None)
    settings.load_profile("scdkit")


@pytest.fixture(scope="session", autouse=True)
def _hypothesis_storage(tmp_path_factory):
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = str(tmp_path_factory.mktemp("hypothesis"))
