"""Fixtures shared by the test modules."""

import sys

import pytest
from hypothesis import settings


@pytest.fixture
def no_param_draws(monkeypatch):
    """``param_rng`` raises in every msconv module that binds it, so any
    weight draw inside the test fails it."""
    def refuse(seed, tag):
        raise AssertionError(f"drew weights for {tag!r}")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "msconv" and hasattr(module, "param_rng"):
            monkeypatch.setattr(module, "param_rng", refuse)


# A long fuzzing run, loaded only on request:
#   pytest --hypothesis-profile=deep tests/test_cli_fuzz.py
# It raises the example count of every test that does not fix its own.
settings.register_profile("deep", max_examples=2000)
