"""Fixtures shared by the test modules."""

import signal
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


@pytest.fixture
def bounded():
    """Fails the test with TimeoutError once it has run for 60 s: the alarm
    also breaks a wait on a helper's pipe."""
    def expire(signum, frame):
        raise TimeoutError("the test ran for more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# A long fuzzing run, loaded only on request:
#   pytest --hypothesis-profile=deep tests/test_cli_fuzz.py
# It raises the example count of every test that does not fix its own.
settings.register_profile("deep", max_examples=2000)
