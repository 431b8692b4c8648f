import contextlib
import functools
import importlib.util
import signal
from pathlib import Path

import pytest
from hypothesis import settings

from evopid import build_environment

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@functools.cache
def load_script(name: str):
    """scripts/<name>.py as a module, loaded once: its tables and functions, without running its main()."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def environment():
    return build_environment()


@pytest.fixture(scope="session")
def plant(environment):
    return environment[0]


@pytest.fixture(scope="session")
def sim(environment):
    return environment[1]


@pytest.fixture(scope="session")
def train_route(environment):
    return environment[2]["train"]


@pytest.fixture(scope="session")
def test_route(environment):
    return environment[2]["test"]


@pytest.fixture
def time_limit():
    """A context manager that fails the test, instead of hanging the suite, if its body runs over the given seconds."""

    @contextlib.contextmanager
    def limit(seconds: int):
        def expired(signum, frame):
            # pytest.fail raises a BaseException, which no `except Exception` in the code under test catches
            pytest.fail(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
