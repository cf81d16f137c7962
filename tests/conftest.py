"""Fixtures shared by the test modules."""

import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """``deadline(seconds)``, a context manager that raises TimeoutError
    inside its body once it has run ``seconds`` (an int), so that a sum
    that never ends fails instead of hanging the run."""
    @contextlib.contextmanager
    def within(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")
        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
    return within
