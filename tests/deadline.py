"""A wall-clock limit for tests of code that must terminate
(``pytest-timeout`` is not available)."""
from __future__ import annotations

import signal
from contextlib import contextmanager


class DeadlineExceeded(Exception):
    pass


@contextmanager
def deadline(seconds: int):
    """Raise :class:`DeadlineExceeded` in the block after ``seconds``."""

    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
