"""Shared test helpers: access to the grammar documents shipped with the
repository, and a deadline for runs that once did not finish."""

import contextlib
import signal
from pathlib import Path

from wcfg import load_grammar

GRAMMARS_DIR = Path(__file__).resolve().parent.parent / "grammars"


def fixture_path(name):
    return str(GRAMMARS_DIR / name)


def load_fixture(name):
    return load_grammar(fixture_path(name))


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the enclosed block after `seconds` whole
    seconds, so that a slow regression fails its test instead of
    hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
