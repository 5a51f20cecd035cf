"""Helpers shared by the test modules: exact-bit pins of enclosures, a
patched sieve segment size, and a stand-in process pool that records what
``census`` and the Euler log sums ask of it (``sieve._map_shards``) and
folds their shards in-process, so that a ``terms`` closure or a recording
side effect works under it."""

import concurrent.futures
import os
from unittest import mock

import pytest

from brun import sieve


def usable_cpus() -> int:
    """The CPUs this process may run on, which cap every pool's workers."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def segment_size(size: int):
    """A context manager that sets ``sieve.DEFAULT_SEGMENT_SIZE``, the one
    segment size, to ``size``.  Unlike ``monkeypatch`` it works inside a
    hypothesis ``@given`` body; forked workers inherit it."""
    return mock.patch.object(sieve, "DEFAULT_SEGMENT_SIZE", size)


def hex_ends(iv) -> tuple:
    return iv.lo.hex(), iv.hi.hex()


def assert_pinned(iv, pin: tuple, before: tuple) -> None:
    """``iv`` has the hex ends ``pin``, which nest in the earlier pin."""
    assert hex_ends(iv) == pin
    lo, hi = map(float.fromhex, pin)
    old_lo, old_hi = map(float.fromhex, before)
    assert old_lo <= lo and hi <= old_hi


class _RecordingPool:
    """Takes ProcessPoolExecutor's place: records each requested worker count
    and start method, and maps in the calling process."""

    def __init__(self, requests, max_workers, mp_context):
        requests.append((max_workers, mp_context.get_start_method()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def pool_requests(monkeypatch):
    """(max_workers, start method) of every pool ``_map_shards`` opens; none start."""
    requests = []
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        lambda *args, **kwargs: _RecordingPool(requests, *args, **kwargs),
    )
    return requests
