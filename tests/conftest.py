"""Shared test configuration.

The persistent compile cache (``PYACC_COMPILE_CACHE``) defaults to a
per-user directory — fine for real use, wrong for a test suite, where a
stale entry from a previous checkout could mask a compile-path change.
Point it at a session-private temp directory instead, so every tier-1
run is a *cold* start while still exercising the store/load paths.
The directory is removed at interpreter exit (atexit rather than a
fixture: the env var must be set before any repro import, and child
processes spawned by the warm-start tests inherit it until the very
end of the session).

An explicitly exported ``PYACC_COMPILE_CACHE`` stays authoritative —
and is *not* cleaned up: the CI ``warmstart`` job shares one directory
across two runs on purpose, and the warm-start tests point subprocesses
at their own directories.
"""

import atexit
import os
import shutil
import tempfile

if "PYACC_COMPILE_CACHE" not in os.environ:
    _session_cache = tempfile.mkdtemp(prefix="pyacc-test-compile-")
    os.environ["PYACC_COMPILE_CACHE"] = _session_cache
    atexit.register(shutil.rmtree, _session_cache, ignore_errors=True)


import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def _no_compile_outlives_its_test():
    """A cold C unit compiles on a worker thread while its first small
    launches run codegen; wait for it at teardown, so it lands in its
    own test's cache directory and counters, never in the next test's."""
    yield
    from repro.ir import nativecache

    nativecache.wait_compiles()
