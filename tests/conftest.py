"""Shared fixtures for the test suite."""
import os

import numpy as np
import pytest

from repro.arch import CELLBE, GTX280, GTX480, HD5870, INTEL920


@pytest.fixture(scope="session", autouse=True)
def sweep_executor(tmp_path_factory):
    """Route the whole suite through one shared sweep engine.

    Every ``compare``/``run_benchmark`` call in the suite goes through
    the same :class:`repro.exec.SweepExecutor`, so tests that request
    identical work units (same benchmark, API, device, size, options)
    share one simulation.  ``REPRO_JOBS`` sets the process fan-out for
    prewarmed sweeps (CI runs the suite at 1 and 4).  The suite keeps
    results in memory only.

    ``REPRO_CACHE_DIR`` is pointed at a session tmpdir so CLI entry
    points invoked in-process don't drop ``.repro-cache`` into the repo.
    """
    from repro import exec as rexec

    os.environ.setdefault(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache"))
    )
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    with rexec.use_executor(rexec.SweepExecutor(jobs=jobs)) as ex:
        yield ex


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=["GTX280", "GTX480"], ids=["gt200", "fermi"])
def nvidia_spec(request):
    return {"GTX280": GTX280, "GTX480": GTX480}[request.param]


@pytest.fixture(params=["cuda", "opencl"])
def api_name(request):
    return request.param
