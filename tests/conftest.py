"""Shared fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# the program's one fixture locator, re-exported for the tests
from raytiles.pipeline.roundtrip import (  # noqa: E402,F401
    FIXTURE_DIR, LOCAL_FIXTURE_DIR, fixture_path)

SF_SMOKE = "/root/testdata/sf0.001"
SF_CORRECT = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def ray_session():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    yield ray
    ray.shutdown()


def fixture_bytes(name: str) -> bytes:
    with open(fixture_path(name), "rb") as fh:
        return fh.read()
