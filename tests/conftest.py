"""Shared fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

FIXTURE_DIR = "/root/reference/test"
# in-repo copies of reference fixtures (FIXTURES.md A), checked against
# the reference bytes by tests/test_fixture_provenance.py
LOCAL_FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "fixtures")
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


def fixture_path(name: str) -> str:
    """Absolute path of the reference MVT fixture `name`: the in-repo
    copy when there is one, else the reference corpus."""
    for d in (LOCAL_FIXTURE_DIR, FIXTURE_DIR):
        path = os.path.join(d, name)
        if os.path.isfile(path):
            return path
    raise FileNotFoundError(
        f"reference MVT corpus not mounted at {FIXTURE_DIR}: {name}")


def fixture_bytes(name: str) -> bytes:
    with open(fixture_path(name), "rb") as fh:
        return fh.read()
