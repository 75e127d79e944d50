"""Provenance of the in-repo fixture copies (FIXTURES.md A): each is the
reference's own file, copied byte for byte, never regenerated."""

import hashlib
from pathlib import Path

import pytest

from tests.conftest import FIXTURE_DIR, LOCAL_FIXTURE_DIR

# SHA-256 of the reference's test/onepoint.mvt, whose 26 bytes are the
# hexdump recorded in SURVEY.md (Layer row) and tests/test_wire.py
ONEPOINT_SHA256 = "e03fb80f2720b5dcb62a4392085bb09c1c3325d2b9581ab296c047c6a4ab8ecb"
LOCAL_ONEPOINT = Path(LOCAL_FIXTURE_DIR, "onepoint.mvt")
REFERENCE_ONEPOINT = Path(FIXTURE_DIR, "onepoint.mvt")


def test_local_onepoint_hash():
    raw = LOCAL_ONEPOINT.read_bytes()
    assert len(raw) == 26
    assert hashlib.sha256(raw).hexdigest() == ONEPOINT_SHA256


@pytest.mark.skipif(not REFERENCE_ONEPOINT.is_file(),
                    reason=f"reference corpus not mounted: {REFERENCE_ONEPOINT}")
def test_local_onepoint_matches_reference():
    assert LOCAL_ONEPOINT.read_bytes() == REFERENCE_ONEPOINT.read_bytes()
