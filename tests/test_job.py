"""Resumable job: end-to-end equivalence with the streaming flagship,
and kill/resume semantics at the bucket level."""

import os

import numpy as np
import pytest

from raytiles.pipeline import checkpoint as cp

pytestmark = pytest.mark.usefixtures("ray_session")


@pytest.fixture(scope="module")
def wp_path():
    from raytiles.pipeline.synth import webpages_path
    return webpages_path("/root/testdata/sf0.001")


def test_job_matches_streaming_flagship(ray_session, wp_path, tmp_path):
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.job import run_job
    root = str(tmp_path / "job")
    summary = run_job(wp_path, root, 12, n_buckets=16)
    assert summary["computed"] == 16
    got = cp.read_output(os.path.join(root, "stage_b")).to_pandas() \
        .sort_values(["z", "x", "y"]).reset_index(drop=True)
    want = tiles_pipeline(wp_path, 12).to_pandas() \
        .sort_values(["z", "x", "y"]).reset_index(drop=True)
    assert len(got) == len(want)
    assert np.array_equal(got["x"].to_numpy(), want["x"].to_numpy())
    assert np.array_equal(got["n_features"].to_numpy(), want["n_features"].to_numpy())
    # byte-identical MVTs between the streaming and checkpointed paths
    assert (got["mvt"] == want["mvt"]).all()


def test_job_resume_skips_buckets(ray_session, wp_path, tmp_path):
    from raytiles.pipeline.job import run_job
    root = str(tmp_path / "job")
    run_job(wp_path, root, 12, n_buckets=16)
    os.remove(os.path.join(root, "stage_b", "manifest", "3.json"))
    os.remove(os.path.join(root, "stage_b", "manifest", "7.json"))
    summary = run_job(wp_path, root, 12, n_buckets=16)
    assert summary["skipped"] == 14 and summary["computed"] == 2


def test_tile_bucket_pinned():
    """tile_bucket IS the checkpoint partition layout (stage A buckets
    rows by tile_bucket of the coarse key (z, x>>4, y>>4)). Pin it to
    literal ids so any change to the mix shows up as a deliberate
    layout change, not silent drift that orphans existing manifests."""
    from raytiles.pipeline.stages import tile_bucket
    z = np.array([0, 12, 12, 6, 14, 12])
    cx = np.array([0, 655, 41, 3, 16383, 0])
    cy = np.array([0, 1583, 98, 4, 16383, 4095])
    assert tile_bucket(z, cx, cy, 64).tolist() == [0, 43, 2, 53, 12, 58]
    assert tile_bucket(z, cx, cy).tolist() == [0, 171, 258, 565, 76, 186]
