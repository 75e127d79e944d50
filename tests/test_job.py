"""Resumable job: end-to-end equivalence with the streaming flagship,
and kill/resume semantics at the read-group and bucket level."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raytiles.pipeline import checkpoint as cp

pytestmark = pytest.mark.usefixtures("ray_session")


@pytest.fixture(scope="module")
def wp_path():
    from raytiles.pipeline.synth import webpages_path
    return webpages_path("/root/testdata/sf0.001")


def _sorted_tiles(root: str):
    return cp.read_output(os.path.join(root, "stage_b")).to_pandas() \
        .sort_values(["z", "x", "y"]).reset_index(drop=True)


def test_job_matches_streaming_flagship(ray_session, wp_path, tmp_path):
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.job import run_job
    root = str(tmp_path / "job")
    summary = run_job(wp_path, root, 12, n_buckets=16)
    assert summary["computed"] == 16
    # manifests carry lineage + metrics for every bucket
    recs = cp.finished_partitions(os.path.join(root, "stage_b"))
    assert sorted(recs) == list(range(16))
    for rec in recs.values():
        assert rec["status"] == "done" and rec["input_fingerprint"]
        assert rec["rows_in"] > 0 and rec["rows_out"] > 0
        assert rec["bytes_out"] > 0 and rec["wall_sec"] >= 0
    assert sum(r["rows_out"] for r in recs.values()) == summary["tiles"]
    # every publish is tmp + rename: nothing half-written is left
    for dirpath, _, files in os.walk(root):
        for f in files:
            assert not f.endswith(".tmp"), os.path.join(dirpath, f)
    # the job writes the flagship's own output schema
    want_ds = tiles_pipeline(wp_path, 12)
    want_schema = pa.schema(zip(want_ds.schema().names, want_ds.schema().types))
    for pid in recs:
        path = os.path.join(root, "stage_b", f"partition={pid}", "data.parquet")
        assert pq.read_schema(path).remove_metadata() == want_schema
    got = _sorted_tiles(root)
    want = want_ds.to_pandas().sort_values(["z", "x", "y"]).reset_index(drop=True)
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


def test_stage_a_reruns_on_changed_arguments(ray_session, wp_path, tmp_path):
    """stage A's marker records its arguments: a rerun with another
    zoom or bucket count recomputes both stages instead of resuming
    output made for the old arguments; the same arguments resume with
    nothing recomputed."""
    from raytiles.pipeline.job import run_job
    root = str(tmp_path / "job")
    first = run_job(wp_path, root, 12, n_buckets=16)
    assert run_job(wp_path, root, 12, n_buckets=16)["computed"] == 0

    summary = run_job(wp_path, root, 8, n_buckets=16)
    assert summary["skipped"] == 0 and summary["computed"] > 0
    tiles = cp.read_output(os.path.join(root, "stage_b")).to_pandas()
    assert len(tiles) == summary["tiles"] and set(tiles["z"]) == {8}

    summary = run_job(wp_path, root, 12, n_buckets=64)
    assert summary["skipped"] == 0
    assert summary["tiles"] == first["tiles"]
    # one partition per bucket that got rows, none for the others
    written = os.listdir(os.path.join(root, "stage_a"))
    assert summary["partitions"] == summary["computed"] == len(written) <= 64
    recs = cp.finished_partitions(os.path.join(root, "stage_b"))
    assert all(rec["rows_in"] > 0 for rec in recs.values())
    assert set(cp.read_output(os.path.join(root, "stage_b"))
               .to_pandas()["z"]) == {12}


def test_default_bucket_count_follows_input(ray_session, wp_path, tmp_path,
                                            monkeypatch):
    """With no count given, stage A buckets by util.layout's reducer
    count for the input (several here: the driver's blocks are 64 KiB),
    its marker records that count, and the tiles equal an explicit
    16-bucket run's; the default resumes, an explicit 16 recomputes."""
    from raytiles import util
    from raytiles.pipeline.job import run_job
    monkeypatch.setattr(util, "MIN_BLOCK_BYTES", 64 << 10)
    want = util.layout(util.input_bytes(wp_path))[1]
    assert 1 < want < 16
    root = str(tmp_path / "job")
    summary = run_job(wp_path, root, 12)
    with open(os.path.join(root, "stage_a.done")) as fh:
        assert json.load(fh)["n_buckets"] == want
    assert 0 < summary["partitions"] <= want
    tiles = _sorted_tiles(root)
    assert len(tiles) == summary["tiles"]
    assert run_job(wp_path, root, 12)["computed"] == 0

    fixed = run_job(wp_path, root, 12, n_buckets=16)
    assert fixed["skipped"] == 0 and fixed["computed"] == fixed["partitions"]
    assert fixed["partitions"] > summary["partitions"]
    got = _sorted_tiles(root)
    assert got[["z", "x", "y"]].equals(tiles[["z", "x", "y"]])
    assert (got["mvt"] == tiles["mvt"]).all()


def test_stage_a_reruns_on_rewritten_input(ray_session, tmp_path):
    """stage A's marker records each input file's size and mtime: a
    file rewritten in place under the same path recomputes both stages
    and the tiles follow the new content; the untouched input resumes
    with nothing recomputed."""
    from raytiles.pipeline.job import run_job
    from raytiles.pipeline.synth import generate_webpages
    src = tmp_path / "webpages"
    src.mkdir()
    for i in range(2):
        pq.write_table(generate_webpages(300, seed=i, idx_offset=300 * i),
                       str(src / f"part-{i}.parquet"))
    root = str(tmp_path / "job")
    first = run_job(str(src), root, 12, n_buckets=8)
    assert run_job(str(src), root, 12, n_buckets=8)["computed"] == 0

    pq.write_table(generate_webpages(900, seed=5, idx_offset=300),
                   str(src / "part-1.parquet"))
    summary = run_job(str(src), root, 12, n_buckets=8)
    assert summary["skipped"] == 0 and summary["computed"] > 0
    assert summary["tiles"] != first["tiles"]
    fresh = run_job(str(src), str(tmp_path / "fresh"), 12, n_buckets=8)
    assert summary["tiles"] == fresh["tiles"]
    assert summary["bytes_out"] == fresh["bytes_out"]
    assert run_job(str(src), root, 12, n_buckets=8)["computed"] == 0


@pytest.fixture
def four_groups(monkeypatch):
    """64 KiB read blocks: stage A plans sf0.001 as 4 read groups."""
    from raytiles import util
    monkeypatch.setattr(util, "MIN_BLOCK_BYTES", 64 << 10)


def _group_files(root: str, g: int) -> list[str]:
    return glob.glob(os.path.join(root, "stage_a", "bucket=*", f"group-{g}.parquet"))


def _same_tiles(root: str, want) -> None:
    got = _sorted_tiles(root)
    assert got[["z", "x", "y"]].equals(want[["z", "x", "y"]])
    assert (got["mvt"] == want["mvt"]).all()


@pytest.mark.usefixtures("four_groups")
def test_stage_a_resumes_per_group(ray_session, wp_path, tmp_path):
    """Each stage-A read group is a checkpoint partition: after a kill
    inside stage A (no done-marker, one group without its manifest and
    files) the rerun recomputes only that group, keeps the finished
    groups' records, encodes stage B again and writes byte-identical
    tiles."""
    from raytiles.pipeline.job import A_MANIFEST, run_job
    root = str(tmp_path / "job")
    first = run_job(wp_path, root, 12)
    assert first["groups"] == first["groups_computed"] == 4
    want = _sorted_tiles(root)
    recs = cp.finished_partitions(root, A_MANIFEST)
    assert sorted(recs) == [0, 1, 2, 3]
    for g, rec in recs.items():
        assert rec["input_fingerprint"] and rec["rows_in"] > 0 and rec["rows_out"] > 0
        assert rec["bytes_out"] == sum(os.path.getsize(f) for f in _group_files(root, g))
        assert rec["wall_sec"] >= 0
    # stage A keeps only the columns stage B reads
    f = _group_files(root, 0)[0]
    assert pq.read_schema(f).names == ["url", "mention_idx", "z", "x", "y",
                                       "local_x", "local_y"]

    os.remove(os.path.join(root, "stage_a.done"))
    os.remove(os.path.join(root, A_MANIFEST, "1.json"))
    for f in _group_files(root, 1):
        os.remove(f)
    summary = run_job(wp_path, root, 12)
    assert (summary["groups_skipped"], summary["groups_computed"]) == (3, 1)
    again = cp.finished_partitions(root, A_MANIFEST)
    assert {g: again[g] for g in (0, 2, 3)} == {g: recs[g] for g in (0, 2, 3)}
    assert again[1]["input_fingerprint"] == recs[1]["input_fingerprint"]
    assert again[1]["rows_out"] == recs[1]["rows_out"]
    assert summary["skipped"] == 0 and summary["computed"] == first["partitions"]
    _same_tiles(root, want)
    resumed = run_job(wp_path, root, 12)
    assert resumed["groups_computed"] == resumed["computed"] == 0


@pytest.mark.usefixtures("four_groups")
def test_stage_a_partial_run_with_changed_arguments(ray_session, wp_path, tmp_path):
    """Finished groups are only resumed for the arguments they were
    computed with: after a kill inside stage A, a rerun at another zoom
    recomputes every group."""
    from raytiles.pipeline.job import A_MANIFEST, run_job
    root = str(tmp_path / "job")
    run_job(wp_path, root, 12)
    os.remove(os.path.join(root, "stage_a.done"))
    os.remove(os.path.join(root, A_MANIFEST, "2.json"))
    summary = run_job(wp_path, root, 8)
    assert (summary["groups_skipped"], summary["groups_computed"]) == (0, 4)
    assert summary["skipped"] == 0
    tiles = _sorted_tiles(root)
    assert set(tiles["z"]) == {8}
    fresh = str(tmp_path / "fresh")
    run_job(wp_path, fresh, 8)
    _same_tiles(root, _sorted_tiles(fresh))


@pytest.mark.usefixtures("four_groups")
def test_stage_a_recomputes_old_layout_root(ray_session, wp_path, tmp_path):
    """A root written by the Ray Data stage A (one write_parquet of
    Ray-named files per bucket, a done-marker without the group plan,
    no group manifests) is recomputed, not resumed: no old file is read
    next to the new ones."""
    from raytiles.pipeline.job import A_MANIFEST, run_job
    root = str(tmp_path / "job")
    first = run_job(wp_path, root, 12)
    want = _sorted_tiles(root)
    a_dir = os.path.join(root, "stage_a")
    for d in os.listdir(a_dir):
        for g, f in enumerate(sorted(os.listdir(os.path.join(a_dir, d)))):
            os.replace(os.path.join(a_dir, d, f),
                       os.path.join(a_dir, d, f"8c1f3e0a_{g:06d}_000000.parquet"))
    with open(os.path.join(root, "stage_a.done")) as fh:
        marker = json.load(fh)
    with open(os.path.join(root, "stage_a.done"), "w") as fh:
        json.dump({k: marker[k] for k in ("webpages_path", "zoom", "n_buckets",
                                          "input")}, fh)
    os.remove(os.path.join(root, "stage_a.args"))
    shutil.rmtree(os.path.join(root, A_MANIFEST))

    summary = run_job(wp_path, root, 12)
    assert summary["groups_computed"] == first["groups"]
    assert summary["skipped"] == 0
    for d in os.listdir(a_dir):
        assert all(f.startswith("group-") for f in os.listdir(os.path.join(a_dir, d)))
    _same_tiles(root, want)


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
