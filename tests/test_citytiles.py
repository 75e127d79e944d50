"""Composed multi-layer multi-geometry tileset (citytiles):

- protobuf-concat parity: the fused two-layer encoder's bytes decode
  to exactly the union of the separately-encoded point and trajectory
  layers (a Tile message is repeated layer fields — reference
  Tile.hs:56 — so concatenation of disjoint-named single-layer tiles
  is the valid multi-layer tile);
- decode-back: the full pipeline yields at least one tile carrying
  ALL THREE geometry families (points + linestrings + polygons in one
  tile — the reference's roads.mvt shape, test/Test.hs:44-48), and
  every tile decodes with the expected layer names.
"""

import numpy as np
import pyarrow as pa
import pytest

from raytiles.codec.decode import decode_tile
from raytiles.pipeline.citytiles import (city_tiles_pipeline,
                                         encode_point_line_batch)
from raytiles.pipeline.synth import generate_webpages


def _packed_fixture() -> pa.Table:
    """Two packed tile rows: one with a >=2-point url run (gets a
    trajectory layer), one single-mention tile (points only)."""
    return pa.table({
        "z": pa.array([6, 6], pa.int32()),
        "x": pa.array([10, 11], pa.int32()),
        "y": pa.array([20, 20], pa.int32()),
        "urls": pa.array([["http://a/1", "http://a/1", "http://b/2"],
                          ["http://c/3"]],
                         pa.list_(pa.string())),
        "mention_idx": pa.array([[0, 1, 0], [0]], pa.list_(pa.int32())),
        "local_x": pa.array([[100, 200, 300], [50]], pa.list_(pa.int32())),
        "local_y": pa.array([[110, 210, 310], [60]], pa.list_(pa.int32())),
    })


def test_concat_is_two_layer_tile():
    from raytiles.pipeline.encode_stage import FastPointEncoder
    from raytiles.pipeline.trajectories import encode_trajectories

    batch = _packed_fixture()
    fused = encode_point_line_batch(batch)
    assert fused.num_rows == 2
    pts = FastPointEncoder()(batch)
    lines = encode_trajectories(batch)

    # row 0: both layers; decoded layers equal the separately decoded
    # single-layer tiles' layers, feature for feature
    t0 = decode_tile(fused["mvt"][0].as_py())
    assert set(t0.layers) == {b"mentions", b"trajectories"}
    p0 = decode_tile(pts["mvt"][0].as_py())
    l0 = decode_tile(lines["mvt"][0].as_py())
    m_f, m_p = t0.layers[b"mentions"], p0.layers[b"mentions"]
    assert len(m_f.points) == len(m_p.points) == 3
    for a, b in zip(m_f.points, m_p.points):
        assert a.fid == b.fid and a.metadata == b.metadata
        assert np.array_equal(np.asarray(a.geometry), np.asarray(b.geometry))
    tr_f, tr_l = t0.layers[b"trajectories"], l0.layers[b"trajectories"]
    assert len(tr_f.linestrings) == len(tr_l.linestrings) == 1
    a, b = tr_f.linestrings[0], tr_l.linestrings[0]
    assert a.metadata == b.metadata
    assert all(np.array_equal(np.asarray(x), np.asarray(y))
               for x, y in zip(a.geometry, b.geometry))
    assert fused["n_features"][0].as_py() == 4
    assert fused["n_layers"][0].as_py() == 2

    # row 1: single mention -> points layer only
    t1 = decode_tile(fused["mvt"][1].as_py())
    assert set(t1.layers) == {b"mentions"}
    assert fused["n_layers"][1].as_py() == 1


def test_city_tileset_three_families(tmp_path):
    import ray.data

    table = generate_webpages(500)
    path = str(tmp_path / "webpages.parquet")
    import pyarrow.parquet as pq
    pq.write_table(table, path)

    df = city_tiles_pipeline(path, 6).to_pandas()
    assert len(df) > 0
    fams = {b"mentions": 0, b"trajectories": 0, b"hulls": 0}
    all_three = 0
    n_geoms = 0
    for mvt in df["mvt"]:
        t = decode_tile(bytes(mvt))
        names = set(t.layers)
        assert names <= {b"mentions", b"trajectories", b"hulls"}
        for nm in names:
            fams[nm] += 1
        if len(names) == 3:
            all_three += 1
            lay = t.layers
            assert lay[b"mentions"].points
            assert lay[b"trajectories"].linestrings
            assert lay[b"hulls"].polygons
        n_geoms += sum(len(l.points) + len(l.linestrings) + len(l.polygons)
                       for l in t.layers.values())
    # every family present in the tileset, and at least one tile
    # carries all three at once (the roads.mvt shape)
    assert all(v > 0 for v in fams.values())
    assert all_three >= 1
    assert n_geoms == int(df["n_features"].sum())


def test_assemble_bucket_batched_byte_parity():
    """Batched hull-polygon encoder == generic per-tile encoder,
    byte for byte, over the real sf-tier pipeline rows."""
    import pandas as pd
    import pyarrow as pa

    from raytiles.pipeline.polytiles import (_assemble_bucket,
                                             _assemble_bucket_generic,
                                             _tiling_stage, host_hulls)
    from raytiles.pipeline.synth import webpages_path

    wp = webpages_path("/root/testdata/sf0.001")
    rows = host_hulls(wp, 6).map_batches(_tiling_stage(6, 128),
                                         batch_format="pyarrow")
    df = rows.to_pandas()
    assert len(df) > 1000
    checked = 0
    for _, grp in df.groupby("bucket"):
        g = pa.Table.from_pandas(grp.reset_index(drop=True))
        a = _assemble_bucket(g).to_pandas() \
            .sort_values(["z", "x", "y"]).reset_index(drop=True)
        b = _assemble_bucket_generic(g).to_pandas() \
            .sort_values(["z", "x", "y"]).reset_index(drop=True)
        assert (a["mvt"] == b["mvt"]).all()
        assert (a["n_polys"] == b["n_polys"]).all()
        checked += len(a)
    assert checked > 0


def test_concat_merge_equals_decode_merge(tmp_path):
    """mvt_concat_merge (sorted-layer-record byte concat) is
    byte-identical to mvt_merge_layers (decode -> union -> re-encode)
    on the disjoint-layer city tileset inputs."""
    import pyarrow.parquet as pq

    from raytiles.pipeline.citytiles import encode_point_line_batch
    from raytiles.pipeline.encode_stage import FastPointEncoder
    from raytiles.pipeline.flagship import merged_tiles
    from raytiles.pipeline.overlay import mvt_concat_merge, mvt_merge_layers
    from raytiles.pipeline.polytiles import polygon_tiles_pipeline

    table = generate_webpages(500)
    path = str(tmp_path / "webpages.parquet")
    pq.write_table(table, path)

    enc = FastPointEncoder()

    def two_layer():
        return merged_tiles(path, 6).map_batches(
            lambda b: encode_point_line_batch(b, 0.0, enc),
            batch_format="pyarrow", batch_size=4096)

    a = mvt_concat_merge(two_layer(), polygon_tiles_pipeline(path, 6)) \
        .to_pandas().sort_values(["z", "x", "y"]).reset_index(drop=True)
    b = mvt_merge_layers(two_layer(), polygon_tiles_pipeline(path, 6)) \
        .to_pandas().sort_values(["z", "x", "y"]).reset_index(drop=True)
    assert len(a) == len(b) > 0
    assert (a["mvt"] == b["mvt"]).all()
    assert (a["n_features"] == b["n_features"]).all()


def test_concat_merge_same_name_fallback():
    """Same-named layers on both sides must take the exact
    decode-union path inside mvt_concat_merge — identical to
    mvt_merge_layers, never a blind concat (which would decode
    last-wins and DROP features)."""
    import ray.data

    from raytiles.codec.decode import decode_tile
    from raytiles.pipeline.encode_stage import FastPointEncoder
    from raytiles.pipeline.overlay import mvt_concat_merge, mvt_merge_layers

    enc = FastPointEncoder()

    def one_tile(lx):
        batch = pa.table({
            "z": pa.array([6], pa.int32()), "x": pa.array([1], pa.int32()),
            "y": pa.array([2], pa.int32()),
            "urls": pa.array([[f"http://h/{lx}"]], pa.list_(pa.string())),
            "mention_idx": pa.array([[0]], pa.list_(pa.int32())),
            "local_x": pa.array([[lx]], pa.list_(pa.int32())),
            "local_y": pa.array([[7]], pa.list_(pa.int32()))})
        return ray.data.from_arrow(enc(batch))

    a = mvt_concat_merge(one_tile(10), one_tile(20)).to_pandas()
    b = mvt_merge_layers(one_tile(10), one_tile(20)).to_pandas()
    assert len(a) == len(b) == 1
    assert bytes(a["mvt"][0]) == bytes(b["mvt"][0])
    t = decode_tile(bytes(a["mvt"][0]))
    # the union kept BOTH features in the one "mentions" layer
    assert len(t.layers[b"mentions"].points) == 2
    assert a["n_features"][0] == 2
