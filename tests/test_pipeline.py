"""End-to-end pipeline tests on the deterministic synthetic webpages
table (sf0.001 tier, 500 rows): stage-level units + full flagship run
with decode-back verification against a single-process oracle."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from raytiles.codec.decode import decode_tile
from raytiles.geo import tilemath as tm
from raytiles.geo.parse import MAX_LAT, GeoParser
from raytiles.pipeline.encode_stage import FastPointEncoder
from raytiles.pipeline.stages import merge_tile_partials, pack_tile_partials
from raytiles.pipeline.synth import generate_webpages, webpages_path
from tests.conftest import fixture_bytes, fixture_path


@pytest.fixture(scope="module")
def webpages_500():
    return generate_webpages(500)


def oracle_assignments(table: pa.Table, zoom: int) -> pd.DataFrame:
    """Single-process reference implementation: parse + assign without
    Ray, used as the oracle for the distributed path. It parses with
    re.finditer (GeoParser._py_scan_arrow), not the pipeline's scanner."""
    text = table["text"].combine_chunks()
    row, _, lat, lon = GeoParser()._py_scan_arrow(text)
    keep = (np.abs(lat) <= MAX_LAT) & (np.abs(lon) <= 180.0)
    row, lat, lon = row[keep], lat[keep], lon[keep]
    mention_idx = np.arange(row.size) - np.searchsorted(row, row)
    mentions = pd.DataFrame({
        "url": table["url"].take(pa.array(row)).to_numpy(zero_copy_only=False),
        "mention_idx": mention_idx.astype(np.int32), "lon": lon, "lat": lat})
    x, y = tm.lonlat_to_tile(lon, lat, zoom)
    lx, ly = tm.lonlat_to_local(lon, lat, zoom, x, y)
    mentions["z"], mentions["x"], mentions["y"] = np.int32(zoom), x, y
    mentions["local_x"], mentions["local_y"] = lx, ly
    return mentions


def test_synth_determinism():
    a = generate_webpages(200)
    b = generate_webpages(200)
    assert a.equals(b)  # byte-identical text per url across runs


def test_synth_schema(webpages_500):
    t = webpages_500
    assert [f.name for f in t.schema] == ["url", "warc_ts", "html", "text", "lang"]
    assert t.schema.field("warc_ts").type == pa.timestamp("us")
    assert t.schema.field("html").type == pa.binary()
    # html wraps text exactly
    assert t["html"][0].as_py() == b"<html><body>" + t["text"][0].as_py().encode() + b"</body></html>"


def test_pack_merge_roundtrip(webpages_500):
    mentions = oracle_assignments(webpages_500, 12)
    batch = pa.Table.from_pandas(mentions, preserve_index=False)
    packed = pack_tile_partials(batch)
    # one packed row per tile (single input batch)
    assert packed.num_rows == mentions.groupby(["z", "x", "y"]).ngroups
    # merging a slice of packed rows re-splits into its tiles
    some = packed.slice(0, 5)
    merged = merge_tile_partials(some)
    assert merged.num_rows == 5
    import pyarrow.compute as pc
    assert pc.list_value_length(merged["urls"]).to_numpy().sum() == \
        pc.list_value_length(some["urls"]).to_numpy().sum()


def test_encoder_roundtrip_small():
    """FastPointEncoder's bytes equal the general codec's encode_tile
    of the same one-layer point tile, and decode back to it."""
    from raytiles.codec.encode import encode_tile
    from raytiles.codec.model import I64V, ST, Feature, Layer, VectorTile
    urls, midx = ["https://a/1", "https://b/2"], [0, 1]
    lx, ly = [100, 4095], [0, 2048]
    batch = pa.table({
        "z": pa.array([12], pa.int32()), "x": pa.array([655], pa.int32()),
        "y": pa.array([1583], pa.int32()),
        "urls": pa.array([urls], pa.list_(pa.string())),
        "mention_idx": pa.array([midx], pa.list_(pa.int32())),
        "local_x": pa.array([lx], pa.list_(pa.int32())),
        "local_y": pa.array([ly], pa.list_(pa.int32())),
    })
    out = FastPointEncoder()(batch)
    feats = [Feature(fid=i,
                     metadata={b"url": (ST, urls[i].encode()),
                               b"mention_idx": (I64V, midx[i])},
                     geometry=np.array([[lx[i], ly[i]]], dtype=np.int64))
             for i in range(len(urls))]
    want = encode_tile(VectorTile({b"mentions": Layer(
        name=b"mentions", version=2, extent=4096, points=feats)}))
    assert out["mvt"][0].as_py() == want
    assert out["n_features"][0].as_py() == 2
    tile = decode_tile(out["mvt"][0].as_py())
    layer = tile.layers[b"mentions"]
    assert len(layer.points) == 2
    f0 = layer.points[0]
    assert f0.metadata[b"url"] == ("St", b"https://a/1")
    assert f0.metadata[b"mention_idx"] == ("I64", 0)
    assert f0.geometry.tolist() == [[100, 0]]
    assert layer.points[1].geometry.tolist() == [[4095, 2048]]


def test_fastpoint_encoder_large_string_parity():
    """FastPointEncoder must emit identical bytes when the urls list
    column arrives as list<large_string> (int64 offsets) — the
    dictionary raw-buffer path previously assumed int32 offsets."""
    batch = pa.table({
        "z": pa.array([12, 12], pa.int32()),
        "x": pa.array([655, 656], pa.int32()),
        "y": pa.array([1583, 1583], pa.int32()),
        "urls": pa.array([["https://a/1", "https://b/2"], ["https://a/1"]],
                         pa.list_(pa.string())),
        "mention_idx": pa.array([[0, 1], [0]], pa.list_(pa.int32())),
        "local_x": pa.array([[100, 4095], [7]], pa.list_(pa.int32())),
        "local_y": pa.array([[0, 2048], [9]], pa.list_(pa.int32())),
    })
    big = batch.set_column(
        batch.column_names.index("urls"), "urls",
        batch["urls"].cast(pa.list_(pa.large_string())))
    enc = FastPointEncoder()
    a, b = enc(batch), enc(big)
    assert a["mvt"].to_pylist() == b["mvt"].to_pylist()
    assert decode_tile(a["mvt"][0].as_py()).layers[b"mentions"].points[0] \
        .metadata[b"url"] == ("St", b"https://a/1")


def _random_packed_tiles(rng: np.random.Generator) -> pa.Table:
    """Packed tile rows of random sizes (one tile with no features,
    one past 128 features) drawn from small url and mention_idx pools,
    so values repeat within a tile and varints run past one byte."""
    url_pool = ["", "https://a/1", "https://b/2", "https://é.example/ü",
                "https://long.example/" + "p" * 150]
    midx_pool = [0, 1, 5, 127, 128, 300, 70000]
    sizes = [0, 1, 3, 140, int(rng.integers(1, 40)), 260]
    rng.shuffle(sizes)
    tiles = {"urls": [], "mention_idx": [], "local_x": [], "local_y": []}
    for n in sizes:
        tiles["urls"].append([url_pool[i] for i in rng.integers(0, len(url_pool), n)])
        tiles["mention_idx"].append(rng.choice(midx_pool, n).tolist())
        tiles["local_x"].append(rng.integers(-80, 4200, n).tolist())
        tiles["local_y"].append(rng.integers(-80, 4200, n).tolist())
    t = len(sizes)
    return pa.table({
        "z": pa.array([12] * t, pa.int32()),
        "x": pa.array(rng.integers(0, 4096, t), pa.int32()),
        "y": pa.array(rng.integers(0, 4096, t), pa.int32()),
        "urls": pa.array(tiles["urls"], pa.list_(pa.string())),
        **{k: pa.array(v, pa.list_(pa.int32())) for k, v in tiles.items()
           if k != "urls"}})


def test_fastpoint_encoder_matches_encode_tile_on_random_tiles():
    """Seeded property test: FastPointEncoder over random multi-tile
    batches equals the general codec's encode_tile run per tile, with
    multi-byte varints (feature ids, mention_idx values and url lengths
    >= 128), values repeating within a tile, an empty url, a tile with
    no features (b""), large_string urls and a batch with no rows."""
    from raytiles.codec.encode import encode_tile
    from raytiles.codec.model import I64V, ST, Feature, Layer, VectorTile
    enc = FastPointEncoder()
    for seed in range(6):
        batch = _random_packed_tiles(np.random.default_rng(seed))
        out = enc(batch)
        assert out.schema.field("mvt").type == pa.binary()
        assert out["n_features"].to_pylist() == \
            [len(u) for u in batch["urls"].to_pylist()]
        for i, row in enumerate(batch.select(
                ["urls", "mention_idx", "local_x", "local_y"]).to_pylist()):
            feats = [Feature(fid=f,
                             metadata={b"url": (ST, u.encode()),
                                       b"mention_idx": (I64V, m)},
                             geometry=np.array([[lx, ly]], dtype=np.int64))
                     for f, (u, m, lx, ly) in enumerate(zip(
                         row["urls"], row["mention_idx"],
                         row["local_x"], row["local_y"]))]
            want = encode_tile(VectorTile({b"mentions": Layer(
                name=b"mentions", version=2, extent=4096, points=feats)})) \
                if feats else b""
            assert out["mvt"][i].as_py() == want, (seed, i)
        big = batch.set_column(
            batch.column_names.index("urls"), "urls",
            batch["urls"].cast(pa.list_(pa.large_string())))
        assert enc(big)["mvt"].equals(out["mvt"])
        empty = enc(batch.slice(0, 0))
        assert empty.num_rows == 0 and empty.schema == out.schema


@pytest.mark.usefixtures("ray_session")
class TestDistributed:
    def test_assignments_match_oracle(self, webpages_500, tmp_path):
        import pyarrow.parquet as pq
        from raytiles.pipeline.flagship import assignments_pipeline
        path = str(tmp_path / "webpages.parquet")
        pq.write_table(webpages_500, path)
        got = assignments_pipeline(path, 12).to_pandas()
        want = oracle_assignments(webpages_500, 12)
        key = ["url", "mention_idx"]
        got_s = got.sort_values(key).reset_index(drop=True)
        want_s = want.sort_values(key).reset_index(drop=True)
        assert len(got_s) == len(want_s)
        for col in ["url", "mention_idx", "lon", "lat", "x", "y", "local_x", "local_y"]:
            assert np.array_equal(got_s[col].to_numpy(), want_s[col].to_numpy()), col
        # cell hierarchy consistency: every r>0 cell's parent matches r-1
        for r in range(1, 10):
            assert np.array_equal(
                tm.cell_parent(got_s[f"cell_r{r}"].to_numpy()),
                got_s[f"cell_r{r-1}"].to_numpy())

    def test_flagship_tiles_decode_back(self, webpages_500, tmp_path):
        import pyarrow.parquet as pq
        from raytiles.pipeline.flagship import tiles_pipeline
        path = str(tmp_path / "webpages.parquet")
        pq.write_table(webpages_500, path)
        tiles = tiles_pipeline(path, 12).to_pandas()
        want = oracle_assignments(webpages_500, 12)
        want_counts = want.groupby(["x", "y"]).size()
        assert len(tiles) == len(want_counts)
        assert tiles.n_features.sum() == len(want)
        # decode a hot tile and verify features match the oracle rows
        hot = tiles.sort_values("n_features", ascending=False).iloc[0]
        tile = decode_tile(hot.mvt)
        layer = tile.layers[b"mentions"]
        sub = want[(want.x == hot.x) & (want.y == hot.y)] \
            .sort_values(["url", "mention_idx"]).reset_index(drop=True)
        assert len(layer.points) == hot.n_features == len(sub)
        for i, f in enumerate(layer.points):
            assert f.fid == i
            assert f.metadata[b"url"] == ("St", sub.url[i].encode())
            assert f.metadata[b"mention_idx"] == ("I64", int(sub.mention_idx[i]))
            assert f.geometry.tolist() == [[int(sub.local_x[i]), int(sub.local_y[i])]]


@pytest.mark.usefixtures("ray_session")
def test_trajectories_decode_back(webpages_500, tmp_path):
    import pyarrow.parquet as pq
    from raytiles.codec.decode import decode_tile
    from raytiles.pipeline.trajectories import trajectories_pipeline
    path = str(tmp_path / "webpages.parquet")
    pq.write_table(webpages_500, path)
    tiles = trajectories_pipeline(path, 6).to_pandas()
    assert len(tiles) > 0
    # oracle: single-process expected per-tile line counts
    want = oracle_assignments(webpages_500, 6)
    g = want.groupby(["x", "y", "url"]).size()
    exp_lines = (g >= 2).groupby(level=[0, 1]).sum()
    exp_lines = exp_lines[exp_lines > 0]
    got = tiles.set_index(["x", "y"])["n_lines"].sort_index()
    assert got.to_dict() == {k: int(v) for k, v in exp_lines.sort_index().items()}
    hot = tiles.sort_values("n_lines", ascending=False).iloc[0]
    t = decode_tile(hot.mvt)
    layer = t.layers[b"trajectories"]
    assert len(layer.linestrings) == hot.n_lines
    f = layer.linestrings[0]
    assert f.metadata[b"n_points"][1] >= 2
    assert f.geometry[0].shape[0] == f.metadata[b"n_points"][1]


def test_fastshape_heat_byte_equality():
    """Columnar heat encoder == generic encoder, byte for byte, on
    random grids (the fastpoint equality pattern extended to the
    polygon path)."""
    import numpy as np
    from raytiles.codec.fastshape import encode_heat_tiles
    from raytiles.ops.raster import CELL, GRID, vectorize_raster_generic
    rng = np.random.default_rng(17)
    offs = [0]
    gxs, gys, cnts, dens = [], [], [], []
    grids = []
    for _ in range(6):
        g = np.zeros((GRID, GRID), dtype=np.uint32)
        k = int(rng.integers(1, 60))
        g[rng.integers(0, GRID, k), rng.integers(0, GRID, k)] = rng.integers(1, 9, k)
        grids.append(g)
        gy, gx = np.nonzero(g >= 1)
        cnt = g[gy, gx].astype(np.int64)
        total = float(g.sum())
        gxs.append(gx)
        gys.append(gy)
        cnts.append(cnt)
        dens.append(np.floor(cnt / total * 1e6) / 1e6)
        offs.append(offs[-1] + gx.size)
    fast = encode_heat_tiles(np.array(offs), np.concatenate(gxs),
                             np.concatenate(gys), np.concatenate(cnts),
                             np.concatenate(dens), CELL)
    for i, g in enumerate(grids):
        assert fast[i] == vectorize_raster_generic(g)


def test_fastshape_trajectories_byte_equality():
    """Columnar trajectory encoder == generic per-row path on random
    packed tile rows (variable-length linestring geometry)."""
    import numpy as np
    import pyarrow as pa
    from raytiles.pipeline.trajectories import (encode_trajectories,
                                                encode_trajectories_generic)
    rng = np.random.default_rng(23)
    rows = {"z": [], "x": [], "y": [], "urls": [], "mention_idx": [],
            "local_x": [], "local_y": []}
    for t in range(8):
        urls, midx, lx, ly = [], [], [], []
        for u in range(int(rng.integers(1, 5))):
            m = int(rng.integers(1, 6))  # some single-point runs (skipped)
            urls += [f"https://site{u}.example/{t}"] * m
            midx += list(range(m))
            lx += rng.integers(0, 4096, m).tolist()
            ly += rng.integers(0, 4096, m).tolist()
        rows["z"].append(6)
        rows["x"].append(t)
        rows["y"].append(0)
        rows["urls"].append(urls)
        rows["mention_idx"].append(midx)
        rows["local_x"].append(lx)
        rows["local_y"].append(ly)
    batch = pa.table({
        "z": pa.array(rows["z"], pa.int32()),
        "x": pa.array(rows["x"], pa.int32()),
        "y": pa.array(rows["y"], pa.int32()),
        "urls": pa.array(rows["urls"], pa.list_(pa.string())),
        "mention_idx": pa.array(rows["mention_idx"], pa.list_(pa.int32())),
        "local_x": pa.array(rows["local_x"], pa.list_(pa.int32())),
        "local_y": pa.array(rows["local_y"], pa.list_(pa.int32())),
    })
    fast = encode_trajectories(batch)
    generic = encode_trajectories_generic(batch)
    assert fast.num_rows == generic.num_rows
    for col in ("z", "x", "y", "mvt", "n_lines"):
        assert fast[col].to_pylist() == generic[col].to_pylist(), col


def test_mvt_file_sink(ray_session, tmp_path):
    """File-per-tile sink: XYZ layout, every file decodes, inventory
    matches what landed on disk."""
    import os
    from raytiles.codec.decode import decode_tile
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.sinks import write_mvt_files
    from raytiles.pipeline.synth import webpages_path
    root = str(tmp_path / "tiles")
    tiles = tiles_pipeline(webpages_path("/root/testdata/sf0.001"), 12)
    inv = write_mvt_files(tiles, root).to_pandas()
    assert len(inv) > 0
    for _, r in inv.head(5).iterrows():
        path = os.path.join(root, str(r["z"]), str(r["x"]), f"{r['y']}.mvt")
        assert os.path.getsize(path) == r["n_bytes"]
        tile = decode_tile(open(path, "rb").read())
        assert b"mentions" in tile.layers
    n_files = sum(len(files) for _, _, files in os.walk(root))
    assert n_files == len(inv)


def test_read_mvt_dir_roundtrips_sink(tmp_path):
    """Source/sink duality: write fixtures in XYZ layout, read back,
    every tile decodes with path-derived coordinates intact."""
    import shutil

    from raytiles.pipeline.sources import read_mvt_dir
    fixtures = ["onepoint", "linestring", "polygon", "roads", "clearlake"]
    for i, name in enumerate(fixtures):
        d = tmp_path / str(12) / str(100 + i)
        d.mkdir(parents=True)
        shutil.copyfile(fixture_path(f"{name}.mvt"),
                        d / f"{200 + i}.mvt")
    df = read_mvt_dir(str(tmp_path)).to_pandas() \
        .sort_values("x").reset_index(drop=True)
    assert len(df) == 5
    assert bool(df["ok"].all())
    assert list(df["z"]) == [12] * 5
    assert list(df["x"]) == [100, 101, 102, 103, 104]
    assert list(df["y"]) == [200, 201, 202, 203, 204]
    assert (df["n_features"] > 0).all()
    # roads.mvt has 15 layers (reference test suite's own count)
    assert int(df[df["x"] == 103]["n_layers"].iloc[0]) == 15


def test_line_tiles_clip_bounds_and_exactness():
    """Cross-tile line tiling: all coords within extent+buffer; the
    per-tile segment set equals a single-process brute-force clip."""
    import re

    import numpy as np

    from raytiles.codec.decode import decode_tile
    from raytiles.geo.clip import clip_segments
    from raytiles.pipeline.flagship import geoparse, read_webpages
    from raytiles.pipeline.linetiles import (EXTENT, _global_px,
                                             line_tiles_pipeline)
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    zoom, buf = 5, 128
    wp = webpages_path(SF_SMOKE)
    df = line_tiles_pipeline(wp, zoom, buf).to_pandas()
    assert len(df) > 0

    # brute-force oracle from the geoparsed mentions
    m = geoparse(read_webpages(wp)).to_pandas() \
        .sort_values(["url", "mention_idx"]).reset_index(drop=True)
    gx, gy = _global_px(m["lon"].to_numpy(), m["lat"].to_numpy(), zoom)
    url = m["url"].to_numpy()
    same = url[1:] == url[:-1]
    x0, y0, x1, y1 = gx[:-1][same], gy[:-1][same], gx[1:][same], gy[1:][same]
    surl = url[:-1][same]

    def oracle_tile(tx, ty):
        k, cx0, cy0, cx1, cy1 = clip_segments(
            x0, y0, x1, y1,
            np.full(len(x0), tx * EXTENT - buf),
            np.full(len(x0), ty * EXTENT - buf),
            np.full(len(x0), (tx + 1) * EXTENT + buf),
            np.full(len(x0), (ty + 1) * EXTENT + buf))
        lx0 = np.rint(cx0[k] - tx * EXTENT).astype(int)
        ly0 = np.rint(cy0[k] - ty * EXTENT).astype(int)
        lx1 = np.rint(cx1[k] - tx * EXTENT).astype(int)
        ly1 = np.rint(cy1[k] - ty * EXTENT).astype(int)
        live = (lx0 != lx1) | (ly0 != ly1)
        return {(u, a, b, c, d) for u, a, b, c, d in zip(
            surl[k][live], lx0[live], ly0[live], lx1[live], ly1[live])}

    checked = 0
    for _, row in df.sample(n=min(8, len(df)), random_state=0).iterrows():
        t = decode_tile(row["mvt"])
        layer = list(t.layers.values())[0]
        got = set()
        for f in layer.linestrings:
            u = f.metadata[b"url"][1].decode()
            for part in f.geometry:
                pts = np.asarray(part)
                assert (pts >= -buf).all() and (pts <= EXTENT + buf).all()
                for i in range(len(pts) - 1):
                    got.add((u, int(pts[i][0]), int(pts[i][1]),
                             int(pts[i + 1][0]), int(pts[i + 1][1])))
        assert got == oracle_tile(int(row["x"]), int(row["y"]))
        checked += 1
    assert checked > 0


def test_polygon_tiles_hulls_and_clip_exactness():
    """Cross-tile polygon tiling, three independent checks:
    1. distributed per-host hulls satisfy the hull characterization
       (convex + every vertex is a mention point + every mention point
       inside) — no shared code path with the engine's chain needed;
    2. distributed partial/merge hull == single-process hull;
    3. sampled decoded tiles carry exactly the brute-force clip_ring
       result (same rounding/dedup/orientation post-processing)."""
    import numpy as np

    from raytiles.codec.decode import decode_tile
    from raytiles.codec.geometry import surveyor
    from raytiles.geo.clip import clip_ring
    from raytiles.pipeline.flagship import geoparse, read_webpages
    from raytiles.pipeline.linetiles import _global_px
    from raytiles.pipeline.polytiles import (EXTENT, _chain, host_hulls,
                                             polygon_tiles_pipeline)
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    zoom, buf = 3, 128
    wp = webpages_path(SF_SMOKE)

    m = geoparse(read_webpages(wp)).to_pandas()
    m["host"] = m["url"].str.extract(r"^https?://([^/]+)/")
    gx, gy = _global_px(m["lon"].to_numpy(), m["lat"].to_numpy(), zoom)
    m["gx"], m["gy"] = gx, gy

    hulls = host_hulls(wp, zoom).to_pandas().set_index("host")
    assert len(hulls) > 0

    def oracle_hull(sub):
        pts = np.unique(np.stack([sub["gx"], sub["gy"]], axis=1), axis=0)
        h = _chain(pts[:, 0], pts[:, 1])
        return pts[h] if len(h) >= 3 else None

    rng = np.random.default_rng(0)
    sample_hosts = rng.choice(hulls.index.to_numpy(), size=12, replace=False)
    for hname in sample_hosts:
        got = np.frombuffer(hulls.loc[hname, "pts"], np.float64).reshape(-1, 2)
        sub = m[m["host"] == hname]
        # (2) matches single-process hull (up to rotation)
        want = oracle_hull(sub)
        assert want is not None and len(got) == len(want)
        roll = int(np.flatnonzero((want == got[0]).all(axis=1))[0])
        assert np.allclose(np.roll(want, -roll, axis=0), got)
        # (1) independent characterization
        nx = np.roll(got, -1, axis=0)
        for px, py in zip(sub["gx"], sub["gy"]):
            cr = (nx[:, 0] - got[:, 0]) * (py - got[:, 1]) \
                - (nx[:, 1] - got[:, 1]) * (px - got[:, 0])
            assert (cr >= -1e-6).all()  # every mention inside/on hull
        cr_hull = (nx[:, 0] - got[:, 0]) * (np.roll(got[:, 1], -2) - got[:, 1]) \
            - (nx[:, 1] - got[:, 1]) * (np.roll(got[:, 0], -2) - got[:, 0])
        assert (cr_hull > 0).all()  # strictly convex, CCW (pos shoelace)
        pts_set = {(a, b) for a, b in zip(sub["gx"], sub["gy"])}
        assert all((a, b) in pts_set for a, b in got)
        assert int(hulls.loc[hname, "n_mentions"]) == len(sub)

    df = polygon_tiles_pipeline(wp, zoom, buf).to_pandas()
    assert len(df) > 0

    def canon(ring):
        """closed int ring -> rotation-normalized open tuple."""
        r = [tuple(p) for p in np.asarray(ring)[:-1]]
        k = r.index(min(r))
        return tuple(r[k:] + r[:k])

    def oracle_tile(tx, ty):
        out = {}
        for hname, hp in hulls["pts"].items():
            hull = np.frombuffer(hp, np.float64).reshape(-1, 2)
            ox, oy = clip_ring(hull[:, 0], hull[:, 1],
                               tx * EXTENT - buf, ty * EXTENT - buf,
                               (tx + 1) * EXTENT + buf,
                               (ty + 1) * EXTENT + buf)
            if len(ox) == 0:
                continue
            lx = np.rint(ox - tx * EXTENT).astype(np.int64)
            ly = np.rint(oy - ty * EXTENT).astype(np.int64)
            pts = np.stack([lx, ly], axis=1)
            keep = np.ones(len(pts), bool)
            keep[1:] = (pts[1:] != pts[:-1]).any(axis=1)
            pts = pts[keep]
            if len(pts) > 1 and (pts[0] == pts[-1]).all():
                pts = pts[1:]
            if len(pts) < 3:
                continue
            closed = np.concatenate([pts, pts[:1]])
            a = surveyor(closed)
            if a == 0:
                continue
            if a < 0:
                closed = closed[::-1]
            out[hname] = canon(closed)
        return out

    for _, row in df.sample(n=min(6, len(df)), random_state=0).iterrows():
        t = decode_tile(row["mvt"])
        layer = list(t.layers.values())[0]
        got = {}
        for f in layer.polygons:
            hname = f.metadata[b"host"][1].decode()
            ring = f.geometry[0][0]
            pts = np.asarray(ring)
            assert (pts >= -buf).all() and (pts <= EXTENT + buf).all()
            assert surveyor(pts) > 0
            got[hname] = canon(pts)
        assert got == oracle_tile(int(row["x"]), int(row["y"]))


def test_mvt_overlay_wire_concat_semantics():
    """Overlay: (1) every output tile decodes to exactly the UNION of
    the two sides' layer dicts (b shadowing a on name collisions, the
    reference's last-wins rule); (2) one-sided tiles pass through
    byte-identical; (3) wire concat == decode-merge-re-encode."""
    import numpy as np

    from raytiles.codec.decode import decode_tile
    from raytiles.codec.encode import encode_tile
    from raytiles.codec.model import VectorTile, tiles_equal
    from raytiles.ops.raster import heatmap_pipeline
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_overlay
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    a = tiles_pipeline(wp, 12).to_pandas()
    b = heatmap_pipeline(wp, 12).to_pandas()
    got = mvt_overlay(tiles_pipeline(wp, 12),
                      heatmap_pipeline(wp, 12)).to_pandas()
    akey = {(z, x, y): m for z, x, y, m in
            zip(a["z"], a["x"], a["y"], a["mvt"])}
    bkey = {(z, x, y): m for z, x, y, m in
            zip(b["z"], b["x"], b["y"], b["mvt"])}
    assert set(zip(got["z"], got["x"], got["y"])) \
        == set(akey) | set(bkey)
    rng = np.random.default_rng(0)
    rows = got.sample(n=min(25, len(got)), random_state=0)
    both = one_sided = 0
    for _, r in rows.iterrows():
        key = (r["z"], r["x"], r["y"])
        if key in akey and key in bkey:
            both += 1
            t = decode_tile(r["mvt"])
            merged_layers = dict(decode_tile(akey[key]).layers)
            merged_layers.update(decode_tile(bkey[key]).layers)
            assert tiles_equal(t, VectorTile(merged_layers))
            # wire concat == decode-merge-re-encode (same tile value)
            assert tiles_equal(
                decode_tile(encode_tile(VectorTile(merged_layers))), t)
        else:
            one_sided += 1
            src = akey.get(key, bkey.get(key))
            assert r["mvt"] == src  # byte-identical passthrough
    assert both > 0 and one_sided >= 0


def test_mvt_overlay_same_name_last_wins():
    """Name-colliding overlay keeps the RIGHT side's layer, exactly
    like the reference's duplicate-layer decode rule."""
    from raytiles.codec.decode import decode_tile
    from raytiles.codec.model import tiles_equal
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_filter_features, mvt_overlay
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    full = tiles_pipeline(wp, 12)
    filt = mvt_filter_features(tiles_pipeline(wp, 12), b"mention_idx",
                               lambda v: v == 0)
    fdf = filt.to_pandas()
    got = mvt_overlay(full, filt).to_pandas()
    fkey = {(z, x, y): m for z, x, y, m in
            zip(fdf["z"], fdf["x"], fdf["y"], fdf["mvt"])}
    checked = 0
    for _, r in got.sample(n=min(10, len(got)), random_state=1).iterrows():
        key = (r["z"], r["x"], r["y"])
        if key in fkey:
            assert tiles_equal(decode_tile(r["mvt"]),
                               decode_tile(fkey[key]))
            checked += 1
    assert checked > 0


def test_mvt_filter_first_mention_invariant():
    """Filtered tiles hold exactly one feature per document (the
    mention_idx == 0 one), totalled across tiles == distinct urls
    with mentions."""
    from raytiles.codec.decode import decode_tile
    from raytiles.pipeline.flagship import (geoparse, read_webpages,
                                            tiles_pipeline)
    from raytiles.pipeline.overlay import mvt_filter_features
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    got = mvt_filter_features(tiles_pipeline(wp, 12), b"mention_idx",
                              lambda v: v == 0).to_pandas()
    m = geoparse(read_webpages(wp)).to_pandas()
    assert got["n_features"].sum() == m["url"].nunique()
    for _, r in got.sample(n=min(8, len(got)), random_state=0).iterrows():
        t = decode_tile(r["mvt"])
        for lay in t.layers.values():
            for f in lay.points:
                assert f.metadata[b"mention_idx"][1] == 0


def test_mvt_diff_statuses():
    """Diff of the full tile set against its feature-filtered variant:
    tiles that lost every feature report 'removed', tiles that lost
    some report 'changed', nothing reports 'added', identical runs
    diff to empty."""
    import numpy as np
    import pandas as pd

    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_diff, mvt_filter_features
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    full_df = tiles_pipeline(wp, 12).to_pandas()
    filt_df = mvt_filter_features(tiles_pipeline(wp, 12), b"mention_idx",
                                  lambda v: v == 0).to_pandas()
    got = mvt_diff(tiles_pipeline(wp, 12),
                   mvt_filter_features(tiles_pipeline(wp, 12),
                                       b"mention_idx", lambda v: v == 0)) \
        .to_pandas()
    fullk = {(z, x, y): m for z, x, y, m in
             zip(full_df["z"], full_df["x"], full_df["y"], full_df["mvt"])}
    filtk = {(z, x, y): m for z, x, y, m in
             zip(filt_df["z"], filt_df["x"], filt_df["y"], filt_df["mvt"])}
    want = {}
    for k in set(fullk) | set(filtk):
        if k in fullk and k in filtk:
            if fullk[k] != filtk[k]:
                want[k] = "changed"
        elif k in filtk:
            want[k] = "added"
        else:
            want[k] = "removed"
    gotmap = {(z, x, y): s for z, x, y, s in
              zip(got["z"], got["x"], got["y"], got["status"])}
    assert gotmap == want
    assert "added" not in set(got["status"])
    assert {"removed", "changed"} <= set(got["status"])
    # identical runs -> empty diff
    same = mvt_diff(tiles_pipeline(wp, 12), tiles_pipeline(wp, 12)) \
        .to_pandas()
    assert len(same) == 0


def test_pyramid_levels_byte_identical_to_direct_runs():
    """Every pyramid level's tiles are byte-identical to running the
    flagship directly at that zoom (nested-floor identity)."""
    from raytiles.pipeline.flagship import pyramid_mvt_pipeline, tiles_pipeline
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    pyr = pyramid_mvt_pipeline(wp, base_zoom=12, levels=3).to_pandas()
    for d in range(3):
        z = 12 - d
        lvl = pyr[pyr["z"] == z].sort_values(["x", "y"]).reset_index(drop=True)
        want = tiles_pipeline(wp, z).to_pandas() \
            .sort_values(["x", "y"]).reset_index(drop=True)
        assert len(lvl) == len(want) > 0, z
        assert (lvl["x"].to_numpy() == want["x"].to_numpy()).all()
        assert (lvl["y"].to_numpy() == want["y"].to_numpy()).all()
        assert (lvl["mvt"].to_numpy() == want["mvt"].to_numpy()).all(), z


def test_jsonl_source_roundtrips_parquet(tmp_path):
    """write_webpages_jsonl -> read_webpages_jsonl reproduces the
    parquet rows (url, text, lang; html through base64) and the
    flagship geoparse gives identical mentions from either source."""
    import pandas as pd
    import ray.data

    from raytiles.pipeline.flagship import geoparse, read_webpages
    from raytiles.pipeline.sources import (read_webpages_jsonl,
                                           write_webpages_jsonl)
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    src = ray.data.read_parquet(wp, columns=["url", "text", "lang", "html"])
    root = str(tmp_path / "jsonl")
    write_webpages_jsonl(src, root)
    back = read_webpages_jsonl(root, columns=("url", "text", "lang",
                                              "html")).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    want = src.to_pandas().sort_values("url").reset_index(drop=True)
    assert len(back) == len(want)
    for c in ("url", "text", "lang", "html"):
        assert (back[c] == want[c]).all(), c
    # identical geoparse output from either source
    m1 = geoparse(read_webpages(wp)).to_pandas() \
        .sort_values(["url", "mention_idx"]).reset_index(drop=True)
    m2 = geoparse(read_webpages_jsonl(root)).to_pandas() \
        .sort_values(["url", "mention_idx"]).reset_index(drop=True)
    assert len(m1) == len(m2)
    for c in ("url", "mention_idx", "lon", "lat"):
        assert (m1[c] == m2[c]).all(), c


def test_mvt_enrich_attaches_host_docs(ray_session):
    """Enrichment: every feature gains a host_docs I64 entry equal to
    the broadcast host_stats n_docs for its url's host; geometry and
    other metadata byte-survive the re-encode."""
    import re

    import numpy as np
    import ray

    from raytiles.codec.decode import decode_tile
    from raytiles.ops.webcorpus import host_stats
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_enrich
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    hs = host_stats(wp).to_pandas()
    dim = dict(zip(hs["host"], hs["n_docs"].astype(int)))
    ref = ray.put(dim)
    host_re = re.compile(rb"^https?://([^/]+)/")

    def key_to_dim(url_bytes):
        m = host_re.match(url_bytes)
        return m.group(1).decode() if m else None

    out = mvt_enrich(tiles_pipeline(wp, 12), ref, b"url", key_to_dim,
                     b"host_docs").to_pandas()
    base = tiles_pipeline(wp, 12).to_pandas()
    assert len(out) == len(base)
    checked = 0
    for _, r in out.sample(n=min(10, len(out)), random_state=0).iterrows():
        t = decode_tile(r["mvt"])
        for lay in t.layers.values():
            for f in lay.points:
                url = f.metadata[b"url"][1]
                host = host_re.match(url).group(1).decode()
                assert f.metadata[b"host_docs"][1] == dim[host]
                assert b"mention_idx" in f.metadata
                checked += 1
    assert checked > 0


def test_csv_source_roundtrips_parquet(tmp_path):
    """write_webpages_csv -> read_webpages_csv reproduces the parquet
    rows (url, text, lang — CSV quoting must round-trip embedded
    commas/quotes) and geoparse gives identical mentions."""
    import ray.data

    from raytiles.pipeline.flagship import geoparse, read_webpages
    from raytiles.pipeline.sources import (read_webpages_csv,
                                           write_webpages_csv)
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    src = ray.data.read_parquet(wp, columns=["url", "text", "lang"])
    root = str(tmp_path / "csv")
    write_webpages_csv(src, root)
    back = read_webpages_csv(root, columns=("url", "text", "lang")) \
        .to_pandas().sort_values("url").reset_index(drop=True)
    want = src.to_pandas().sort_values("url").reset_index(drop=True)
    assert len(back) == len(want)
    for c in ("url", "text", "lang"):
        assert (back[c] == want[c]).all(), c
    m1 = geoparse(read_webpages(wp)).to_pandas() \
        .sort_values(["url", "mention_idx"]).reset_index(drop=True)
    m2 = geoparse(read_webpages_csv(root)).to_pandas() \
        .sort_values(["url", "mention_idx"]).reset_index(drop=True)
    assert len(m1) == len(m2)
    for c in ("url", "mention_idx", "lon", "lat"):
        assert (m1[c] == m2[c]).all(), c


def test_warc_source_roundtrips_parquet(tmp_path):
    """write_webpages_warc -> read_webpages_warc reproduces all five
    parquet columns — text re-derived from the html payload — and a
    truncated trailing record is contained, not fatal."""
    import ray.data

    from raytiles.pipeline.sources import (read_webpages_warc,
                                           write_webpages_warc)
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    src = ray.data.read_parquet(wp)
    root = str(tmp_path / "warc")
    write_webpages_warc(src, root)
    back = read_webpages_warc(root).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    want = src.to_pandas().sort_values("url").reset_index(drop=True)
    assert len(back) == len(want)
    for c in ("url", "text", "lang", "html"):
        assert (back[c] == want[c]).all(), c
    assert (back["warc_ts"].astype("datetime64[us]")
            == want["warc_ts"].astype("datetime64[us]")).all()
    # containment: a shard whose last record is truncated mid-header
    # yields its complete records and drops the tail
    import glob
    import os
    shard = sorted(glob.glob(os.path.join(root, "*.warc")))[0]
    data = open(shard, "rb").read()
    second = data.find(b"WARC/1.0", 1)
    assert second > 0
    trunc_root = str(tmp_path / "warc_trunc")
    os.makedirs(trunc_root)
    with open(os.path.join(trunc_root, "t.warc"), "wb") as fh:
        fh.write(data[:second + 40])  # full record + header fragment
    got = read_webpages_warc(trunc_root).to_pandas()
    assert len(got) == 1
    assert got["url"][0] == back["url"][0] or got["url"][0] in set(want["url"])


def test_ipc_source_roundtrips_parquet(tmp_path):
    """write_webpages_ipc -> read_webpages_ipc reproduces all five
    columns bit-exactly (full-fidelity format) and prunes columns."""
    import ray.data

    from raytiles.pipeline.sources import (read_webpages_ipc,
                                           write_webpages_ipc)
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    src = ray.data.read_parquet(wp)
    root = str(tmp_path / "ipc")
    write_webpages_ipc(src, root)
    back = read_webpages_ipc(root).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    want = src.to_pandas().sort_values("url").reset_index(drop=True)
    assert len(back) == len(want)
    for c in ("url", "text", "lang", "html"):
        assert (back[c] == want[c]).all(), c
    assert (back["warc_ts"].astype("datetime64[us]")
            == want["warc_ts"].astype("datetime64[us]")).all()
    pruned = read_webpages_ipc(root, columns=("url",)).to_pandas()
    assert list(pruned.columns) == ["url"] and len(pruned) == len(want)


def test_hive_partition_sink_prunes_and_roundtrips(tmp_path):
    """Hive sink writes one dir per lang; the pruned read lists ONLY
    the requested partition and re-attaches the partition column."""
    import os
    import ray.data as rd
    from raytiles.pipeline.sources import (read_webpages_hive,
                                           write_webpages_hive)
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    import pyarrow.parquet as pq
    wp = webpages_path(SF_SMOKE)
    root = str(tmp_path / "hive")
    write_webpages_hive(
        rd.read_parquet(wp, columns=["url", "text", "lang"]), root)
    dirs = sorted(d for d in os.listdir(root) if d.startswith("lang="))
    assert len(dirs) > 1  # really partitioned
    full = pq.read_table(wp, columns=["url", "lang"]).to_pandas()
    want = full[full.lang == "en"]
    got = read_webpages_hive(root, lang="en",
                             columns=("url", "text", "lang")).to_pandas()
    assert len(got) == len(want)
    assert (got["lang"] == "en").all()
    assert set(got["url"]) == set(want["url"])
    # partition column is NOT duplicated inside the data files
    part_file = next(
        os.path.join(root, dirs[0], f)
        for f in os.listdir(os.path.join(root, dirs[0])))
    assert "lang" not in pq.read_schema(part_file).names


@pytest.mark.usefixtures("ray_session")
def test_roundtrip_query_leaves_no_temp_dir():
    """The sink round-trip queries write into a temp dir and must
    remove it: the returned Dataset is materialized, so it no longer
    reads there. Before, every run left its shards behind (~118 MB per
    wds run at sf0.01)."""
    import glob
    import os
    import tempfile

    import __ray_entry__ as entry
    from tests.conftest import SF_SMOKE

    pattern = os.path.join(tempfile.gettempdir(), "raytiles_jsonl_*")
    before = set(glob.glob(pattern))
    df = entry.queries()["jsonl_roundtrip"](SF_SMOKE).to_pandas()
    assert len(df) > 0
    assert set(glob.glob(pattern)) - before == set()


def test_jsonl_gz_roundtrip_matches_plain(tmp_path):
    """Gzipped JSONL shards round-trip identically to plain JSONL and
    are genuinely compressed on disk."""
    import os
    import ray.data as rd
    from raytiles.pipeline.sources import (read_webpages_jsonl,
                                           write_webpages_jsonl)
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    src = rd.read_parquet(wp, columns=["url", "text"])
    plain, gz = str(tmp_path / "p"), str(tmp_path / "g")
    write_webpages_jsonl(src, plain)
    write_webpages_jsonl(rd.read_parquet(wp, columns=["url", "text"]),
                         gz, gz=True)
    size = lambda d: sum(os.path.getsize(os.path.join(d, f))
                         for f in os.listdir(d))
    assert size(gz) < size(plain) * 0.8  # really compressed
    a = read_webpages_jsonl(plain).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    b = read_webpages_jsonl(gz, gz=True).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_mvt_rescale_doubles_every_coordinate():
    """2x re-extent of a REAL reference fixture: every decoded
    coordinate exactly doubles, extents update, meta/fids survive."""
    import ray.data as rd
    from raytiles.codec.decode import decode_tile
    from raytiles.pipeline.overlay import mvt_rescale
    raw = fixture_bytes("roads.mvt")
    src = rd.from_arrow(pa.table({
        "z": pa.array([0], pa.int64()), "x": pa.array([0], pa.int64()),
        "y": pa.array([0], pa.int64()),
        "mvt": pa.array([raw], pa.binary())}))
    out = mvt_rescale(src, new_extent=8192).to_pandas()
    a = decode_tile(raw)
    b = decode_tile(out["mvt"].iloc[0])
    assert set(a.layers) == set(b.layers)
    for name, la in a.layers.items():
        lb = b.layers[name]
        assert la.extent == 4096 and lb.extent == 8192
        for attr in ("points", "linestrings", "polygons"):
            fa, fb = getattr(la, attr), getattr(lb, attr)
            assert len(fa) == len(fb)
            for f1, f2 in zip(fa, fb):
                assert f1.fid == f2.fid and f1.metadata == f2.metadata
                if attr == "points":
                    assert np.array_equal(f1.geometry * 2, f2.geometry)
                elif attr == "linestrings":
                    for s1, s2 in zip(f1.geometry, f2.geometry):
                        assert np.array_equal(s1 * 2, s2)
                else:
                    for r1, r2 in zip(f1.geometry, f2.geometry):
                        for q1, q2 in zip(r1, r2):
                            assert np.array_equal(q1 * 2, q2)


def test_mvt_simplify_subset_and_structure():
    """mvt_simplify structural invariants on real pipeline tiles:
    every output vertex is an input vertex, endpoints survive, rings
    stay closed with valid signs, output decodes."""
    from raytiles.codec.geometry import surveyor
    from raytiles.pipeline.overlay import mvt_simplify
    from raytiles.pipeline.trajectories import trajectories_pipeline
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    base = trajectories_pipeline(wp, 6).to_pandas()
    simp = mvt_simplify(trajectories_pipeline(wp, 6),
                        tolerance=8.0).to_pandas()
    assert len(simp) > 0
    bkey = {(z, x, y): m for z, x, y, m in
            zip(base["z"], base["x"], base["y"], base["mvt"])}
    for _, r in simp.iterrows():
        t_in = decode_tile(bkey[(r["z"], r["x"], r["y"])])
        t_out = decode_tile(r["mvt"])
        for name, lay in t_out.layers.items():
            lin = t_in.layers[name]
            in_lines = {f.fid: f for f in lin.linestrings}
            for f in lay.linestrings:
                src = in_lines[f.fid]
                src_pts = {tuple(p) for s in src.geometry
                           for p in np.asarray(s)}
                for gi, seg in enumerate(f.geometry):
                    seg = np.asarray(seg)
                    sseg = np.asarray(src.geometry[gi])
                    assert {tuple(p) for p in seg} <= src_pts
                    assert tuple(seg[0]) == tuple(sseg[0])
                    assert tuple(seg[-1]) == tuple(sseg[-1])
            for f in lay.polygons:
                for rings in f.geometry:
                    assert surveyor(np.asarray(rings[0])) > 0
                    for h in rings[1:]:
                        assert surveyor(np.asarray(h)) < 0
                    for ring in rings:
                        ring = np.asarray(ring)
                        assert tuple(ring[0]) == tuple(ring[-1])


def test_mvt_simplify_reduces_synthetic_dense_tile():
    """A noisy dense line collapses to endpoints + the one real spike;
    a many-vertex square ring collapses to its 4 corners; the hole
    survives with its sign; tolerance is monotone."""
    import ray
    from raytiles.codec.encode import encode_tile
    from raytiles.codec.geometry import surveyor
    from raytiles.codec.model import Feature, Layer, VectorTile
    from raytiles.pipeline.overlay import mvt_simplify
    # line: y jitters +-1 around 100, one spike to 200 at x=512
    xs = np.arange(0, 1025, 8, dtype=np.int64)
    ys = np.full(xs.size, 100, np.int64)
    ys[1:-1:2] += 1
    ys[xs == 512] = 200
    line = np.stack([xs, ys], axis=1)
    # square ring with 32 collinear vertices per side (closed, CW in
    # y-down screen space => positive surveyor)
    def side(p0, p1, n=32):
        t = np.linspace(0, 1, n, endpoint=False)
        return np.stack([p0[0] + (p1[0] - p0[0]) * t,
                         p0[1] + (p1[1] - p0[1]) * t], axis=1)
    ring = np.concatenate([side((0, 0), (1000, 0)),
                           side((1000, 0), (1000, 1000)),
                           side((1000, 1000), (0, 1000)),
                           side((0, 1000), (0, 0)),
                           [[0, 0]]]).astype(np.int64)
    assert surveyor(ring) > 0
    hole = np.array([[200, 200], [200, 800], [800, 800],
                     [800, 200], [200, 200]], np.int64)
    assert surveyor(hole) < 0
    tile = VectorTile({b"t": Layer(
        name=b"t", version=2, extent=4096,
        linestrings=[Feature(1, {}, [line])],
        polygons=[Feature(2, {}, [[ring, hole]])])})
    ds = ray.data.from_arrow(pa.table({
        "z": pa.array([6], pa.int64()), "x": pa.array([0], pa.int64()),
        "y": pa.array([0], pa.int64()),
        "mvt": pa.array([encode_tile(tile)], pa.binary())}))
    out = mvt_simplify(ds, tolerance=4.0).to_pandas()
    t = decode_tile(out["mvt"].iloc[0])
    lay = t.layers[b"t"]
    seg = np.asarray(lay.linestrings[0].geometry[0])
    assert len(seg) < len(line)  # jitter below tol dropped
    assert (seg[:, 1] == 200).any()  # the spike survives
    assert tuple(seg[0]) == (0, 100) and tuple(seg[-1]) == (1024, 100)
    rings = lay.polygons[0].geometry[0]
    ext = np.asarray(rings[0])
    assert len(ext) == 5  # 4 corners + closure
    assert {tuple(p) for p in ext} == {
        (0, 0), (1000, 0), (1000, 1000), (0, 1000)}
    assert surveyor(ext) > 0
    assert len(rings) == 2 and surveyor(np.asarray(rings[1])) < 0
    # monotone: huge tolerance drops the spike too
    out2 = mvt_simplify(ds, tolerance=500.0).to_pandas()
    t2 = decode_tile(out2["mvt"].iloc[0])
    seg2 = np.asarray(t2.layers[b"t"].linestrings[0].geometry[0])
    assert len(seg2) <= len(seg)


def test_mvt_feature_cap():
    """Capped tiles keep the first `cap` features in storage order
    (points, then lines, then polys), byte-identical passthrough for
    under-cap tiles, and the drop count is surfaced."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_feature_cap
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    base = tiles_pipeline(wp, 12).to_pandas()
    cap = 3
    got = mvt_feature_cap(tiles_pipeline(wp, 12), cap=cap).to_pandas()
    bkey = {(z, x, y): m for z, x, y, m in
            zip(base["z"], base["x"], base["y"], base["mvt"])}
    assert len(got) == len(base)
    n_capped = 0
    for _, r in got.iterrows():
        src = decode_tile(bkey[(r["z"], r["x"], r["y"])])
        out = decode_tile(r["mvt"])
        total_in = sum(len(l.points) + len(l.linestrings)
                       + len(l.polygons) for l in src.layers.values())
        if total_in <= cap:
            assert r["mvt"] == bkey[(r["z"], r["x"], r["y"])]
            assert r["n_dropped"] == 0
        else:
            n_capped += 1
            assert r["n_dropped"] == total_in - cap
            for name, lay in out.layers.items():
                sl = src.layers[name]
                kept = (list(sl.points) + list(sl.linestrings)
                        + list(sl.polygons))[:cap]
                gotf = (list(lay.points) + list(lay.linestrings)
                        + list(lay.polygons))
                assert [f.fid for f in gotf] == [f.fid for f in kept]
        assert r["n_features"] == sum(
            len(l.points) + len(l.linestrings) + len(l.polygons)
            for l in out.layers.values())
    assert n_capped > 0


def test_tilestats_exact_recompute():
    """tilestats totals are exact and HLL attribute cardinalities use
    the shared estimator: recompute registers single-process with the
    same hash chain and require identical estimates."""
    from raytiles.ops.sketch import _hll_estimate
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import _TS_P, _ts_value_hash, tilestats
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    df = tilestats(tiles_pipeline(wp, 12)).to_pandas() \
        .set_index(["layer", "key"]).sort_index()
    assert not df.index.duplicated().any()  # stable bucketing: one row/key
    tiles = tiles_pipeline(wp, 12).to_pandas()
    m = 1 << _TS_P
    low_bits = 64 - _TS_P
    want = {}
    for raw in tiles["mvt"]:
        t = decode_tile(raw)
        for name, lay in t.layers.items():
            ln = name.decode()
            for skey, n in (("__tiles__", 1), ("__points__",
                            len(lay.points)),
                            ("__linestrings__", len(lay.linestrings)),
                            ("__polygons__", len(lay.polygons))):
                e = want.setdefault((ln, skey), [0, np.zeros(m, np.int64)])
                e[0] += n
            for f in (list(lay.points) + list(lay.linestrings)
                      + list(lay.polygons)):
                for k, val in f.metadata.items():
                    e = want.setdefault((ln, k.decode()),
                                        [0, np.zeros(m, np.int64)])
                    e[0] += 1
                    h = _ts_value_hash(val)
                    reg = h >> low_bits
                    v = h & ((1 << low_bits) - 1)
                    rank = low_bits - v.bit_length() + 1 if v > 0 \
                        else low_bits + 1
                    e[1][reg] = max(e[1][reg], rank)
    assert len(df) == len(want)
    n_mentions = int(want[("mentions", "url")][0])
    for (ln, k), (n, dense) in want.items():
        row = df.loc[(ln, k)]
        assert row["n_features"] == n
        est = _hll_estimate(dense) if dense.any() else 0
        assert row["approx_distinct"] == est
    # sanity: url cardinality estimate within HLL p=8 error of truth
    truth = 0
    seen = set()
    for raw in tiles["mvt"]:
        t = decode_tile(raw)
        for lay in t.layers.values():
            for f in lay.points:
                if b"url" in f.metadata:
                    seen.add(f.metadata[b"url"][1])
    truth = len(seen)
    got = int(df.loc[("mentions", "url"), "approx_distinct"])
    assert abs(got - truth) <= max(3, 0.25 * truth)
    assert n_mentions > 0


def test_mvt_downzoom_equals_direct_build():
    """A parent level built purely from child TILES equals the parent
    level built directly from the source at z-1: floor(floor(a)/2) ==
    floor(a/2) makes the coordinate transform exact. Compared as
    per-tile multisets of (x, y, url, mention_idx)."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_downzoom
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    down = mvt_downzoom(tiles_pipeline(wp, 12)).to_pandas()
    direct = tiles_pipeline(wp, 11).to_pandas()
    assert len(down) == len(direct)

    def featset(raw):
        t = decode_tile(raw)
        out = []
        for lay in t.layers.values():
            for f in lay.points:
                g = np.asarray(f.geometry).reshape(-1, 2)
                for p in g:
                    out.append((int(p[0]), int(p[1]),
                                f.metadata[b"url"][1],
                                f.metadata[b"mention_idx"][1]))
        return sorted(out)

    dkey = {(r["z"], r["x"], r["y"]): r["mvt"]
            for _, r in direct.iterrows()}
    for _, r in down.iterrows():
        assert (r["z"], r["x"], r["y"]) in dkey
        assert featset(r["mvt"]) == featset(dkey[(r["z"], r["x"], r["y"])])


def test_mvt_merge_layers_union():
    """Merging the full tile set with a filtered subset UNIONS the
    features of same-named layers (counts add), passes one-sided tiles
    through, and re-interned dictionaries still decode every feature's
    metadata."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_filter_features, \
        mvt_merge_layers
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    full = tiles_pipeline(wp, 12).to_pandas()
    filt = mvt_filter_features(tiles_pipeline(wp, 12), b"mention_idx",
                               lambda v: v == 0).to_pandas()
    got = mvt_merge_layers(
        tiles_pipeline(wp, 12),
        mvt_filter_features(tiles_pipeline(wp, 12), b"mention_idx",
                            lambda v: v == 0)).to_pandas()
    assert len(got) == len(full)  # filt tiles are a subset of full

    def nfeats(raw):
        t = decode_tile(raw)
        return sum(len(l.points) + len(l.linestrings) + len(l.polygons)
                   for l in t.layers.values())

    fkey = {(z, x, y): m for z, x, y, m in
            zip(full["z"], full["x"], full["y"], full["mvt"])}
    skey = {(z, x, y): m for z, x, y, m in
            zip(filt["z"], filt["x"], filt["y"], filt["mvt"])}
    merged_any = False
    for _, r in got.iterrows():
        key = (r["z"], r["x"], r["y"])
        want = nfeats(fkey[key]) + (nfeats(skey[key]) if key in skey else 0)
        assert r["n_features"] == want == nfeats(r["mvt"])
        if key in skey:
            merged_any = True
            t = decode_tile(r["mvt"])
            for lay in t.layers.values():
                for f in lay.points:
                    assert b"url" in f.metadata  # re-interned dicts OK
        else:
            assert r["mvt"] == fkey[key]  # one-sided passthrough bytes
    assert merged_any


def test_mvt_label_place_greedy_oracle():
    """Accepted anchors are pairwise >= min_dist apart (Chebyshev),
    the accepted set equals a single-process greedy recompute, and
    placed + suppressed accounts for every labeled feature."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_label_place
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    md = 512
    base = tiles_pipeline(wp, 12).to_pandas()
    got = mvt_label_place(tiles_pipeline(wp, 12), b"mention_idx",
                          min_dist=md).to_pandas()
    bkey = {(z, x, y): m for z, x, y, m in
            zip(base["z"], base["x"], base["y"], base["mvt"])}
    any_suppressed = False
    for _, r in got.iterrows():
        src = decode_tile(bkey[(r["z"], r["x"], r["y"])])
        out = decode_tile(r["mvt"])
        n_src = n_acc = 0
        for name, lay in out.layers.items():
            sl = src.layers[name]
            feats = [f for f in sl.points if b"mention_idx" in f.metadata]
            n_src += len(feats)
            # single-process greedy recompute
            order = sorted(range(len(feats)),
                           key=lambda j: (feats[j].metadata
                                          [b"mention_idx"][1],
                                          feats[j].fid))
            acc = []
            for j in order:
                g = np.asarray(feats[j].geometry).reshape(-1, 2)
                p = (int(g[0, 0]), int(g[0, 1]))
                if all(max(abs(a[0] - p[0]), abs(a[1] - p[1])) >= md
                       for a in acc):
                    acc.append(p)
            anchors = [tuple(np.asarray(f.geometry).reshape(-1, 2)[0])
                       for f in lay.points]
            n_acc += len(anchors)
            assert sorted(anchors) == sorted(acc)
            for a in range(len(anchors)):
                for b in range(a + 1, len(anchors)):
                    assert max(abs(anchors[a][0] - anchors[b][0]),
                               abs(anchors[a][1] - anchors[b][1])) >= md
        assert r["n_placed"] == n_acc
        assert r["n_placed"] + r["n_suppressed"] == n_src
        if r["n_suppressed"] > 0:
            any_suppressed = True
    assert any_suppressed


@pytest.mark.usefixtures("ray_session")
def test_orc_roundtrip_lossless(tmp_path):
    """ORC sink/source roundtrip preserves url/text exactly, and the
    column projection drops unrequested columns."""
    import ray.data as rd

    from raytiles.pipeline.sources import (read_webpages_orc,
                                           write_webpages_orc)
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    src = rd.read_parquet(wp, columns=["url", "text"])
    root = str(tmp_path / "orc")
    write_webpages_orc(src, root)
    back = read_webpages_orc(root, columns=["url", "text"]).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    want = src.to_pandas().sort_values("url").reset_index(drop=True)
    assert back.equals(want)
    just_url = read_webpages_orc(root, columns=["url"]).schema().names
    assert just_url == ["url"]
