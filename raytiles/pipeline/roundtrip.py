"""Codec-roundtrip table (FIXTURES.md B2) and the roundtrip pipeline:
the 5 reference fixtures + seeded synthetic tiles, pushed through
decode -> encode -> decode as a Ray Data stage, asserting structural
equality and byte idempotency per tile (the reference's encodeIso
fixpoint, Test.hs:93-96, run distributed)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..codec.decode import decode_tile, decode_tile_safe
from ..codec.encode import encode_tile
from ..codec.model import (
    BV, DO, FL, I64V, S64V, ST, W64V, Feature, Layer, VectorTile, tiles_equal,
)

FIXTURE_DIR = "/root/reference/test"
# in-repo copies of reference fixtures (FIXTURES.md A), checked against
# the reference bytes by tests/test_fixture_provenance.py
LOCAL_FIXTURE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tests", "fixtures")
FIXTURES = ["onepoint.mvt", "linestring.mvt", "polygon.mvt", "roads.mvt", "clearlake.mvt"]


def fixture_path(name: str) -> str:
    """Absolute path of the reference MVT fixture `name`: the in-repo
    copy when there is one, else the reference corpus. The one fixture
    locator of the program, the benchmark and the tests."""
    for d in (LOCAL_FIXTURE_DIR, FIXTURE_DIR):
        path = os.path.join(d, name)
        if os.path.isfile(path):
            return path
    raise FileNotFoundError(
        f"reference MVT corpus not mounted at {FIXTURE_DIR}: {name}")


def _synthetic_tiles(n: int = 40, seed: int = 7) -> list[tuple[str, bytes]]:
    """Seeded tiles covering: all 7 Value variants (incl. I64/W64/S64
    with equal numerals), empty metadata, fid 0 and non-zero, extents
    4096 and 512, polygons with holes, multi-geometries."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        extent = 512 if i % 3 == 0 else 4096
        layers = {}
        for lname in ([b"a"] if i % 2 else [b"a", b"b"]):
            pts, lines, polys = [], [], []
            meta_full = {
                b"s": (ST, b"v%d" % i), b"f": (FL, float(np.float32(i * 0.5))),
                b"d": (DO, i * 0.25), b"i": (I64V, i - 5), b"u": (W64V, i),
                b"z": (S64V, 5 - i), b"b": (BV, bool(i % 2)),
                b"dup": (I64V, 5), b"dup2": (W64V, 5), b"dup3": (S64V, 5),
            }
            meta = {} if i % 4 == 0 else meta_full
            npts = int(rng.integers(1, 6))
            coords = rng.integers(0, extent, size=(npts, 2)).astype(np.int64)
            pts.append(Feature(fid=i % 3, metadata=meta, geometry=coords))
            if i % 2 == 0:
                segs = [rng.integers(0, extent, size=(int(rng.integers(2, 5)), 2)).astype(np.int64)
                        for _ in range(int(rng.integers(1, 3)))]
                lines.append(Feature(fid=0, metadata=meta, geometry=segs))
            if i % 3 == 0:
                # CW exterior square (y-down positive area) + CCW hole
                x0, y0 = int(rng.integers(0, extent - 20)), int(rng.integers(0, extent - 20))
                ext = np.array([[x0, y0], [x0 + 10, y0], [x0 + 10, y0 + 10],
                                [x0, y0 + 10], [x0, y0]], dtype=np.int64)
                hole = np.array([[x0 + 2, y0 + 2], [x0 + 2, y0 + 5], [x0 + 5, y0 + 5],
                                 [x0 + 5, y0 + 2], [x0 + 2, y0 + 2]], dtype=np.int64)
                polys.append(Feature(fid=1, metadata=meta, geometry=[[ext, hole]]))
            layers[lname] = Layer(name=lname, version=2, extent=extent,
                                  points=pts, linestrings=lines, polygons=polys)
        out.append((f"synthetic_{i}", encode_tile(VectorTile(layers))))
    return out


def tiles_in_table() -> pa.Table:
    rows_name, rows_mvt = [], []
    for f in FIXTURES:
        with open(fixture_path(f), "rb") as fh:
            rows_name.append(f)
            rows_mvt.append(fh.read())
    for name, mvt in _synthetic_tiles():
        rows_name.append(name)
        rows_mvt.append(mvt)
    return pa.table({
        "tile_id": pa.array(np.arange(len(rows_name)), pa.int64()),
        "name": pa.array(rows_name, pa.string()),
        "mvt": pa.array(rows_mvt, pa.binary()),
    })


def roundtrip_check(batch: pa.Table) -> pa.Table:
    """decode -> encode -> decode per tile; ok = structural equality
    AND byte idempotency; errors become rows, never exceptions."""
    ok = np.zeros(batch.num_rows, dtype=bool)
    n_layers = np.zeros(batch.num_rows, dtype=np.int64)
    errs = []
    for i in range(batch.num_rows):
        raw = batch["mvt"][i].as_py()
        t1, err = decode_tile_safe(raw)
        if t1 is None:
            errs.append(err)
            continue
        b1 = encode_tile(t1)
        t2, err2 = decode_tile_safe(b1)
        if t2 is None:
            errs.append(err2)
            continue
        ok[i] = tiles_equal(t1, t2) and encode_tile(t2) == b1
        n_layers[i] = len(t1.layers)
        errs.append(None)
    return pa.table({
        "tile_id": batch["tile_id"], "name": batch["name"],
        "n_layers": pa.array(n_layers, pa.int64()),
        "ok": pa.array(ok, pa.bool_()),
        "error": pa.array(errs, pa.string()),
    })


def roundtrip_pipeline() -> ray.data.Dataset:
    ds = ray.data.from_arrow(tiles_in_table())
    return ds.map_batches(roundtrip_check, batch_format="pyarrow", batch_size=8)
