"""Cross-tile line tiling: each document's mention polyline lives in
GLOBAL pixel space and is replicated into every XYZ tile it crosses,
clipped to each tile's extent+buffer rect — the real-world hard part
of vector-tile line layers (trajectories.py only draws runs that fall
INSIDE one tile; this pipeline tiles world-spanning lines).

Shape per the repo's shuffle discipline:
- segments stage (map_batches, no shuffle): per-url runs are detected
  in-batch (geoparse emits a doc's mentions together and in order),
  each segment's tile cover is enumerated vectorized from its bbox,
  and every (segment, tile) pair is clipped with the vectorized
  Liang-Barsky kernel (geo/clip.py) — empty clips vanish there, so the
  bbox over-approximation costs transient compute, never output rows.
  Cover note: bbox cover is exact-after-clip and fine at low zoom
  (default z5: <= 32x32 pairs per segment); at high zoom the scale
  path is a supercover walk + 1-ring (buffer < extent), same clip.
- ONE bounded splitmix(tile) bucket groupby co-locates each tile's
  clipped segments; the finalizer chains consecutive segments that
  share endpoints into multi-part linestrings and encodes the tile
  with the generic MVT encoder (codec parity with trajectories).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..codec.encode import encode_tile
from ..codec.model import I64V, ST, Feature, Layer, VectorTile
from ..geo.clip import clip_segments
from ..util import bucket_of
from .flagship import mentions

LAYER = b"lines"
EXTENT = 4096
_N_BUCKETS = 256  # segment exchange buckets

_SEG_SCHEMA = pa.schema([
    ("z", pa.int32()), ("x", pa.int32()), ("y", pa.int32()),
    ("url", pa.string()), ("seg_pos", pa.int64()),
    ("lx0", pa.int32()), ("ly0", pa.int32()),
    ("lx1", pa.int32()), ("ly1", pa.int32()),
    ("bucket", pa.int64())])


def _global_px(lon: np.ndarray, lat: np.ndarray, z: int) -> tuple:
    """Global WebMercator pixel coords (float64) at zoom z, extent
    units: tile (tx, ty) spans [tx*EXTENT, (tx+1)*EXTENT)."""
    n = float(1 << z)
    gx = (lon + 180.0) / 360.0 * n * EXTENT
    rad = np.radians(lat)
    gy = (1.0 - np.log(np.tan(rad) + 1.0 / np.cos(rad)) / np.pi) \
        / 2.0 * n * EXTENT
    return gx, gy


def segments_stage(zoom: int, buffer: int):
    """Returns the per-batch mentions -> clipped (segment, tile) rows
    transform (a closure over the zoom/buffer constants)."""
    n_tiles = 1 << zoom

    def fn(b: pa.Table) -> pa.Table:
        url = np.asarray(b["url"])
        mi = b["mention_idx"].to_numpy()
        order = np.lexsort((mi, url))
        url, mi = url[order], mi[order]
        lon = b["lon"].to_numpy()[order]
        lat = b["lat"].to_numpy()[order]
        gx, gy = _global_px(lon, lat, zoom)
        same = url[1:] == url[:-1]
        ns = int(same.sum())
        if ns == 0:
            return _SEG_SCHEMA.empty_table()
        x0, y0 = gx[:-1][same], gy[:-1][same]
        x1, y1 = gx[1:][same], gy[1:][same]
        surl = url[:-1][same]
        spos = np.arange(len(url) - 1, dtype=np.int64)[same]
        # bbox tile cover (clamped to the grid)
        tx_lo = np.clip(np.floor((np.minimum(x0, x1) - buffer) / EXTENT),
                        0, n_tiles - 1).astype(np.int64)
        tx_hi = np.clip(np.floor((np.maximum(x0, x1) + buffer) / EXTENT),
                        0, n_tiles - 1).astype(np.int64)
        ty_lo = np.clip(np.floor((np.minimum(y0, y1) - buffer) / EXTENT),
                        0, n_tiles - 1).astype(np.int64)
        ty_hi = np.clip(np.floor((np.maximum(y0, y1) + buffer) / EXTENT),
                        0, n_tiles - 1).astype(np.int64)
        wx = tx_hi - tx_lo + 1
        wy = ty_hi - ty_lo + 1
        counts = wx * wy
        total = int(counts.sum())
        rep = np.repeat(np.arange(ns), counts)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        li = np.arange(total, dtype=np.int64) - starts[rep]
        tx = tx_lo[rep] + li % wx[rep]
        ty = ty_lo[rep] + li // wx[rep]
        keep, cx0, cy0, cx1, cy1 = clip_segments(
            x0[rep], y0[rep], x1[rep], y1[rep],
            tx * EXTENT - buffer, ty * EXTENT - buffer,
            (tx + 1) * EXTENT + buffer, (ty + 1) * EXTENT + buffer)
        rep, tx, ty = rep[keep], tx[keep], ty[keep]
        lx0 = np.rint(cx0[keep] - tx * EXTENT).astype(np.int32)
        ly0 = np.rint(cy0[keep] - ty * EXTENT).astype(np.int32)
        lx1 = np.rint(cx1[keep] - tx * EXTENT).astype(np.int32)
        ly1 = np.rint(cy1[keep] - ty * EXTENT).astype(np.int32)
        live = (lx0 != lx1) | (ly0 != ly1)  # degenerate after rounding
        rep, tx, ty = rep[live], tx[live], ty[live]
        tkey = tx * np.int64(n_tiles) + ty
        return pa.table({
            "z": pa.array(np.full(len(tx), zoom, np.int32)),
            "x": tx.astype(np.int32), "y": ty.astype(np.int32),
            "url": pa.array(surl[rep].tolist(), pa.string()),
            "seg_pos": spos[rep],
            "lx0": lx0[live], "ly0": ly0[live],
            "lx1": lx1[live], "ly1": ly1[live],
            "bucket": pa.array(bucket_of(tkey, _N_BUCKETS))},
            schema=_SEG_SCHEMA)

    return fn


def _assemble_bucket(g: pa.Table) -> pa.Table:
    """Chain a bucket's clipped segments into multi-part linestring
    features per (tile, url) and encode each tile. Consecutive
    segments (by seg_pos) sharing an endpoint merge into one part."""
    tz = g["z"].to_numpy()
    tx = g["x"].to_numpy()
    ty = g["y"].to_numpy()
    url = np.asarray(g["url"])
    sp = g["seg_pos"].to_numpy()
    x0 = g["lx0"].to_numpy()
    y0 = g["ly0"].to_numpy()
    x1 = g["lx1"].to_numpy()
    y1 = g["ly1"].to_numpy()
    order = np.lexsort((sp, url, ty, tx))
    tz, tx, ty, url, sp = tz[order], tx[order], ty[order], url[order], sp[order]
    x0, y0, x1, y1 = x0[order], y0[order], x1[order], y1[order]
    n = len(tx)
    out = {"z": [], "x": [], "y": [], "mvt": [], "n_lines": []}
    i = 0
    while i < n:
        j = i
        while j < n and tx[j] == tx[i] and ty[j] == ty[i]:
            j += 1
        feats = []
        fid = 0
        k = i
        while k < j:
            m = k
            while m < j and url[m] == url[k]:
                m += 1
            parts = []
            cur = [(int(x0[k]), int(y0[k])), (int(x1[k]), int(y1[k]))]
            for t in range(k + 1, m):
                if (sp[t] == sp[t - 1] + 1 and x0[t] == x1[t - 1]
                        and y0[t] == y1[t - 1]):
                    cur.append((int(x1[t]), int(y1[t])))
                else:
                    parts.append(np.array(cur, dtype=np.int64))
                    cur = [(int(x0[t]), int(y0[t])),
                           (int(x1[t]), int(y1[t]))]
            parts.append(np.array(cur, dtype=np.int64))
            feats.append(Feature(
                fid=fid,
                metadata={b"url": (ST, url[k].encode("utf-8")),
                          b"n_parts": (I64V, len(parts))},
                geometry=parts))
            fid += 1
            k = m
        layer = Layer(name=LAYER, version=2, extent=EXTENT,
                      linestrings=feats)
        out["z"].append(int(tz[i]))
        out["x"].append(int(tx[i]))
        out["y"].append(int(ty[i]))
        out["mvt"].append(encode_tile(VectorTile({LAYER: layer})))
        out["n_lines"].append(len(feats))
        i = j
    return pa.table({
        "z": pa.array(out["z"], pa.int32()),
        "x": pa.array(out["x"], pa.int32()),
        "y": pa.array(out["y"], pa.int32()),
        "mvt": pa.array(out["mvt"], pa.binary()),
        "n_lines": pa.array(out["n_lines"], pa.int64())})


def line_tiles_pipeline(webpages_path: str, zoom: int = 5,
                        buffer: int = 128) -> ray.data.Dataset:
    """World-spanning mention polylines -> clipped per-tile MVT line
    layers. See module docstring for the distribution shape."""
    segs, _ = mentions(webpages_path, then=segments_stage(zoom, buffer))
    return segs.groupby("bucket").map_groups(
        _assemble_bucket, batch_format="pyarrow")
