"""Composed multi-layer, multi-geometry city tileset.

Reference parity target: the reference's real-world conformance tile
roads.mvt is ONE tile holding 15 layers of mixed points / linestrings /
polygons (/root/reference/README.md:85, test/Test.hs:24-29,44-48).
This pipeline is the engine's from-raw-data counterpart: per XYZ tile
at one zoom, a point layer (``mentions``), a linestring layer
(``trajectories``) and a polygon layer (``hulls``), all built from the
SAME webpages corpus — the shape a real tile service ships.

Distribution shape (the 100x lens):

- ONE flagship chain (pruned 2-column read -> Arrow-native geoparse ->
  broadcast-R-tree assign -> packed two-phase aggregate, ONE bounded
  1024-bucket shuffle) feeds BOTH the point and the trajectory layer:
  the fused per-batch encoder emits a TWO-layer tile per packed row by
  protobuf-concatenating the two single-layer encoders' output bytes.
  A Tile message is nothing but repeated ``layers`` fields (reference
  Tile.hs:56: layers = field 3, and protobuf concatenation of two
  serialized messages concatenates their repeated fields), so the
  byte concatenation of two disjoint-named single-layer tiles IS the
  valid two-layer tile — no decode, no re-intern, no extra shuffle.
  Decode parity is pinned in tests/test_citytiles.py.
- the polygon face aggregates per HOST (convex hull of all the host's
  mentions — a different shuffle key than the tile), so it runs its
  own chain (polytiles.polygon_tiles_pipeline); the two tile streams
  meet in mvt_merge_layers' single bounded splitmix(tile) bucket
  shuffle, whose payload is encoded tile bytes, not raw features.

Net shuffle budget for the three-geometry tileset: the flagship's one
tile shuffle + the hull stage's one host shuffle + one tile-keyed
merge shuffle — each bounded-domain, none carrying raw text.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .encode_stage import FastPointEncoder
from .flagship import merged_tiles
from .overlay import mvt_concat_merge
from .polytiles import polygon_tiles_pipeline
from .trajectories import encode_trajectories


def encode_point_line_batch(batch: pa.Table,
                            simplify_tolerance: float = 0.0,
                            encoder: "FastPointEncoder | None" = None
                            ) -> pa.Table:
    """Packed tile rows -> TWO-layer tiles (points + trajectories) by
    byte concatenation of the two vectorized encoders' outputs. Every
    packed row yields a tile (the point layer always exists); the
    trajectory layer joins in for tiles with a >=2-point url run.
    Tiles are globally unique rows after the flagship merge, so the
    in-batch (z, x, y) join is exact."""
    if encoder is None:
        encoder = FastPointEncoder()
    pts = encoder(batch)
    lines = encode_trajectories(batch, simplify_tolerance)
    n = pts.num_rows
    if n == 0:
        return pts  # already typed {z, x, y, mvt, n_features, n_layers}
    kz = pts["z"].to_numpy().astype(np.int64)
    kx = pts["x"].to_numpy().astype(np.int64)
    ky = pts["y"].to_numpy().astype(np.int64)
    pk = (kz << 52) | (kx << 26) | ky  # zoom <= 25: disjoint bit fields
    lz = lines["z"].to_numpy().astype(np.int64)
    lx_ = lines["x"].to_numpy().astype(np.int64)
    ly_ = lines["y"].to_numpy().astype(np.int64)
    lk = (lz << 52) | (lx_ << 26) | ly_
    line_mvt = dict(zip(lk.tolist(), lines["mvt"].to_pylist()))
    line_n = dict(zip(lk.tolist(), lines["n_lines"].to_numpy().tolist()))
    base = pts["mvt"].to_pylist()
    n_feats = pts["n_features"].to_numpy().copy()
    n_layers = np.ones(n, np.int32)
    out_mvt = []
    for i, k in enumerate(pk.tolist()):
        extra = line_mvt.get(k)
        if extra is None:
            out_mvt.append(base[i])
        else:
            out_mvt.append(base[i] + extra)  # protobuf field concat
            n_layers[i] = 2
            n_feats[i] += line_n[k]
    return pa.table({
        "z": pts["z"], "x": pts["x"], "y": pts["y"],
        "mvt": pa.array(out_mvt, pa.binary()),
        "n_features": pa.array(n_feats, pa.int64()),
        "n_layers": pa.array(n_layers, pa.int32())})


def city_tiles_pipeline(webpages_path: str, zoom: int = 6,
                        buffer: int = 128,
                        simplify_tolerance: float = 0.0
                        ) -> ray.data.Dataset:
    """The composed tileset: {z, x, y, mvt, n_features} with up to
    three layers per tile (mentions points, trajectories linestrings,
    hulls polygons), every layer at the SAME zoom so the per-tile
    merge is meaningful. zoom defaults to the trajectory face's 6
    (multi-mention docs usually land in one ~600 km tile; the hull
    cover fan-out stays <= 4^6)."""
    merged = merged_tiles(webpages_path, zoom)
    encoder = FastPointEncoder()

    def enc(b: pa.Table) -> pa.Table:
        return encode_point_line_batch(b, simplify_tolerance, encoder)

    two_layer = merged.map_batches(enc, batch_format="pyarrow",
                                   batch_size=4096)
    hulls = polygon_tiles_pipeline(webpages_path, zoom, buffer)
    # layer names are disjoint by construction (mentions/trajectories
    # vs hulls), so the per-tile merge is a bytes concat — no decode,
    # no re-encode; byte-identical to mvt_merge_layers here (pytest)
    return mvt_concat_merge(two_layer, hulls)
