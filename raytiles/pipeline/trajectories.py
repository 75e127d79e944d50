"""Trajectory tiles: per (tile, url) linestrings through the GENERIC
MVT encoder — the distributed exercise of the LineString command path
(MoveTo/LineTo with cursor carry, codec.geometry.encode_linestrings).

A document mentioning several places draws a polyline through them
(mention_idx order). Features: one LINESTRING per url with >= 2
mentions in the tile, metadata {url: St, n_points: I64}; urls with a
single mention in the tile are skipped (MVT linestrings need >= 2
points). Reuses the flagship's packed aggregation (same shuffle), so
the only new stage is the per-tile feature build + generic encode.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..codec.encode import encode_tile
from ..codec.fastshape import encode_trajectory_tiles
from ..codec.model import I64V, ST, Feature, Layer, VectorTile
from ..geo.simplify import simplify_ragged
from .flagship import merged_tiles

LAYER = b"trajectories"


def encode_trajectories(batch: pa.Table,
                        simplify_tolerance: float = 0.0) -> pa.Table:
    """Packed tile rows -> trajectory MVTs via the WHOLE-BATCH columnar
    linestring encoder (codec.fastshape; byte-identical to the generic
    encoder, asserted in tests). Url runs are detected vectorized over
    the flattened batch — no per-row Python scan.

    ``simplify_tolerance`` > 0 applies Douglas-Peucker per run
    (geo.simplify) before encoding — tolerance in tile-local units
    (extent 4096); endpoints survive, so every run stays a valid
    >=2-point linestring."""
    T = batch.num_rows
    if T == 0:
        return pa.table({"z": pa.array([], pa.int32()), "x": pa.array([], pa.int32()),
                         "y": pa.array([], pa.int32()), "mvt": pa.array([], pa.binary()),
                         "n_lines": pa.array([], pa.int64())})
    sizes = pc.list_value_length(batch["urls"]).to_numpy()
    urls_flat = pc.list_flatten(batch["urls"]).to_numpy(zero_copy_only=False)
    lx = pc.list_flatten(batch["local_x"]).to_numpy()
    ly = pc.list_flatten(batch["local_y"]).to_numpy()
    N = urls_flat.size
    tile_of_pt = np.repeat(np.arange(T), sizes)
    # run boundaries: url change OR tile change (rows sorted
    # (url, mention_idx) within tile by the merge step)
    change = np.ones(N, dtype=bool)
    change[1:] = (urls_flat[1:] != urls_flat[:-1]) \
        | (tile_of_pt[1:] != tile_of_pt[:-1])
    run_starts = np.flatnonzero(change)
    run_lens = np.diff(np.concatenate([run_starts, [N]]))
    keep = run_lens >= 2  # MVT linestrings need >= 2 points
    kept_pt = np.repeat(keep, run_lens)
    feat_tile = tile_of_pt[run_starts[keep]]
    tile_feat_offsets = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(np.bincount(feat_tile, minlength=T), out=tile_feat_offsets[1:])
    run_offsets = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
    np.cumsum(run_lens[keep], out=run_offsets[1:])
    urls_b = np.array([u.encode("utf-8") for u in urls_flat[run_starts[keep]]],
                      dtype=object)
    px, py = lx[kept_pt], ly[kept_pt]
    if simplify_tolerance > 0 and len(px):
        keep2 = simplify_ragged(run_offsets, px, py, simplify_tolerance)
        counts = np.add.reduceat(keep2.astype(np.int64), run_offsets[:-1])
        run_offsets = np.concatenate(
            [[0], np.cumsum(counts)]).astype(np.int64)
        px, py = px[keep2], py[keep2]
    mvts = encode_trajectory_tiles(tile_feat_offsets, urls_b, run_offsets,
                                   px, py)
    n_lines = np.diff(tile_feat_offsets)
    nz = np.flatnonzero(n_lines > 0)  # tiles with no >=2-point run are skipped
    return pa.table({
        "z": batch["z"].take(pa.array(nz)),
        "x": batch["x"].take(pa.array(nz)),
        "y": batch["y"].take(pa.array(nz)),
        "mvt": pa.array([mvts[i] for i in nz], pa.binary()),
        "n_lines": pa.array(n_lines[nz], pa.int64()),
    })


def encode_trajectories_generic(batch: pa.Table) -> pa.Table:
    """Per-row generic-encoder path — kept as the byte-equality oracle
    for the columnar trajectory encoder
    (test_fastshape_trajectories_byte_equality)."""
    out = {"z": [], "x": [], "y": [], "mvt": [], "n_lines": []}
    for i in range(batch.num_rows):
        urls = batch["urls"][i].as_py()
        lx = batch["local_x"][i].values.to_numpy()
        ly = batch["local_y"][i].values.to_numpy()
        feats = []
        j = 0
        n = len(urls)
        fid = 0
        while j < n:
            k = j
            while k < n and urls[k] == urls[j]:
                k += 1
            if k - j >= 2:
                pts = np.stack([lx[j:k], ly[j:k]], axis=1).astype(np.int64)
                feats.append(Feature(
                    fid=fid,
                    metadata={b"url": (ST, urls[j].encode("utf-8")),
                              b"n_points": (I64V, int(k - j))},
                    geometry=[pts]))
                fid += 1
            j = k
        if not feats:
            continue
        layer = Layer(name=LAYER, version=2, extent=4096, linestrings=feats)
        out["z"].append(batch["z"][i].as_py())
        out["x"].append(batch["x"][i].as_py())
        out["y"].append(batch["y"][i].as_py())
        out["mvt"].append(encode_tile(VectorTile({LAYER: layer})))
        out["n_lines"].append(len(feats))
    return pa.table({
        "z": pa.array(out["z"], pa.int32()), "x": pa.array(out["x"], pa.int32()),
        "y": pa.array(out["y"], pa.int32()),
        "mvt": pa.array(out["mvt"], pa.binary()),
        "n_lines": pa.array(out["n_lines"], pa.int64()),
    })


def trajectories_pipeline(webpages_path: str, zoom: int = 6,
                          simplify_tolerance: float = 0.0) -> ray.data.Dataset:
    """Low zoom (z=6 tile ~ 600 km) so multi-mention documents usually
    land their mentions in one tile. ``simplify_tolerance`` > 0 runs
    Douglas-Peucker per linestring before encoding."""
    merged = merged_tiles(webpages_path, zoom)
    if simplify_tolerance > 0:
        def enc(b: pa.Table) -> pa.Table:
            return encode_trajectories(b, simplify_tolerance)
        return merged.map_batches(enc, batch_format="pyarrow",
                                  batch_size=1024)
    return merged.map_batches(encode_trajectories, batch_format="pyarrow",
                              batch_size=1024)
