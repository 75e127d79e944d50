"""Ray Data stages for the tiling pipeline.

Stage graph (flagship, see pipeline.flagship):

  from_items(read groups)                      [planned once: the input's files
                                                or row groups in
                                                util.layout groups,
                                                balanced by bytes]
    -> map_batches(read_parse,                 [flagship.mentions: ONE
                   batch_size=None)             task per group reads url +
                                                text with pyarrow, then
                                                parse -> TileAssigner ->
                                                pack over the whole
                                                group; fat rows chunked
                                                at 512]
    -> sort(bucket, known boundaries)          [the ONE exchange, bounded
                                                1024-key domain, 1..64
                                                reducers from input size]
    -> map_batches(merge_tile_partials,        [whole-block merge]
                   batch_size=None)
    -> map_batches(FastPointEncoder, arrow)    [tasks; inline vectorized
                                                encode]
    -> write_parquet / collect

The pack->sort->merge split is the salted-two-phase aggregate of
SURVEY §4.2: per-block packing collapses mention rows to one compact
row per (tile, block) BEFORE the exchange, the tile-hash bucket spreads
dense cities across reducers tile-by-tile, and the 512-feature row cap
keeps any single reducer block's payload bounded.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..geo import tilemath as tm


class TileAssigner:
    """Assignment stage: each mention -> its XYZ tile, tile-local
    coords and (optionally) the cell-index hierarchy res 0-9.

    Pure floor arithmetic of tilemath, vectorized over the batch:
    boundary points land in exactly one tile, so no spatial index is
    consulted (tests/test_geo.py pins that the floor tile is always
    among the R-tree hits of the unshrunk tile boxes). Stateless
    beyond its config, so one instance ships by value to every task.
    """

    def __init__(self, zoom: int, extent: int = tm.DEFAULT_EXTENT,
                 with_cells: bool = True) -> None:
        self.zoom = zoom
        self.extent = extent
        self.with_cells = with_cells  # cell_r0..r9 cost 10 int64 cols; skip when unused

    def __call__(self, batch: pa.Table) -> pa.Table:
        """The url column passes through without ever materializing
        Python strings."""
        lon = batch["lon"].to_numpy()
        lat = batch["lat"].to_numpy()
        x, y = tm.lonlat_to_tile(lon, lat, self.zoom)
        lx, ly = tm.lonlat_to_local(lon, lat, self.zoom, x, y, self.extent)
        cols = {
            "url": batch["url"],
            "mention_idx": pa.array(
                batch["mention_idx"].to_numpy().astype(np.int32), pa.int32()),
            "lon": pa.array(lon, pa.float64()),
            "lat": pa.array(lat, pa.float64()),
        }
        if self.with_cells:
            for r in range(10):
                cols[f"cell_r{r}"] = pa.array(tm.cell_id(lon, lat, r), pa.int64())
        cols["z"] = pa.array(np.full(lon.size, self.zoom, np.int32), pa.int32())
        cols["x"] = pa.array(x, pa.int32())
        cols["y"] = pa.array(y, pa.int32())
        cols["local_x"] = pa.array(lx, pa.int32())
        cols["local_y"] = pa.array(ly, pa.int32())
        return pa.table(cols)


# ---------------------------------------------------------------------------
# two-phase tile aggregation
# ---------------------------------------------------------------------------

N_MERGE_BUCKETS = 1024  # phase-2 shuffle key domain (bounded group count).
                        # Finer domains were measured and DON'T help: the
                        # merge straggler is the single hottest city tile
                        # (one tile must encode in one task), and 4x more
                        # buckets just adds 3k extra map_groups calls


def tile_bucket(z: np.ndarray, x: np.ndarray, y: np.ndarray,
                n_buckets: int = N_MERGE_BUCKETS) -> np.ndarray:
    """Deterministic bucket of a TILE (splitmix-style integer mix —
    never Python hash()). Groupby on this key gives a BOUNDED number
    of shuffle groups regardless of tile count (constant per-group
    scheduling overhead), and hashing at tile granularity is the skew
    salt: a dense city spreads across buckets tile-by-tile instead of
    landing one mega-group on a single reducer (bucketing by 16x16
    coarse cell measured a 2.4s straggler task at sfbig; by tile the
    bucket loads are near-uniform)."""
    k = ((z.astype(np.int64) << np.int64(52))
         | (x.astype(np.int64) << np.int64(26)) | y.astype(np.int64)).astype(np.uint64)
    k = (k ^ (k >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    k ^= k >> np.uint64(33)
    return (k % np.uint64(n_buckets)).astype(np.int64)


_PARTIAL_SCHEMA = pa.schema([
    ("bucket", pa.int64()),
    ("z", pa.int32()),
    ("x", pa.list_(pa.int32())), ("y", pa.list_(pa.int32())),
    ("urls", pa.list_(pa.string())),
    ("mention_idx", pa.list_(pa.int32())),
    ("local_x", pa.list_(pa.int32())),
    ("local_y", pa.list_(pa.int32())),
])


_MERGED_SCHEMA = pa.schema([
    ("z", pa.int32()), ("x", pa.int32()), ("y", pa.int32()),
    ("urls", pa.list_(pa.string())),
    ("mention_idx", pa.list_(pa.int32())),
    ("local_x", pa.list_(pa.int32())),
    ("local_y", pa.list_(pa.int32())),
])


def _list_col(values, offsets, typ) -> pa.ListArray:
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                    pa.array(values, typ))


def pack_tile_partials(batch: pa.Table) -> pa.Table:
    """Phase 1 (no shuffle): collapse mention rows to one packed row
    per TILE per batch — list columns of the payload. The later
    shuffle then moves one compact row per (tile, input block) instead
    of individual mention rows; grouping key is the bounded tile-hash
    bucket (see tile_bucket)."""
    if batch.num_rows == 0:
        return _PARTIAL_SCHEMA.empty_table()
    z = batch["z"].to_numpy()
    x = batch["x"].to_numpy()
    y = batch["y"].to_numpy()
    order = np.lexsort((y, x, z))
    z, x, y = z[order], x[order], y[order]
    key_change = np.empty(len(z), dtype=bool)
    key_change[0] = True
    key_change[1:] = (z[1:] != z[:-1]) | (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    starts = np.flatnonzero(key_change)
    # chunk fat tiles: cap each packed row at MAX_PACK features so the
    # sort's range-partitioned blocks carry bounded payload per row
    # (a mega-tile otherwise lands one fat row on one reducer block —
    # the straggler the salted-two-phase design exists to kill; the
    # merge step accepts any number of partial rows per tile)
    MAX_PACK = 512
    run_ends = np.concatenate([starts[1:], [len(z)]])
    run_lens = run_ends - starts
    fat = np.flatnonzero(run_lens > MAX_PACK)
    if fat.size:
        extra = []
        for i in fat:
            extra.append(np.arange(starts[i] + MAX_PACK, run_ends[i], MAX_PACK))
        starts = np.sort(np.concatenate([starts] + extra))
    offsets = np.concatenate([starts, [len(z)]]).astype(np.int32)
    urls = batch["url"].combine_chunks().take(pa.array(order))
    return pa.table({
        "bucket": pa.array(tile_bucket(z[starts], x[starts], y[starts]), pa.int64()),
        "z": pa.array(z[starts], pa.int32()),
        "x": _list_col(x, offsets, pa.int32()),
        "y": _list_col(y, offsets, pa.int32()),
        "urls": pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), urls),
        "mention_idx": _list_col(
            batch["mention_idx"].to_numpy()[order], offsets, pa.int32()),
        "local_x": _list_col(batch["local_x"].to_numpy()[order], offsets, pa.int32()),
        "local_y": _list_col(batch["local_y"].to_numpy()[order], offsets, pa.int32()),
    })


def merge_tile_partials(group: pa.Table) -> pa.Table:
    """Phase 2 (after the shuffle): flatten partial rows and re-split
    into one packed row PER TILE, features sorted (url, mention_idx).
    The multi-key sort runs Arrow-native (pc.sort_indices on the
    flattened table) so url strings never materialize as Python
    objects — the string column moves zero-copy from flatten to take
    to the output list array.

    Runs per BLOCK, not per bucket group (map_batches(batch_size=None)
    after the exchange): correctness needs only that all partials of a
    tile share a block, which the sort guarantees — it never splits
    equal keys across partition boundaries (Ray's own map_groups
    applies per-block group boundaries on that same invariant).
    Tiles are disjoint across buckets, so merging a multi-bucket block
    in one vectorized pass is equivalent to per-group calls without
    the ~0.2-0.5ms-per-group map_groups overhead x 1024 groups."""
    if group.num_rows == 0:
        return _MERGED_SCHEMA.empty_table()
    n_per_row = pc.list_value_length(group["x"]).to_numpy()
    flat = pa.table({
        "z": pa.array(np.repeat(group["z"].to_numpy(), n_per_row), pa.int32()),
        "x": pc.list_flatten(group["x"]),
        "y": pc.list_flatten(group["y"]),
        "urls": pc.list_flatten(group["urls"]),
        "mention_idx": pc.list_flatten(group["mention_idx"]),
        "local_x": pc.list_flatten(group["local_x"]),
        "local_y": pc.list_flatten(group["local_y"]),
    })
    order = pc.sort_indices(flat, sort_keys=[
        ("z", "ascending"), ("x", "ascending"), ("y", "ascending"),
        ("urls", "ascending"), ("mention_idx", "ascending")])
    t = flat.take(order)
    z = t["z"].to_numpy()
    x = t["x"].to_numpy()
    y = t["y"].to_numpy()
    key_change = np.empty(len(x), dtype=bool)
    key_change[0] = True
    key_change[1:] = (z[1:] != z[:-1]) | (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    starts = np.flatnonzero(key_change)
    offsets = pa.array(np.concatenate([starts, [len(x)]]).astype(np.int32), pa.int32())
    return pa.table({
        "z": pa.array(z[starts], pa.int32()),
        "x": pa.array(x[starts], pa.int32()),
        "y": pa.array(y[starts], pa.int32()),
        "urls": pa.ListArray.from_arrays(offsets, t["urls"].combine_chunks()),
        "mention_idx": pa.ListArray.from_arrays(offsets, t["mention_idx"].combine_chunks()),
        "local_x": pa.ListArray.from_arrays(offsets, t["local_x"].combine_chunks()),
        "local_y": pa.ListArray.from_arrays(offsets, t["local_y"].combine_chunks()),
    })
