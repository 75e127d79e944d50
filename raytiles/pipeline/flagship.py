"""Flagship end-to-end pipeline: webpages parquet -> encoded MVT tiles.

Ray-Data-native composition (see stages.py for the stage graph). The
caller owns the Ray session (never ray.init here — driver contract).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..geo import tilemath as tm
from ..geo.parse import GeoParser
from ..util import bucket_of, input_bytes, layout
from .encode_stage import FastPointEncoder
from .stages import (N_MERGE_BUCKETS, TileAssigner, merge_tile_partials,
                     pack_tile_partials)

DEFAULT_ZOOM = 12
_CELL_BUCKETS = 1024  # cell_counts_pipeline's exchange buckets


def read_webpages(path: str, columns=("url", "text")) -> ray.data.Dataset:
    """Prune at the read: the flagship needs only url + text (html and
    lang stay in storage).

    The read task count is ``util.layout``'s read-block count for the
    input's on-disk size, and with it the output block count of the
    fused read->parse->assign->pack chain, which is the map width of
    the downstream sort exchange: the same input gets the same layout
    at every cluster size."""
    return read_sized(path, columns)[0]


def read_sized(path: str, columns=("url", "text")
               ) -> tuple[ray.data.Dataset, int]:
    """``read_webpages`` plus ``util.layout``'s reducer count for the
    same input, from one size scan: every pipeline that runs
    ``aggregate_tiles`` reads through this, so its exchange width
    always belongs to the input it read."""
    read_blocks, reducers = layout(input_bytes(path))
    ds = ray.data.read_parquet(path, columns=list(columns),
                               override_num_blocks=read_blocks)
    return ds, reducers


def geoparse(ds: ray.data.Dataset, *, batch_size: int = 4096) -> ray.data.Dataset:
    """documents -> exploded mention rows (url, mention_idx, lon, lat).
    Task-based (regex compiled once per worker process), Arrow
    end-to-end: the candidate prefilter runs pc.match_substring_regex
    on the zero-copy batch, and the master regex runs over the
    filtered column's raw UTF-8 buffer (GeoParser.parse_arrow) — no
    Python string ever materializes for text, cutting allocator and
    cache pressure that compounds at high worker counts."""
    import pyarrow as pa
    import pyarrow.compute as pc
    parser = GeoParser()
    EMPTY = pa.schema([("url", pa.string()), ("mention_idx", pa.int32()),
                       ("lon", pa.float64()), ("lat", pa.float64())])

    def parse_batch(batch: pa.Table) -> pa.Table:
        mask = pc.match_substring_regex(batch["text"], parser.prefilter)
        sub = batch.filter(mask)
        if sub.num_rows == 0:
            return EMPTY.empty_table()
        row_pos, mention_idx, lat, lon = parser.parse_arrow(sub["text"])
        return pa.table({
            "url": sub["url"].take(pa.array(row_pos)),
            "mention_idx": pa.array(mention_idx, pa.int32()),
            "lon": pa.array(lon, pa.float64()),
            "lat": pa.array(lat, pa.float64()),
        })

    return ds.map_batches(parse_batch, batch_format="pyarrow", batch_size=batch_size)


def assign(ds: ray.data.Dataset, zoom: int = DEFAULT_ZOOM, *,
           batch_size: int = 8192, with_cells: bool = True) -> ray.data.Dataset:
    """mention rows -> tile/cell assignments by exact floor math
    (stages.TileAssigner). Task-based: the assigner carries only its
    zoom, extent and cell flag, so it ships by value with each task."""
    return ds.map_batches(TileAssigner(zoom, with_cells=with_cells),
                          batch_format="pyarrow", batch_size=batch_size)


def aggregate_tiles(ds: ray.data.Dataset, reducers: int) -> ray.data.Dataset:
    """Two-phase tile aggregation: per-batch partial pack into per-tile
    rows capped at 512 features (no shuffle), then ONE shuffle keyed by
    bucket = splitmix(z,x,y) % 1024 (bounded key domain; city skew
    spreads across buckets tile-by-tile), then a whole-block merge that
    re-splits into per-tile packed rows with pure offset arithmetic.

    ``reducers`` is the exchange's output block count: callers pass
    the count ``read_sized`` returned for their input, so it follows
    the input's size and never the cluster's. The encoded tiles do not
    depend on it (a tile's partials always meet in one block).

    The merge is map_batches(batch_size=None) over the shuffle's output
    blocks, NOT groupby().map_groups(): the merge only needs all
    partials of a tile co-located in one block (which the shuffle
    guarantees — see merge_tile_partials), so per-group slicing +
    format conversion x 1024 groups is pure overhead.

    The exchange is a sort with explicit range boundaries over the
    KNOWN bucket domain [0, N_MERGE_BUCKETS): that skips the sort's
    sample stage (a barrier + one extra pass over every block's key
    column), and since bucket ids are already a uniform hash, uniform
    boundaries equal what sampling would estimate."""
    packed = ds.map_batches(pack_tile_partials, batch_format="pyarrow")
    step = N_MERGE_BUCKETS / reducers
    bounds = [int(step * i) for i in range(1, reducers)]
    shuffled = packed.sort("bucket", boundaries=bounds)
    return shuffled.map_batches(merge_tile_partials, batch_size=None,
                                zero_copy_batch=True, batch_format="pyarrow")


def encode_tiles(ds: ray.data.Dataset, *, batch_size: int = 4096,
                 extent: int = 4096) -> ray.data.Dataset:
    """Packed tile rows -> {z,x,y,mvt,...} via the vectorized encoder,
    inline in each task (FastPointEncoder carries no state beyond its
    config, so it ships by value with each task).

    ``batch_size=4096`` (~55k features/call at sfbig12) beats
    whole-block batches, MEASURED (sfbig12/16cpu, interleaved A/B):
    4096-inline 20.2s e2e vs whole-block + nested-task fanout 24.7s.
    Chunked calls keep the kernel's working set L3-sized, and the fat
    reducer block's inline encode is only ~1.2s (the hottest single
    tile ~0.5s). Merge, encode and write run fused in one task, which
    already holds the whole merged block, so splitting a fat tile's
    encode would not lower that task's peak memory either."""
    return ds.map_batches(FastPointEncoder(extent=extent),
                          batch_format="pyarrow", batch_size=batch_size)


def tiles_pipeline(webpages_path: str, zoom: int = DEFAULT_ZOOM) -> ray.data.Dataset:
    """Full pipeline, lazy — consume with write_parquet / iter_batches."""
    ds, reducers = read_sized(webpages_path)
    ds = geoparse(ds)
    ds = assign(ds, zoom, with_cells=False)  # cells unused downstream
    ds = aggregate_tiles(ds, reducers)
    return encode_tiles(ds)


def cell_counts_pipeline(webpages_path: str, res: int = 5) -> ray.data.Dataset:
    """Per-cell mention + distinct-doc counts, DISTRIBUTED (round 1
    aggregated on the driver — the one gate operator that wasn't):
    the per-batch partial collapses to one row per (cell, url, batch),
    then ONE bounded-bucket groupby counts vectorized within buckets.
    Distinct-url counting is exact because a cell's rows all land in
    the same bucket (bucket is a pure function of the cell id)."""
    def partial(b: pa.Table) -> pa.Table:
        cell = tm.cell_id(b["lon"].to_numpy(), b["lat"].to_numpy(), res)
        t = pa.table({"cell_r5": cell, "url": b["url"]})
        part = pa.TableGroupBy(t, ["cell_r5", "url"]).aggregate(
            [([], "count_all")])
        part = part.rename_columns(["cell_r5", "url", "n"])
        bucket = bucket_of(part["cell_r5"].to_numpy(), _CELL_BUCKETS)
        return part.set_column(2, "n", pc.cast(part["n"], pa.int64())) \
            .append_column("bucket", pa.array(bucket))

    def merge(g: pa.Table) -> pa.Table:
        out = pa.TableGroupBy(g.select(["cell_r5", "url", "n"]),
                              "cell_r5").aggregate(
            [("n", "sum"), ("url", "count_distinct")])
        out = out.rename_columns(["cell_r5", "n_mentions", "n_docs"])
        return pa.table({"cell_r5": pc.cast(out["cell_r5"], pa.int64()),
                         "n_mentions": pc.cast(out["n_mentions"], pa.int64()),
                         "n_docs": pc.cast(out["n_docs"], pa.int64())})

    ds = geoparse(read_webpages(webpages_path))
    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(merge, batch_format="pyarrow")


def assignments_pipeline(webpages_path: str, zoom: int = DEFAULT_ZOOM) -> ray.data.Dataset:
    """read -> geoparse -> assign (no aggregation): the join-output /
    tile-assignment rows the rule requires matching exactly."""
    ds = read_webpages(webpages_path)
    ds = geoparse(ds)
    return assign(ds, zoom)


def pyramid_mvt_pipeline(webpages_path: str, base_zoom: int = DEFAULT_ZOOM,
                         levels: int = 3) -> ray.data.Dataset:
    """Multi-zoom MVT pyramid from ONE assignment pass (the
    tippecanoe-style zoom build): every mention is replicated to
    ``levels`` zoom levels with pure integer-shift coordinate
    transforms, then the ordinary pack -> one bounded shuffle ->
    merge -> encode chain emits real MVT tiles for every level.

    Exactness: local-at-parent = ((x & (2^d - 1)) * extent + local)
    >> d, and floor(floor(G) / 2^d) == floor(G / 2^d) (nested-floor
    identity), so level d tiles are BYTE-IDENTICAL to running the
    flagship directly at base_zoom - d — pinned by test. Fan-out is
    the bounded factor ``levels``; everything downstream reuses the
    flagship's shuffle discipline unchanged."""
    ds, reducers = read_sized(webpages_path)
    ds = assign(geoparse(ds), base_zoom, with_cells=False)

    def replicate(b: pa.Table) -> pa.Table:
        x = b["x"].to_numpy().astype(np.int64)
        y = b["y"].to_numpy().astype(np.int64)
        lx = b["local_x"].to_numpy().astype(np.int64)
        ly = b["local_y"].to_numpy().astype(np.int64)
        parts = []
        for d in range(levels):
            m = (1 << d) - 1
            parts.append(pa.table({
                "url": b["url"],
                "mention_idx": b["mention_idx"],
                "z": pa.array(np.full(len(x), base_zoom - d, np.int32)),
                "x": pa.array((x >> d).astype(np.int32)),
                "y": pa.array((y >> d).astype(np.int32)),
                "local_x": pa.array(
                    (((x & m) * 4096 + lx) >> d).astype(np.int32)),
                "local_y": pa.array(
                    (((y & m) * 4096 + ly) >> d).astype(np.int32))}))
        return pa.concat_tables(parts)

    rep = ds.map_batches(replicate, batch_format="pyarrow")
    return encode_tiles(aggregate_tiles(rep, reducers))


def iceberg_cells_pipeline(webpages_path: str, res: int = 5,
                           ppm_threshold: int = 5000) -> "pd.DataFrame":
    """Iceberg query over the r-grid: cells holding MORE than
    `ppm_threshold` parts-per-million of ALL mentions (default 0.5%) —
    the hotspot-share report that needs a GLOBAL total before any
    group can be admitted. Classic because naive SQL needs a
    subquery/cross-join; here the bounded per-cell count table (the
    cell_counts pipeline — distributed, exact-distinct) folds to the
    total and the share filter on the driver at O(cells), not O(rows).
    Shares are reported as exact integer ppm (n * 1e6 // total) — no
    float rounding to negotiate with the twin."""
    cells = cell_counts_pipeline(webpages_path, res).to_pandas()
    total = int(cells["n_mentions"].sum())
    ppm = cells["n_mentions"].to_numpy().astype(np.int64) \
        * np.int64(1_000_000) // total
    keep = ppm > ppm_threshold
    out = cells.loc[keep].copy()
    out["share_ppm"] = ppm[keep]
    out = out.sort_values("cell_r5").reset_index(drop=True)
    return out[["cell_r5", "n_mentions", "n_docs", "share_ppm"]]
