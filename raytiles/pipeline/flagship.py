"""Flagship end-to-end pipeline: webpages parquet -> encoded MVT tiles.

Ray-Data-native composition (see stages.py for the stage graph). The
caller owns the Ray session (never ray.init here — driver contract).

``mentions`` is the map side of every Ray Data pipeline over a parquet
webpages table (the flagship, the tile families and the spatial/raster
ops): one Ray operator whose tasks read their own row groups and run
``parse_group`` (read -> parse -> assign), then the caller's per-block
step. The tile job's stage A runs the same kernel over the same read
groups as plain Ray tasks (pipeline.job). ``geoparse`` runs the parse
kernel over Datasets that other sources read (jsonl, csv, warc, ...).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray
import ray.data

from ..geo import tilemath as tm
from ..geo.parse import GeoParser
from ..util import exchange, input_bytes, layout
from .encode_stage import FastPointEncoder
from .stages import (N_MERGE_BUCKETS, TileAssigner, merge_tile_partials,
                     pack_tile_partials)

DEFAULT_ZOOM = 12
_CELL_BUCKETS = 1024  # cell_counts_pipeline's exchange buckets
MENTION_SCHEMA = pa.schema([("url", pa.string()), ("mention_idx", pa.int32()),
                            ("lon", pa.float64()), ("lat", pa.float64())])
_DOC_SCHEMA = pa.schema([("url", pa.string()), ("text", pa.string())])


def read_webpages(path: str) -> ray.data.Dataset:
    """Ray's own parquet read of a webpages table, pruned to url + text
    (html and lang stay in storage), in ``util.layout``'s read-block
    count. The parquet pipelines read through ``mentions`` instead;
    this read, then ``geoparse`` and ``assign``, is the plain Ray chain
    that ``mentions`` is tested against."""
    return ray.data.read_parquet(path, columns=_DOC_SCHEMA.names,
                                 override_num_blocks=layout(input_bytes(path))[0])


def _parse_docs(parser: GeoParser, docs: pa.Table) -> pa.Table:
    """The parse kernel: documents (url, text) -> exploded mention rows
    (url, mention_idx, lon, lat). ``GeoParser.parse_arrow`` scans the
    whole text column's raw UTF-8 buffers in one vectorized pass, with
    no Python strings, and each mention takes its url from ``docs`` by
    row position."""
    row_pos, mention_idx, lat, lon = parser.parse_arrow(docs["text"])
    if row_pos.size == 0:
        return MENTION_SCHEMA.empty_table()
    return pa.table({
        "url": docs["url"].take(pa.array(row_pos)),
        "mention_idx": pa.array(mention_idx, pa.int32()),
        "lon": pa.array(lon, pa.float64()),
        "lat": pa.array(lat, pa.float64()),
    })


def geoparse(ds: ray.data.Dataset) -> ray.data.Dataset:
    """documents -> exploded mention rows, for a Dataset that some other
    source already read (jsonl, csv, warc, ...). Parquet webpages go
    through ``mentions``, which runs the same kernel in the reading
    task."""
    parser = GeoParser()

    def parse_batch(batch: pa.Table) -> pa.Table:
        return _parse_docs(parser, batch)

    return ds.map_batches(parse_batch, batch_format="pyarrow", batch_size=4096)


def assign(ds: ray.data.Dataset, zoom: int = DEFAULT_ZOOM, *,
           with_cells: bool = True) -> ray.data.Dataset:
    """mention rows -> tile/cell assignments by exact floor math
    (stages.TileAssigner). Task-based: the assigner carries only its
    zoom, extent and cell flag, so it ships by value with each task."""
    return ds.map_batches(TileAssigner(zoom, with_cells=with_cells),
                          batch_format="pyarrow")


def input_files(path: str) -> tuple[pafs.FileSystem, list[pafs.FileInfo]]:
    """The parquet files of a table (a file, a directory or any URI
    pyarrow resolves) in path order, with their size and mtime, and
    the filesystem that opens them."""
    dataset = pads.dataset(path, format="parquet")
    fs = dataset.filesystem
    return fs, fs.get_file_info(dataset.files)


def _balanced(sizes: list[int], n: int) -> list[np.ndarray]:
    """Split item indices into at most ``n`` contiguous, non-empty runs
    of about equal total size: an item joins the run its byte midpoint
    falls in."""
    sizes = np.asarray(sizes, np.float64)
    total = sizes.sum()
    if total <= 0:
        sizes, total = np.ones(len(sizes)), float(len(sizes))
    mid = np.cumsum(sizes) - sizes / 2
    run = np.minimum((mid * n / total).astype(np.int64), n - 1)
    starts = np.flatnonzero(np.diff(run)) + 1
    return np.split(np.arange(len(sizes)), starts)


def read_groups(fs: pafs.FileSystem, files: list[pafs.FileInfo],
                n_blocks: int) -> list[dict[str, list[int] | None]]:
    """Contiguous read groups of about equal bytes, at most
    ``n_blocks``: each maps a file to the row groups to read from it,
    or to None for all of it. Whole files are the unit unless there
    are fewer files than blocks; then row groups are, sized from each
    file's footer. An input without files is one empty group, so it
    still yields a typed empty block."""
    units = [(f.path, None) for f in files]
    sizes = [f.size for f in files]
    if 0 < len(files) < n_blocks:
        units, sizes = [], []
        for f in files:
            with fs.open_input_file(f.path) as fh:
                meta = pq.ParquetFile(fh).metadata
            for rg in range(meta.num_row_groups):
                units.append((f.path, rg))
                sizes.append(meta.row_group(rg).total_byte_size)
    if not units:
        return [{}]
    groups = []
    for idx in _balanced(sizes, n_blocks):
        group = {}
        for path, rg in (units[i] for i in idx):
            if rg is None:
                group[path] = None
            else:
                group.setdefault(path, []).append(rg)
        groups.append(group)
    return groups


def _read_docs(fs: pafs.FileSystem, group: dict[str, list[int] | None]) -> pa.Table:
    parts = []
    for path, rgs in group.items():
        with fs.open_input_file(path) as fh:
            pf = pq.ParquetFile(fh)
            parts.append(pf.read(columns=_DOC_SCHEMA.names) if rgs is None
                         else pf.read_row_groups(rgs, columns=_DOC_SCHEMA.names))
    return pa.concat_tables(parts) if parts else _DOC_SCHEMA.empty_table()


def parse_group(fs: pafs.FileSystem, group: dict[str, list[int] | None],
                parser: GeoParser, assigner: TileAssigner | None = None
                ) -> tuple[pa.Table, pa.Table]:
    """The map kernel of every parquet-webpages pipeline, for one read
    group: read its url + text, parse, then assign when ``assigner``
    is set. Returns (docs read, mention rows). ``mentions`` maps it
    over a Dataset; the tile job's stage A runs it as one Ray task per
    group and fingerprints the docs for its checkpoint."""
    docs = _read_docs(fs, group)
    out = _parse_docs(parser, docs)
    return docs, (out if assigner is None else assigner(out))


def mentions(path: str, zoom: int | None = None, *, with_cells: bool = False,
             then: Callable[[pa.Table], pa.Table] | None = None
             ) -> tuple[ray.data.Dataset, int]:
    """The map side of every Ray Data pipeline over parquet webpages
    (the flagship, citytiles, linetiles, polytiles and the spatial and
    raster ops) as ONE Ray operator: each task runs ``parse_group`` on
    its own group of the input's row groups — read -> parse ->
    ``TileAssigner(zoom)`` (when ``zoom`` is set) — then ``then``
    (when set, e.g. pack_tile_partials) over the whole group at once.
    The tile job's stage A runs ``parse_group`` over the same groups
    as one checkpointed Ray task each, without a Dataset. Returns the
    Dataset and ``util.layout``'s reducer count for the same input, so
    a downstream exchange's width belongs to the input it read.

    The read runs inside the UDF on purpose: behind Ray's ReadParquet
    operator the read costs ~3x its kernel time in planning and block
    handling, and fusing only parse -> assign behind that operator did
    not speed up the job's stage A, while this stage cut it ~3x
    (ROADMAP item 3). The caller's process lists the input once
    (``input_files``) and splits it into ``layout(input_bytes(path))``
    groups balanced by bytes (``read_groups``), so the same input gets
    the same blocks at every cluster size. ``then`` runs on every
    block, an empty one included."""
    read_blocks, reducers = layout(input_bytes(path))
    fs, files = input_files(path)
    groups = read_groups(fs, files, read_blocks)
    parser = GeoParser()
    assigner = None if zoom is None else TileAssigner(zoom, with_cells=with_cells)

    def read_parse(batch: pa.Table) -> pa.Table:
        out = pa.concat_tables([parse_group(fs, groups[g], parser, assigner)[1]
                                for g in batch["group"].to_pylist()])
        return out if then is None else then(out)

    ds = ray.data.from_items([{"group": g} for g in range(len(groups))],
                             override_num_blocks=len(groups))
    return ds.map_batches(read_parse, batch_format="pyarrow",
                          batch_size=None), reducers


def aggregate_tiles(packed: ray.data.Dataset, reducers: int) -> ray.data.Dataset:
    """Phase 2 of the two-phase tile aggregation. Phase 1 runs in the
    map stage: ``mentions(..., then=pack_tile_partials)`` packs each
    block into per-tile rows capped at 512 features. Here ONE shuffle
    keyed by bucket = splitmix(z,x,y) % 1024 (bounded key domain; city
    skew spreads across buckets tile-by-tile) is followed by a
    whole-block merge that re-splits into per-tile packed rows with
    pure offset arithmetic.

    ``reducers`` is the exchange's output block count: callers pass
    the count ``mentions`` returned for their input, so it follows the
    input's size and never the cluster's. The encoded tiles do not
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


def merged_tiles(webpages_path: str, zoom: int) -> ray.data.Dataset:
    """One merged row per tile of every mention at ``zoom``: the map
    stage packs each block, then the one exchange and the merge."""
    return aggregate_tiles(*mentions(webpages_path, zoom, then=pack_tile_partials))


def tiles_pipeline(webpages_path: str, zoom: int = DEFAULT_ZOOM) -> ray.data.Dataset:
    """Full pipeline, lazy — consume with write_parquet / iter_batches."""
    return encode_tiles(merged_tiles(webpages_path, zoom))


def cell_counts_pipeline(webpages_path: str, res: int = 5) -> ray.data.Dataset:
    """Per-cell mention + distinct-doc counts, DISTRIBUTED (round 1
    aggregated on the driver — the one gate operator that wasn't):
    the per-batch partial collapses to one row per (cell, url, batch),
    then ONE exchange on the cell counts vectorized within buckets.
    Distinct-url counting is exact because a cell's rows all land in
    the same bucket (bucket is a pure function of the cell id)."""
    def partial(b: pa.Table) -> pa.Table:
        cell = tm.cell_id(b["lon"].to_numpy(), b["lat"].to_numpy(), res)
        t = pa.table({"cell_r5": cell, "url": b["url"]})
        part = pa.TableGroupBy(t, ["cell_r5", "url"]).aggregate(
            [([], "count_all")])
        part = part.rename_columns(["cell_r5", "url", "n"])
        return part.set_column(2, "n", pc.cast(part["n"], pa.int64()))

    def merge(g: pa.Table) -> pa.Table:
        out = pa.TableGroupBy(g.select(["cell_r5", "url", "n"]),
                              "cell_r5").aggregate(
            [("n", "sum"), ("url", "count_distinct")])
        out = out.rename_columns(["cell_r5", "n_mentions", "n_docs"])
        return pa.table({"cell_r5": pc.cast(out["cell_r5"], pa.int64()),
                         "n_mentions": pc.cast(out["n_mentions"], pa.int64()),
                         "n_docs": pc.cast(out["n_docs"], pa.int64())})

    partials, _ = mentions(webpages_path, then=partial)
    return exchange(partials, "cell_r5", merge, _CELL_BUCKETS)


def assignments_pipeline(webpages_path: str, zoom: int = DEFAULT_ZOOM) -> ray.data.Dataset:
    """read -> geoparse -> assign (no aggregation): the join-output /
    tile-assignment rows the rule requires matching exactly."""
    return mentions(webpages_path, zoom, with_cells=True)[0]


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
    def pack_levels(b: pa.Table) -> pa.Table:
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
        return pack_tile_partials(pa.concat_tables(parts))

    packed, reducers = mentions(webpages_path, base_zoom, then=pack_levels)
    return encode_tiles(aggregate_tiles(packed, reducers))


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
