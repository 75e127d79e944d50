"""Driver contract for the raytiles engine (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash).

Ray is initialised by the driver BEFORE this module is imported: no
ray.init()/ray.shutdown() here or in the library code these call.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections.abc import Callable
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)

import numpy as np
import pandas as pd

SF_ORACLE = "/root/testdata/sf0.01"


def _cast_int64(df: pd.DataFrame, cols) -> pd.DataFrame:
    for c in cols:
        df[c] = df[c].astype(np.int64)
    return df


# ---------------------------------------------------------------------------
# queries that do more than call one library function: casts, column
# selection, sink round trips, chained tile-set operators. Every other
# query is a "module:function" target in QUERY_TABLE.
# ---------------------------------------------------------------------------

def _q_geoparse(sf_dir: str):
    from raytiles.pipeline.flagship import mentions
    from raytiles.pipeline.synth import webpages_path
    df = mentions(webpages_path(sf_dir))[0].to_pandas()
    return _cast_int64(df, ["mention_idx"])[["url", "mention_idx", "lon", "lat"]]


def _q_tile_assign(sf_dir: str):
    from raytiles.pipeline.flagship import assignments_pipeline
    from raytiles.pipeline.synth import webpages_path
    df = assignments_pipeline(webpages_path(sf_dir), 12).to_pandas()
    cells = [f"cell_r{r}" for r in range(10)]
    df = _cast_int64(df, ["mention_idx", "z", "x", "y", "local_x", "local_y"] + cells)
    return df[["url", "mention_idx", "lon", "lat"] + cells
              + ["z", "x", "y", "local_x", "local_y"]]


def _q_tile_counts(sf_dir: str):
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.synth import webpages_path
    df = tiles_pipeline(webpages_path(sf_dir), 12).to_pandas()
    df = _cast_int64(df, ["z", "x", "y", "n_features"])
    return df[["z", "x", "y", "n_features"]]


def _q_cell_counts(sf_dir: str):
    from raytiles.pipeline.flagship import cell_counts_pipeline
    from raytiles.pipeline.synth import webpages_path
    df = cell_counts_pipeline(webpages_path(sf_dir), 5).to_pandas()
    return _cast_int64(df, ["cell_r5", "n_mentions", "n_docs"])


def _q_tile_features(sf_dir: str):
    """Encoded tiles -> per-feature Arrow rows (FIXTURES B3 schema):
    the distributed columnar decode. Rows-only (nested arrow output);
    the bytes->arrow->bytes fixpoint is pytest-verified on all
    fixtures."""
    from raytiles.codec.arrowio import tiles_to_feature_table
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.synth import webpages_path
    tiles = tiles_pipeline(webpages_path(sf_dir), 12)
    return tiles.map_batches(tiles_to_feature_table, batch_format="pyarrow",
                             batch_size=512)


def _q_mvt_files(sf_dir: str):
    """File-per-tile .mvt sink (XYZ layout under /tmp): returns the
    per-file inventory (z, x, y, n_bytes). Rows-only — the side
    effect + decode correctness are pytest-verified."""
    import shutil

    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.sinks import write_mvt_files
    from raytiles.pipeline.synth import webpages_path
    root = "/tmp/raytiles_gate_mvt"
    shutil.rmtree(root, ignore_errors=True)
    return write_mvt_files(tiles_pipeline(webpages_path(sf_dir), 12), root)


def _q_mvt_ingest(sf_dir: str):
    """File-per-tile .mvt SOURCE: write the flagship tileset in XYZ
    layout, then read it back with read_mvt_dir — every row decodes
    (ok), coordinates come from the path. Rows-only; inventory parity
    with the sink is pytest-verified."""
    import shutil

    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.sinks import write_mvt_files
    from raytiles.pipeline.sources import read_mvt_dir
    from raytiles.pipeline.synth import webpages_path
    root = "/tmp/raytiles_gate_mvt_src"
    shutil.rmtree(root, ignore_errors=True)
    write_mvt_files(tiles_pipeline(webpages_path(sf_dir), 12),
                    root).materialize()
    return read_mvt_dir(root)


def _q_mvt_roundtrip(sf_dir: str):
    """Reference fixtures + synthetic tiles through decode->encode->
    decode; every row must have ok=True (the 100% fixture pass-rate
    criterion)."""
    from raytiles.pipeline.roundtrip import roundtrip_pipeline
    return roundtrip_pipeline()


def _q_geohashes(sf_dir: str):
    """Geohash base-32 spatial index per mention (prefix = cell)."""
    from raytiles.geo.tilemath import geohash
    from raytiles.pipeline.flagship import mentions
    from raytiles.pipeline.synth import webpages_path

    def add_geohash(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "url": b["url"],
            "mention_idx": b["mention_idx"].astype(np.int64),
            "geohash": geohash(b["lon"].to_numpy(), b["lat"].to_numpy(), 6),
        })

    ds = mentions(webpages_path(sf_dir))[0]
    return ds.map_batches(add_geohash, batch_format="pandas")


def _q_morton_cells(sf_dir: str):
    from raytiles.geo.tilemath import morton_cell
    from raytiles.pipeline.flagship import mentions
    from raytiles.pipeline.synth import webpages_path

    def add_morton(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "url": b["url"],
            "mention_idx": b["mention_idx"].astype(np.int64),
            "morton": morton_cell(b["lon"].to_numpy(), b["lat"].to_numpy(), 12),
        })

    ds = mentions(webpages_path(sf_dir))[0]
    return ds.map_batches(add_morton, batch_format="pandas")


def _q_trajectories_simplified(sf_dir: str):
    """Trajectory tiles with Douglas-Peucker simplification (tol=32
    tile units of 4096) before encode. Rows-only: DP properties
    (endpoint survival, deviation bound, point reduction) are
    pytest-verified."""
    from raytiles.pipeline.synth import webpages_path
    from raytiles.pipeline.trajectories import trajectories_pipeline
    return trajectories_pipeline(webpages_path(sf_dir), 6,
                                 simplify_tolerance=32.0)


def _q_quadkeys(sf_dir: str):
    from raytiles.geo.tilemath import quadkey
    from raytiles.pipeline.flagship import mentions
    from raytiles.pipeline.synth import webpages_path

    def add_qk(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "url": b["url"],
            "mention_idx": b["mention_idx"].astype(np.int64),
            "quadkey": quadkey(b["lon"].to_numpy(), b["lat"].to_numpy(), 12),
        })

    ds = mentions(webpages_path(sf_dir))[0]
    return ds.map_batches(add_qk, batch_format="pandas")


def _q_tile_pyramid(sf_dir: str):
    from raytiles.ops.raster import tile_pyramid
    from raytiles.pipeline.flagship import mentions
    from raytiles.pipeline.synth import webpages_path
    ds = mentions(webpages_path(sf_dir), 12)[0]
    return tile_pyramid(ds)


def _q_raster_cells(sf_dir: str):
    from raytiles.ops.raster import raster_cells
    from raytiles.pipeline.flagship import mentions
    from raytiles.pipeline.synth import webpages_path
    ds = mentions(webpages_path(sf_dir), 8)[0]
    return raster_cells(ds)


def _q_normalized_dedup(sf_dir: str):
    from raytiles.ops.dedup import exact_dedup
    return exact_dedup(sf_dir, normalize=True)


def _q_churned_users(sf_dir: str):
    """EXCEPT set-op: first-window users absent from the last window
    (bucketed flag OR-merge, no join). Returns pandas so an empty
    churn set still carries the user_id column for the gate's schema
    compare."""
    from raytiles.ops.relational import churned_users
    df = churned_users(sf_dir).to_pandas()
    if "user_id" not in df.columns:
        df = pd.DataFrame({"user_id": pd.Series([], dtype=np.int64)})
    return df


def _q_minhash_overflow(sf_dir: str):
    import numpy as np
    import pandas as pd
    from raytiles.ops.dedup import minhash_band_overflow
    # overflow groups are rare by construction (the result is the
    # exception report), so driver-side collection is safe; an all-empty
    # map_groups output loses its schema in Ray, so reimpose it here
    df = minhash_band_overflow(sf_dir).to_pandas()
    cols = ["band_id", "band_hash", "n_docs", "n_truncated"]
    if df.empty:
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
    return df[cols]


def _q_lsh_neardup(sf_dir: str):
    from raytiles.ops.similarity import lsh_neardup_pairs
    # the testdata embeddings are near-orthogonal (max pairwise cosine
    # ~0.51), so 16 deterministic planted near-dups (vec_id + 10^6)
    # exercise the live pair-emission path at the production threshold
    return lsh_neardup_pairs(sf_dir, threshold=0.9, n_planted=16)


def _q_mvt_overlay(sf_dir: str):
    """Wire-level overlay of the flagship mention tiles with same-zoom
    heat tiles (protobuf repeated-Layer concat — no decode/re-encode;
    duplicate names keep the reference's last-wins rule). Rows-only:
    binary output; concat == decode-merge-re-encode pinned by pytest."""
    from raytiles.ops.raster import heatmap_pipeline
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_overlay
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    return mvt_overlay(tiles_pipeline(wp, 12), heatmap_pipeline(wp, 12))


def _q_mvt_labels(sf_dir: str):
    """Greedy label placement with Chebyshev collision suppression
    (priority = mention_idx, fid tiebreak); suppressed count surfaced.
    Rows-only; exact greedy-recompute pytest."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_label_place
    from raytiles.pipeline.synth import webpages_path
    return mvt_label_place(tiles_pipeline(webpages_path(sf_dir), 12),
                           b"mention_idx", min_dist=512)


def _q_mvt_merge(sf_dir: str):
    """True layer merge (feature union + dictionary re-interning) of
    the flagship set with its first-mention subset. Rows-only;
    union-count/passthrough invariants pinned by pytest."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_filter_features, \
        mvt_merge_layers
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    return mvt_merge_layers(
        tiles_pipeline(wp, 12),
        mvt_filter_features(tiles_pipeline(wp, 12), b"mention_idx",
                            lambda v: v == 0))


def _q_mvt_downzoom(sf_dir: str):
    """Parent zoom built purely from child tiles (no source re-read):
    exact integer coordinate halving + <= 4-child merge per parent
    through one bounded shuffle. Rows-only; equality with the directly
    built z-1 level pinned by pytest."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_downzoom
    from raytiles.pipeline.synth import webpages_path
    return mvt_downzoom(tiles_pipeline(webpages_path(sf_dir), 12))


def _q_mvt_feature_cap(sf_dir: str):
    """Tile weight budget: keep <= cap features per layer in storage
    order; drop count surfaced per tile (no silent caps). Rows-only;
    order/passthrough/count invariants pinned by pytest."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_feature_cap
    from raytiles.pipeline.synth import webpages_path
    return mvt_feature_cap(tiles_pipeline(webpages_path(sf_dir), 12),
                           cap=8)


def _q_tilestats(sf_dir: str):
    """Tile-set statistics artifact: per-layer tile/geometry counts +
    per-attribute HLL cardinalities (p=8 registers through one bounded
    bucket shuffle). Rows-only; exact-recompute pytest."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import tilestats
    from raytiles.pipeline.synth import webpages_path
    return tilestats(tiles_pipeline(webpages_path(sf_dir), 12))


def _q_mvt_simplify(sf_dir: str):
    """Tippecanoe-style post-hoc Douglas-Peucker inside encoded tiles
    (shuffle-free decode -> simplify -> re-encode). Rows-only: binary
    output; subset/closure/sign invariants + reduction goldens pinned
    by pytest."""
    from raytiles.pipeline.overlay import mvt_simplify
    from raytiles.pipeline.synth import webpages_path
    from raytiles.pipeline.trajectories import trajectories_pipeline
    return mvt_simplify(trajectories_pipeline(webpages_path(sf_dir), 6),
                        tolerance=8.0)


def _q_mvt_rescale(sf_dir: str):
    """Re-extent the flagship tile set 4096 -> 8192 (exact integer
    2x upscale). Rows-only: binary output; exactness pinned by the
    fixture pytest (every decoded coordinate exactly doubles)."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_rescale
    from raytiles.pipeline.synth import webpages_path
    return mvt_rescale(tiles_pipeline(webpages_path(sf_dir), 12))


def _q_mvt_filter(sf_dir: str):
    """Feature filtering inside encoded tiles: keep each document's
    FIRST mention (mention_idx == 0), drop emptied layers/tiles.
    Rows-only: binary output; the per-doc-first invariant is pinned by
    pytest (sum(n_features) == distinct urls with mentions)."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_filter_features
    from raytiles.pipeline.synth import webpages_path
    return mvt_filter_features(
        tiles_pipeline(webpages_path(sf_dir), 12), b"mention_idx",
        lambda v: v == 0)


def _q_mvt_enrich(sf_dir: str):
    """Broadcast-dim join inside encoded tiles: every mention feature
    gains a host_docs metadata entry from the host_stats table.
    Rows-only: per-feature dim parity pinned by pytest."""
    import re

    import ray as _ray

    from raytiles.ops.webcorpus import host_stats
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_enrich
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    hs = host_stats(wp).to_pandas()
    ref = _ray.put(dict(zip(hs["host"], hs["n_docs"].astype(int))))
    host_re = re.compile(rb"^https?://([^/]+)/")

    def key_to_dim(url_bytes):
        m = host_re.match(url_bytes)
        return m.group(1).decode() if m else None

    return mvt_enrich(tiles_pipeline(wp, 12), ref, b"url", key_to_dim,
                      b"host_docs")


def _q_jsonl_roundtrip(sf_dir: str):
    """JSONL source/sink roundtrip: parquet webpages -> JSONL shards
    -> geoparse — same mentions as the parquet path (pinned by
    pytest). Returns the geoparsed mentions from the JSONL source.
    Rows-only (source-format breadth; values re-checked by the
    geoparse SQL twin shape via the pytest equality)."""
    import tempfile

    import ray.data as _rd

    from raytiles.pipeline.flagship import geoparse
    from raytiles.pipeline.sources import (read_webpages_jsonl,
                                           write_webpages_jsonl)
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    root = tempfile.mkdtemp(prefix="raytiles_jsonl_")
    write_webpages_jsonl(
        _rd.read_parquet(wp, columns=["url", "text"]), root)
    return geoparse(read_webpages_jsonl(root))


def _q_jsonl_gz_roundtrip(sf_dir: str):
    """Gzipped JSONL source/sink roundtrip (crawl-dump exchange form:
    decompression inside each read task's input stream) -> geoparse;
    value-checked against the same geoparse twin as parquet."""
    import tempfile

    import ray.data as _rd

    from raytiles.pipeline.flagship import geoparse
    from raytiles.pipeline.sources import (read_webpages_jsonl,
                                           write_webpages_jsonl)
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    root = tempfile.mkdtemp(prefix="raytiles_jsonlgz_")
    write_webpages_jsonl(
        _rd.read_parquet(wp, columns=["url", "text"]), root, gz=True)
    return geoparse(read_webpages_jsonl(root, gz=True))


def _q_hive_partition(sf_dir: str):
    """Hive-partitioned sink + partition-PRUNED read: webpages written
    as <root>/lang=<v>/*.parquet, then ONLY the lang=en directory is
    listed and geoparsed — the predicate-to-directory translation.
    Value-checked against the geoparse twin restricted to lang='en'."""
    import tempfile

    import ray.data as _rd

    from raytiles.pipeline.flagship import geoparse
    from raytiles.pipeline.sources import (read_webpages_hive,
                                           write_webpages_hive)
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    root = tempfile.mkdtemp(prefix="raytiles_hive_")
    write_webpages_hive(
        _rd.read_parquet(wp, columns=["url", "text", "lang"]), root)
    return geoparse(read_webpages_hive(root, lang="en"))


def _q_warc_roundtrip(sf_dir: str):
    """WARC source/sink roundtrip: parquet webpages -> WARC/1.0 shards
    (html only — the crawl-native contract) -> re-derive text from the
    html payload -> geoparse. Value-checked against the same geoparse
    SQL twin as the parquet path, so the WARC reader's record parse,
    header recovery, AND the extraction re-derivation are all on the
    hook."""
    import tempfile

    import ray.data as _rd

    from raytiles.pipeline.flagship import geoparse
    from raytiles.pipeline.sources import (read_webpages_warc,
                                           write_webpages_warc)
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    root = tempfile.mkdtemp(prefix="raytiles_warc_")
    write_webpages_warc(
        _rd.read_parquet(wp, columns=["url", "warc_ts", "html", "lang"]),
        root)
    return geoparse(read_webpages_warc(root))


def _q_tfrecord_roundtrip(sf_dir: str):
    """TFRecord source/sink roundtrip -> geoparse: real TensorFlow
    record framing (8-byte length + BOTH masked CRC32Cs, verified on
    read via the lockstep-vectorized CRC kernel) around from-scratch
    tf.train.Example protos. Value-checked against the geoparse SQL
    twin like the parquet path."""
    import tempfile

    import ray.data as _rd

    from raytiles.pipeline.flagship import geoparse
    from raytiles.pipeline.sources import (read_webpages_tfrecord,
                                           write_webpages_tfrecord)
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    root = tempfile.mkdtemp(prefix="raytiles_tfrec_")
    write_webpages_tfrecord(
        _rd.read_parquet(wp, columns=["url", "text"]), root)
    return geoparse(read_webpages_tfrecord(root))


def _q_wds_roundtrip(sf_dir: str):
    """WebDataset source/sink roundtrip -> geoparse: tar shards of
    {md5(url)}.url/.txt member pairs (the multimodal training-corpus
    layout), deterministic member metadata, shard-parallel read."""
    import tempfile

    import ray.data as _rd

    from raytiles.pipeline.flagship import geoparse
    from raytiles.pipeline.sources import (read_webpages_wds,
                                           write_webpages_wds)
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    root = tempfile.mkdtemp(prefix="raytiles_wds_")
    write_webpages_wds(
        _rd.read_parquet(wp, columns=["url", "text"]), root)
    return geoparse(read_webpages_wds(root))


def _q_npz_roundtrip(sf_dir: str):
    """NPZ embedding-shard roundtrip: parquet embeddings -> .npz
    shards (id vector + float32 matrix + labels) -> read back ->
    per-vector micro-quantized squared norms. The twin recomputes the
    norms from the parquet list column with the identical
    floor(x*x*1e9) per element, so shard encode/decode AND row
    alignment are value-checked."""
    import tempfile

    import numpy as np_
    import pyarrow as pa_
    import ray.data as _rd

    from raytiles.pipeline.sources import (read_embeddings_npz,
                                           write_embeddings_npz)
    root = tempfile.mkdtemp(prefix="raytiles_npz_")
    write_embeddings_npz(
        _rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding", "label"]), root)

    def norms(b):
        mat = np_.stack(b["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np_.float64)
        q = np_.floor(mat * mat * 1e9).astype(np_.int64).sum(axis=1)
        return pa_.table({
            "vec_id": pa_.array(
                b["vec_id"].to_numpy(zero_copy_only=False)
                .astype(np_.int64)),
            "label": pa_.array(
                b["label"].to_numpy(zero_copy_only=False)
                .astype(np_.int64)),
            "norm2_micro": pa_.array(q)})

    return read_embeddings_npz(root).map_batches(
        norms, batch_format="pyarrow")


def _q_ipc_roundtrip(sf_dir: str):
    """Arrow IPC (Feather V2) source/sink roundtrip -> geoparse —
    full-fidelity zero-copy interchange; value-checked against the
    geoparse SQL twin like the parquet path."""
    import tempfile

    import ray.data as _rd

    from raytiles.pipeline.flagship import geoparse
    from raytiles.pipeline.sources import (read_webpages_ipc,
                                           write_webpages_ipc)
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    root = tempfile.mkdtemp(prefix="raytiles_ipc_")
    write_webpages_ipc(
        _rd.read_parquet(wp, columns=["url", "text"]), root)
    return geoparse(read_webpages_ipc(root))


def _q_orc_roundtrip(sf_dir: str):
    """ORC source/sink roundtrip -> geoparse — the Hive/Spark
    warehouse format via pyarrow.orc, with real column pruning at the
    read; value-checked against the geoparse SQL twin."""
    import tempfile

    import ray.data as _rd

    from raytiles.pipeline.flagship import geoparse
    from raytiles.pipeline.sources import (read_webpages_orc,
                                           write_webpages_orc)
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    root = tempfile.mkdtemp(prefix="raytiles_orc_")
    write_webpages_orc(
        _rd.read_parquet(wp, columns=["url", "text"]), root)
    return geoparse(read_webpages_orc(root, columns=["url", "text"]))


def _q_csv_roundtrip(sf_dir: str):
    """CSV source/sink roundtrip: parquet webpages -> CSV shards ->
    geoparse. Oracle: the geoparse SQL twin over the original parquet
    (the roundtrip must be lossless for url/text)."""
    import tempfile

    import ray.data as _rd

    from raytiles.pipeline.flagship import geoparse
    from raytiles.pipeline.sources import (read_webpages_csv,
                                           write_webpages_csv)
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    root = tempfile.mkdtemp(prefix="raytiles_csv_")
    write_webpages_csv(
        _rd.read_parquet(wp, columns=["url", "text"]), root)
    return geoparse(read_webpages_csv(root))


def _q_mvt_diff(sf_dir: str):
    """Incremental tile-set diff (added/removed/changed per tile
    coordinate; md5 digests through the shuffle, not tile bytes).
    Rows-only: status parity vs a pandas recompute pinned by pytest."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_diff, mvt_filter_features
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(sf_dir)
    return mvt_diff(tiles_pipeline(wp, 12),
                    mvt_filter_features(tiles_pipeline(wp, 12),
                                        b"mention_idx", lambda v: v == 0))


# ---------------------------------------------------------------------------
# driver contract
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: webpages ->
    geoparse -> assign -> aggregate -> MVT-encode."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.synth import webpages_path
    return tiles_pipeline(webpages_path("/root/testdata/sf0.001"), 12)


# Every query, in the order the driver runs them. A "module:function"
# target is called as f(sf_dir); a ("module:function", *consts) tuple is
# called as f(webpages_path(sf_dir), *consts) over the synthetic webpages
# table; a _q_* function is a query that does more than one library call.
QUERY_TABLE: dict[str, str | tuple | Callable[[str], Any]] = {
    # tiling family (SURVEY §2 / north_star pipeline)
    "geoparse": _q_geoparse,
    "tile_assign": _q_tile_assign,
    "tile_counts": _q_tile_counts,
    "cell_counts": _q_cell_counts,
    "iceberg_cells": ("raytiles.pipeline.flagship:iceberg_cells_pipeline",),
    "tiles_mvt": ("raytiles.pipeline.flagship:tiles_pipeline", 12),
    "mvt_files": _q_mvt_files,
    "mvt_ingest": _q_mvt_ingest,
    "jsonl_roundtrip": _q_jsonl_roundtrip,
    "jsonl_gz_roundtrip": _q_jsonl_gz_roundtrip,
    "hive_partition": _q_hive_partition,
    "warc_roundtrip": _q_warc_roundtrip,
    "ipc_roundtrip": _q_ipc_roundtrip,
    "csv_roundtrip": _q_csv_roundtrip,
    "orc_roundtrip": _q_orc_roundtrip,
    "tfrecord_roundtrip": _q_tfrecord_roundtrip,
    "wds_roundtrip": _q_wds_roundtrip,
    "npz_roundtrip": _q_npz_roundtrip,
    "mvt_roundtrip": _q_mvt_roundtrip,
    "tile_features": _q_tile_features,
    # relational operators
    "pricing_summary": "raytiles.ops.relational:pricing_summary",
    "top_customers": "raytiles.ops.relational:top_customers",
    "events_hourly": "raytiles.ops.relational:events_hourly",
    "events_sliding": "raytiles.ops.relational:events_sliding",
    "events_sessions": "raytiles.ops.relational:events_sessions",
    "events_asof": "raytiles.ops.relational:events_asof",
    "events_watermark": "raytiles.ops.relational:events_watermark",
    "events_gapfill": "raytiles.ops.relational:events_gapfill",
    "events_rollup": "raytiles.ops.relational:events_rollup",
    "events_pivot": "raytiles.ops.relational:events_pivot",
    "value_outliers": "raytiles.ops.relational:value_outliers",
    "interval_coverage": "raytiles.ops.relational:interval_coverage",
    "rolling_dau": "raytiles.ops.relational:rolling_dau",
    "weighted_sample": "raytiles.ops.groupops:weighted_sample",
    "events_deciles": "raytiles.ops.relational:events_deciles",
    "user_journeys": "raytiles.ops.relational:user_journeys",
    "fuzzy_search": "raytiles.ops.text:fuzzy_search",
    "unpivot_lineitem": "raytiles.ops.relational:unpivot_lineitem",
    "props_extract": "raytiles.ops.relational:props_extract",
    "churned_users": _q_churned_users,
    "value_time_corr": "raytiles.ops.relational:value_time_corr",
    "quantile_cont": "raytiles.ops.relational:quantile_cont",
    "journey_pattern": "raytiles.ops.relational:journey_pattern",
    "new_users_curve": "raytiles.ops.relational:new_users_curve",
    "time_weighted_value": "raytiles.ops.relational:time_weighted_value",
    "audience_overlap": "raytiles.ops.relational:audience_overlap",
    "mad_stats": "raytiles.ops.relational:mad_stats",
    "loyal_users": "raytiles.ops.relational:loyal_users",
    "wow_growth": "raytiles.ops.relational:wow_growth",
    "order_discount_factor": "raytiles.ops.relational:order_discount_factor",
    "char_trigrams": "raytiles.ops.text:char_trigrams",
    "chi2_type_hour": "raytiles.ops.relational:chi2_type_hour",
    "winsorized_mean": "raytiles.ops.relational:winsorized_mean",
    "profile_table": "raytiles.ops.profile:profile_table",
    "oov_rate": "raytiles.ops.text:oov_rate",
    "order_gini": "raytiles.ops.relational:order_gini",
    "value_histogram": "raytiles.ops.relational:value_histogram",
    "order_revenue": "raytiles.ops.relational:order_revenue",
    "order_revenue_left": "raytiles.ops.relational:order_revenue_left",
    "nation_revenue": "raytiles.ops.relational:nation_revenue",
    "late_orders": "raytiles.ops.relational:late_orders",
    "user_entropy": "raytiles.ops.relational:user_entropy",
    "pareto_orders": "raytiles.ops.relational:pareto_orders",
    "order_price_ranks": "raytiles.ops.relational:order_price_ranks",
    "idle_customers": "raytiles.ops.relational:idle_customers",
    "waiting_suppliers": "raytiles.ops.relational:waiting_suppliers",
    "shipping_priority": "raytiles.ops.warehouse:shipping_priority",
    "ship_volume": "raytiles.ops.warehouse:ship_volume",
    "market_share": "raytiles.ops.warehouse:market_share",
    "product_profit": "raytiles.ops.warehouse:product_profit",
    "important_parts": "raytiles.ops.warehouse:important_parts",
    "custdist": "raytiles.ops.warehouse:custdist",
    "top_supplier": "raytiles.ops.warehouse:top_supplier",
    "part_supp_counts": "raytiles.ops.warehouse:part_supp_counts",
    "big_orders": "raytiles.ops.warehouse:big_orders",
    "banded_revenue": "raytiles.ops.warehouse:banded_revenue",
    "excess_shippers": "raytiles.ops.warehouse:excess_shippers",
    "min_cost_supplier": "raytiles.ops.warehouse:min_cost_supplier",
    "promo_revenue": "raytiles.ops.partdim:promo_revenue",
    "top_suppliers": "raytiles.ops.partdim:top_suppliers",
    "brand_type_stats": "raytiles.ops.partdim:brand_type_stats",
    "cohort_revenue_full": "raytiles.ops.relational:cohort_revenue_full",
    "small_quantity_revenue": "raytiles.ops.relational:small_quantity_revenue",
    "group_stats": "raytiles.ops.relational:group_stats",
    "user_features": "raytiles.ops.relational:user_features",
    "funnel_conversion": "raytiles.ops.relational:funnel_conversion",
    "urgent_revenue": "raytiles.ops.relational:urgent_revenue",
    "cohort_retention": "raytiles.ops.relational:cohort_retention",
    "running_revenue": "raytiles.ops.relational:running_revenue",
    "top_orders": "raytiles.ops.groupops:top_orders_per_customer",
    "stratified_sample": "raytiles.ops.groupops:stratified_sample",
    "group_quantiles": "raytiles.ops.groupops:group_quantiles",
    "range_join_bands": "raytiles.ops.groupops:orders_price_bands",
    "distinct_users": "raytiles.ops.groupops:distinct_users",
    "approx_distinct": "raytiles.ops.sketch:approx_distinct_users",
    "heavy_hitters": "raytiles.ops.sketch:heavy_hitters",
    "hdr_quantiles": "raytiles.ops.sketch:hdr_quantiles",
    "hll_sketches": "raytiles.ops.sketch:hll_sketches",
    "hll_union": "raytiles.ops.sketch:hll_union",
    "extract_text": ("raytiles.ops.extract:extract_text",),
    "redact_locations": ("raytiles.ops.extract:redact_locations",),
    "morton_cells": _q_morton_cells,
    "quadkeys": _q_quadkeys,
    "geohashes": _q_geohashes,
    "tile_pyramid": _q_tile_pyramid,
    "raster_cells": _q_raster_cells,
    "tile_neighborhood": ("raytiles.ops.raster:tile_neighborhood", 12),
    "heatmap_mvt": ("raytiles.ops.raster:heatmap_pipeline", 8),
    "trajectories_mvt":
        ("raytiles.pipeline.trajectories:trajectories_pipeline", 6),
    "trajectories_simplified": _q_trajectories_simplified,
    "line_tiles": ("raytiles.pipeline.linetiles:line_tiles_pipeline",),
    "polygon_tiles": ("raytiles.pipeline.polytiles:polygon_tiles_pipeline",),
    "host_hulls": ("raytiles.pipeline.polytiles:host_hulls",),
    "mvt_overlay": _q_mvt_overlay,
    "mvt_filter": _q_mvt_filter,
    "mvt_rescale": _q_mvt_rescale,
    "mvt_simplify": _q_mvt_simplify,
    "mvt_feature_cap": _q_mvt_feature_cap,
    "mvt_downzoom": _q_mvt_downzoom,
    "mvt_merge": _q_mvt_merge,
    "city_tileset": ("raytiles.pipeline.citytiles:city_tiles_pipeline", 6),
    "mvt_labels": _q_mvt_labels,
    "cell_compact": ("raytiles.ops.spatial:cell_compact", 12),
    "tilestats": _q_tilestats,
    "point_clusters": ("raytiles.ops.raster:point_clusters", 12),
    "raster_blur": ("raytiles.ops.raster:raster_blur", 8),
    "iso_segments": ("raytiles.ops.raster:iso_segments", 8),
    "isolines_mvt": ("raytiles.ops.raster:isolines_pipeline", 8),
    "clusters_mvt": ("raytiles.ops.raster:cluster_tiles_pipeline", 12),
    "mvt_diff": _q_mvt_diff,
    "pyramid_mvt": ("raytiles.pipeline.flagship:pyramid_mvt_pipeline",),
    "mvt_enrich": _q_mvt_enrich,
    # spatial joins
    "geofence_join": ("raytiles.ops.spatial:geofence_join",),
    "comention_edges": ("raytiles.ops.spatial:comention_edges",),
    "cell_pagerank": ("raytiles.ops.graph:cell_pagerank",),
    "cell_triangles": ("raytiles.ops.graph:cell_triangles",),
    "hotspot_regions": ("raytiles.ops.spatial:hotspot_regions",),
    "trajectory_lengths": ("raytiles.ops.spatial:trajectory_lengths",),
    "segment_bearings": ("raytiles.ops.spatial:segment_bearings",),
    "kmv_distinct": "raytiles.ops.sketch:kmv_distinct",
    "zipf_slope": "raytiles.ops.text:zipf_slope",
    "type_token_ratio": "raytiles.ops.text:type_token_ratio",
    "nb_lang_classify": "raytiles.ops.cluster:nb_lang_classify",
    "events_ewma": "raytiles.ops.relational:events_ewma",
    "events_debounce": "raytiles.ops.relational:events_debounce",
    "events_cusum": "raytiles.ops.relational:events_cusum",
    "type_affinity": "raytiles.ops.relational:type_affinity",
    "orders_seasonality": "raytiles.ops.relational:orders_seasonality",
    "kmeans_exact": "raytiles.ops.cluster:kmeans_exact",
    "bm25_search": "raytiles.ops.text:bm25_search",
    "hybrid_search": "raytiles.ops.similarity:hybrid_search",
    "nearest_city": ("raytiles.ops.spatial:nearest_city",),
    "host_bbox": ("raytiles.ops.spatial:host_bbox",),
    "tile_adjacency": ("raytiles.ops.spatial:tile_adjacency", 12),
    "tile_moran": ("raytiles.ops.spatial:tile_moran", 12),
    "tile_components": ("raytiles.ops.spatial:tile_components", 12),
    "tile_hotspots": ("raytiles.ops.spatial:tile_hotspots", 12),
    "host_tile_cover": ("raytiles.ops.spatial:host_tile_cover",),
    "zonal_stats": ("raytiles.ops.spatial:zonal_stats",),
    "cell_cover": ("raytiles.ops.spatial:cell_cover",),
    # web-corpus curation
    "host_stats": ("raytiles.ops.webcorpus:host_stats",),
    "cust_anti_join": "raytiles.ops.webcorpus:customers_without_big_orders",
    "decontaminate": "raytiles.ops.webcorpus:decontaminate",
    "doc_repetition": "raytiles.ops.webcorpus:doc_repetition",
    # text analysis
    "token_counts": "raytiles.ops.text:token_counts",
    "quality_scores": "raytiles.ops.text:quality_scores",
    "lang_id": "raytiles.ops.text:lang_id",
    "doc_md5": "raytiles.ops.text:doc_md5",
    "vocab_topk": "raytiles.ops.text:vocab_topk",
    "doc_top_terms": "raytiles.ops.text:doc_top_terms",
    "median_filter": "raytiles.ops.text:median_length_filter",
    "doc_tfidf": "raytiles.ops.text:doc_tfidf_top",
    "inverted_index": "raytiles.ops.text:inverted_index",
    "bpe_tokens": "raytiles.ops.text:bpe_token_counts",
    "doc_rank": "raytiles.ops.text:doc_rank",
    "boilerplate": "raytiles.ops.webcorpus:boilerplate_ngrams",
    "chunk_documents": "raytiles.ops.text:chunk_documents",
    "dedup_chunks": "raytiles.ops.text:dedup_chunks",
    "bigram_pmi": "raytiles.ops.text:bigram_pmi",
    "events_range_window": "raytiles.ops.relational:events_range_window",
    "events_lag": "raytiles.ops.relational:events_lag",
    "event_transitions": "raytiles.ops.relational:event_transitions",
    "events_ohlc": "raytiles.ops.relational:events_ohlc",
    "user_value_history": "raytiles.ops.relational:user_value_history",
    "events_moving_sum": "raytiles.ops.relational:events_moving_sum",
    "group_mode": "raytiles.ops.groupops:group_mode",
    "feature_hashing": "raytiles.ops.text:feature_hashing",
    "token_entropy": "raytiles.ops.text:token_entropy",
    "compression_ratio": "raytiles.ops.text:compression_ratio",
    "bigram_logprob": "raytiles.ops.text:bigram_logprob",
    "bpe_encode": "raytiles.ops.tokenizer:bpe_encode_counts",
    "lang_percentiles": "raytiles.ops.text:lang_percentiles",
    "corpus_checksums": "raytiles.ops.text:corpus_checksums",
    "pack_sequences": "raytiles.ops.text:pack_sequences",
    "unigram_logprob": "raytiles.ops.text:unigram_logprob",
    "mixture_sample": "raytiles.ops.webcorpus:mixture_sample",
    # dedup
    "exact_dedup": "raytiles.ops.dedup:exact_dedup",
    "normalized_dedup": _q_normalized_dedup,
    "minhash_bands": "raytiles.ops.dedup:minhash_bands",
    "minhash_pairs": "raytiles.ops.dedup:minhash_pairs",
    "minhash_overflow": _q_minhash_overflow,
    "jaccard_pairs": "raytiles.ops.dedup:jaccard_verify",
    "dup_clusters": "raytiles.ops.dedup:dup_clusters",
    "dup_spans": "raytiles.ops.dedup:dup_spans",
    "per_source_cap": "raytiles.ops.webcorpus:per_source_cap",
    "source_kl": "raytiles.ops.webcorpus:source_kl",
    "train_split": "raytiles.ops.webcorpus:train_split",
    "video_frames": "raytiles.ops.video:video_frames",
    "video_meta": "raytiles.ops.video:video_meta",
    "temperature_weights": "raytiles.ops.webcorpus:temperature_weights",
    "curation_manifest": "raytiles.ops.webcorpus:curation_manifest",
    "dedup_survivors": "raytiles.ops.dedup:dedup_survivors",
    "simhash": "raytiles.ops.dedup:simhash",
    # similarity search
    "knn": "raytiles.ops.similarity:knn_bruteforce",
    "knn_ivf": "raytiles.ops.similarity:knn_ivf",
    "knn_pq": "raytiles.ops.similarity:knn_pq",
    "lsh_neardup": _q_lsh_neardup,
    "kmeans_clusters": "raytiles.ops.cluster:kmeans",
    "train_quality_lr": "raytiles.ops.cluster:train_quality_lr",
    "pca_project": "raytiles.ops.linalg:pca_project",
    "semantic_dedup": "raytiles.ops.cluster:semantic_dedup",
    # fingerprints / multimodal
    "winnow_fingerprints": "raytiles.ops.text:winnow_fingerprints",
    "media_meta": ("raytiles.ops.media:media_meta",),
    "media_features": ("raytiles.ops.media:media_features",),
    "media_frames": ("raytiles.ops.media:media_frames",),
    "media_resize": ("raytiles.ops.media:media_resize",),
    "media_decode": "raytiles.ops.image:media_decode",
    "media_png": "raytiles.ops.png:media_png_decode",
    "media_thumbnails": "raytiles.ops.image:media_thumbnails",
    "audio_decode": "raytiles.ops.audio:audio_decode",
}


def _load(target: str) -> Callable[..., Any]:
    """Import ``module:function`` and return the function."""
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


def _resolve(target: Any) -> Callable[[str], Any]:
    """The query callable for one table entry. Its module is imported
    when the query runs, not here, so a module that fails to import
    fails only its own queries."""
    if callable(target):
        return target
    if isinstance(target, str):
        return lambda sf_dir: _load(target)(sf_dir)
    ref, *consts = target

    def over_webpages(sf_dir: str) -> Any:
        from raytiles.pipeline.synth import webpages_path
        return _load(ref)(webpages_path(sf_dir), *consts)
    return over_webpages


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: _resolve(t) for name, t in QUERY_TABLE.items()}


def oracle_sql() -> dict[str, str]:
    from raytiles import oracles
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(SF_ORACLE)  # materialized deterministically on demand
    return {
        "geoparse": oracles.geoparse_sql(wp),
        # the JSONL path must parse to the same mentions as parquet
        "jsonl_roundtrip": oracles.geoparse_sql(wp),
        "jsonl_gz_roundtrip": oracles.geoparse_sql(wp),
        "hive_partition": oracles.geoparse_lang_sql(wp),
        "warc_roundtrip": oracles.geoparse_sql(wp),
        "ipc_roundtrip": oracles.geoparse_sql(wp),
        "csv_roundtrip": oracles.geoparse_sql(wp),
        "orc_roundtrip": oracles.geoparse_sql(wp),
        "tfrecord_roundtrip": oracles.geoparse_sql(wp),
        "wds_roundtrip": oracles.geoparse_sql(wp),
        "npz_roundtrip": oracles.NPZ_ROUNDTRIP_SQL,
        "tile_assign": oracles.tile_assign_sql(wp),
        "tile_counts": oracles.tile_counts_sql(wp),
        "cell_counts": oracles.cell_counts_sql(wp),
        "iceberg_cells": oracles.iceberg_cells_sql(wp),
        # tiles_mvt / mvt_roundtrip: binary codec output, rows-only
        "pricing_summary": oracles.PRICING_SUMMARY_SQL,
        "top_customers": oracles.TOP_CUSTOMERS_SQL,
        "events_hourly": oracles.EVENTS_HOURLY_SQL,
        "events_sliding": oracles.EVENTS_SLIDING_SQL,
        "events_sessions": oracles.EVENTS_SESSIONS_SQL,
        "events_asof": oracles.events_asof_sql(),
        "events_watermark": oracles.events_watermark_sql(),
        "events_gapfill": oracles.EVENTS_GAPFILL_SQL,
        "events_rollup": oracles.EVENTS_ROLLUP_SQL,
        "events_pivot": oracles.EVENTS_PIVOT_SQL,
        "value_outliers": oracles.value_outliers_sql(),
        "interval_coverage": oracles.interval_coverage_sql(),
        "rolling_dau": oracles.rolling_dau_sql(),
        "weighted_sample": oracles.weighted_sample_sql(),
        "events_deciles": oracles.EVENTS_DECILES_SQL,
        "user_journeys": oracles.USER_JOURNEYS_SQL,
        "fuzzy_search": oracles.fuzzy_search_sql(),
        "unpivot_lineitem": oracles.UNPIVOT_LINEITEM_SQL,
        "props_extract": oracles.PROPS_EXTRACT_SQL,
        "churned_users": oracles.churned_users_sql(),
        "value_time_corr": oracles.VALUE_TIME_CORR_SQL,
        "quantile_cont": oracles.quantile_cont_sql(),
        "journey_pattern": oracles.journey_pattern_sql(),
        "new_users_curve": oracles.NEW_USERS_CURVE_SQL,
        "time_weighted_value": oracles.TIME_WEIGHTED_VALUE_SQL,
        "audience_overlap": oracles.AUDIENCE_OVERLAP_SQL,
        "mad_stats": oracles.MAD_STATS_SQL,
        "loyal_users": oracles.loyal_users_sql(),
        "wow_growth": oracles.WOW_GROWTH_SQL,
        "order_discount_factor": oracles.ORDER_DISCOUNT_FACTOR_SQL,
        "char_trigrams": oracles.char_trigrams_sql(),
        "chi2_type_hour": oracles.CHI2_TYPE_HOUR_SQL,
        "winsorized_mean": oracles.winsorized_mean_sql(),
        "profile_table": oracles.profile_table_sql(),
        "oov_rate": oracles.oov_rate_sql(),
        "order_gini": oracles.ORDER_GINI_SQL,
        "value_histogram": oracles.value_histogram_sql(),
        "order_revenue": oracles.ORDER_REVENUE_SQL,
        "order_revenue_left": oracles.ORDER_REVENUE_LEFT_SQL,
        "nation_revenue": oracles.NATION_REVENUE_SQL,
        "late_orders": oracles.LATE_ORDERS_SQL,
        "user_entropy": oracles.USER_ENTROPY_SQL,
        "pareto_orders": oracles.PARETO_ORDERS_SQL,
        "order_price_ranks": oracles.ORDER_PRICE_RANKS_SQL,
        "idle_customers": oracles.IDLE_CUSTOMERS_SQL,
        "waiting_suppliers": oracles.WAITING_SUPPLIERS_SQL,
        "shipping_priority": oracles.SHIPPING_PRIORITY_SQL,
        "ship_volume": oracles.SHIP_VOLUME_SQL,
        "market_share": oracles.MARKET_SHARE_SQL,
        "product_profit": oracles.PRODUCT_PROFIT_SQL,
        "important_parts": oracles.IMPORTANT_PARTS_SQL,
        "custdist": oracles.CUSTDIST_SQL,
        "top_supplier": oracles.TOP_SUPPLIER_SQL,
        "part_supp_counts": oracles.PART_SUPP_COUNTS_SQL,
        "big_orders": oracles.BIG_ORDERS_SQL,
        "banded_revenue": oracles.BANDED_REVENUE_SQL,
        "excess_shippers": oracles.EXCESS_SHIPPERS_SQL,
        "min_cost_supplier": oracles.MIN_COST_SUPPLIER_SQL,
        "promo_revenue": oracles.PROMO_REVENUE_SQL,
        "top_suppliers": oracles.TOP_SUPPLIERS_SQL,
        "brand_type_stats": oracles.BRAND_TYPE_STATS_SQL,
        "cohort_revenue_full": oracles.COHORT_REVENUE_FULL_SQL,
        "small_quantity_revenue": oracles.SMALL_QUANTITY_REVENUE_SQL,
        "group_stats": oracles.GROUP_STATS_SQL,
        "user_features": oracles.USER_FEATURES_SQL,
        "funnel_conversion": oracles.FUNNEL_CONVERSION_SQL,
        "urgent_revenue": oracles.URGENT_REVENUE_SQL,
        "cohort_retention": oracles.COHORT_RETENTION_SQL,
        "running_revenue": oracles.RUNNING_REVENUE_SQL,
        "top_orders": oracles.top_orders_sql(),
        "stratified_sample": oracles.stratified_sample_sql(),
        "group_quantiles": oracles.group_quantiles_sql(),
        "hdr_quantiles": oracles.hdr_quantiles_sql(),
        "range_join_bands": oracles.range_join_sql(),
        "distinct_users": oracles.DISTINCT_USERS_SQL,
        "extract_text": oracles.extract_text_sql(wp),
        "redact_locations": oracles.redact_locations_sql(wp),
        "morton_cells": oracles.morton_cells_sql(wp),
        "quadkeys": oracles.quadkeys_sql(wp),
        "geohashes": oracles.geohashes_sql(wp),
        "tile_pyramid": oracles.tile_pyramid_sql(wp),
        "raster_cells": oracles.raster_cells_sql(wp),
        "point_clusters": oracles.point_clusters_sql(wp),
        "raster_blur": oracles.raster_blur_sql(wp),
        "iso_segments": oracles.iso_segments_sql(wp),
        "cell_compact": oracles.cell_compact_sql(wp),
        "tile_neighborhood": oracles.tile_neighborhood_sql(wp),
        "geofence_join": oracles.geofence_join_sql(wp),
        "comention_edges": oracles.comention_edges_sql(wp),
        "cell_pagerank": oracles.pagerank_sql(wp),
        "simhash": oracles.SIMHASH_SQL,
        "cell_triangles": oracles.cell_triangles_sql(wp),
        "hotspot_regions": oracles.hotspot_regions_sql(wp),
        "trajectory_lengths": oracles.trajectory_lengths_sql(wp),
        "segment_bearings": oracles.segment_bearings_sql(wp),
        "kmv_distinct": oracles.KMV_DISTINCT_SQL,
        "zipf_slope": oracles.ZIPF_SLOPE_SQL,
        "type_token_ratio": oracles.TYPE_TOKEN_RATIO_SQL,
        "nb_lang_classify": oracles.NB_LANG_CLASSIFY_SQL,
        "events_ewma": oracles.events_ewma_sql(),
        "events_debounce": oracles.events_debounce_sql(),
        "events_cusum": oracles.events_cusum_sql(),
        "type_affinity": oracles.TYPE_AFFINITY_SQL,
        "orders_seasonality": oracles.ORDERS_SEASONALITY_SQL,
        "kmeans_exact": oracles.kmeans_exact_sql(),
        "bm25_search": oracles.BM25_SEARCH_SQL,
        "hybrid_search": oracles.HYBRID_SEARCH_SQL,
        "nearest_city": oracles.nearest_city_sql(wp),
        "host_bbox": oracles.host_bbox_sql(wp),
        "tile_adjacency": oracles.tile_adjacency_sql(wp),
        "tile_moran": oracles.tile_moran_sql(wp),
        "tile_components": oracles.tile_components_sql(wp),
        "tile_hotspots": oracles.tile_hotspots_sql(wp),
        "host_tile_cover": oracles.host_tile_cover_sql(wp),
        "host_stats": oracles.host_stats_sql(wp),
        "cust_anti_join": oracles.customers_without_big_orders_sql(),
        "decontaminate": oracles.decontaminate_sql(),
        "doc_repetition": oracles.DOC_REPETITION_SQL,
        "token_counts": oracles.TOKEN_COUNTS_SQL,
        "quality_scores": oracles.QUALITY_SCORES_SQL,
        "lang_id": oracles.LANG_ID_SQL,
        "doc_md5": oracles.DOC_MD5_SQL,
        "vocab_topk": oracles.vocab_topk_sql(),
        "doc_top_terms": oracles.doc_top_terms_sql(),
        "median_filter": oracles.MEDIAN_LENGTH_FILTER_SQL,
        "doc_tfidf": oracles.doc_tfidf_sql(),
        "inverted_index": oracles.inverted_index_sql(),
        "bpe_tokens": oracles.bpe_token_counts_sql(),
        "doc_rank": oracles.DOC_RANK_SQL,
        "boilerplate": oracles.boilerplate_ngrams_sql(),
        "chunk_documents": oracles.chunk_documents_sql(),
        "dedup_chunks": oracles.dedup_chunks_sql(),
        "bigram_pmi": oracles.bigram_pmi_sql(),
        "events_range_window": oracles.events_range_window_sql(),
        "events_lag": oracles.events_lag_sql(),
        "event_transitions": oracles.EVENT_TRANSITIONS_SQL,
        "events_ohlc": oracles.EVENTS_OHLC_SQL,
        "user_value_history": oracles.USER_VALUE_HISTORY_SQL,
        "events_moving_sum": oracles.events_moving_sum_sql(),
        "group_mode": oracles.GROUP_MODE_SQL,
        "feature_hashing": oracles.feature_hashing_sql(),
        "token_entropy": oracles.token_entropy_sql(),
        "bigram_logprob": oracles.bigram_logprob_sql(),
        "lang_percentiles": oracles.lang_percentiles_sql(),
        "corpus_checksums": oracles.corpus_checksums_sql(),
        "pack_sequences": oracles.pack_sequences_sql(),
        "unigram_logprob": oracles.unigram_logprob_sql(),
        "mixture_sample": oracles.MIXTURE_SAMPLE_SQL,
        "exact_dedup": oracles.EXACT_DEDUP_SQL,
        "normalized_dedup": oracles.NORMALIZED_DEDUP_SQL,
        "minhash_bands": oracles.minhash_bands_sql(),
        "minhash_pairs": oracles.minhash_pairs_sql(),
        "minhash_overflow": oracles.minhash_overflow_sql(),
        "jaccard_pairs": oracles.jaccard_pairs_sql(),
        "dup_clusters": oracles.dup_clusters_sql(),
        "dup_spans": oracles.dup_spans_sql(),
        "per_source_cap": oracles.PER_SOURCE_CAP_SQL,
        "source_kl": oracles.source_kl_sql(),
        "train_split": oracles.train_split_sql(),
        "temperature_weights": oracles.TEMPERATURE_WEIGHTS_SQL,
        "curation_manifest": oracles.CURATION_MANIFEST_SQL,
        "dedup_survivors": oracles.dedup_survivors_sql(),
        # simhash / lsh_neardup / winnow_fingerprints / media_features:
        # rows-only (non-SQL-expressible or approximate)
        "knn": oracles.knn_sql(),
        "media_meta": oracles.media_meta_sql(wp),
    }
