"""Driver contract for the raytiles engine (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash).

Ray is initialised by the driver BEFORE this module is imported: no
ray.init()/ray.shutdown() here or in the library code these call.
"""

from __future__ import annotations

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
# tiling-family queries (over the deterministic synthetic webpages table)
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


def _q_tiles_mvt(sf_dir: str):
    """Full flagship output incl. the encoded MVT bytes (no SQL twin —
    binary codec output; roundtrip correctness is checked by
    mvt_roundtrip and pytest)."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.synth import webpages_path
    return tiles_pipeline(webpages_path(sf_dir), 12)


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


# ---------------------------------------------------------------------------
# relational / text / dedup / similarity over the testdata tables
# ---------------------------------------------------------------------------

def _q_iceberg_cells(sf_dir: str):
    """Iceberg query: grid cells above a global-share ppm threshold
    (bounded cell table + driver total fold)."""
    from raytiles.pipeline.flagship import iceberg_cells_pipeline
    from raytiles.pipeline.synth import webpages_path
    return iceberg_cells_pipeline(webpages_path(sf_dir))


def _q_pricing(sf_dir: str):
    from raytiles.ops.relational import pricing_summary
    return pricing_summary(sf_dir)


def _q_top_customers(sf_dir: str):
    from raytiles.ops.relational import top_customers
    return top_customers(sf_dir)


def _q_events_hourly(sf_dir: str):
    from raytiles.ops.relational import events_hourly
    return events_hourly(sf_dir)


def _q_events_sliding(sf_dir: str):
    from raytiles.ops.relational import events_sliding
    return events_sliding(sf_dir)


def _q_events_sessions(sf_dir: str):
    from raytiles.ops.relational import events_sessions
    return events_sessions(sf_dir)


def _q_extract_text(sf_dir: str):
    from raytiles.ops.extract import extract_text
    from raytiles.pipeline.synth import webpages_path
    return extract_text(webpages_path(sf_dir))


def _q_redact_locations(sf_dir: str):
    from raytiles.ops.extract import redact_locations
    from raytiles.pipeline.synth import webpages_path
    return redact_locations(webpages_path(sf_dir))


def _q_trajectories(sf_dir: str):
    """Distributed LINESTRING encoding (generic codec path); rows-only
    — pytest decodes the output back against a pandas oracle."""
    from raytiles.pipeline.synth import webpages_path
    from raytiles.pipeline.trajectories import trajectories_pipeline
    return trajectories_pipeline(webpages_path(sf_dir), 6)


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


def _q_heatmap_mvt(sf_dir: str):
    """Raster -> vector roundtrip: density grids vectorized to polygon
    MVT layers via the generic encoder (rows-only; pytest decodes the
    output back and checks counts)."""
    from raytiles.ops.raster import heatmap_pipeline
    from raytiles.pipeline.synth import webpages_path
    return heatmap_pipeline(webpages_path(sf_dir), 8)


def _q_tile_neighborhood(sf_dir: str):
    from raytiles.ops.raster import tile_neighborhood
    from raytiles.pipeline.synth import webpages_path
    return tile_neighborhood(webpages_path(sf_dir), 12)


def _q_token_counts(sf_dir: str):
    from raytiles.ops.text import token_counts
    return token_counts(sf_dir)


def _q_quality(sf_dir: str):
    from raytiles.ops.text import quality_scores
    return quality_scores(sf_dir)


def _q_lang_id(sf_dir: str):
    from raytiles.ops.text import lang_id
    return lang_id(sf_dir)


def _q_doc_md5(sf_dir: str):
    from raytiles.ops.text import doc_md5
    return doc_md5(sf_dir)


def _q_exact_dedup(sf_dir: str):
    from raytiles.ops.dedup import exact_dedup
    return exact_dedup(sf_dir)


def _q_minhash_bands(sf_dir: str):
    from raytiles.ops.dedup import minhash_bands
    return minhash_bands(sf_dir)


def _q_minhash_pairs(sf_dir: str):
    from raytiles.ops.dedup import minhash_pairs
    return minhash_pairs(sf_dir)


def _q_jaccard_pairs(sf_dir: str):
    from raytiles.ops.dedup import jaccard_verify
    return jaccard_verify(sf_dir)


def _q_per_source_cap(sf_dir: str):
    """Host-level downsampling: keep k smallest doc_ids per source via
    bounded per-batch top-k partials + one bucket groupby."""
    from raytiles.ops.webcorpus import per_source_cap
    return per_source_cap(sf_dir)


def _q_source_kl(sf_dir: str):
    """Data-mixing diagnostic: per-source KL divergence from the
    corpus unigram distribution over the top-V vocabulary."""
    from raytiles.ops.webcorpus import source_kl
    return source_kl(sf_dir)


def _q_video_frames(sf_dir: str):
    """REAL video pipeline: RVC container parse -> uniform temporal
    frame sampling -> real BMP decode per sampled frame (exact channel
    sums). Rows-only; pytest pins bit-exact ground truth."""
    from raytiles.ops.video import video_frames
    return video_frames(sf_dir)


def _q_video_meta(sf_dir: str):
    """Container-level video manifest (frame counts, fps, byte sizes)
    without decoding any frame body."""
    from raytiles.ops.video import video_meta
    return video_meta(sf_dir)


def _q_train_split(sf_dir: str):
    """Deterministic hash train/val/test split (stable across reruns),
    stratified summary per (source, split)."""
    from raytiles.ops.webcorpus import train_split
    return train_split(sf_dir)


def _q_curation_manifest(sf_dir: str):
    """End-to-end curation decision per doc: distributed dedup
    survivorship x quality x lang x broadcast mixture weight, joined
    in one bounded splitmix(doc_id) bucket shuffle."""
    from raytiles.ops.webcorpus import curation_manifest
    return curation_manifest(sf_dir)


def _q_temperature_weights(sf_dir: str):
    """Temperature-scaled domain-mixing weights w = (n/N)^alpha with
    effective epochs, normalized over the result-sized source table."""
    from raytiles.ops.webcorpus import temperature_weights
    return temperature_weights(sf_dir)


def _q_dup_spans(sf_dir: str):
    """Substring-level duplication: per-doc duplicated-shingle ppm via
    two bounded 512-bucket shuffles (hash-partitioned shingle counts,
    then per-doc merge)."""
    from raytiles.ops.dedup import dup_spans
    return dup_spans(sf_dir)


def _q_dup_clusters(sf_dir: str):
    from raytiles.ops.dedup import dup_clusters
    return dup_clusters(sf_dir)


def _q_dedup_survivors(sf_dir: str):
    from raytiles.ops.dedup import dedup_survivors
    return dedup_survivors(sf_dir)


def _q_events_asof(sf_dir: str):
    from raytiles.ops.relational import events_asof
    return events_asof(sf_dir)


def _q_top_orders(sf_dir: str):
    from raytiles.ops.groupops import top_orders_per_customer
    return top_orders_per_customer(sf_dir)


def _q_stratified_sample(sf_dir: str):
    from raytiles.ops.groupops import stratified_sample
    return stratified_sample(sf_dir)


def _q_group_quantiles(sf_dir: str):
    from raytiles.ops.groupops import group_quantiles
    return group_quantiles(sf_dir)


def _q_range_join(sf_dir: str):
    from raytiles.ops.groupops import orders_price_bands
    return orders_price_bands(sf_dir)


def _q_distinct_users(sf_dir: str):
    from raytiles.ops.groupops import distinct_users
    return distinct_users(sf_dir)


def _q_vocab_topk(sf_dir: str):
    from raytiles.ops.text import vocab_topk
    return vocab_topk(sf_dir)


def _q_doc_top_terms(sf_dir: str):
    from raytiles.ops.text import doc_top_terms
    return doc_top_terms(sf_dir)


def _q_median_filter(sf_dir: str):
    from raytiles.ops.text import median_length_filter
    return median_length_filter(sf_dir)


def _q_doc_tfidf(sf_dir: str):
    from raytiles.ops.text import doc_tfidf_top
    return doc_tfidf_top(sf_dir)


def _q_normalized_dedup(sf_dir: str):
    from raytiles.ops.dedup import exact_dedup
    return exact_dedup(sf_dir, normalize=True)


def _q_boilerplate(sf_dir: str):
    from raytiles.ops.webcorpus import boilerplate_ngrams
    return boilerplate_ngrams(sf_dir)


def _q_doc_rank(sf_dir: str):
    from raytiles.ops.text import doc_rank
    return doc_rank(sf_dir)


def _q_bpe_tokens(sf_dir: str):
    from raytiles.ops.text import bpe_token_counts
    return bpe_token_counts(sf_dir)


def _q_inverted_index(sf_dir: str):
    from raytiles.ops.text import inverted_index
    return inverted_index(sf_dir)


def _q_funnel(sf_dir: str):
    from raytiles.ops.relational import funnel_conversion
    return funnel_conversion(sf_dir)


def _q_cohort_retention(sf_dir: str):
    from raytiles.ops.relational import cohort_retention
    return cohort_retention(sf_dir)


def _q_value_histogram(sf_dir: str):
    """Fixed-width numeric histogram per event_type."""
    from raytiles.ops.relational import value_histogram
    return value_histogram(sf_dir)


def _q_events_rollup(sf_dir: str):
    """OLAP GROUPING SETS rollup in one pass (bounded x3 fan-out of
    pre-aggregated partials)."""
    from raytiles.ops.relational import events_rollup
    return events_rollup(sf_dir)


def _q_events_gapfill(sf_dir: str):
    """Time-series densification: hourly windows per event_type with
    missing hours filled (n_events = 0)."""
    from raytiles.ops.relational import events_gapfill
    return events_gapfill(sf_dir)


def _q_events_pivot(sf_dir: str):
    """Hourly cross-tab: one count column per event_type (bounded
    pivot domain) plus the hour's value sum."""
    from raytiles.ops.relational import events_pivot
    return events_pivot(sf_dir)


def _q_value_outliers(sf_dir: str):
    """Per-type z-score anomaly filter (two-phase: bounded moment
    reduce, broadcast stats, streaming filter)."""
    from raytiles.ops.relational import value_outliers
    return value_outliers(sf_dir)


def _q_interval_coverage(sf_dir: str):
    """Merged-interval activity coverage per user (int64-us exact
    interval union via bucketed grouped scan)."""
    from raytiles.ops.relational import interval_coverage
    return interval_coverage(sf_dir)


def _q_rolling_dau(sf_dir: str):
    """Exact DAU + trailing-7-day distinct users via user-hash-
    partitioned presence matrices (distinct decomposes by user)."""
    from raytiles.ops.relational import rolling_dau
    return rolling_dau(sf_dir)


def _q_weighted_sample(sf_dir: str):
    """Deterministic Efraimidis-Spirakis weighted sample (md5-derived
    priorities, partial top-k per batch)."""
    from raytiles.ops.groupops import weighted_sample
    return weighted_sample(sf_dir)


def _q_events_deciles(sf_dir: str):
    """Exact rank-based decile stats from the bounded cent-quantized
    count table (domain-bounded, not row-bounded)."""
    from raytiles.ops.relational import events_deciles
    return events_deciles(sf_dir)


def _q_user_journeys(sf_dir: str):
    """Ordered per-user event-sequence strings (bucketed lexsort +
    buffer-slice concat)."""
    from raytiles.ops.relational import user_journeys
    return user_journeys(sf_dir)


def _q_fuzzy_search(sf_dir: str):
    """Typo-tolerant corpus search: batch-vectorized wavefront
    Levenshtein DP + partial top-k."""
    from raytiles.ops.text import fuzzy_search
    return fuzzy_search(sf_dir)


def _q_unpivot_lineitem(sf_dir: str):
    """UNPIVOT/melt of the four lineitem measures (shuffle-free x4
    in-batch fan-out)."""
    from raytiles.ops.relational import unpivot_lineitem
    return unpivot_lineitem(sf_dir)


def _q_props_extract(sf_dir: str):
    """JSON scalar extraction (Arrow RE2 kernel) + bounded grouped
    integer aggregate."""
    from raytiles.ops.relational import props_extract
    return props_extract(sf_dir)


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


def _q_value_time_corr(sf_dir: str):
    """Grouped Pearson correlation from six raw moments (identical
    formula in the twin)."""
    from raytiles.ops.relational import value_time_corr
    return value_time_corr(sf_dir)


def _q_quantile_cont(sf_dir: str):
    """Interpolated per-type quantiles from the bounded cent-count
    domain (PERCENTILE_CONT semantics, identical interpolation ops)."""
    from raytiles.ops.relational import quantile_cont
    return quantile_cont(sf_dir)


def _q_journey_pattern(sf_dir: str):
    """CEP-style sequence-pattern counts over ordered user journeys
    (signup ->* purchase)."""
    from raytiles.ops.relational import journey_pattern
    return journey_pattern(sf_dir)


def _q_new_users_curve(sf_dir: str):
    """User-acquisition curve: first-seen-day histogram + running
    cumulative over the dense day axis."""
    from raytiles.ops.relational import new_users_curve
    return new_users_curve(sf_dir)


def _q_time_weighted_value(sf_dir: str):
    """Time-weighted average value per user (exact int64
    cent-microsecond integral, bucketed scan)."""
    from raytiles.ops.relational import time_weighted_value
    return time_weighted_value(sf_dir)


def _q_audience_overlap(sf_dir: str):
    """Pairwise distinct-user overlap + Jaccard between event-type
    audiences (user-partitioned presence masks)."""
    from raytiles.ops.relational import audience_overlap
    return audience_overlap(sf_dir)


def _q_mad_stats(sf_dir: str):
    """Robust median + MAD per type from the bounded cent-count
    domain."""
    from raytiles.ops.relational import mad_stats
    return mad_stats(sf_dir)


def _q_loyal_users(sf_dir: str):
    """Relational division: users with a purchase in EVERY week of
    the range (bucketed distinct-set fold)."""
    from raytiles.ops.relational import loyal_users
    return loyal_users(sf_dir)


def _q_wow_growth(sf_dir: str):
    """Week-over-week growth per type: LAG + pct change over the
    bounded weekly aggregate."""
    from raytiles.ops.relational import wow_growth
    return wow_growth(sf_dir)


def _q_order_discount_factor(sf_dir: str):
    """Multiplicative aggregate: compound discount factor per order
    via segmented products."""
    from raytiles.ops.relational import order_discount_factor
    return order_discount_factor(sf_dir)


def _q_char_trigrams(sf_dir: str):
    """Per-lang character-trigram top-k profile (packed-int trigram
    keys, vocabulary-bounded state)."""
    from raytiles.ops.text import char_trigrams
    return char_trigrams(sf_dir)


def _q_chi2_type_hour(sf_dir: str):
    """Chi-square independence + Cramér's V over the bounded
    (type x hour) contingency domain."""
    from raytiles.ops.relational import chi2_type_hour
    return chi2_type_hour(sf_dir)


def _q_winsorized_mean(sf_dir: str):
    """Outlier-robust winsorized mean per type from the bounded
    cent-count domain (exact integer clamping)."""
    from raytiles.ops.relational import winsorized_mean
    return winsorized_mean(sf_dir)


def _q_profile_table(sf_dir: str):
    """Column profiling of the documents table (exact distinct via
    md5-u64 buckets; raw values never shuffle)."""
    from raytiles.ops.profile import profile_table
    return profile_table(sf_dir)


def _q_oov_rate(sf_dir: str):
    """Out-of-vocabulary ppm per doc (broadcast top-V vocab,
    shuffle-free membership pass)."""
    from raytiles.ops.text import oov_rate
    return oov_rate(sf_dir)


def _q_order_gini(sf_dir: str):
    """Gini concentration of orders per customer from the bounded
    count-of-counts histogram."""
    from raytiles.ops.relational import order_gini
    return order_gini(sf_dir)


def _q_events_watermark(sf_dir: str):
    """Streaming watermark / late-data flagging via a distributed
    prefix scan (bucket-local cummax + broadcast cross-bucket carry)."""
    from raytiles.ops.relational import events_watermark
    return events_watermark(sf_dir)


def _q_urgent_revenue(sf_dir: str):
    from raytiles.ops.relational import urgent_revenue
    return urgent_revenue(sf_dir)


def _q_running_revenue(sf_dir: str):
    from raytiles.ops.relational import running_revenue
    return running_revenue(sf_dir)


def _q_user_features(sf_dir: str):
    from raytiles.ops.relational import user_features
    return user_features(sf_dir)


def _q_order_revenue(sf_dir: str):
    from raytiles.ops.relational import order_revenue
    return order_revenue(sf_dir)


def _q_order_revenue_left(sf_dir: str):
    """LEFT OUTER big-big join: every open order, null-filled revenue."""
    from raytiles.ops.relational import order_revenue_left
    return order_revenue_left(sf_dir)


def _q_small_quantity_revenue(sf_dir: str):
    """Correlated-aggregate join (Q17 shape) decorrelated into a
    broadcast two-pass plan (per-part thresholds broadcast back)."""
    from raytiles.ops.relational import small_quantity_revenue
    return small_quantity_revenue(sf_dir)


def _q_cohort_revenue_full(sf_dir: str):
    """FULL OUTER join of two buying-cohort years (churned, new, and
    retained customers all preserved; both null directions live)."""
    from raytiles.ops.relational import cohort_revenue_full
    return cohort_revenue_full(sf_dir)


def _q_user_entropy(sf_dir: str):
    """Per-user Shannon entropy of event types via bounded
    splitmix(user) bucket shuffle of (user, type) count partials."""
    from raytiles.ops.relational import user_entropy
    return user_entropy(sf_dir)


def _q_late_orders(sf_dir: str):
    """EXISTS semi-join (TPC-H Q4 shape): per-priority late-order
    counts via one splitmix(orderkey) bucket shuffle of per-order
    max-ship partials."""
    from raytiles.ops.relational import late_orders
    return late_orders(sf_dir)


def _q_pareto_orders(sf_dir: str):
    """2-D skyline (Pareto frontier) over orders: mergeable
    skyline-of-skylines partials, exact-cents frontier test."""
    from raytiles.ops.relational import pareto_orders
    return pareto_orders(sf_dir)


def _q_idle_customers(sf_dir: str):
    """TPC-H Q22 shape: exact-integer global-average threshold +
    bucketed anti-join against recent orders, per-nation counts."""
    from raytiles.ops.relational import idle_customers
    return idle_customers(sf_dir)


def _q_waiting_suppliers(sf_dir: str):
    """TPC-H Q21 shape: per-order supplier-set analysis (exactly one
    late supplier on multi-supplier 'F' orders) via one bounded
    splitmix(orderkey) bucket shuffle."""
    from raytiles.ops.relational import waiting_suppliers
    return waiting_suppliers(sf_dir)


def _q_order_price_ranks(sf_dir: str):
    """TeraSort-pattern global sort: hash-sampled range splits, exact
    prefix offsets, one bucket shuffle -> exact global row_number."""
    from raytiles.ops.relational import order_price_ranks
    return order_price_ranks(sf_dir)


def _q_nation_revenue(sf_dir: str):
    """TPC-H Q5-shape multi-way join: lineitem partials |><| orders
    (partitioned hash join) |><| customer+nation (broadcast dims)."""
    from raytiles.ops.relational import nation_revenue
    return nation_revenue(sf_dir)


def _q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape: segment-broadcast order filter, per-order
    int-cent lineitem partials, bounded hash join, partial top-k."""
    from raytiles.ops.warehouse import shipping_priority
    return shipping_priority(sf_dir)


def _q_ship_volume(sf_dir: str):
    """TPC-H Q7 shape (region pair): broadcast supp/cust region dims,
    per-(order, region, year) partials, one bounded hash join."""
    from raytiles.ops.warehouse import ship_volume
    return ship_volume(sf_dir)


def _q_market_share(sf_dir: str):
    """TPC-H Q8 shape: per-year revenue share of one nation; exact
    int-cent num/den carried separately, share divided at the end."""
    from raytiles.ops.warehouse import market_share
    return market_share(sf_dir)


def _q_product_profit(sf_dir: str):
    """TPC-H Q9 shape: signed profit cents per supplier nation x ship
    year; dual broadcast dims, shuffle-free bounded-domain partials."""
    from raytiles.ops.warehouse import product_profit
    return product_profit(sf_dir)


def _q_important_parts(sf_dir: str):
    """TPC-H Q11 shape: global-revenue-share threshold as an exact
    integer cross-multiplication over catalog-bounded per-part sums."""
    from raytiles.ops.warehouse import important_parts
    return important_parts(sf_dir)


def _q_custdist(sf_dir: str):
    """TPC-H Q13 shape: order-count histogram per customer including
    the zero bin (derived arithmetically, no join against customer)."""
    from raytiles.ops.warehouse import custdist
    return custdist(sf_dir)


def _q_top_supplier(sf_dir: str):
    """TPC-H Q15 shape: max-revenue supplier(s) over a ship window,
    scalar-max filter in the catalog-bounded merge block."""
    from raytiles.ops.warehouse import top_supplier
    return top_supplier(sf_dir)


def _q_part_supp_counts(sf_dir: str):
    """TPC-H Q16 shape: distinct suppliers per part attribute group
    from the observed pair relation; two bounded distinct shuffles."""
    from raytiles.ops.warehouse import part_supp_counts
    return part_supp_counts(sf_dir)


def _q_big_orders(sf_dir: str):
    """TPC-H Q18 shape: HAVING sum(qty) > T on int quantities, then a
    bounded hash join back to orders + broadcast customer names."""
    from raytiles.ops.warehouse import big_orders
    return big_orders(sf_dir)


def _q_banded_revenue(sf_dir: str):
    """TPC-H Q19 shape: OR of three (brand, size, qty) bands folded to
    a broadcast partkey -> band map; shuffle-free filter + fold."""
    from raytiles.ops.warehouse import banded_revenue
    return banded_revenue(sf_dir)


def _q_excess_shippers(sf_dir: str):
    """TPC-H Q20 shape: suppliers shipping > 30% of a part's windowed
    volume; exact integer fraction test inside part-bucketed groups."""
    from raytiles.ops.warehouse import excess_shippers
    return excess_shippers(sf_dir)


def _q_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape: argmin-per-part supplier by exact total cents
    with suppkey tie-break, inside one part-bucketed shuffle."""
    from raytiles.ops.warehouse import min_cost_supplier
    return min_cost_supplier(sf_dir)


def _q_promo_revenue(sf_dir: str):
    """TPC-H Q14-shape: monthly PROMO revenue share; broadcast
    partkey -> is_promo lookup + exact-cents partial sums."""
    from raytiles.ops.partdim import promo_revenue
    return promo_revenue(sf_dir)


def _q_top_suppliers(sf_dir: str):
    """TPC-H Q15-shape: top-5 suppliers by 3-month revenue; per-batch
    suppkey partials, broadcast s_name join, sort+limit on the tiny
    aggregate."""
    from raytiles.ops.partdim import top_suppliers
    return top_suppliers(sf_dir)


def _q_brand_type_stats(sf_dir: str):
    """TPC-H Q16-flavor: per (brand, type) exact distinct-part count
    via bounded splitmix(partkey) buckets (disjoint partkeys sum
    exactly), plus quantity and cents-exact revenue."""
    from raytiles.ops.partdim import brand_type_stats
    return brand_type_stats(sf_dir)


def _q_group_stats(sf_dir: str):
    """Grouped moment sketch: count / covariance / correlation of
    (quantity, price) per returnflag via (n,Sx,Sy,Sxx,Syy,Sxy)."""
    from raytiles.ops.relational import group_stats
    return group_stats(sf_dir)


def _q_user_value_history(sf_dir: str):
    """SCD-2 validity intervals from the purchase change log
    (lead()-by-shift inside user-complete buckets)."""
    from raytiles.ops.relational import user_value_history
    return user_value_history(sf_dir)


def _q_events_ohlc(sf_dir: str):
    """OHLC resample per (type, 6h bucket) on mergeable first/last
    aggregates (argmin-key partials; layout-independent by proof)."""
    from raytiles.ops.relational import events_ohlc
    return events_ohlc(sf_dir)


def _q_event_transitions(sf_dir: str):
    """Markov transition counts over per-user event streams (bounded
    user-bucket shuffle; bucket reduces to the 25-cell type-pair
    domain before leaving the reducer)."""
    from raytiles.ops.relational import event_transitions
    return event_transitions(sf_dir)


def _q_train_quality_lr(sf_dir: str):
    """Distributed logistic-regression training (broadcast weights,
    per-batch gradient partials, driver step — iterative ML, no SQL
    twin; pytest pins single-process-GD parity + AUC floor)."""
    from raytiles.ops.cluster import train_quality_lr
    return train_quality_lr(sf_dir)


def _q_approx_distinct(sf_dir: str):
    """HLL approximate count-distinct (no SQL twin — approximate by
    design; pytest pins accuracy vs exact and merge invariance)."""
    from raytiles.ops.sketch import approx_distinct_users
    return approx_distinct_users(sf_dir)


def _q_hll_sketches(sf_dir: str):
    """Persistable HLL sketch columns (binary registers per event
    type); pytest pins estimate parity vs approx_distinct."""
    from raytiles.ops.sketch import hll_sketches
    return hll_sketches(sf_dir)


def _q_hll_union(sf_dir: str):
    """Cross-sketch union to one corpus-wide distinct estimate
    without rereading events."""
    from raytiles.ops.sketch import hll_union
    return hll_union(sf_dir)


def _q_hdr_quantiles(sf_dir: str):
    """HDR-histogram mergeable quantile sketch — integer binning makes
    the approximate estimate a deterministic function of exact bin
    counts, so it carries a full DuckDB oracle twin."""
    from raytiles.ops.sketch import hdr_quantiles
    return hdr_quantiles(sf_dir)


def _q_heavy_hitters(sf_dir: str):
    """Misra-Gries heavy-hitters sketch over the token stream (no SQL
    twin — approximate by design; pytest pins the undercount bound and
    that every true heavy hitter survives)."""
    from raytiles.ops.sketch import heavy_hitters
    return heavy_hitters(sf_dir)


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


def _q_geofence_join(sf_dir: str):
    from raytiles.ops.spatial import geofence_join
    from raytiles.pipeline.synth import webpages_path
    return geofence_join(webpages_path(sf_dir))


def _q_comention_edges(sf_dir: str):
    """Location co-occurrence graph edges (distinct cell pairs per
    url, pre-aggregated partials, one bounded pair-bucket shuffle)."""
    from raytiles.ops.spatial import comention_edges
    from raytiles.pipeline.synth import webpages_path
    return comention_edges(webpages_path(sf_dir))


def _q_cell_pagerank(sf_dir: str):
    """Iterative PageRank over the co-mention cell graph (bounded
    node domain, one streaming edge pass per iteration)."""
    from raytiles.ops.graph import cell_pagerank
    from raytiles.pipeline.synth import webpages_path
    return cell_pagerank(webpages_path(sf_dir))


def _q_hotspot_regions(sf_dir: str):
    """Spatial hotspot detection: 8-adjacency connected components of
    dense grid cells (distributed density pass, bounded driver fold)."""
    from raytiles.ops.spatial import hotspot_regions
    from raytiles.pipeline.synth import webpages_path
    return hotspot_regions(webpages_path(sf_dir))


def _q_cell_triangles(sf_dir: str):
    """Triangle counting over the co-mention cell graph (broadcast
    forward-adjacency CSR, shuffle-free edge-iterator pass)."""
    from raytiles.ops.graph import cell_triangles
    from raytiles.pipeline.synth import webpages_path
    return cell_triangles(webpages_path(sf_dir))


def _q_trajectory_lengths(sf_dir: str):
    """Per-url great-circle polyline length (haversine, floor-mm
    per leg so distributed sums are order-free exact)."""
    from raytiles.ops.spatial import trajectory_lengths
    from raytiles.pipeline.synth import webpages_path
    return trajectory_lengths(webpages_path(sf_dir))


def _q_segment_bearings(sf_dir: str):
    """Compass-sector histogram of trajectory leg bearings (atan2
    great-circle initial bearing, 8x45-degree fold, bincount merge)."""
    from raytiles.ops.spatial import segment_bearings
    from raytiles.pipeline.synth import webpages_path
    return segment_bearings(webpages_path(sf_dir))


def _q_kmv_distinct(sf_dir: str):
    """KMV distinct-token sketch per source — k smallest md5 hashes,
    EXACT order-statistics DuckDB twin (unlike HLL)."""
    from raytiles.ops.sketch import kmv_distinct
    return kmv_distinct(sf_dir)


def _q_zipf_slope(sf_dir: str):
    """Zipf rank-frequency OLS slope per source over micro-nat
    quantized logs of the top-100 tokens."""
    from raytiles.ops.text import zipf_slope
    return zipf_slope(sf_dir)


def _q_hybrid_search(sf_dir: str):
    """RRF hybrid retrieval: BM25 lexical leg + cosine vector leg,
    per-leg nano-unit floors, exact fused integer scores."""
    from raytiles.ops.similarity import hybrid_search
    return hybrid_search(sf_dir)


def _q_bm25_search(sf_dir: str):
    """BM25 lexical top-k retrieval: bounded stats fold + broadcast
    query model + micro-quantized integer scoring, partial top-k."""
    from raytiles.ops.text import bm25_search
    return bm25_search(sf_dir)


def _q_kmeans_exact(sf_dir: str):
    """Pure-integer distributed Lloyd k-means (micro-quantized
    vectors, integer argmin, floor(sum/count) updates) — the exact
    declarative twin unrolls the iterations as CTE pairs."""
    from raytiles.ops.cluster import kmeans_exact
    return kmeans_exact(sf_dir)


def _q_orders_seasonality(sf_dir: str):
    """Monthly seasonal index (bounded domain, zero shuffles, exact
    int cents + identical division)."""
    from raytiles.ops.relational import orders_seasonality
    return orders_seasonality(sf_dir)


def _q_type_affinity(sf_dir: str):
    """Market-basket lift over event types: distinct-user pair counts
    through one user-bucket shuffle, bounded-vocabulary final."""
    from raytiles.ops.relational import type_affinity
    return type_affinity(sf_dir)


def _q_events_cusum(sf_dir: str):
    """CUSUM change-point alarms per user (stateful reset chain),
    lockstep-vectorized; recursive-CTE twin on integer micro-units."""
    from raytiles.ops.relational import events_cusum
    return events_cusum(sf_dir)


def _q_events_debounce(sf_dir: str):
    """True stateful per-user debounce (kept-chain dependence),
    vectorized in lockstep across users; recursive-CTE twin."""
    from raytiles.ops.relational import events_debounce
    return events_debounce(sf_dir)


def _q_events_ewma(sf_dir: str):
    """Finite-window EWMA per user: one bounded user-bucket shuffle,
    W-1 vectorized shift passes, literal-weight parity with the twin."""
    from raytiles.ops.relational import events_ewma
    return events_ewma(sf_dir)


def _q_nb_lang_classify(sf_dir: str):
    """Multinomial naive Bayes trained + applied distributed; exact
    INT64 micro-nat score arithmetic, argmax with lang-ASC ties."""
    from raytiles.ops.cluster import nb_lang_classify
    return nb_lang_classify(sf_dir)


def _q_type_token_ratio(sf_dir: str):
    """Per-doc lexical diversity (tokens, types, TTR) — shuffle-free
    two-hash-aggregate pass."""
    from raytiles.ops.text import type_token_ratio
    return type_token_ratio(sf_dir)


def _q_nearest_city(sf_dir: str):
    from raytiles.ops.spatial import nearest_city
    from raytiles.pipeline.synth import webpages_path
    return nearest_city(webpages_path(sf_dir))


def _q_host_bbox(sf_dir: str):
    from raytiles.ops.spatial import host_bbox
    from raytiles.pipeline.synth import webpages_path
    return host_bbox(webpages_path(sf_dir))


def _q_tile_adjacency(sf_dir: str):
    from raytiles.ops.spatial import tile_adjacency
    from raytiles.pipeline.synth import webpages_path
    return tile_adjacency(webpages_path(sf_dir), 12)


def _q_tile_moran(sf_dir: str):
    from raytiles.ops.spatial import tile_moran
    from raytiles.pipeline.synth import webpages_path
    return tile_moran(webpages_path(sf_dir), 12)


def _q_tile_components(sf_dir: str):
    from raytiles.ops.spatial import tile_components
    from raytiles.pipeline.synth import webpages_path
    return tile_components(webpages_path(sf_dir), 12)


def _q_tile_hotspots(sf_dir: str):
    from raytiles.ops.spatial import tile_hotspots
    from raytiles.pipeline.synth import webpages_path
    return tile_hotspots(webpages_path(sf_dir), 12)


def _q_host_tile_cover(sf_dir: str):
    from raytiles.ops.spatial import host_tile_cover
    from raytiles.pipeline.synth import webpages_path
    return host_tile_cover(webpages_path(sf_dir))


def _q_zonal_stats(sf_dir: str):
    """Zonal statistics: mention counts + area + density per host-hull
    zone (broadcast R-tree + vectorized convex half-plane test,
    partial counts, bounded bucket merge). Rows-only: brute-force
    all-pairs parity pinned by tests/test_spatial.py."""
    from raytiles.ops.spatial import zonal_stats
    from raytiles.pipeline.synth import webpages_path
    return zonal_stats(webpages_path(sf_dir))


def _q_cell_cover(sf_dir: str):
    """Hierarchical multi-resolution cell cover of the host-hull zones
    (S2 RegionCoverer pattern over the XYZ quadtree). Rows-only:
    disjointness / coverage / FULL-soundness / boundary-intersection
    properties pinned by tests/test_spatial.py."""
    from raytiles.ops.spatial import cell_cover
    from raytiles.pipeline.synth import webpages_path
    return cell_cover(webpages_path(sf_dir))


def _q_host_stats(sf_dir: str):
    from raytiles.ops.webcorpus import host_stats
    from raytiles.pipeline.synth import webpages_path
    return host_stats(webpages_path(sf_dir))


def _q_cust_anti_join(sf_dir: str):
    from raytiles.ops.webcorpus import customers_without_big_orders
    return customers_without_big_orders(sf_dir)


def _q_decontaminate(sf_dir: str):
    from raytiles.ops.webcorpus import decontaminate
    return decontaminate(sf_dir)


def _q_doc_repetition(sf_dir: str):
    from raytiles.ops.webcorpus import doc_repetition
    return doc_repetition(sf_dir)


def _q_simhash(sf_dir: str):
    from raytiles.ops.dedup import simhash
    return simhash(sf_dir)


def _q_knn(sf_dir: str):
    from raytiles.ops.similarity import knn_bruteforce
    return knn_bruteforce(sf_dir)


def _q_knn_ivf(sf_dir: str):
    from raytiles.ops.similarity import knn_ivf
    return knn_ivf(sf_dir)


def _q_media_decode(sf_dir: str):
    """REAL BMP decode (pure numpy) over a synthetic image corpus:
    actor pool -> dims + exact integer channel statistics."""
    from raytiles.ops.image import media_decode
    return media_decode(sf_dir)


def _q_media_png(sf_dir: str):
    """REAL PNG decode (pure numpy + stdlib zlib; all 5 scanline
    filters, CRC-verified) over a synthetic corpus: actor pool ->
    dims + exact integer channel statistics."""
    from raytiles.ops.png import media_png_decode
    return media_png_decode(sf_dir)


def _q_audio_decode(sf_dir: str):
    """REAL WAV/PCM decode (pure numpy) over a synthetic tone corpus:
    actor pool -> exact integer acoustic statistics."""
    from raytiles.ops.audio import audio_decode
    return audio_decode(sf_dir)


def _q_media_thumbnails(sf_dir: str):
    """REAL thumbnailing: BMP decode -> area-pool -> BMP re-encode."""
    from raytiles.ops.image import media_thumbnails
    return media_thumbnails(sf_dir)


def _q_knn_pq(sf_dir: str):
    """Product-quantization ANN (ADC scan + bounded exact re-rank)."""
    from raytiles.ops.similarity import knn_pq
    return knn_pq(sf_dir)


def _q_lsh_neardup(sf_dir: str):
    from raytiles.ops.similarity import lsh_neardup_pairs
    # the testdata embeddings are near-orthogonal (max pairwise cosine
    # ~0.51), so 16 deterministic planted near-dups (vec_id + 10^6)
    # exercise the live pair-emission path at the production threshold
    return lsh_neardup_pairs(sf_dir, threshold=0.9, n_planted=16)


def _q_pca(sf_dir: str):
    """PCA projection of embeddings (one-pass covariance partials,
    driver-side d x d eigh, broadcast projection). Rows-only:
    iterative-free but non-SQL (eigendecomposition); numpy parity
    pinned by tests/test_ops.py."""
    from raytiles.ops.linalg import pca_project
    return pca_project(sf_dir)


def _q_kmeans(sf_dir: str):
    """Distributed spherical k-means over the embeddings table.
    Rows-only: iterative (non-SQL-expressible); single-process Lloyd
    parity pinned by tests/test_ops.py."""
    from raytiles.ops.cluster import kmeans
    return kmeans(sf_dir)


def _q_semantic_dedup(sf_dir: str):
    """SemDeDup-style near-dup pairs (k-means cluster -> within-cluster
    cosine). Rows-only: planted-recall + cap-counter pytest oracles."""
    from raytiles.ops.cluster import semantic_dedup
    return semantic_dedup(sf_dir)


def _q_unigram_logprob(sf_dir: str):
    """Unigram-LM perplexity-proxy scoring (broadcast vocab, integer
    micro-nat sums for order-free SQL parity)."""
    from raytiles.ops.text import unigram_logprob
    return unigram_logprob(sf_dir)


def _q_mixture_sample(sf_dir: str):
    """Deterministic domain-mixture sampling (md5-threshold per-source
    rates)."""
    from raytiles.ops.webcorpus import mixture_sample
    return mixture_sample(sf_dir)


def _q_chunk_documents(sf_dir: str):
    """Fixed-size document chunking (flat_map row expansion on the raw
    Arrow UTF-8 buffer)."""
    from raytiles.ops.text import chunk_documents
    return chunk_documents(sf_dir)


def _q_events_range_window(sf_dir: str):
    """Trailing time-RANGE window over the global stream via halo
    (ghost-cell) replication across time buckets."""
    from raytiles.ops.relational import events_range_window
    return events_range_window(sf_dir)


def _q_events_lag(sf_dir: str):
    """LAG window: previous same-user event + exact micro-unit delta."""
    from raytiles.ops.relational import events_lag
    return events_lag(sf_dir)


def _q_events_moving_sum(sf_dir: str):
    """ROWS-frame moving window: per-user trailing 4-event sum/count."""
    from raytiles.ops.relational import events_moving_sum
    return events_moving_sum(sf_dir)


def _q_group_mode(sf_dir: str):
    """Distributed argmax: modal user per event type (per-bucket
    candidate reduction, tiny final tie-break pass)."""
    from raytiles.ops.groupops import group_mode
    return group_mode(sf_dir)


def _q_bpe_encode(sf_dir: str):
    """BPE tokenizer TRAINED on the corpus word counts, then applied
    shuffle-free (per-batch distinct-word encode)."""
    from raytiles.ops.tokenizer import bpe_encode_counts
    return bpe_encode_counts(sf_dir)


def _q_bigram_logprob(sf_dir: str):
    """Bigram-LM document scoring (train counts, broadcast, score)."""
    from raytiles.ops.text import bigram_logprob
    return bigram_logprob(sf_dir)


def _q_compression_ratio(sf_dir: str):
    """Per-doc DEFLATE compression ratio (boilerplate signal)."""
    from raytiles.ops.text import compression_ratio
    return compression_ratio(sf_dir)


def _q_token_entropy(sf_dir: str):
    """Per-doc token-distribution entropy (micro-nat quantized)."""
    from raytiles.ops.text import token_entropy
    return token_entropy(sf_dir)


def _q_feature_hashing(sf_dir: str):
    """Hashing-trick feature vectors (shuffle-free signed counts)."""
    from raytiles.ops.text import feature_hashing
    return feature_hashing(sf_dir)


def _q_lang_percentiles(sf_dir: str):
    """Per-language percentile normalization via the 2-D histogram
    prefix-rank pattern (no global sort)."""
    from raytiles.ops.text import lang_percentiles
    return lang_percentiles(sf_dir)


def _q_corpus_checksums(sf_dir: str):
    """Order-free per-bucket XOR content checksums (integrity /
    anti-entropy primitive)."""
    from raytiles.ops.text import corpus_checksums
    return corpus_checksums(sf_dir)


def _q_bigram_pmi(sf_dir: str):
    """Bigram PMI phrase detection: broadcast vocab, int64 index-pair
    shuffle keys, floor-quantized micro-nat scores."""
    from raytiles.ops.text import bigram_pmi
    return bigram_pmi(sf_dir)


def _q_dedup_chunks(sf_dir: str):
    """C4-style corpus-wide chunk dedup: keep each distinct 4-word
    chunk's global first occurrence, reassemble surviving docs."""
    from raytiles.ops.text import dedup_chunks
    return dedup_chunks(sf_dir)


def _q_pack_sequences(sf_dir: str):
    """Training-sequence packing via a distributed prefix sum of token
    counts in doc_id order."""
    from raytiles.ops.text import pack_sequences
    return pack_sequences(sf_dir)


def _q_winnow(sf_dir: str):
    from raytiles.ops.text import winnow_fingerprints
    return winnow_fingerprints(sf_dir)


def _q_media_meta(sf_dir: str):
    from raytiles.ops.media import media_meta
    from raytiles.pipeline.synth import webpages_path
    return media_meta(webpages_path(sf_dir))


def _q_media_features(sf_dir: str):
    from raytiles.ops.media import media_features
    from raytiles.pipeline.synth import webpages_path
    return media_features(webpages_path(sf_dir))


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


def _q_iso_segments(sf_dir: str):
    """Marching-squares isoline segments over per-tile density grids
    (vectorized case table per dense local grid; no extra shuffle)."""
    from raytiles.ops.raster import iso_segments
    from raytiles.pipeline.synth import webpages_path
    return iso_segments(webpages_path(sf_dir), 8)


def _q_isolines_mvt(sf_dir: str):
    """Chained isoline polylines encoded as multi-linestring MVT
    features. Rows-only; chaining/topology pinned by pytest."""
    from raytiles.ops.raster import isolines_pipeline
    from raytiles.pipeline.synth import webpages_path
    return isolines_pipeline(webpages_path(sf_dir), 8)


def _q_raster_blur(sf_dir: str):
    """Ghost-cell halo convolution: 3x3 integer binomial blur over the
    global sub-tile grid via weight-premultiplied replicate partials +
    ONE bounded bucket shuffle."""
    from raytiles.ops.raster import raster_blur
    from raytiles.pipeline.synth import webpages_path
    return raster_blur(webpages_path(sf_dir), 8)


def _q_point_clusters(sf_dir: str):
    """Supercluster-style map clustering table: per (tile, grid cell)
    exact integer centroid + point count via ONE bounded
    splitmix(tile) bucket shuffle of per-batch cell partials."""
    from raytiles.ops.raster import point_clusters
    from raytiles.pipeline.synth import webpages_path
    return point_clusters(webpages_path(sf_dir), 12)


def _q_clusters_mvt(sf_dir: str):
    """The MVT face of point_clusters: cluster point features with
    point_count (I64) metadata, fid = cell index. Rows-only: binary
    output; pytest decodes back against the cluster table."""
    from raytiles.ops.raster import cluster_tiles_pipeline
    from raytiles.pipeline.synth import webpages_path
    return cluster_tiles_pipeline(webpages_path(sf_dir), 12)


def _q_cell_compact(sf_dir: str):
    """H3/S2-style cell compaction: complete 4-sibling sets promote to
    their parent recursively; bounded occupied-set reduction + driver
    fold (hotspot contract)."""
    from raytiles.ops.spatial import cell_compact
    from raytiles.pipeline.synth import webpages_path
    return cell_compact(webpages_path(sf_dir), 12)


def _q_mvt_labels(sf_dir: str):
    """Greedy label placement with Chebyshev collision suppression
    (priority = mention_idx, fid tiebreak); suppressed count surfaced.
    Rows-only; exact greedy-recompute pytest."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.overlay import mvt_label_place
    from raytiles.pipeline.synth import webpages_path
    return mvt_label_place(tiles_pipeline(webpages_path(sf_dir), 12),
                           b"mention_idx", min_dist=512)


def _q_city_tileset(sf_dir: str):
    """Composed multi-layer, multi-geometry tileset (the reference's
    roads.mvt shape — one tile, several layers, mixed geometry
    families, test/Test.hs:44-48): point layer (mentions) + linestring
    layer (trajectories) fused in one encoder pass over the flagship's
    packed aggregate, polygon layer (host hulls) merged per tile.
    Rows-only (binary MVT output); the three-family decode-back
    invariant is pinned by tests/test_citytiles.py and the result md5
    by RESULTS_SHA.json."""
    from raytiles.pipeline.citytiles import city_tiles_pipeline
    from raytiles.pipeline.synth import webpages_path
    return city_tiles_pipeline(webpages_path(sf_dir), 6)


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


def _q_pyramid_mvt(sf_dir: str):
    """Multi-zoom MVT pyramid from one assignment pass (integer-shift
    level transforms; every level byte-identical to a direct run at
    that zoom — pinned by pytest). Rows-only: binary codec output."""
    from raytiles.pipeline.flagship import pyramid_mvt_pipeline
    from raytiles.pipeline.synth import webpages_path
    return pyramid_mvt_pipeline(webpages_path(sf_dir))


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


def _q_line_tiles(sf_dir: str):
    """Cross-tile line tiling: world-spanning mention polylines
    replicated into every XYZ tile they cross, Liang-Barsky-clipped to
    extent+buffer, assembled into multi-part linestring MVT layers.
    Rows-only: binary codec output; exactness vs a single-process
    brute-force clip is pinned by tests/test_pipeline.py."""
    from raytiles.pipeline.linetiles import line_tiles_pipeline
    from raytiles.pipeline.synth import webpages_path
    return line_tiles_pipeline(webpages_path(sf_dir))


def _q_polygon_tiles(sf_dir: str):
    """Cross-tile polygon tiling: per-host convex hulls (distributed
    partial-hull merge) replicated into every overlapped XYZ tile,
    clipped with the batched Sutherland-Hodgman kernel, encoded as MVT
    polygon layers. Rows-only: binary codec output; hull
    characterization + brute-force clip parity pinned by
    tests/test_pipeline.py."""
    from raytiles.pipeline.polytiles import polygon_tiles_pipeline
    from raytiles.pipeline.synth import webpages_path
    return polygon_tiles_pipeline(webpages_path(sf_dir))


def _q_host_hulls(sf_dir: str):
    """Per-host convex hull of mention positions (global pixel space,
    z3): the distributed hull-combiner stage of polygon_tiles exposed
    as its own query. Rows-only: packed-binary hull payload."""
    from raytiles.pipeline.polytiles import host_hulls
    from raytiles.pipeline.synth import webpages_path
    return host_hulls(webpages_path(sf_dir))


def _q_media_resize(sf_dir: str):
    """Actor-pool image-resize stage (area pooling stub; real
    schema/batching/actor lifecycle). Rows-only: dims/payload
    invariants + single-process parity pinned by pytest."""
    from raytiles.ops.media import media_resize
    from raytiles.pipeline.synth import webpages_path
    return media_resize(webpages_path(sf_dir))


def _q_media_frames(sf_dir: str):
    """Video-style frame sampling (row expansion) over the binary
    column via the actor-pool stub. Rows-only: the sampling
    arithmetic and schema are pytest-verified."""
    from raytiles.ops.media import media_frames
    from raytiles.pipeline.synth import webpages_path
    return media_frames(webpages_path(sf_dir))


# ---------------------------------------------------------------------------
# driver contract
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: webpages ->
    geoparse -> assign -> aggregate -> MVT-encode."""
    from raytiles.pipeline.flagship import tiles_pipeline
    from raytiles.pipeline.synth import webpages_path
    return tiles_pipeline(webpages_path("/root/testdata/sf0.001"), 12)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # tiling family (SURVEY §2 / north_star pipeline)
        "geoparse": _q_geoparse,
        "tile_assign": _q_tile_assign,
        "tile_counts": _q_tile_counts,
        "cell_counts": _q_cell_counts,
        "iceberg_cells": _q_iceberg_cells,
        "tiles_mvt": _q_tiles_mvt,
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
        "pricing_summary": _q_pricing,
        "top_customers": _q_top_customers,
        "events_hourly": _q_events_hourly,
        "events_sliding": _q_events_sliding,
        "events_sessions": _q_events_sessions,
        "events_asof": _q_events_asof,
        "events_watermark": _q_events_watermark,
        "events_gapfill": _q_events_gapfill,
        "events_rollup": _q_events_rollup,
        "events_pivot": _q_events_pivot,
        "value_outliers": _q_value_outliers,
        "interval_coverage": _q_interval_coverage,
        "rolling_dau": _q_rolling_dau,
        "weighted_sample": _q_weighted_sample,
        "events_deciles": _q_events_deciles,
        "user_journeys": _q_user_journeys,
        "fuzzy_search": _q_fuzzy_search,
        "unpivot_lineitem": _q_unpivot_lineitem,
        "props_extract": _q_props_extract,
        "churned_users": _q_churned_users,
        "value_time_corr": _q_value_time_corr,
        "quantile_cont": _q_quantile_cont,
        "journey_pattern": _q_journey_pattern,
        "new_users_curve": _q_new_users_curve,
        "time_weighted_value": _q_time_weighted_value,
        "audience_overlap": _q_audience_overlap,
        "mad_stats": _q_mad_stats,
        "loyal_users": _q_loyal_users,
        "wow_growth": _q_wow_growth,
        "order_discount_factor": _q_order_discount_factor,
        "char_trigrams": _q_char_trigrams,
        "chi2_type_hour": _q_chi2_type_hour,
        "winsorized_mean": _q_winsorized_mean,
        "profile_table": _q_profile_table,
        "oov_rate": _q_oov_rate,
        "order_gini": _q_order_gini,
        "value_histogram": _q_value_histogram,
        "order_revenue": _q_order_revenue,
        "order_revenue_left": _q_order_revenue_left,
        "nation_revenue": _q_nation_revenue,
        "late_orders": _q_late_orders,
        "user_entropy": _q_user_entropy,
        "pareto_orders": _q_pareto_orders,
        "order_price_ranks": _q_order_price_ranks,
        "idle_customers": _q_idle_customers,
        "waiting_suppliers": _q_waiting_suppliers,
        "shipping_priority": _q_shipping_priority,
        "ship_volume": _q_ship_volume,
        "market_share": _q_market_share,
        "product_profit": _q_product_profit,
        "important_parts": _q_important_parts,
        "custdist": _q_custdist,
        "top_supplier": _q_top_supplier,
        "part_supp_counts": _q_part_supp_counts,
        "big_orders": _q_big_orders,
        "banded_revenue": _q_banded_revenue,
        "excess_shippers": _q_excess_shippers,
        "min_cost_supplier": _q_min_cost_supplier,
        "promo_revenue": _q_promo_revenue,
        "top_suppliers": _q_top_suppliers,
        "brand_type_stats": _q_brand_type_stats,
        "cohort_revenue_full": _q_cohort_revenue_full,
        "small_quantity_revenue": _q_small_quantity_revenue,
        "group_stats": _q_group_stats,
        "user_features": _q_user_features,
        "funnel_conversion": _q_funnel,
        "urgent_revenue": _q_urgent_revenue,
        "cohort_retention": _q_cohort_retention,
        "running_revenue": _q_running_revenue,
        "top_orders": _q_top_orders,
        "stratified_sample": _q_stratified_sample,
        "group_quantiles": _q_group_quantiles,
        "range_join_bands": _q_range_join,
        "distinct_users": _q_distinct_users,
        "approx_distinct": _q_approx_distinct,
        "heavy_hitters": _q_heavy_hitters,
        "hdr_quantiles": _q_hdr_quantiles,
        "hll_sketches": _q_hll_sketches,
        "hll_union": _q_hll_union,
        "extract_text": _q_extract_text,
        "redact_locations": _q_redact_locations,
        "morton_cells": _q_morton_cells,
        "quadkeys": _q_quadkeys,
        "geohashes": _q_geohashes,
        "tile_pyramid": _q_tile_pyramid,
        "raster_cells": _q_raster_cells,
        "tile_neighborhood": _q_tile_neighborhood,
        "heatmap_mvt": _q_heatmap_mvt,
        "trajectories_mvt": _q_trajectories,
        "trajectories_simplified": _q_trajectories_simplified,
        "line_tiles": _q_line_tiles,
        "polygon_tiles": _q_polygon_tiles,
        "host_hulls": _q_host_hulls,
        "mvt_overlay": _q_mvt_overlay,
        "mvt_filter": _q_mvt_filter,
        "mvt_rescale": _q_mvt_rescale,
        "mvt_simplify": _q_mvt_simplify,
        "mvt_feature_cap": _q_mvt_feature_cap,
        "mvt_downzoom": _q_mvt_downzoom,
        "mvt_merge": _q_mvt_merge,
        "city_tileset": _q_city_tileset,
        "mvt_labels": _q_mvt_labels,
        "cell_compact": _q_cell_compact,
        "tilestats": _q_tilestats,
        "point_clusters": _q_point_clusters,
        "raster_blur": _q_raster_blur,
        "iso_segments": _q_iso_segments,
        "isolines_mvt": _q_isolines_mvt,
        "clusters_mvt": _q_clusters_mvt,
        "mvt_diff": _q_mvt_diff,
        "pyramid_mvt": _q_pyramid_mvt,
        "mvt_enrich": _q_mvt_enrich,
        # spatial joins
        "geofence_join": _q_geofence_join,
        "comention_edges": _q_comention_edges,
        "cell_pagerank": _q_cell_pagerank,
        "cell_triangles": _q_cell_triangles,
        "hotspot_regions": _q_hotspot_regions,
        "trajectory_lengths": _q_trajectory_lengths,
        "segment_bearings": _q_segment_bearings,
        "kmv_distinct": _q_kmv_distinct,
        "zipf_slope": _q_zipf_slope,
        "type_token_ratio": _q_type_token_ratio,
        "nb_lang_classify": _q_nb_lang_classify,
        "events_ewma": _q_events_ewma,
        "events_debounce": _q_events_debounce,
        "events_cusum": _q_events_cusum,
        "type_affinity": _q_type_affinity,
        "orders_seasonality": _q_orders_seasonality,
        "kmeans_exact": _q_kmeans_exact,
        "bm25_search": _q_bm25_search,
        "hybrid_search": _q_hybrid_search,
        "nearest_city": _q_nearest_city,
        "host_bbox": _q_host_bbox,
        "tile_adjacency": _q_tile_adjacency,
        "tile_moran": _q_tile_moran,
        "tile_components": _q_tile_components,
        "tile_hotspots": _q_tile_hotspots,
        "host_tile_cover": _q_host_tile_cover,
        "zonal_stats": _q_zonal_stats,
        "cell_cover": _q_cell_cover,
        # web-corpus curation
        "host_stats": _q_host_stats,
        "cust_anti_join": _q_cust_anti_join,
        "decontaminate": _q_decontaminate,
        "doc_repetition": _q_doc_repetition,
        # text analysis
        "token_counts": _q_token_counts,
        "quality_scores": _q_quality,
        "lang_id": _q_lang_id,
        "doc_md5": _q_doc_md5,
        "vocab_topk": _q_vocab_topk,
        "doc_top_terms": _q_doc_top_terms,
        "median_filter": _q_median_filter,
        "doc_tfidf": _q_doc_tfidf,
        "inverted_index": _q_inverted_index,
        "bpe_tokens": _q_bpe_tokens,
        "doc_rank": _q_doc_rank,
        "boilerplate": _q_boilerplate,
        "chunk_documents": _q_chunk_documents,
        "dedup_chunks": _q_dedup_chunks,
        "bigram_pmi": _q_bigram_pmi,
        "events_range_window": _q_events_range_window,
        "events_lag": _q_events_lag,
        "event_transitions": _q_event_transitions,
        "events_ohlc": _q_events_ohlc,
        "user_value_history": _q_user_value_history,
        "events_moving_sum": _q_events_moving_sum,
        "group_mode": _q_group_mode,
        "feature_hashing": _q_feature_hashing,
        "token_entropy": _q_token_entropy,
        "compression_ratio": _q_compression_ratio,
        "bigram_logprob": _q_bigram_logprob,
        "bpe_encode": _q_bpe_encode,
        "lang_percentiles": _q_lang_percentiles,
        "corpus_checksums": _q_corpus_checksums,
        "pack_sequences": _q_pack_sequences,
        "unigram_logprob": _q_unigram_logprob,
        "mixture_sample": _q_mixture_sample,
        # dedup
        "exact_dedup": _q_exact_dedup,
        "normalized_dedup": _q_normalized_dedup,
        "minhash_bands": _q_minhash_bands,
        "minhash_pairs": _q_minhash_pairs,
        "minhash_overflow": _q_minhash_overflow,
        "jaccard_pairs": _q_jaccard_pairs,
        "dup_clusters": _q_dup_clusters,
        "dup_spans": _q_dup_spans,
        "per_source_cap": _q_per_source_cap,
        "source_kl": _q_source_kl,
        "train_split": _q_train_split,
        "video_frames": _q_video_frames,
        "video_meta": _q_video_meta,
        "temperature_weights": _q_temperature_weights,
        "curation_manifest": _q_curation_manifest,
        "dedup_survivors": _q_dedup_survivors,
        "simhash": _q_simhash,
        # similarity search
        "knn": _q_knn,
        "knn_ivf": _q_knn_ivf,
        "knn_pq": _q_knn_pq,
        "lsh_neardup": _q_lsh_neardup,
        "kmeans_clusters": _q_kmeans,
        "train_quality_lr": _q_train_quality_lr,
        "pca_project": _q_pca,
        "semantic_dedup": _q_semantic_dedup,
        # fingerprints / multimodal
        "winnow_fingerprints": _q_winnow,
        "media_meta": _q_media_meta,
        "media_features": _q_media_features,
        "media_frames": _q_media_frames,
        "media_resize": _q_media_resize,
        "media_decode": _q_media_decode,
        "media_png": _q_media_png,
        "media_thumbnails": _q_media_thumbnails,
        "audio_decode": _q_audio_decode,
    }


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
