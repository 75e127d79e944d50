"""Seeded inputs, the single-process kernel chain and output checks.

The chain calls the same public kernels the Ray pipelines run
(GeoParser, TileAssigner, pack/merge, FastPointEncoder) in one process
on materialized input. Run untraced it gives the reference digest each
Ray pass must reproduce; run with a ``spans.Tracer`` it gives the
per-layer self times and counts.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from raytiles.codec.decode import decode_tile
from raytiles.codec.encode import encode_tile
from raytiles.geo.parse import GeoParser
from raytiles.geo.rtree import PackedRTree
from raytiles.pipeline.encode_stage import FastPointEncoder
from raytiles.pipeline.stages import (TileAssigner, merge_tile_partials,
                                      pack_tile_partials)
from raytiles.pipeline.synth import N_SHARDS, ROW_GROUP, generate_webpages
from spans import wrapped

ZOOM = 12
READ_COLUMNS = ["url", "text"]  # what flagship.read_webpages reads
KEEP_INPUTS = 4  # cached docs inputs kept per checkout (oldest evicted)


def docs_input(work: str, n_docs: int, seed: int) -> str:
    """Seeded webpages parquet directory, cached per (n_docs, seed).
    Same shard / row-group layout as synth.webpages_path, so Ray reads
    it with the same block count as the repo's own tiers."""
    root = os.path.join(work, "inputs")
    path = os.path.join(root, f"docs-{n_docs}-{seed}")
    if os.path.exists(os.path.join(path, "_DONE")):
        os.utime(path)
        return path
    os.makedirs(root, exist_ok=True)
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    table = generate_webpages(n_docs, seed)
    per = -(-n_docs // N_SHARDS)
    for i in range(N_SHARDS):
        part = table.slice(i * per, per)
        if part.num_rows:
            pq.write_table(part, os.path.join(tmp, f"part-{i:03d}.parquet"),
                           row_group_size=ROW_GROUP)
    open(os.path.join(tmp, "_DONE"), "w").close()
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    cached = sorted((os.path.getmtime(os.path.join(root, d)), d)
                    for d in os.listdir(root) if not d.endswith(".tmp"))
    for _, d in cached[:-KEEP_INPUTS]:
        shutil.rmtree(os.path.join(root, d), ignore_errors=True)
    return path


def kernel_chain(path: str, tr, out_path: str) -> pa.Table:
    """read -> geoparse -> assign -> pack -> merge -> encode -> write,
    one process, whole-input calls. Returns the encoded tile table."""
    with tr.span("read"):
        docs = pq.read_table(path, columns=READ_COLUMNS)
    tr.count("read.rows", docs.num_rows)
    tr.count("read.bytes", docs.nbytes)

    with tr.span("geoparse"):
        parser = GeoParser()
        mask = pc.match_substring_regex(docs["text"], parser.prefilter)
        sub = docs.filter(mask)
        row_pos, mention_idx, lat, lon = parser.parse_arrow(sub["text"])
        mentions = pa.table({
            "url": sub["url"].take(pa.array(row_pos)),
            "mention_idx": pa.array(mention_idx, pa.int32()),
            "lon": pa.array(lon, pa.float64()),
            "lat": pa.array(lat, pa.float64()),
        })
    if tr.enabled:
        tr.count("geoparse.docs_in", docs.num_rows)
        tr.count("geoparse.docs_scanned", sub.num_rows)
        tr.count("geoparse.docs_useful", int(np.unique(row_pos).size))
        tr.count("geoparse.mentions_out", mentions.num_rows)

    with wrapped(tr, PackedRTree, "query_points", "assign.rtree_query"), tr.span("assign"):
        assigned = TileAssigner(ZOOM, with_cells=False)(mentions)
    tr.count("assign.rows", assigned.num_rows)

    with tr.span("pack"):
        packed = pack_tile_partials(assigned)
    tr.count("pack.rows_in", assigned.num_rows)
    tr.count("pack.rows_out", packed.num_rows)

    with tr.span("merge"):
        merged = merge_tile_partials(packed)
    tr.count("merge.tiles", merged.num_rows)

    with tr.span("encode"):
        tiles = FastPointEncoder()(merged)
    if tr.enabled:
        nf = tiles["n_features"].to_numpy()
        tr.count("encode.features", int(nf.sum()))
        tr.count("encode.bytes_out", int(pc.sum(pc.binary_length(tiles["mvt"])).as_py()))
        tr.set("encode.features_per_tile_max", int(nf.max()))
        tr.set("encode.features_per_tile_p99", float(np.percentile(nf, 99)))

    with tr.span("write"):
        pq.write_table(tiles.select(["z", "x", "y", "mvt", "n_features"]), out_path)
    tr.count("write.bytes", os.path.getsize(out_path))
    return tiles


def tile_digest(table: pa.Table) -> str:
    """md5 over the (z, x, y)-sorted (z, x, y, mvt) rows."""
    t = table.select(["z", "x", "y", "mvt"]).sort_by(
        [("z", "ascending"), ("x", "ascending"), ("y", "ascending")])
    h = hashlib.md5()
    for col in ("z", "x", "y"):
        h.update(t[col].to_numpy().astype("<i4").tobytes())
    mvt = t["mvt"].to_pylist()
    h.update(np.array([len(b) for b in mvt], "<i8").tobytes())
    h.update(b"".join(mvt))
    return h.hexdigest()


def read_flagship_output(out_dir: str) -> pa.Table:
    return pq.read_table(out_dir, columns=["z", "x", "y", "mvt"])


def read_job_output(root: str) -> pa.Table:
    """stage_b writes one partition=<pid>/data.parquet per bucket next
    to a JSON manifest directory, so the parts are read one by one."""
    b_root = os.path.join(root, "stage_b")
    parts = [pq.read_table(os.path.join(b_root, d, "data.parquet"),
                           columns=["z", "x", "y", "mvt"])
             for d in sorted(os.listdir(b_root)) if d.startswith("partition=")]
    return pa.concat_tables(parts)


def codec_fixpoint(blobs: list[bytes], tr) -> bool:
    """General-codec check of encoded tiles: decode_tile every tile,
    encode_tile it again and require the original bytes."""
    with tr.span("codec.decode"):
        decoded = [decode_tile(b) for b in blobs]
    with tr.span("codec.encode"):
        again = [encode_tile(t) for t in decoded]
    tr.count("codec.tiles", len(blobs))
    if tr.enabled:
        tr.count("codec.bytes", sum(len(b) for b in blobs))
        tr.count("codec.features", sum(
            len(lay.points) + len(lay.linestrings) + len(lay.polygons)
            for t in decoded for lay in t.layers.values()))
    return again == blobs
