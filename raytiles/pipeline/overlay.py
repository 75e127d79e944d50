"""MVT tile-set transforms: overlay (merge two tile sets per tile
coordinate) and feature filtering.

``mvt_overlay`` exploits the protobuf wire format directly: a
VectorTile message is nothing but repeated Layer submessages
(vector_tile.proto; reference Protobuf/VectorTile.hs:37-39), and
protobuf repeated fields CONCATENATE across a split message — so
merging two tiles is byte-string concatenation, zero decode, zero
re-encode. Duplicate layer names keep the reference's decode
semantics automatically (last layer wins, Internal.hs fromProtobuf
@VectorTile — the right operand's layer shadows the left's).
tests pin concat == decode-merge-re-encode equality via tiles_equal.

Distribution shape: tag each side, ONE bounded splitmix(tile)-bucket
groupby co-locates the (at most two) rows per tile coordinate, the
finalizer concatenates in (a, b) order. Tiles present on one side
only pass through untouched.

``mvt_filter_features`` is the decode path: per-batch
decode -> predicate on feature metadata -> re-encode, embarrassingly
parallel, no shuffle. Layers losing every feature are dropped (an
empty layer is an encode error in the codec, matching the
reference's "LayerError: empty layer" on decode).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..codec import wire
from ..codec.decode import decode_tile
from ..codec.encode import encode_tile
from ..codec.model import Feature, Layer, VectorTile
from ..ops.sketch import _hll_estimate
from ..util import bucket_of

_N_BUCKETS = 512
_STATS_BUCKETS = 64  # tilestats' register-merge buckets


def _tile_key(z: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return ((z.astype(np.int64) << np.int64(58))
            ^ (x.astype(np.int64) << np.int64(29)) ^ y.astype(np.int64))


def mvt_overlay(a: ray.data.Dataset, b: ray.data.Dataset) -> ray.data.Dataset:
    """Merge two {z, x, y, mvt, ...} tile sets: one output tile per
    distinct (z, x, y), with both sides' layers when present (side b
    shadows side a on duplicate layer names, per the reference's
    last-wins decode rule). Wire-level concat — see module docstring."""

    def tag(side):
        def fn(t: pa.Table) -> pa.Table:
            z = t["z"].to_numpy().astype(np.int64)
            x = t["x"].to_numpy().astype(np.int64)
            y = t["y"].to_numpy().astype(np.int64)
            return pa.table({
                "z": pa.array(z), "x": pa.array(x), "y": pa.array(y),
                "side": pa.array(np.full(len(z), side, np.int8)),
                "mvt": t["mvt"],
                "bucket": pa.array(bucket_of(_tile_key(z, x, y),
                                             _N_BUCKETS))})
        return fn

    tagged = a.map_batches(tag(0), batch_format="pyarrow").union(
        b.map_batches(tag(1), batch_format="pyarrow"))

    def merge_bucket(g: pa.Table) -> pa.Table:
        z = g["z"].to_numpy()
        x = g["x"].to_numpy()
        y = g["y"].to_numpy()
        side = g["side"].to_numpy()
        mvt = g["mvt"].to_pylist()
        order = np.lexsort((side, y, x, z))
        oz, ox, oy, om = [], [], [], []
        i, n = 0, len(order)
        while i < n:
            j = i
            oi = order[i]
            while (j < n and z[order[j]] == z[oi] and x[order[j]] == x[oi]
                   and y[order[j]] == y[oi]):
                j += 1
            # wire-level merge: concatenation of Layer submessages,
            # in ascending side order (b's layers shadow a's)
            oz.append(int(z[oi]))
            ox.append(int(x[oi]))
            oy.append(int(y[oi]))
            om.append(b"".join(mvt[order[t]] for t in range(i, j)))
            i = j
        return pa.table({
            "z": pa.array(oz, pa.int64()), "x": pa.array(ox, pa.int64()),
            "y": pa.array(oy, pa.int64()),
            "mvt": pa.array(om, pa.binary())})

    return tagged.groupby("bucket").map_groups(
        merge_bucket, batch_format="pyarrow")


def mvt_filter_features(tiles: ray.data.Dataset, meta_key: bytes,
                        predicate) -> ray.data.Dataset:
    """Keep only features whose metadata value under ``meta_key``
    satisfies ``predicate`` (a plain callable over the decoded Val
    payload; features missing the key are dropped). Layers left empty
    are removed; tiles left without layers are removed. Shuffle-free
    per-batch decode -> filter -> re-encode."""

    def fn(t: pa.Table) -> pa.Table:
        z = t["z"].to_numpy()
        x = t["x"].to_numpy()
        y = t["y"].to_numpy()
        mvts = t["mvt"].to_pylist()
        oz, ox, oy, om, on = [], [], [], [], []
        for i, raw in enumerate(mvts):
            tile = decode_tile(raw)
            out_layers = {}
            total = 0
            for name, lay in tile.layers.items():
                kept = {}
                for attr in ("points", "linestrings", "polygons"):
                    feats = [f for f in getattr(lay, attr)
                             if meta_key in f.metadata
                             and predicate(f.metadata[meta_key][1])]
                    kept[attr] = feats
                    total += len(feats)
                if kept["points"] or kept["linestrings"] or kept["polygons"]:
                    out_layers[name] = Layer(
                        name=lay.name, version=lay.version,
                        extent=lay.extent, points=kept["points"],
                        linestrings=kept["linestrings"],
                        polygons=kept["polygons"])
            if out_layers:
                oz.append(int(z[i]))
                ox.append(int(x[i]))
                oy.append(int(y[i]))
                om.append(encode_tile(VectorTile(out_layers)))
                on.append(total)
        return pa.table({
            "z": pa.array(oz, pa.int64()), "x": pa.array(ox, pa.int64()),
            "y": pa.array(oy, pa.int64()),
            "mvt": pa.array(om, pa.binary()),
            "n_features": pa.array(on, pa.int64())})

    return tiles.map_batches(fn, batch_format="pyarrow")


def mvt_diff(old: ray.data.Dataset, new: ray.data.Dataset) -> ray.data.Dataset:
    """Incremental tile-set diff: (z, x, y, status) for every tile
    coordinate whose encoded bytes differ between runs — status is
    'added' (new side only), 'removed' (old side only) or 'changed'
    (both, bytes differ); identical tiles emit nothing (the common
    case in an incremental re-run, so output stays small). Same
    bounded tile-bucket shuffle as mvt_overlay; the comparison ships
    md5 digests, not tile bytes (16 B per tile through the shuffle)."""
    import hashlib

    def tag(side):
        def fn(t: pa.Table) -> pa.Table:
            z = t["z"].to_numpy().astype(np.int64)
            x = t["x"].to_numpy().astype(np.int64)
            y = t["y"].to_numpy().astype(np.int64)
            dig = pa.array([hashlib.md5(m).digest()
                            for m in t["mvt"].to_pylist()], pa.binary())
            return pa.table({
                "z": pa.array(z), "x": pa.array(x), "y": pa.array(y),
                "side": pa.array(np.full(len(z), side, np.int8)),
                "dig": dig,
                "bucket": pa.array(bucket_of(_tile_key(z, x, y),
                                             _N_BUCKETS))})
        return fn

    tagged = old.map_batches(tag(0), batch_format="pyarrow").union(
        new.map_batches(tag(1), batch_format="pyarrow"))

    def diff_bucket(g: pa.Table) -> pa.Table:
        z = g["z"].to_numpy()
        x = g["x"].to_numpy()
        y = g["y"].to_numpy()
        side = g["side"].to_numpy()
        dig = g["dig"].to_pylist()
        order = np.lexsort((side, y, x, z))
        oz, ox, oy, st = [], [], [], []
        i, n = 0, len(order)
        while i < n:
            j = i
            oi = order[i]
            while (j < n and z[order[j]] == z[oi] and x[order[j]] == x[oi]
                   and y[order[j]] == y[oi]):
                j += 1
            sides = {int(side[order[t]]): dig[order[t]]
                     for t in range(i, j)}
            status = None
            if 0 in sides and 1 in sides:
                if sides[0] != sides[1]:
                    status = "changed"
            elif 1 in sides:
                status = "added"
            else:
                status = "removed"
            if status:
                oz.append(int(z[oi]))
                ox.append(int(x[oi]))
                oy.append(int(y[oi]))
                st.append(status)
            i = j
        return pa.table({
            "z": pa.array(oz, pa.int64()), "x": pa.array(ox, pa.int64()),
            "y": pa.array(oy, pa.int64()),
            "status": pa.array(st, pa.string())})

    return tagged.groupby("bucket").map_groups(
        diff_bucket, batch_format="pyarrow")


def mvt_enrich(tiles: ray.data.Dataset, dim_ref, key_meta: bytes,
               key_to_dim, new_meta: bytes) -> ray.data.Dataset:
    """Broadcast-dimension join INSIDE encoded tiles: for every
    feature, derive a dim key from its ``key_meta`` metadata value
    (via ``key_to_dim``), look it up in the ray.put-broadcast dict
    ``dim_ref``, and attach the result as the ``new_meta`` I64 entry —
    the attribute-enrichment step of a tile pipeline (join tile
    features to a host/POI/owner table) without any shuffle: the dim
    is broadcast once, looked up per worker, and each tile re-encodes
    in place. Features whose key misses the dim get -1 (LEFT JOIN
    semantics)."""
    from ..codec.model import I64V

    class Enrich:
        def __init__(self, ref):
            self.dim = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            z = t["z"].to_numpy()
            x = t["x"].to_numpy()
            y = t["y"].to_numpy()
            out = []
            for raw in t["mvt"].to_pylist():
                tile = decode_tile(raw)
                for lay in tile.layers.values():
                    for feats in (lay.points, lay.linestrings,
                                  lay.polygons):
                        for f in feats:
                            kv = f.metadata.get(key_meta)
                            dimkey = key_to_dim(kv[1]) if kv else None
                            f.metadata[new_meta] = (
                                I64V, int(self.dim.get(dimkey, -1)))
                out.append(encode_tile(tile))
            return pa.table({
                "z": pa.array(z), "x": pa.array(x), "y": pa.array(y),
                "mvt": pa.array(out, pa.binary())})

    return tiles.map_batches(Enrich, batch_format="pyarrow",
                             concurrency=(1, 8),
                             fn_constructor_kwargs={"ref": dim_ref})


def mvt_rescale(tiles: ray.data.Dataset,
                new_extent: int = 8192) -> ray.data.Dataset:
    """Re-extent a tile set: scale every coordinate of every feature
    from the layer's extent grid to ``new_extent`` (the transform a
    server applies when switching tile resolutions, e.g. 4096 -> 8192
    for retina rendering). Scaling is exact rational arithmetic
    (x * new // old with round-half-away-from-zero, vectorized), so
    upscaling by an integer factor is losslessly invertible; ring
    closure, hole-attachment sign, and cursor semantics are preserved
    because every point of a feature maps through the same monotone
    transform. Shuffle-free per-batch decode -> scale -> re-encode."""

    def scale_arr(a: np.ndarray, old: int) -> np.ndarray:
        v = a.astype(np.float64) * (new_extent / old)
        return np.where(v >= 0, np.floor(v + 0.5),
                        np.ceil(v - 0.5)).astype(np.int64)

    def fn(t: pa.Table) -> pa.Table:
        mvts = t["mvt"].to_pylist()
        out = []
        for raw in mvts:
            tile = decode_tile(raw)
            new_layers = {}
            for name, lay in tile.layers.items():
                old = lay.extent
                pts = [Feature(f.fid, f.metadata,
                               scale_arr(f.geometry, old))
                       for f in lay.points]
                lns = [Feature(f.fid, f.metadata,
                               [scale_arr(s, old) for s in f.geometry])
                       for f in lay.linestrings]
                pgs = [Feature(f.fid, f.metadata,
                               [[scale_arr(r, old) for r in rings]
                                for rings in f.geometry])
                       for f in lay.polygons]
                new_layers[name] = Layer(
                    name=lay.name, version=lay.version,
                    extent=new_extent, points=pts,
                    linestrings=lns, polygons=pgs)
            out.append(encode_tile(VectorTile(new_layers)))
        res = t.drop_columns(["mvt"])
        return res.append_column("mvt", pa.array(out, pa.binary()))

    return tiles.map_batches(fn, batch_format="pyarrow")


def mvt_simplify(tiles: ray.data.Dataset,
                 tolerance: float = 2.0) -> ray.data.Dataset:
    """Low-zoom geometry reduction INSIDE encoded tiles (the
    tippecanoe-style post-hoc transform a tile server applies when
    serving a high-detail tile set at an overview zoom): per batch,
    decode -> Douglas-Peucker every linestring segment and polygon
    ring to ``tolerance`` extent units -> re-encode. Embarrassingly
    parallel, no shuffle. Structural invariants preserved: DP always
    keeps endpoints, so rings stay closed; a simplified exterior ring
    must stay >= 4 rows with surveyor > 0 (holes < 0) or the ring is
    dropped — the decoder's sign-run hole attachment
    (Internal.hs:202-206 semantics) can never mis-group a simplified
    polygon; linestring segments below 2 points drop; features,
    layers, tiles emptied by the reduction are dropped (an empty
    layer is an encode error, matching the reference's decode-side
    rejection). Output vertices are always a subset of input vertices
    (pinned by pytest), metadata and fids pass through untouched."""
    from ..codec.geometry import surveyor
    from ..geo.simplify import dp_keep_mask

    def simp(arr: np.ndarray) -> np.ndarray:
        m = dp_keep_mask(arr[:, 0].astype(np.float64),
                         arr[:, 1].astype(np.float64), tolerance)
        return arr[m]

    def fn(t: pa.Table) -> pa.Table:
        z = t["z"].to_numpy()
        x = t["x"].to_numpy()
        y = t["y"].to_numpy()
        mvts = t["mvt"].to_pylist()
        oz, ox, oy, om, on = [], [], [], [], []
        for i, raw in enumerate(mvts):
            tile = decode_tile(raw)
            out_layers = {}
            for name, lay in tile.layers.items():
                lns = []
                for f in lay.linestrings:
                    segs = [s for s in (simp(np.asarray(seg))
                                        for seg in f.geometry)
                            if len(s) >= 2]
                    if segs:
                        lns.append(Feature(f.fid, f.metadata, segs))
                pgs = []
                for f in lay.polygons:
                    polys = []
                    for rings in f.geometry:
                        ext = simp(np.asarray(rings[0]))
                        if len(ext) < 4 or surveyor(ext) <= 0:
                            continue
                        holes = [h for h in (simp(np.asarray(r))
                                             for r in rings[1:])
                                 if len(h) >= 4 and surveyor(h) < 0]
                        polys.append([ext] + holes)
                    if polys:
                        pgs.append(Feature(f.fid, f.metadata, polys))
                if lay.points or lns or pgs:
                    out_layers[name] = Layer(
                        name=lay.name, version=lay.version,
                        extent=lay.extent, points=list(lay.points),
                        linestrings=lns, polygons=pgs)
            if out_layers:
                oz.append(int(z[i]))
                ox.append(int(x[i]))
                oy.append(int(y[i]))
                om.append(encode_tile(VectorTile(out_layers)))
                on.append(sum(len(l.points) + len(l.linestrings)
                              + len(l.polygons)
                              for l in out_layers.values()))
        return pa.table({
            "z": pa.array(oz, pa.int64()), "x": pa.array(ox, pa.int64()),
            "y": pa.array(oy, pa.int64()),
            "mvt": pa.array(om, pa.binary()),
            "n_features": pa.array(on, pa.int64())})

    return tiles.map_batches(fn, batch_format="pyarrow")


def mvt_feature_cap(tiles: ray.data.Dataset, cap: int = 64) -> ray.data.Dataset:
    """Tile weight budget (tippecanoe-style feature dropping): keep at
    most ``cap`` features per layer, in the layer's deterministic
    storage order (points, then linestrings, then polygons — the
    reference's own feature emission order, Internal.hs toProtobuf
    @Layer), re-encoding only tiles that actually changed would be an
    optimization the codec's idempotent normalization makes
    unnecessary: re-encoding an unchanged tile is byte-identical.
    Shuffle-free; the drop count is SURFACED per tile (n_dropped — no
    silent caps), emitted even when zero."""

    def fn(t: pa.Table) -> pa.Table:
        z = t["z"].to_numpy()
        x = t["x"].to_numpy()
        y = t["y"].to_numpy()
        mvts = t["mvt"].to_pylist()
        om, on, od = [], [], []
        for raw in mvts:
            tile = decode_tile(raw)
            dropped = 0
            out_layers = {}
            for name, lay in tile.layers.items():
                total = len(lay.points) + len(lay.linestrings) \
                    + len(lay.polygons)
                if total <= cap:
                    out_layers[name] = lay
                    continue
                dropped += total - cap
                pts = list(lay.points[:cap])
                rem = cap - len(pts)
                lns = list(lay.linestrings[:rem])
                rem -= len(lns)
                pgs = list(lay.polygons[:rem]) if rem > 0 else []
                if pts or lns or pgs:
                    out_layers[name] = Layer(
                        name=lay.name, version=lay.version,
                        extent=lay.extent, points=pts,
                        linestrings=lns, polygons=pgs)
            om.append(encode_tile(VectorTile(out_layers)))
            on.append(sum(len(l.points) + len(l.linestrings)
                          + len(l.polygons) for l in out_layers.values()))
            od.append(dropped)
        return pa.table({
            "z": pa.array(z.astype(np.int64)),
            "x": pa.array(x.astype(np.int64)),
            "y": pa.array(y.astype(np.int64)),
            "mvt": pa.array(om, pa.binary()),
            "n_features": pa.array(on, pa.int64()),
            "n_dropped": pa.array(od, pa.int64())})

    return tiles.map_batches(fn, batch_format="pyarrow")


_TS_P = 8                      # tilestats HLL precision: 256 registers
_TS_SENTINELS = (b"__tiles__", b"__points__", b"__linestrings__",
                 b"__polygons__")


def _ts_value_hash(val) -> int:
    """Canonical u64 for a metadata (variant, value) pair — variant is
    part of the identity (I64 5 != W64 5, mirroring the codec's Val
    semantics)."""
    import hashlib
    tag, v = val
    raw = repr(v).encode() if not isinstance(v, bytes) else v
    return int.from_bytes(
        hashlib.md5(tag.encode() + b"\x00" + raw).digest()[:8], "big")


def tilestats(tiles: ray.data.Dataset) -> ray.data.Dataset:
    """Tile-set statistics (the mapbox-tilestats artifact every tile
    pipeline publishes): per layer — tile / per-geometry-type feature
    counts — and per (layer, attribute key) — feature count + APPROX
    distinct value count via HLL registers (p=8), so attribute
    cardinality costs 256 registers per key through the shuffle no
    matter how many distinct values exist. Per-batch partials carry
    (layer, key, reg, max rank) rows; ONE bounded bucket groupby
    merges by register max + count sum; the estimate finalizes per
    key. Sentinel keys __tiles__/__points__/__linestrings__/
    __polygons__ carry the layer totals."""
    m = 1 << _TS_P
    low_bits = 64 - _TS_P
    low_mask = (1 << low_bits) - 1

    def partial(t: pa.Table) -> pd.DataFrame:
        rows = {}   # (layer, key) -> [n, {reg: rank}]
        for raw in t["mvt"].to_pylist():
            tile = decode_tile(raw)
            for name, lay in tile.layers.items():
                for skey, n in ((b"__tiles__", 1),
                                (b"__points__", len(lay.points)),
                                (b"__linestrings__", len(lay.linestrings)),
                                (b"__polygons__", len(lay.polygons))):
                    e = rows.setdefault((name, skey), [0, {}])
                    e[0] += n
                for f in (list(lay.points) + list(lay.linestrings)
                          + list(lay.polygons)):
                    for k, val in f.metadata.items():
                        e = rows.setdefault((name, k), [0, {}])
                        e[0] += 1
                        h = _ts_value_hash(val)
                        reg = h >> low_bits
                        v = h & low_mask
                        rank = low_bits - v.bit_length() + 1 if v > 0 \
                            else low_bits + 1
                        if e[1].get(reg, 0) < rank:
                            e[1][reg] = rank
        lays, keys, ns, regs, ranks = [], [], [], [], []
        for (name, k), (n, rd) in rows.items():
            if rd:
                for reg, rank in rd.items():
                    lays.append(name)
                    keys.append(k)
                    ns.append(0)
                    regs.append(reg)
                    ranks.append(rank)
            lays.append(name)
            keys.append(k)
            ns.append(n)
            regs.append(-1)
            ranks.append(0)
        import hashlib
        kh = np.array([int.from_bytes(
            hashlib.md5(a + b"\x00" + b).digest()[:8], "big") & 0x7FFFFFFF
            for a, b in zip(lays, keys)], np.int64)
        return pd.DataFrame({
            "layer": [s.decode() for s in lays],
            "key": [s.decode() for s in keys],
            "n": np.asarray(ns, np.int64),
            "reg": np.asarray(regs, np.int64),
            "rank": np.asarray(ranks, np.int64),
            "bucket": kh % _STATS_BUCKETS})

    def merge(g: pa.Table) -> pa.Table:
        lay_a = np.asarray(g["layer"].to_numpy(zero_copy_only=False))
        key_a = np.asarray(g["key"].to_numpy(zero_copy_only=False))
        n_a = g["n"].to_numpy()
        reg_a = g["reg"].to_numpy()
        rank_a = g["rank"].to_numpy()
        order = np.lexsort((key_a, lay_a))
        lay_a, key_a = lay_a[order], key_a[order]
        n_a, reg_a, rank_a = n_a[order], reg_a[order], rank_a[order]
        out = {"layer": [], "key": [], "n_features": [],
               "approx_distinct": []}
        starts = np.flatnonzero(np.concatenate(
            ([True], (lay_a[1:] != lay_a[:-1]) | (key_a[1:] != key_a[:-1])))) \
            if len(lay_a) else np.empty(0, np.int64)
        bounds = np.append(starts, len(lay_a))
        for i in range(len(starts)):
            s, e = bounds[i], bounds[i + 1]
            regs, ranks = reg_a[s:e], rank_a[s:e]
            stats_m = regs < 0
            n = int(n_a[s:e][stats_m].sum())
            rd_m = ~stats_m
            if rd_m.any():
                dense = np.zeros(m, np.int64)
                np.maximum.at(dense, regs[rd_m], ranks[rd_m])
                est = _hll_estimate(dense)
            else:
                est = 0
            out["layer"].append(lay_a[s])
            out["key"].append(key_a[s])
            out["n_features"].append(n)
            out["approx_distinct"].append(est)
        return pa.table({
            "layer": pa.array(out["layer"], pa.string()),
            "key": pa.array(out["key"], pa.string()),
            "n_features": pa.array(out["n_features"], pa.int64()),
            "approx_distinct": pa.array(out["approx_distinct"], pa.int64())})

    return tiles.map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(merge, batch_format="pyarrow")


def mvt_downzoom(tiles: ray.data.Dataset) -> ray.data.Dataset:
    """Build the PARENT zoom level purely in tile space (the inverse
    of overzooming — no re-read of the source corpus): each tile at
    zoom z maps its coordinates into its parent's grid as
    (local + (child & 1) * extent) // 2, and the <= 4 children of a
    parent merge per layer in (x, y) child order. Integer floor
    division makes this EXACT: floor(floor(a)/2) == floor(a/2), so a
    parent built from child tiles equals the parent built directly
    from the source at z-1 (pinned by pytest on the flagship set).
    One bounded shuffle keyed by splitmix(parent tile); shuffle
    payload is the encoded child bytes (<= 4 rows per group).
    Polygons/linestrings transform the same way; downscale can
    degenerate sub-pixel rings — compose with mvt_simplify when
    generalizing polygon sets."""

    def scale(a, dx: int, dy: int):
        return (np.asarray(a, np.int64) + np.array([dx, dy])) // 2

    def part(t: pa.Table) -> pa.Table:
        z = t["z"].to_numpy().astype(np.int64)
        x = t["x"].to_numpy().astype(np.int64)
        y = t["y"].to_numpy().astype(np.int64)
        key = (x >> 1) << np.int64(32) | (y >> 1)
        return pa.table({
            "z": z - 1, "px": x >> 1, "py": y >> 1, "cx": x, "cy": y,
            "mvt": t["mvt"], "bucket": bucket_of(key, _N_BUCKETS)})

    def merge(g: pa.Table) -> pa.Table:
        pz_a = g["z"].to_numpy()
        px_a = g["px"].to_numpy()
        py_a = g["py"].to_numpy()
        cx_a = g["cx"].to_numpy()
        cy_a = g["cy"].to_numpy()
        mvt_a = g["mvt"].to_pylist()
        order = np.lexsort((cy_a, cx_a, py_a, px_a, pz_a))
        rows = {"z": [], "x": [], "y": [], "mvt": [], "n_features": []}
        starts = np.flatnonzero(np.concatenate(([True], (
            (pz_a[order][1:] != pz_a[order][:-1])
            | (px_a[order][1:] != px_a[order][:-1])
            | (py_a[order][1:] != py_a[order][:-1])))))  \
            if len(order) else np.empty(0, np.int64)
        bounds = np.append(starts, len(order))
        for gi in range(len(starts)):
            idx = order[bounds[gi]:bounds[gi + 1]]  # (cx, cy) child order
            pz, px, py = int(pz_a[idx[0]]), int(px_a[idx[0]]), \
                int(py_a[idx[0]])
            layers = {}
            for ri in idx:
                dx = int(cx_a[ri] & 1) * 4096
                dy = int(cy_a[ri] & 1) * 4096
                child = decode_tile(mvt_a[ri])
                for name, lay in child.layers.items():
                    dst = layers.setdefault(
                        name, Layer(name=lay.name, version=lay.version,
                                    extent=lay.extent))
                    for f in lay.points:
                        dst.points.append(Feature(
                            f.fid, f.metadata, scale(f.geometry, dx, dy)))
                    for f in lay.linestrings:
                        dst.linestrings.append(Feature(
                            f.fid, f.metadata,
                            [scale(s, dx, dy) for s in f.geometry]))
                    for f in lay.polygons:
                        dst.polygons.append(Feature(
                            f.fid, f.metadata,
                            [[scale(rg, dx, dy) for rg in rings]
                             for rings in f.geometry]))
            rows["z"].append(pz)
            rows["x"].append(px)
            rows["y"].append(py)
            rows["mvt"].append(encode_tile(VectorTile(layers)))
            rows["n_features"].append(int(sum(
                len(l.points) + len(l.linestrings) + len(l.polygons)
                for l in layers.values())))
        return pa.table({
            "z": pa.array(rows["z"], pa.int64()),
            "x": pa.array(rows["x"], pa.int64()),
            "y": pa.array(rows["y"], pa.int64()),
            "mvt": pa.array(rows["mvt"], pa.binary()),
            "n_features": pa.array(rows["n_features"], pa.int64())})

    return tiles.map_batches(part, batch_format="pyarrow") \
        .groupby("bucket").map_groups(merge, batch_format="pyarrow")


def mvt_concat_merge(a: ray.data.Dataset,
                     b: ray.data.Dataset) -> ray.data.Dataset:
    """Layer merge for DISJOINT-layer-name tile sets, without decoding
    features: a Tile message is nothing but repeated layer fields
    (reference Tile.hs:56), so concatenating two normalized tiles'
    bytes in (a, b) side order IS the merged tile — byte-identical to
    mvt_merge_layers' decode -> union -> re-encode on such inputs
    (encode is idempotent on normalized tiles; pinned by pytest).
    Disjointness is checked per merged tile with the LAZY layer-name
    scan (~30 us/tile, no feature decode); an overlap falls back to
    the exact decode-merge for THAT tile, so semantics never depend on
    the caller's promise. Same bounded splitmix(tile) bucket shuffle;
    the hot path is a bytes join — no model objects, no re-intern."""

    def tag(side):
        def fn(t: pa.Table) -> pa.Table:
            z = t["z"].to_numpy().astype(np.int64)
            x = t["x"].to_numpy().astype(np.int64)
            y = t["y"].to_numpy().astype(np.int64)
            return pa.table({
                "z": pa.array(z), "x": pa.array(x), "y": pa.array(y),
                "side": pa.array(np.full(len(z), side, np.int8)),
                "mvt": t["mvt"],
                "bucket": pa.array(bucket_of(_tile_key(z, x, y),
                                             _N_BUCKETS))})
        return fn

    tagged = a.map_batches(tag(0), batch_format="pyarrow").union(
        b.map_batches(tag(1), batch_format="pyarrow"))

    def merge_bucket(g: pa.Table) -> pa.Table:
        z_a = g["z"].to_numpy()
        x_a = g["x"].to_numpy()
        y_a = g["y"].to_numpy()
        side_a = g["side"].to_numpy()
        mvt_a = g["mvt"].to_pylist()
        order = np.lexsort((side_a, y_a, x_a, z_a))
        starts = np.flatnonzero(np.concatenate(([True], (
            (z_a[order][1:] != z_a[order][:-1])
            | (x_a[order][1:] != x_a[order][:-1])
            | (y_a[order][1:] != y_a[order][:-1]))))) \
            if len(order) else np.empty(0, np.int64)
        bounds = np.append(starts, len(order))
        rows = {"z": [], "x": [], "y": [], "mvt": [], "n_features": []}
        for gi in range(len(starts)):
            idx = order[bounds[gi]:bounds[gi + 1]]  # side order
            if len(idx) == 1:
                merged = mvt_a[idx[0]]
            else:
                parts = [mvt_a[ri] for ri in idx]
                recs = [r for p in parts for r in _layer_records(p)]
                flat = [r[0] for r in recs]
                if len(set(flat)) == len(flat):
                    # re-emit the layer RECORDS sorted by name — the
                    # encoder's canonical tile order — so the concat
                    # path is byte-identical to decode -> re-encode
                    recs.sort(key=lambda r: r[0])
                    out_parts: list[bytes] = []
                    for _, payload in recs:
                        wire.put_len_field(out_parts, 3, payload)
                    merged = b"".join(out_parts)
                else:  # same-named layers: exact decode-union path
                    layers = {}
                    for p in parts:
                        tile = decode_tile(p)
                        for name, lay in tile.layers.items():
                            dst = layers.get(name)
                            if dst is None:
                                layers[name] = Layer(
                                    name=lay.name, version=lay.version,
                                    extent=lay.extent,
                                    points=list(lay.points),
                                    linestrings=list(lay.linestrings),
                                    polygons=list(lay.polygons))
                                continue
                            if dst.extent != lay.extent:
                                raise ValueError(
                                    "mvt_concat_merge: extent mismatch "
                                    f"for layer {name!r}")
                            dst.points.extend(lay.points)
                            dst.linestrings.extend(lay.linestrings)
                            dst.polygons.extend(lay.polygons)
                    merged = encode_tile(VectorTile(layers))
            i0 = idx[0]
            rows["z"].append(int(z_a[i0]))
            rows["x"].append(int(x_a[i0]))
            rows["y"].append(int(y_a[i0]))
            rows["mvt"].append(merged)
        del rows["n_features"]
        # feature counts via the lazy header scan — no feature decode
        nf = [_count_features(m) for m in rows["mvt"]]
        return pa.table({
            "z": pa.array(rows["z"], pa.int64()),
            "x": pa.array(rows["x"], pa.int64()),
            "y": pa.array(rows["y"], pa.int64()),
            "mvt": pa.array(rows["mvt"], pa.binary()),
            "n_features": pa.array(nf, pa.int64())})

    return tagged.groupby("bucket").map_groups(
        merge_bucket, batch_format="pyarrow")


def _layer_records(p: bytes) -> list:
    """[(name, payload_bytes)] for each layer record of a tile — the
    lazy header scan; feature payloads are never decoded."""
    recs = []
    for fno, wtype, val in wire.scan_fields(p, 0, len(p)):
        if fno == 3 and wtype == wire.LEN:
            s, e = val
            name = b""
            for lf, lw, lv in wire.scan_fields(p, s, e):
                if lf == 1 and lw == wire.LEN:
                    name = bytes(p[lv[0]:lv[1]])
                    break
            recs.append((name, p[s:e]))
    return recs


def _count_features(buf: bytes) -> int:
    """Feature count via the lazy header scan (no feature decode):
    counts field-2 records inside each layer."""
    n = 0
    for fno, wtype, val in wire.scan_fields(buf, 0, len(buf)):
        if fno == 3 and wtype == wire.LEN:
            s, e = val
            for lf, lw, _ in wire.scan_fields(buf, s, e):
                if lf == 2 and lw == wire.LEN:
                    n += 1
    return n


def mvt_merge_layers(a: ray.data.Dataset,
                     b: ray.data.Dataset) -> ray.data.Dataset:
    """TRUE layer merge (the union complement of mvt_overlay's
    last-wins shadowing): same-named layers UNION their features in
    (a, b) side order and the encoder re-interns the combined
    key/value dictionaries; tiles present on one side pass through
    re-encoded (idempotent normalization, byte-identical for
    already-normalized inputs). Same bounded splitmix(tile) bucket
    shuffle as mvt_overlay. Extent mismatches between same-named
    layers raise — feature coordinates are extent-relative, so a
    silent union would be geometrically wrong (rescale with
    mvt_rescale first)."""

    def tag(side):
        def fn(t: pa.Table) -> pa.Table:
            z = t["z"].to_numpy().astype(np.int64)
            x = t["x"].to_numpy().astype(np.int64)
            y = t["y"].to_numpy().astype(np.int64)
            return pa.table({
                "z": pa.array(z), "x": pa.array(x), "y": pa.array(y),
                "side": pa.array(np.full(len(z), side, np.int8)),
                "mvt": t["mvt"],
                "bucket": pa.array(bucket_of(_tile_key(z, x, y),
                                             _N_BUCKETS))})
        return fn

    tagged = a.map_batches(tag(0), batch_format="pyarrow").union(
        b.map_batches(tag(1), batch_format="pyarrow"))

    def merge_bucket(g: pa.Table) -> pa.Table:
        z_a = g["z"].to_numpy()
        x_a = g["x"].to_numpy()
        y_a = g["y"].to_numpy()
        side_a = g["side"].to_numpy()
        mvt_a = g["mvt"].to_pylist()
        order = np.lexsort((side_a, y_a, x_a, z_a))
        starts = np.flatnonzero(np.concatenate(([True], (
            (z_a[order][1:] != z_a[order][:-1])
            | (x_a[order][1:] != x_a[order][:-1])
            | (y_a[order][1:] != y_a[order][:-1]))))) \
            if len(order) else np.empty(0, np.int64)
        bounds = np.append(starts, len(order))
        rows = {"z": [], "x": [], "y": [], "mvt": [], "n_features": []}
        for gi in range(len(starts)):
            idx = order[bounds[gi]:bounds[gi + 1]]  # side order in-group
            z, x, y = int(z_a[idx[0]]), int(x_a[idx[0]]), int(y_a[idx[0]])
            layers = {}
            for ri in idx:
                tile = decode_tile(mvt_a[ri])
                for name, lay in tile.layers.items():
                    dst = layers.get(name)
                    if dst is None:
                        layers[name] = Layer(
                            name=lay.name, version=lay.version,
                            extent=lay.extent,
                            points=list(lay.points),
                            linestrings=list(lay.linestrings),
                            polygons=list(lay.polygons))
                        continue
                    if dst.extent != lay.extent:
                        raise ValueError(
                            f"mvt_merge_layers: extent mismatch for "
                            f"layer {name!r}: {dst.extent} vs "
                            f"{lay.extent}")
                    dst.points.extend(lay.points)
                    dst.linestrings.extend(lay.linestrings)
                    dst.polygons.extend(lay.polygons)
            rows["z"].append(z)
            rows["x"].append(x)
            rows["y"].append(y)
            rows["mvt"].append(encode_tile(VectorTile(layers)))
            rows["n_features"].append(int(sum(
                len(l.points) + len(l.linestrings) + len(l.polygons)
                for l in layers.values())))
        return pa.table({
            "z": pa.array(rows["z"], pa.int64()),
            "x": pa.array(rows["x"], pa.int64()),
            "y": pa.array(rows["y"], pa.int64()),
            "mvt": pa.array(rows["mvt"], pa.binary()),
            "n_features": pa.array(rows["n_features"], pa.int64())})

    return tagged.groupby("bucket").map_groups(
        merge_bucket, batch_format="pyarrow")


def mvt_label_place(tiles: ray.data.Dataset, priority_key: bytes,
                    min_dist: int = 256) -> ray.data.Dataset:
    """Greedy label placement (the tile-server collision pass that
    decides which point labels actually render): per tile, point
    features order by (priority value ascending, fid ascending) and
    are accepted greedily iff their anchor (first point) is at least
    ``min_dist`` extent units away — Chebyshev metric, the square
    label-box model — from every already-accepted anchor. Determinism
    is total: the order is a pure function of the tile. Shuffle-free
    decode -> place -> re-encode; suppressed count surfaced per tile.
    The pairwise check is vectorized against the accepted-anchor
    array (labels per tile are display-bounded, so the greedy loop is
    O(accepted) per candidate)."""

    def fn(t: pa.Table) -> pa.Table:
        z = t["z"].to_numpy()
        x = t["x"].to_numpy()
        y = t["y"].to_numpy()
        mvts = t["mvt"].to_pylist()
        oz, ox, oy, om, op_, os_ = [], [], [], [], [], []
        for i, raw in enumerate(mvts):
            tile = decode_tile(raw)
            out_layers = {}
            placed = suppressed = 0
            for name, lay in tile.layers.items():
                feats = [f for f in lay.points
                         if priority_key in f.metadata]
                order = sorted(
                    range(len(feats)),
                    key=lambda j: (feats[j].metadata[priority_key][1],
                                   feats[j].fid))
                acc_idx = []
                ax = np.empty(len(feats), np.int64)
                ay = np.empty(len(feats), np.int64)
                n_acc = 0
                for j in order:
                    g = np.asarray(feats[j].geometry).reshape(-1, 2)
                    px, py = int(g[0, 0]), int(g[0, 1])
                    if n_acc:
                        cheb = np.maximum(np.abs(ax[:n_acc] - px),
                                          np.abs(ay[:n_acc] - py))
                        if (cheb < min_dist).any():
                            suppressed += 1
                            continue
                    ax[n_acc] = px
                    ay[n_acc] = py
                    n_acc += 1
                    acc_idx.append(j)
                placed += n_acc
                if acc_idx:
                    out_layers[name] = Layer(
                        name=lay.name, version=lay.version,
                        extent=lay.extent,
                        points=[feats[j] for j in sorted(acc_idx)])
            if out_layers:
                oz.append(int(z[i]))
                ox.append(int(x[i]))
                oy.append(int(y[i]))
                om.append(encode_tile(VectorTile(out_layers)))
                op_.append(placed)
                os_.append(suppressed)
        return pa.table({
            "z": pa.array(oz, pa.int64()), "x": pa.array(ox, pa.int64()),
            "y": pa.array(oy, pa.int64()),
            "mvt": pa.array(om, pa.binary()),
            "n_placed": pa.array(op_, pa.int64()),
            "n_suppressed": pa.array(os_, pa.int64())})

    return tiles.map_batches(fn, batch_format="pyarrow")
