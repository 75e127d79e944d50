"""Cross-tile POLYGON tiling: each host's mention convex hull lives in
global WebMercator pixel space and is replicated into every XYZ tile
it overlaps, clipped to each tile's extent+buffer rect with the
batched Sutherland-Hodgman kernel (geo/clip.py:clip_rings) — the
polygon counterpart of linetiles.py (the reference codec encodes
polygons it is given, Geometry.hs:105-150; producing per-tile clipped
polygon layers is engine-side work, semantics pinned by tests).

Distribution shape, per the repo's shuffle discipline:
- hull stage: per-batch PARTIAL hulls per host (hull of a union ==
  hull of the union of hulls, so batch-local hulls are a correct
  combiner), Akl-Toussaint quadrilateral prefilter vectorized across
  all hosts in the batch, monotone chain only over the few surviving
  candidates; ONE bounded splitmix(md5(host)) bucket shuffle carries
  hull points PACKED AS BINARY (float64 pairs — the `_shingle_sets`
  payload pattern), then a per-host re-hull merges partials.
- tiling stage: the merged hull table is tiny (one row per host), so
  cover enumeration + clipping runs as a normal map_batches: every
  (hull, cover-tile) pair becomes one ring in ONE clip_rings call
  (no per-pair Python), degenerate rings vanish after integer
  rounding, and orientation is canonicalized to positive shoelace
  (y-down exterior, codec surveyor convention, Geometry.hs:76-81).
  Fan-out is bounded by 4^zoom per host — callers pick the zoom so
  the per-host cover stays a sane row count (same contract as
  ops/spatial.py:host_tile_cover).
- ONE bounded splitmix(tile) bucket groupby co-locates each tile's
  clipped rings; the finalizer emits one polygon feature per host
  (host order) and encodes the tile with the generic MVT encoder.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..codec.encode import encode_tile
from ..codec.fastshape import encode_hull_tiles
from ..codec.geometry import surveyor_batch
from ..codec.model import I64V, ST, Feature, Layer, VectorTile
from ..geo.clip import clip_rings
from ..ops.webcorpus import HOST_RE, _md5_u64
from ..util import bucket_of
from .flagship import mentions
from .linetiles import _global_px

LAYER = b"hulls"
EXTENT = 4096
_N_BUCKETS = 256  # hull and ring exchange buckets

_HULL_SCHEMA = pa.schema([
    ("host", pa.string()), ("n_mentions", pa.int64()),
    ("pts", pa.binary()), ("bucket", pa.int64())])


def _group_offsets(sorted_keys: np.ndarray) -> np.ndarray:
    """Start offsets (with final sentinel) of equal-key runs."""
    n = len(sorted_keys)
    if n == 0:
        return np.zeros(1, np.int64)
    starts = np.flatnonzero(
        np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]]))
    return np.concatenate([starts, [n]]).astype(np.int64)


def _chain(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain over deduplicated, lexsorted points.
    Returns indices of the hull vertices in counter-shoelace order
    (positive shoelace on y-down coords, the codec's exterior sign).
    Collinear inputs yield < 3 indices (caller drops those hosts)."""
    n = len(px)
    if n < 3:
        return np.arange(n)
    half = []
    out = []
    for rng in (range(n), range(n - 1, -1, -1)):
        half.clear()
        for i in rng:
            while len(half) >= 2:
                a, b = half[-2], half[-1]
                cr = ((px[b] - px[a]) * (py[i] - py[a])
                      - (py[b] - py[a]) * (px[i] - px[a]))
                if cr <= 0:
                    half.pop()
                else:
                    break
            half.append(i)
        out.extend(half[:-1])
    return np.asarray(out, np.int64)


def _hulls_of_groups(hx: np.ndarray, hy: np.ndarray, offs: np.ndarray,
                     keep_degenerate: bool = False
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group convex hulls over pre-sorted ragged point groups.
    The Akl-Toussaint quadrilateral prefilter (points strictly inside
    the minx/miny/maxx/maxy quad cannot be on the hull) runs as four
    vectorized cross-product passes over ALL groups at once; the
    sequential chain then only touches the survivors. Returns the
    hull points + offsets in the same ragged layout.

    keep_degenerate=True (the PARTIAL mode) emits the chain's <3
    extreme points for collinear groups — an interior collinear point
    can never be a hull vertex of any superset, so the two extremes
    are a correct combiner payload; False (final mode) drops those
    groups (0-count slot)."""
    counts = offs[1:] - offs[:-1]
    ngroups = len(counts)
    gid = np.repeat(np.arange(ngroups, dtype=np.int64), counts)
    keep = np.ones(len(hx), dtype=bool)
    if len(hx):
        quad = np.empty((ngroups, 4), np.int64)
        for k, proj in enumerate((-hx, -hy, hx, hy)):
            order = np.lexsort((proj, gid))
            quad[:, k] = order[offs[1:] - 1]
        # strict inside-quad test: left of all 4 directed edges
        inside = np.ones(len(hx), dtype=bool)
        for k in range(4):
            a = quad[:, k][gid]
            b = quad[:, (k + 1) % 4][gid]
            cr = ((hx[b] - hx[a]) * (hy - hy[a])
                  - (hy[b] - hy[a]) * (hx - hx[a]))
            inside &= cr > 0
        keep = ~inside
    sx, sy, sgid = hx[keep], hy[keep], gid[keep]
    soffs = np.concatenate(
        [[0], np.cumsum(np.bincount(sgid, minlength=ngroups))]).astype(np.int64)
    out_x, out_y, out_counts = [], [], np.zeros(ngroups, np.int64)
    for g in range(ngroups):
        lo, hi = soffs[g], soffs[g + 1]
        px, py = sx[lo:hi], sy[lo:hi]
        # exact dedup on (x, y): group order is (x asc, y asc) already
        dup = np.concatenate(
            [[False], (px[1:] == px[:-1]) & (py[1:] == py[:-1])])
        px, py = px[~dup], py[~dup]
        hull = _chain(px, py)
        if len(hull) >= 3 or keep_degenerate:
            out_x.append(px[hull])
            out_y.append(py[hull])
            out_counts[g] = len(hull)
    fx = np.concatenate(out_x) if out_x else np.empty(0)
    fy = np.concatenate(out_y) if out_y else np.empty(0)
    return fx, fy, np.concatenate([[0], np.cumsum(out_counts)]).astype(np.int64)


def _sort_groups(host: np.ndarray, gx: np.ndarray, gy: np.ndarray):
    """Lexsort points by (host, x, y); return sorted arrays + offsets."""
    order = np.lexsort((gy, gx, host))
    host, gx, gy = host[order], gx[order], gy[order]
    return host, gx, gy, _group_offsets(host)


def _pack_rings(fx: np.ndarray, fy: np.ndarray,
                offs: np.ndarray) -> pa.BinaryArray:
    """Ragged float64 rings -> zero-copy Arrow binary column (16 B per
    vertex: interleaved float64 x, y)."""
    flat = np.empty(len(fx) * 2, np.float64)
    flat[0::2] = fx
    flat[1::2] = fy
    return pa.Array.from_buffers(
        pa.binary(), len(offs) - 1,
        [None, pa.py_buffer((offs * 16).astype(np.int32).tobytes()),
         pa.py_buffer(flat.tobytes())])


def _unpack_rings(col) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of _pack_rings over an Arrow binary column (possibly
    chunked): returns (x, y, vertex offsets)."""
    bufs = [np.frombuffer(b, np.float64) for b in col.to_pylist()]
    counts = np.array([len(b) // 2 for b in bufs], np.int64)
    flat = (np.concatenate(bufs) if bufs else np.empty(0, np.float64))
    return (flat[0::2], flat[1::2],
            np.concatenate([[0], np.cumsum(counts)]).astype(np.int64))


def host_hulls(webpages_path: str, zoom: int = 3) -> ray.data.Dataset:
    """Per-host convex hull of mention positions in global pixel space
    at ``zoom``: (host, n_mentions, pts) with pts the packed open hull
    ring (positive shoelace). Hosts whose distinct mentions are
    collinear (< 3 hull points) are omitted — documented contract."""

    def partial(b: pa.Table) -> pa.Table:
        host_col = pc.struct_field(pc.extract_regex(b["url"], HOST_RE),
                                   "host")
        host = np.asarray(host_col)
        gx, gy = _global_px(b["lon"].to_numpy(), b["lat"].to_numpy(), zoom)
        host, gx, gy, offs = _sort_groups(host, gx, gy)
        hosts = host[offs[:-1]]
        n_mentions = offs[1:] - offs[:-1]
        fx, fy, hoffs = _hulls_of_groups(gx, gy, offs, keep_degenerate=True)
        return pa.table({
            "host": pa.array(hosts.tolist(), pa.string()),
            "n_mentions": pa.array(n_mentions, pa.int64()),
            "pts": _pack_rings(fx, fy, hoffs),
            "bucket": pa.array(bucket_of(_md5_u64(hosts.tolist()),
                                         _N_BUCKETS))},
            schema=_HULL_SCHEMA)

    def merge(g: pa.Table) -> pa.Table:
        host = np.asarray(g["host"])
        nm = g["n_mentions"].to_numpy()
        px, py, poffs = _unpack_rings(g["pts"])
        rid = np.repeat(np.arange(len(host)), poffs[1:] - poffs[:-1])
        hh = host[rid]
        order = np.lexsort((py, px, hh))
        hh, px, py = hh[order], px[order], py[order]
        offs = _group_offsets(hh)
        hosts = hh[offs[:-1]]
        fx, fy, hoffs = _hulls_of_groups(px, py, offs)
        counts = hoffs[1:] - hoffs[:-1]
        live = counts >= 3
        keep_hosts = hosts[live]
        sel = np.flatnonzero(live)
        parts_x = [fx[hoffs[g]:hoffs[g + 1]] for g in sel]
        parts_y = [fy[hoffs[g]:hoffs[g + 1]] for g in sel]
        kx = np.concatenate(parts_x) if parts_x else np.empty(0)
        ky = np.concatenate(parts_y) if parts_y else np.empty(0)
        koffs = np.concatenate(
            [[0], np.cumsum(counts[live])]).astype(np.int64)
        # per-host mention totals, aligned to keep_hosts (both sorted)
        horder = np.argsort(host, kind="stable")
        sh, snm = host[horder], nm[horder]
        hoffs2 = _group_offsets(sh)
        uh = sh[hoffs2[:-1]]
        sums = np.add.reduceat(snm, hoffs2[:-1]) if len(sh) else \
            np.empty(0, np.int64)
        totals = sums[np.searchsorted(uh, keep_hosts)]
        return pa.table({
            "host": pa.array(keep_hosts.tolist(), pa.string()),
            "n_mentions": pa.array(totals.astype(np.int64)),
            "pts": _pack_rings(kx, ky, koffs)},
            schema=_HULL_SCHEMA.remove(3))

    partials, _ = mentions(webpages_path, then=partial)
    return partials.groupby("bucket").map_groups(
        merge, batch_format="pyarrow")


def _tiling_stage(zoom: int, buffer: int):
    """hulls -> clipped per-(tile, host) ring rows. One clip_rings call
    per batch covers every (hull, cover-tile) pair."""
    n_tiles = 1 << zoom

    def fn(b: pa.Table) -> pa.Table:
        host = np.asarray(b["host"])
        nm = b["n_mentions"].to_numpy()
        px, py, poffs = _unpack_rings(b["pts"])
        counts = poffs[1:] - poffs[:-1]
        nh = len(host)
        if nh == 0 or len(px) == 0:
            return pa.table({
                "z": pa.array([], pa.int32()), "x": pa.array([], pa.int32()),
                "y": pa.array([], pa.int32()),
                "host": pa.array([], pa.string()),
                "n_mentions": pa.array([], pa.int64()),
                "ring": pa.array([], pa.binary()),
                "bucket": pa.array([], pa.int64())})
        rid = np.repeat(np.arange(nh), counts)
        # bbox cover per hull, clamped to the grid
        minx = np.minimum.reduceat(px, poffs[:-1])
        maxx = np.maximum.reduceat(px, poffs[:-1])
        miny = np.minimum.reduceat(py, poffs[:-1])
        maxy = np.maximum.reduceat(py, poffs[:-1])
        tx_lo = np.clip(np.floor((minx - buffer) / EXTENT),
                        0, n_tiles - 1).astype(np.int64)
        tx_hi = np.clip(np.floor((maxx + buffer) / EXTENT),
                        0, n_tiles - 1).astype(np.int64)
        ty_lo = np.clip(np.floor((miny - buffer) / EXTENT),
                        0, n_tiles - 1).astype(np.int64)
        ty_hi = np.clip(np.floor((maxy + buffer) / EXTENT),
                        0, n_tiles - 1).astype(np.int64)
        wx = tx_hi - tx_lo + 1
        wy = ty_hi - ty_lo + 1
        cover = wx * wy
        npairs = int(cover.sum())
        prep = np.repeat(np.arange(nh), cover)  # hull id per pair
        starts = np.concatenate([[0], np.cumsum(cover)[:-1]])
        li = np.arange(npairs, dtype=np.int64) - starts[prep]
        tx = tx_lo[prep] + li % wx[prep]
        ty = ty_lo[prep] + li // wx[prep]
        # replicate each hull's ring once per cover tile
        vper = counts[prep]
        roffs = np.concatenate([[0], np.cumsum(vper)]).astype(np.int64)
        vidx = (np.arange(int(vper.sum()), dtype=np.int64)
                - roffs[:-1].repeat(vper) + poffs[:-1][prep].repeat(vper))
        cx, cy, coffs = clip_rings(
            px[vidx], py[vidx], roffs,
            tx * EXTENT - buffer, ty * EXTENT - buffer,
            (tx + 1) * EXTENT + buffer, (ty + 1) * EXTENT + buffer)
        # -> integer local coords; drop consecutive dups; drop rings
        # degenerate after rounding; canonicalize orientation
        ccnt = coffs[1:] - coffs[:-1]
        crid = np.repeat(np.arange(npairs), ccnt)
        lx = np.rint(cx - tx[crid] * EXTENT).astype(np.int64)
        ly = np.rint(cy - ty[crid] * EXTENT).astype(np.int64)
        # consecutive-duplicate removal (with ring wraparound)
        prev = np.arange(-1, len(lx) - 1)
        first = coffs[:-1][ccnt > 0]
        prev[first] = coffs[1:][ccnt > 0] - 1  # wrap: prev of first = last
        dup = (lx == lx[prev]) & (ly == ly[prev]) & (ccnt[crid] > 1)
        # iterate the wrap dedup once more in case the last == first
        keepv = ~dup
        lx, ly, crid = lx[keepv], ly[keepv], crid[keepv]
        ccnt = np.bincount(crid, minlength=npairs).astype(np.int64)
        coffs = np.concatenate([[0], np.cumsum(ccnt)]).astype(np.int64)
        # signed areas (closed-ring formula expects the closing point:
        # surveyor_batch excludes offsets' last vertex, so append it)
        live_r = np.flatnonzero(ccnt >= 3)
        if len(live_r) == 0:
            return pa.table({
                "z": pa.array([], pa.int32()), "x": pa.array([], pa.int32()),
                "y": pa.array([], pa.int32()),
                "host": pa.array([], pa.string()),
                "n_mentions": pa.array([], pa.int64()),
                "ring": pa.array([], pa.binary()),
                "bucket": pa.array([], pa.int64())})
        # build closed rings for area + output in one pass
        lcnt = ccnt[live_r]
        l_in_offs = coffs[live_r]
        tot = int(lcnt.sum())
        src = (np.arange(tot, dtype=np.int64)
               - np.concatenate([[0], np.cumsum(lcnt)[:-1]]).repeat(lcnt)
               + l_in_offs.repeat(lcnt))
        closed_cnt = lcnt + 1
        closed_offs = np.concatenate(
            [[0], np.cumsum(closed_cnt)]).astype(np.int64)
        cxy = np.empty((int(closed_cnt.sum()), 2), np.int64)
        open_pos = (np.arange(tot, dtype=np.int64)
                    + np.repeat(np.arange(len(live_r)), lcnt))
        cxy[open_pos, 0] = lx[src]
        cxy[open_pos, 1] = ly[src]
        cxy[closed_offs[1:] - 1, 0] = lx[l_in_offs]
        cxy[closed_offs[1:] - 1, 1] = ly[l_in_offs]
        areas = surveyor_batch(cxy, closed_offs)
        nz = areas != 0.0
        # reverse negatively-oriented rings in place (vectorized:
        # per-ring descending position index)
        neg = np.flatnonzero(nz & (areas < 0))
        for g in neg:  # rounding rarely flips a convex ring: tiny loop
            lo, hi = closed_offs[g], closed_offs[g + 1]
            cxy[lo:hi] = cxy[lo:hi][::-1]
        sel = np.flatnonzero(nz)
        pair = live_r[sel]
        out_cnt = closed_cnt[sel]
        parts = [cxy[closed_offs[g]:closed_offs[g + 1]]
                 for g in sel]
        flat = (np.concatenate(parts) if parts
                else np.empty((0, 2), np.int64)).astype(np.int32)
        ooffs = np.concatenate([[0], np.cumsum(out_cnt)]).astype(np.int64)
        ring_col = pa.Array.from_buffers(
            pa.binary(), len(sel),
            [None, pa.py_buffer((ooffs * 8).astype(np.int32).tobytes()),
             pa.py_buffer(flat.tobytes())])
        tkey = tx[pair] * np.int64(n_tiles) + ty[pair]
        return pa.table({
            "z": pa.array(np.full(len(pair), zoom, np.int32)),
            "x": tx[pair].astype(np.int32),
            "y": ty[pair].astype(np.int32),
            "host": pa.array(host[prep[pair]].tolist(), pa.string()),
            "n_mentions": nm[prep[pair]],
            "ring": ring_col,
            "bucket": pa.array(bucket_of(tkey, _N_BUCKETS))})

    return fn


def _assemble_bucket_generic(g: pa.Table) -> pa.Table:
    """One polygon feature per (tile, host), host order, generic MVT
    encode per tile — kept as the byte-equality oracle for the batched
    kernel (tests/test_citytiles.py)."""
    tz = g["z"].to_numpy()
    tx = g["x"].to_numpy()
    ty = g["y"].to_numpy()
    host = np.asarray(g["host"])
    nm = g["n_mentions"].to_numpy()
    rings = g["ring"].to_pylist()
    order = np.lexsort((host, ty, tx))
    out = {"z": [], "x": [], "y": [], "mvt": [], "n_polys": []}
    i = 0
    n = len(order)
    while i < n:
        j = i
        oi = order[i]
        while (j < n and tx[order[j]] == tx[oi] and ty[order[j]] == ty[oi]):
            j += 1
        feats = []
        for fid, k in enumerate(order[i:j]):
            ring = np.frombuffer(rings[k], np.int32).astype(
                np.int64).reshape(-1, 2)
            feats.append(Feature(
                fid=fid,
                metadata={b"host": (ST, host[k].encode("utf-8")),
                          b"n_mentions": (I64V, int(nm[k]))},
                geometry=[[ring]]))
        layer = Layer(name=LAYER, version=2, extent=EXTENT, polygons=feats)
        out["z"].append(int(tz[oi]))
        out["x"].append(int(tx[oi]))
        out["y"].append(int(ty[oi]))
        out["mvt"].append(encode_tile(VectorTile({LAYER: layer})))
        out["n_polys"].append(len(feats))
        i = j
    return pa.table({
        "z": pa.array(out["z"], pa.int32()),
        "x": pa.array(out["x"], pa.int32()),
        "y": pa.array(out["y"], pa.int32()),
        "mvt": pa.array(out["mvt"], pa.binary()),
        "n_polys": pa.array(out["n_polys"], pa.int64())})


def _assemble_bucket(g: pa.Table) -> pa.Table:
    """One polygon feature per (tile, host), host order — WHOLE-GROUP
    batched encode (codec.fastshape.encode_hull_tiles): one numpy pass
    assembles every tile in the bucket, byte-identical to the generic
    per-tile path (_assemble_bucket_generic, pinned by pytest)."""
    n = g.num_rows
    if n == 0:
        return pa.table({
            "z": pa.array([], pa.int32()), "x": pa.array([], pa.int32()),
            "y": pa.array([], pa.int32()), "mvt": pa.array([], pa.binary()),
            "n_polys": pa.array([], pa.int64())})
    tz = g["z"].to_numpy()
    tx = g["x"].to_numpy()
    ty = g["y"].to_numpy()
    host = np.asarray(g["host"])
    nm = g["n_mentions"].to_numpy()
    rings = g["ring"].to_pylist()
    order = np.lexsort((host, ty, tx))
    txo, tyo = tx[order], ty[order]
    tstarts = np.flatnonzero(np.concatenate(
        ([True], (txo[1:] != txo[:-1]) | (tyo[1:] != tyo[:-1]))))
    n_polys = np.diff(np.append(tstarts, n))
    tile_offsets = np.concatenate([[0], np.cumsum(n_polys)]).astype(np.int64)
    flat_xy = [np.frombuffer(rings[k], np.int32) for k in order]
    counts = np.array([a.size // 2 for a in flat_xy], np.int64)
    allxy = np.concatenate(flat_xy) if flat_xy else np.empty(0, np.int32)
    lx = allxy[0::2].astype(np.int64)
    ly = allxy[1::2].astype(np.int64)
    ring_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    mvts = encode_hull_tiles(tile_offsets, host[order], nm[order],
                             ring_offsets, lx, ly,
                             extent=EXTENT, version=2)
    oi = order[tstarts]
    return pa.table({
        "z": pa.array(tz[oi].astype(np.int32), pa.int32()),
        "x": pa.array(tx[oi].astype(np.int32), pa.int32()),
        "y": pa.array(ty[oi].astype(np.int32), pa.int32()),
        "mvt": pa.array(mvts, pa.binary()),
        "n_polys": pa.array(n_polys.astype(np.int64))})


def polygon_tiles_pipeline(webpages_path: str, zoom: int = 3,
                           buffer: int = 128) -> ray.data.Dataset:
    """Per-host convex hulls -> clipped per-tile MVT polygon layers.
    See module docstring for the distribution shape."""
    hulls = host_hulls(webpages_path, zoom)
    rows = hulls.map_batches(_tiling_stage(zoom, buffer),
                             batch_format="pyarrow")
    return rows.groupby("bucket").map_groups(
        _assemble_bucket, batch_format="pyarrow")
