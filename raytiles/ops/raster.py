"""Raster <-> vector operators (north_rule: "raster<->vector").

- rasterize: mention points -> per-tile density grids (G x G uint32
  counts). Distributed exactly like the tile aggregation: per-batch
  partial grids would be dense waste, so partials stay sparse
  (tile, gx, gy, n) rows and one ``util.exchange`` on the packed tile
  key sums them; the dense grid is materialized only at the end
  (binary column, one row per tile).
- vectorize: density grid -> polygon features (one closed ring per
  hot grid cell, MVT winding) -> encoded "heat" MVT layer via the
  GENERIC encoder (exercises the polygon command path distributed).

The sparse cell counts are SQL-checkable (raster_cells); the binary
grids and the MVT output are rows-only with pytest roundtrip oracles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..codec.encode import encode_tile
from ..codec.fastshape import encode_heat_tiles
from ..codec.model import DO, I64V, Feature, Layer, VectorTile
from ..pipeline.flagship import mentions
from ..pipeline.stages import N_MERGE_BUCKETS
from ..util import derive_buckets, exchange, run_starts, sum_by_key

GRID = 256  # raster resolution per tile (4096 extent / 256 = 16px cells)
CELL = 4096 // GRID
_M26 = np.int64((1 << 26) - 1)


def _tile_key(z: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One int64 per tile, (z << 52) | (x << 26) | y: disjoint fields
    for zoom <= 25, so keys sort in (z, x, y) order."""
    return (z.astype(np.int64) << 52) | (x.astype(np.int64) << 26) \
        | y.astype(np.int64)


def _tile_zxy(key: np.ndarray):
    """(z, x, y) int64 arrays of ``_tile_key`` keys."""
    return key >> 52, (key >> 26) & _M26, key & _M26


def _cells_by_tile(assignments: ray.data.Dataset, fn) -> ray.data.Dataset:
    """Per-batch partial cell counts (tile, gx, gy, n), exchanged on
    the packed tile key so all of a tile's cells meet in one ``fn``
    call (the same shuffle pattern as the tile aggregation: never a
    ray-data groupby over a high-cardinality key — its Aggregate over
    30k (z,x,y,gx,gy) keys measured 21.7s where this path takes ~2s)."""
    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "tile": _tile_key(b["z"].to_numpy(), b["x"].to_numpy(),
                              b["y"].to_numpy()),
            "gx": (b["local_x"].to_numpy() // CELL).astype(np.int64),
            "gy": (b["local_y"].to_numpy() // CELL).astype(np.int64),
        })
        g = pa.TableGroupBy(t, ["tile", "gx", "gy"]).aggregate(
            [("gx", "count")])
        return g.rename_columns(["tile", "gx", "gy", "n"])

    return exchange(assignments.map_batches(partial, batch_format="pyarrow"),
                    "tile", fn, N_MERGE_BUCKETS)


def _cell_sums(g: pa.Table) -> pa.Table:
    """(tile, gx, gy, n_sum): one exchange group's partial cell counts
    summed per cell."""
    return pa.TableGroupBy(g.select(["tile", "gx", "gy", "n"]),
                           ["tile", "gx", "gy"]).aggregate([("n", "sum")])


def raster_cells(assignments: ray.data.Dataset) -> ray.data.Dataset:
    """Sparse raster: (z, x, y, gx, gy, n) — count of mentions per
    GRID x GRID cell per tile. SQL twin: gx = local_x // 16."""
    def unpack(b: pa.Table) -> pa.Table:  # per block, not per bucket
        z, x, y = _tile_zxy(b["tile"].to_numpy())
        return pa.table({"z": z, "x": x, "y": y, "gx": b["gx"], "gy": b["gy"],
                         "n": b["n_sum"]})

    return _cells_by_tile(assignments, _cell_sums) \
        .map_batches(unpack, batch_format="pyarrow", batch_size=None)


_RASTER_BYTES = None  # set below once GRID is final


def _binary_from_grids(grids: np.ndarray) -> pa.Array:
    """(T, GRID, GRID) uint32 -> BinaryArray of T fixed-size blobs,
    built from the contiguous buffer directly — zero Python bytes
    objects. Chunked construction keeps int32 offsets valid for any
    group size (one chunk covers <= 8191 tiles at GRID=256)."""
    T = grids.shape[0]
    blob = GRID * GRID * 4
    per = max(1, (2**31 - 1) // blob)
    parts = []
    for a in range(0, T, per):
        sub = np.ascontiguousarray(grids[a:min(T, a + per)])
        k = sub.shape[0]
        offsets = (np.arange(k + 1, dtype=np.int32) * blob)
        parts.append(pa.Array.from_buffers(
            pa.binary(), k,
            [None, pa.py_buffer(offsets), pa.py_buffer(sub)]))
    return pa.concat_arrays(parts)


def densify_bucket(g: pa.Table) -> pa.Table:
    """One bucket group's sparse cells -> dense per-tile grids, fully
    Arrow/numpy (no pandas conversion, no per-tile Python loop): the
    group's tiles stack into ONE (T, GRID, GRID) array scattered in a
    single fancy-index pass, and the binary column is built straight
    from that array's buffer."""
    s = _cell_sums(g)
    tile, gx, gy, n = (s[c].to_numpy() for c in ("tile", "gx", "gy", "n_sum"))
    order = np.argsort(tile, kind="stable")
    tile, gx, gy, n = (a[order] for a in (tile, gx, gy, n))
    first = run_starts(tile)
    starts = np.flatnonzero(first)
    grids = np.zeros((starts.size, GRID, GRID), dtype=np.uint32)
    grids[np.cumsum(first) - 1, gy, gx] = n
    z, x, y = _tile_zxy(tile[starts])
    return pa.table({"z": z, "x": x, "y": y,
                     "raster": _binary_from_grids(grids),
                     "n_points": np.add.reduceat(n, starts)})


def rasterize_tiles(assignments: ray.data.Dataset) -> ray.data.Dataset:
    """Dense per-tile grids: {z, x, y, raster: binary} where raster is
    GRID*GRID little-endian uint32 counts (row-major, y-down). One
    bucket group densifies all its tiles in one vectorized call."""
    return _cells_by_tile(assignments, densify_bucket)


def vectorize_raster(rasters: ray.data.Dataset, threshold: int = 1) -> ray.data.Dataset:
    """Raster -> vector: every grid cell with count >= threshold
    becomes a square polygon feature (closed CW exterior ring in
    tile-local coordinates, metadata {count: I64, density: Do}),
    encoded as the MVT layer "heat" by the WHOLE-BATCH columnar
    encoder (codec.fastshape — byte-identical to the generic encoder,
    asserted in tests; no per-cell Python objects). Returns
    {z, x, y, mvt, n_polys}.

    Output contract: tiles with NO cell >= threshold are OMITTED from
    the output (an MVT layer with zero features is an encode error in
    the reference, Internal.hs feats; an all-cold tile has no valid
    "heat" tile to emit). With the default threshold=1 every input
    tile has a hot cell, so cardinality equals the input's."""
    def fn(b: pa.Table) -> pa.Table:
        EMPTY = pa.schema([("z", pa.int64()), ("x", pa.int64()),
                           ("y", pa.int64()), ("mvt", pa.binary()),
                           ("n_polys", pa.int64())])
        T = b.num_rows
        if T == 0:
            return EMPTY.empty_table()
        grids = _grids_from_binary(b["raster"])
        # one 3D pass over the whole batch: hot cells in (tile,
        # row-major) order — identical per-tile order to a per-tile
        # nonzero, so encode_heat_tiles input (and bytes) is unchanged
        tsel, gy, gx = np.nonzero(grids >= threshold)
        if tsel.size == 0:
            return EMPTY.empty_table()
        cnt = grids[tsel, gy, gx].astype(np.int64)
        totals = grids.sum(axis=(1, 2), dtype=np.int64).astype(np.float64)
        dens = np.floor(cnt / totals[tsel] * 1e6) / 1e6
        per_tile = np.bincount(tsel, minlength=T).astype(np.int64)
        offs = np.concatenate([[0], np.cumsum(per_tile)])
        mvts = encode_heat_tiles(offs, gx.astype(np.int64),
                                 gy.astype(np.int64), cnt, dens, CELL)
        keep = np.flatnonzero(per_tile > 0)
        return pa.table({
            "z": pa.array(b["z"].to_numpy()[keep].astype(np.int64), pa.int64()),
            "x": pa.array(b["x"].to_numpy()[keep].astype(np.int64), pa.int64()),
            "y": pa.array(b["y"].to_numpy()[keep].astype(np.int64), pa.int64()),
            "mvt": pa.array([mvts[i] for i in keep], pa.binary()),
            "n_polys": pa.array(per_tile[keep], pa.int64())})

    return rasters.map_batches(fn, batch_format="pyarrow", batch_size=64)


def vectorize_raster_generic(grid: np.ndarray, threshold: int = 1) -> bytes:
    """The per-cell generic-encoder path for ONE grid — kept as the
    byte-equality oracle for the columnar heat encoder
    (test_fastshape_heat_byte_equality)."""
    gy, gx = np.nonzero(grid >= threshold)
    total = float(grid.sum())
    feats = []
    for i in range(gx.size):
        x0, y0 = int(gx[i]) * CELL, int(gy[i]) * CELL
        # y-down CW square, closed (positive shoelace = exterior)
        ring = np.array([[x0, y0], [x0 + CELL, y0],
                         [x0 + CELL, y0 + CELL], [x0, y0 + CELL],
                         [x0, y0]], dtype=np.int64)
        n = int(grid[gy[i], gx[i]])
        feats.append(Feature(
            fid=i,
            metadata={b"count": (I64V, n),
                      b"density": (DO, np.floor(n / total * 1e6) / 1e6)},
            geometry=[[ring]]))
    layer = Layer(name=b"heat", version=2, extent=4096, polygons=feats)
    return encode_tile(VectorTile({b"heat": layer}))


def tile_pyramid(assignments: ray.data.Dataset,
                 zooms=(6, 8, 10, 12), base_zoom: int = 12) -> ray.data.Dataset:
    """Tile-pyramid rollup: mention counts per tile at several zooms
    from ONE base-zoom assignment pass (parent tile = child >> dz).
    Partial counts per batch, one exchange on the packed tile key
    into the final merge. SQL twin: UNION ALL of integer-divided
    groupbys."""
    def partial(b: pa.Table) -> pa.Table:
        x = b["x"].to_numpy().astype(np.int64)
        y = b["y"].to_numpy().astype(np.int64)
        zs = np.repeat(np.asarray(zooms, np.int64), x.size)
        xs = np.concatenate([x >> (base_zoom - zp) for zp in zooms])
        ys = np.concatenate([y >> (base_zoom - zp) for zp in zooms])
        tile, n = np.unique(_tile_key(zs, xs, ys), return_counts=True)
        return pa.table({"tile": tile, "n": n.astype(np.int64)})

    def final_sum(g: pa.Table) -> pa.Table:
        tile, n = sum_by_key(g["tile"].to_numpy(), g["n"].to_numpy())
        z, x, y = _tile_zxy(tile)
        return pa.table({"z": z, "x": x, "y": y, "n": n})

    return exchange(assignments.map_batches(partial, batch_format="pyarrow"),
                    "tile", final_sum, N_MERGE_BUCKETS)


def heatmap_pipeline(webpages_path: str, zoom: int = 8) -> ray.data.Dataset:
    """webpages -> mentions -> raster grids -> vectorized heat MVTs.
    Lower default zoom than the flagship: heat tiles aggregate wider
    areas (z=8 tile ~ 150 km)."""
    ds = mentions(webpages_path, zoom)[0]
    return vectorize_raster(rasterize_tiles(ds))


def tile_neighborhood(webpages_path: str, zoom: int = 12) -> ray.data.Dataset:
    """3x3 neighborhood aggregation over the tile grid (a distributed
    spatial stencil / self-join): for every non-empty tile, its own
    feature count plus the total over the 8 surrounding tiles.

    Shape: per-batch partial counts per tile (np.unique — a batch
    holds few distinct tiles), each partial REPLICATED to its <= 9
    clipped neighbor targets carrying (n_hood_part, n_self_part), then
    ONE exchange on the target tile and a vectorized sum-merge.
    Replication commutes with summation, so partials replicate BEFORE
    the shuffle and the merge is a plain sum by key — no join, no
    second pass. At the edges neighbors clip (no wraparound), matching
    the oracle's BETWEEN self-join."""
    n_buckets = derive_buckets(webpages_path, 1024)
    n = 1 << zoom

    def partial(b: pa.Table) -> pa.Table:
        key = b["x"].to_numpy() * n + b["y"].to_numpy()
        ku, cnt = np.unique(key, return_counts=True)
        cx, cy = ku // n, ku % n
        tx, ty, hood, own = [], [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                gx, gy = cx + dx, cy + dy
                ok = (gx >= 0) & (gx < n) & (gy >= 0) & (gy < n)
                tx.append(gx[ok])
                ty.append(gy[ok])
                hood.append(cnt[ok])
                own.append(cnt[ok] if dx == 0 and dy == 0
                           else np.zeros(int(ok.sum()), dtype=np.int64))
        return pa.table({
            "key": np.concatenate(tx) * n + np.concatenate(ty),
            "n_hood": np.concatenate(hood).astype(np.int64),
            "n_self": np.concatenate(own)})

    def merge(g: pa.Table) -> pa.Table:
        key, hood, own = sum_by_key(*(g[c].to_numpy()
                                      for c in ("key", "n_hood", "n_self")))
        live = own > 0  # only non-empty tiles
        key = key[live]
        return pa.table({
            "z": np.full(key.size, zoom, dtype=np.int64),
            "x": key // n, "y": key % n,
            "n_features": own[live], "n_hood": hood[live]})

    partials, _ = mentions(webpages_path, zoom, then=partial)
    return exchange(partials, "key", merge, n_buckets)


def _clusters_by_tile(webpages_path: str, zoom: int, radius: int, fn):
    """Shared exchange of the supercluster family: per batch, collapse
    mentions to per-(tile, grid-cell) rows carrying (key, n,
    sum_local_x, sum_local_y), then exchange on the tile so one tile's
    whole cell set (<= (4096/radius)^2 rows) meets in one ``fn`` call.
    A cell's key is (tile * cells + gx) * cells + gy, with tile =
    x * 2^zoom + y and cells = 4096 // radius."""
    n = 1 << zoom
    cells = 4096 // radius

    def partial(b: pa.Table) -> pa.Table:
        tx = b["x"].to_numpy().astype(np.int64)
        ty = b["y"].to_numpy().astype(np.int64)
        lx = b["local_x"].to_numpy().astype(np.int64)
        ly = b["local_y"].to_numpy().astype(np.int64)
        tile = tx * n + ty
        key = (tile * cells + lx // radius) * cells + ly // radius
        uk, inv = np.unique(key, return_inverse=True)
        cnt = np.bincount(inv)
        sx = np.bincount(inv, weights=lx).astype(np.int64)
        sy = np.bincount(inv, weights=ly).astype(np.int64)
        return pa.table({
            "key": uk, "n": cnt.astype(np.int64), "sx": sx, "sy": sy,
            "tile": uk // (cells * cells)})

    partials, _ = mentions(webpages_path, zoom, then=partial)
    return exchange(partials, "tile", fn, derive_buckets(webpages_path, 512))


def _cluster_sums(g: pa.Table):
    """(key, n, sx, sy) per cell of one ``_clusters_by_tile`` group,
    keys ascending."""
    return sum_by_key(*(g[c].to_numpy() for c in ("key", "n", "sx", "sy")))


def point_clusters(webpages_path: str, zoom: int = 12,
                   radius: int = 256) -> ray.data.Dataset:
    """Supercluster-style map clustering (the display-time point
    reduction every slippy-map product ships): mentions bin into
    ``radius``-extent-unit grid cells inside their tile; each occupied
    cell becomes one cluster row with an exact integer centroid
    (sum // n — a singleton's centroid IS its original point) and its
    point count. Per-batch partials collapse a batch to occupied-cell
    rows before the ONE exchange on the tile; a tile contributes at
    most (4096/radius)^2 rows per batch, so reducer state is bounded
    at any corpus size."""
    n, cells = 1 << zoom, 4096 // radius

    def merge(g: pa.Table) -> pa.Table:
        key, npts, sx, sy = _cluster_sums(g)
        gy = key % cells
        gx = (key // cells) % cells
        tile = key // (cells * cells)
        return pa.table({
            "z": pa.array(np.full(key.size, zoom, np.int64)),
            "x": pa.array(tile // n), "y": pa.array(tile % n),
            "gx": pa.array(gx), "gy": pa.array(gy),
            "n": pa.array(npts),
            "cx": pa.array(sx // npts), "cy": pa.array(sy // npts)})

    return _clusters_by_tile(webpages_path, zoom, radius, merge)


def cluster_tiles_pipeline(webpages_path: str, zoom: int = 12,
                           radius: int = 256) -> ray.data.Dataset:
    """The MVT face of point_clusters: per tile, one point feature per
    occupied cell at the integer centroid, carrying point_count (I64)
    metadata — fid = gx * cells + gy so the feature set is
    deterministic. Same single bounded shuffle; the reducer both
    merges cell partials and encodes its tiles."""
    n, cells = 1 << zoom, 4096 // radius

    def encode_group(g: pa.Table) -> pa.Table:
        key, npts, sx, sy = _cluster_sums(g)
        cx, cy = sx // npts, sy // npts
        cell = key % (cells * cells)
        tile = key // (cells * cells)
        ut, start = np.unique(tile, return_index=True)
        bounds = np.append(start, key.size)
        oz, ox, oy, om, on = [], [], [], [], []
        for t in range(ut.size):
            lo, hi = bounds[t], bounds[t + 1]
            feats = [Feature(int(cell[i]),
                             {b"point_count": (I64V, int(npts[i]))},
                             np.array([[cx[i], cy[i]]], np.int64))
                     for i in range(lo, hi)]
            layer = Layer(name=b"clusters", version=2, extent=4096,
                          points=feats)
            oz.append(zoom)
            ox.append(int(ut[t] // n))
            oy.append(int(ut[t] % n))
            om.append(encode_tile(VectorTile({b"clusters": layer})))
            on.append(hi - lo)
        return pa.table({"z": pa.array(oz, pa.int64()),
                         "x": pa.array(ox, pa.int64()),
                         "y": pa.array(oy, pa.int64()),
                         "mvt": pa.array(om, pa.binary()),
                         "n_clusters": pa.array(on, pa.int64())})

    return _clusters_by_tile(webpages_path, zoom, radius, encode_group)


def raster_blur(webpages_path: str, zoom: int = 8,
                grid_cell: int = 16) -> ray.data.Dataset:
    """Distributed raster convolution with ghost-cell (halo) exchange:
    a 3x3 integer binomial kernel (1 2 1 / 2 4 2 / 1 2 1) over the
    GLOBAL sub-tile density grid — cells are global coordinates
    (tile * cells_per_tile + cell), so the stencil crosses tile
    borders exactly where a per-tile blur would seam.

    Shape: convolution commutes with summation, so each batch's
    per-cell count partials REPLICATE to their <= 9 clipped neighbor
    targets with the kernel weight pre-multiplied; ONE exchange on the
    target cell and a vectorized sum-merge finish it — no join, no
    dense grid materialization, work proportional to OCCUPIED cells
    (9x), never to grid area. All-integer weights keep the result
    exact at any merge order."""
    n_buckets = derive_buckets(webpages_path, 1024)
    cells = 4096 // grid_cell
    span = (1 << zoom) * cells  # global cells per axis
    kernel = [(-1, -1, 1), (-1, 0, 2), (-1, 1, 1),
              (0, -1, 2), (0, 0, 4), (0, 1, 2),
              (1, -1, 1), (1, 0, 2), (1, 1, 1)]

    def partial(b: pa.Table) -> pa.Table:
        gx = b["x"].to_numpy().astype(np.int64) * cells \
            + b["local_x"].to_numpy().astype(np.int64) // grid_cell
        gy = b["y"].to_numpy().astype(np.int64) * cells \
            + b["local_y"].to_numpy().astype(np.int64) // grid_cell
        key = gx * span + gy
        uk, cnt = np.unique(key, return_counts=True)
        ux, uy = uk // span, uk % span
        tx, ty, tw = [], [], []
        for dx, dy, w in kernel:
            nx, ny = ux + dx, uy + dy
            ok = (nx >= 0) & (nx < span) & (ny >= 0) & (ny < span)
            tx.append(nx[ok])
            ty.append(ny[ok])
            tw.append(cnt[ok] * w)
        return pa.table({
            "key": np.concatenate(tx) * span + np.concatenate(ty),
            "v": np.concatenate(tw).astype(np.int64)})

    def merge(g: pa.Table) -> pa.Table:
        key, v = sum_by_key(g["key"].to_numpy(), g["v"].to_numpy())
        return pa.table({"gx": key // span, "gy": key % span, "blurred": v})

    partials, _ = mentions(webpages_path, zoom, then=partial)
    return exchange(partials, "key", merge, n_buckets)


# marching squares: case index = 8*TL + 4*TR + 2*BR + 1*BL (inside
# bits); saddles (5, 10) split as two separate corners. Each entry is
# the list of (edge_a, edge_b) midpoint pairs the block contributes;
# edges are N/S/W/E of the 2x2 block of cell centers.
_MS_TABLE = {
    1: [("W", "S")], 2: [("S", "E")], 3: [("W", "E")],
    4: [("N", "E")], 5: [("N", "E"), ("W", "S")], 6: [("N", "S")],
    7: [("W", "N")], 8: [("W", "N")], 9: [("N", "S")],
    10: [("W", "N"), ("S", "E")], 11: [("N", "E")], 12: [("W", "E")],
    13: [("S", "E")], 14: [("W", "S")],
}


def _ms_edge_xy(edge: str, bx: np.ndarray, by: np.ndarray, s: int):
    """Midpoint of a block edge in tile-local pixels; cell centers sit
    at (s*g + s/2), so midpoints are exact integers for even s."""
    h = s // 2
    if edge == "N":
        return bx * s + s, by * s + h
    if edge == "S":
        return bx * s + s, by * s + s + h
    if edge == "W":
        return bx * s + h, by * s + s
    return bx * s + s + h, by * s + s  # E


def _ms_segments(grid: np.ndarray, threshold: int, s: int):
    """Vectorized marching squares over one dense grid[gy, gx]:
    returns (x0, y0, x1, y1) int64 segment arrays, block scan order
    (deterministic). Test reference: test_ms_sparse_matches_dense_kernel
    checks ``_ms_segments_sparse`` against it."""
    B = grid >= threshold
    occ_rows = np.nonzero(B.any(axis=1))[0]
    if occ_rows.size == 0:
        z = np.zeros(0, np.int64)
        return z, z, z, z
    occ_cols = np.nonzero(B.any(axis=0))[0]
    # trim to the occupied bounding box (+1 halo): the case array and
    # the single boundary scan below cost bbox area, not grid area
    ry0 = max(int(occ_rows[0]) - 1, 0)
    ry1 = min(int(occ_rows[-1]) + 2, B.shape[0])
    rx0 = max(int(occ_cols[0]) - 1, 0)
    rx1 = min(int(occ_cols[-1]) + 2, B.shape[1])
    Bb = B[ry0:ry1, rx0:rx1]
    case = (Bb[:-1, :-1].astype(np.uint8) << 3) \
        | (Bb[:-1, 1:].astype(np.uint8) << 2) \
        | (Bb[1:, 1:].astype(np.uint8) << 1) \
        | Bb[1:, :-1].astype(np.uint8)
    # ONE bbox scan finds the boundary blocks; the per-case masks then
    # work over the (boundary-length-sized) candidate list only
    by_all, bx_all = np.nonzero((case > 0) & (case < 15))
    by_all = by_all + ry0
    bx_all = bx_all + rx0
    cvals = case[by_all - ry0, bx_all - rx0]
    outs = []
    for c, pairs in _MS_TABLE.items():
        m = cvals == c
        if not m.any():
            continue
        bx, by = bx_all[m], by_all[m]
        for ea, eb in pairs:
            x0, y0 = _ms_edge_xy(ea, bx, by, s)
            x1, y1 = _ms_edge_xy(eb, bx, by, s)
            outs.append((x0, y0, x1, y1))
    if not outs:
        z = np.zeros(0, np.int64)
        return z, z, z, z
    return tuple(np.concatenate([o[i] for o in outs]).astype(np.int64)
                 for i in range(4))


def _grids_from_binary(col) -> np.ndarray:
    """Zero-copy view of a batch's raster blobs as (T, GRID, GRID)
    uint32 — the blobs are fixed-size by construction, so the binary
    column's data buffer IS the stacked array. Handles binary (int32
    offsets) and large_binary (int64 — Ray block coalescing can
    promote the type, the r2 large_string lesson)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    T = len(col)
    odt = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    offs = np.frombuffer(col.buffers()[1], dtype=odt)[
        col.offset:col.offset + T + 1].astype(np.int64)
    blob = GRID * GRID * 4
    assert ((offs[1:] - offs[:-1]) == blob).all(), "non-uniform raster blob"
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)[offs[0]:offs[-1]]
    return data.view(np.uint32).reshape(T, GRID, GRID)


def _ms_segments_sparse(tile: np.ndarray, gx: np.ndarray, gy: np.ndarray,
                        s: int):
    """Marching squares over SPARSE occupied cells of MANY tiles in one
    vectorized pass — no dense grid ever materializes. The case array
    is nonzero only on 2x2 blocks touching an occupied cell, so
    candidates are the <= 4 clipped blocks per cell (work tracks the
    contour length / occupancy, not grid area — mean occupancy measured
    3.4 cells per 65k-cell tile at sf0.1, so a dense pass is ~all
    waste). Corner membership is a searchsorted against the sorted
    occupied-key set. Inputs: tile = opaque int64 tile key per occupied
    cell (cells already threshold-filtered), gx/gy cell coords.
    Returns (tile_key, x0, y0, x1, y1); per-tile segment multiset and
    within-tile (case-major, scan) order match the dense kernel
    (np.unique sorts candidates tile-major then scan-order)."""
    G = GRID
    occ_key = (tile * G + gy) * G + gx
    occ_sorted = np.sort(occ_key)
    cands = []
    for dby in (-1, 0):
        for dbx in (-1, 0):
            by = gy + dby
            bx = gx + dbx
            ok = (by >= 0) & (by <= G - 2) & (bx >= 0) & (bx <= G - 2)
            cands.append((tile[ok] * G + by[ok]) * G + bx[ok])
    cand = np.unique(np.concatenate(cands)) if cands else np.empty(0, np.int64)
    if cand.size == 0:
        z = np.zeros(0, np.int64)
        return z, z, z, z, z
    bt = cand // (G * G)
    rem = cand % (G * G)
    by = rem // G
    bx = rem % G

    def member(cy, cx):
        k = (bt * G + cy) * G + cx
        i = np.searchsorted(occ_sorted, k)
        i[i >= occ_sorted.size] = occ_sorted.size - 1
        return (occ_sorted[i] == k).astype(np.uint8)

    case = (member(by, bx) << 3) | (member(by, bx + 1) << 2) \
        | (member(by + 1, bx + 1) << 1) | member(by + 1, bx)
    sel = (case > 0) & (case < 15)
    bt, bx, by, cvals = bt[sel], bx[sel], by[sel], case[sel]
    outs = []
    for c, pairs in _MS_TABLE.items():
        m = cvals == c
        if not m.any():
            continue
        cbx, cby, ct = bx[m], by[m], bt[m]
        for ea, eb in pairs:
            x0, y0 = _ms_edge_xy(ea, cbx, cby, s)
            x1, y1 = _ms_edge_xy(eb, cbx, cby, s)
            outs.append((ct, x0, y0, x1, y1))
    if not outs:
        z = np.zeros(0, np.int64)
        return z, z, z, z, z
    return tuple(np.concatenate([o[i] for o in outs]).astype(np.int64)
                 for i in range(5))


def _iso_cells_group(g: pa.Table, threshold: int):
    """One bucket group's sparse cell partials -> threshold-filtered
    occupied cells with a DENSE per-group tile index (the kernel packs
    tile*G*G + cell into int64, so tile ids must stay small — a packed
    (z,x,y) key would overflow). All of a tile's cells co-locate in
    its bucket group by construction. Returns (tidx, gx, gy, uz, ux,
    uy): cell rows indexed into the group's unique sorted tiles."""
    s = _cell_sums(g)
    tile, gx, gy, n = (s[c].to_numpy() for c in ("tile", "gx", "gy", "n_sum"))
    keep = n >= threshold
    ut, tidx = np.unique(tile[keep], return_inverse=True)
    return (tidx.astype(np.int64), gx[keep], gy[keep]) + _tile_zxy(ut)


def iso_segments(webpages_path: str, zoom: int = 8,
                 threshold: int = 1) -> ray.data.Dataset:
    """Marching-squares isoline SEGMENTS: for every 2x2 block of cell
    centers straddling ``threshold``, the standard case table emits
    1-2 segments between edge midpoints (integer tile-local pixels).

    Fully SPARSE end to end: sparse per-batch cell partials -> ONE
    exchange on the tile -> per-group threshold filter + sparse
    marching squares (_ms_segments_sparse). The dense raster (256KB
    per tile, ~11GB at sf0.1) never materializes for this query; work
    and memory track occupied cells only."""
    s = 4096 // GRID

    def fn(g: pa.Table) -> pa.Table:
        EMPTY = pa.schema([(c, pa.int64()) for c in
                           ("z", "x", "y", "x0", "y0", "x1", "y1")])
        tidx, gx, gy, uz, ux, uy = _iso_cells_group(g, threshold)
        if tidx.size == 0:
            return EMPTY.empty_table()
        tt, x0, y0, x1, y1 = _ms_segments_sparse(tidx, gx, gy, s)
        if tt.size == 0:
            return EMPTY.empty_table()
        return pa.table({
            "z": pa.array(uz[tt], pa.int64()),
            "x": pa.array(ux[tt], pa.int64()),
            "y": pa.array(uy[tt], pa.int64()),
            "x0": pa.array(x0, pa.int64()), "y0": pa.array(y0, pa.int64()),
            "x1": pa.array(x1, pa.int64()), "y1": pa.array(y1, pa.int64())})

    return _cells_by_tile(mentions(webpages_path, zoom)[0], fn)


def isolines_pipeline(webpages_path: str, zoom: int = 8,
                      threshold: int = 1) -> ray.data.Dataset:
    """The MVT face: marching-squares segments chained into polylines
    (open contours where the iso-curve exits the tile, closed loops
    inside) and encoded as one multi-linestring feature per tile in
    layer "isolines" with threshold/n_lines metadata. Chaining is a
    per-tile endpoint walk over the (bounded) segment set: every
    vertex has degree <= 2 by construction of the saddle-splitting
    case table, so contours are simple paths/cycles; open paths chain
    first (from degree-1 vertices in scan order), then cycles."""
    s = 4096 // GRID

    def chain(x0, y0, x1, y1):
        n = x0.size
        adj = {}
        for i in range(n):
            a = (int(x0[i]), int(y0[i]))
            bpt = (int(x1[i]), int(y1[i]))
            adj.setdefault(a, []).append((i, bpt))
            adj.setdefault(bpt, []).append((i, a))
        used = np.zeros(n, dtype=bool)
        lines = []

        def walk(start):
            path = [start]
            cur = start
            while True:
                nxt = next(((i, o) for i, o in adj[cur] if not used[i]),
                           None)
                if nxt is None:
                    break
                used[nxt[0]] = True
                cur = nxt[1]
                path.append(cur)
            return path

        starts = sorted(v for v, e in adj.items() if len(e) == 1)
        for v in starts:
            if any(not used[i] for i, _ in adj[v]):
                lines.append(walk(v))
        for i in range(n):  # remaining cycles, scan order
            if not used[i]:
                used[i] = True
                path = walk((int(x1[i]), int(y1[i])))
                lines.append([(int(x0[i]), int(y0[i]))] + path)
        return [np.array(p, np.int64) for p in lines]

    def fn(g: pa.Table) -> pa.Table:
        EMPTY = pa.schema([("z", pa.int64()), ("x", pa.int64()),
                           ("y", pa.int64()), ("mvt", pa.binary()),
                           ("n_lines", pa.int64())])
        tidx, gx, gy, uz, ux, uy = _iso_cells_group(g, threshold)
        if tidx.size == 0:
            return EMPTY.empty_table()
        tt, x0, y0, x1, y1 = _ms_segments_sparse(tidx, gx, gy, s)
        if tt.size == 0:
            return EMPTY.empty_table()
        # stable sort by tile: within a tile the sparse pass's
        # case-major-then-scan order equals the old per-tile order, so
        # chaining (order-sensitive) emits the same polylines/bytes
        order = np.argsort(tt, kind="stable")
        tt, x0, y0, x1, y1 = (a[order] for a in (tt, x0, y0, x1, y1))
        starts = np.flatnonzero(run_starts(tt))
        bounds = np.append(starts, tt.size)
        rows = {"z": [], "x": [], "y": [], "mvt": [], "n_lines": []}
        for k in range(starts.size):
            lo, hi = bounds[k], bounds[k + 1]
            lines = chain(x0[lo:hi], y0[lo:hi], x1[lo:hi], y1[lo:hi])
            feat = Feature(threshold,
                           {b"threshold": (I64V, threshold),
                            b"n_lines": (I64V, len(lines))}, lines)
            layer = Layer(name=b"isolines", version=2, extent=4096,
                          linestrings=[feat])
            t = int(tt[lo])
            rows["z"].append(int(uz[t]))
            rows["x"].append(int(ux[t]))
            rows["y"].append(int(uy[t]))
            rows["mvt"].append(encode_tile(VectorTile({b"isolines": layer})))
            rows["n_lines"].append(len(lines))
        return pa.table({
            "z": pa.array(rows["z"], pa.int64()),
            "x": pa.array(rows["x"], pa.int64()),
            "y": pa.array(rows["y"], pa.int64()),
            "mvt": pa.array(rows["mvt"], pa.binary()),
            "n_lines": pa.array(rows["n_lines"], pa.int64())})

    return _cells_by_tile(mentions(webpages_path, zoom)[0], fn)
