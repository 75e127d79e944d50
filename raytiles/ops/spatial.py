"""Spatial-join operators over geoparsed mentions: radius (geofence)
join, nearest-neighbour join, per-host bounding boxes, and bbox tile
cover — the spatial-join surface of the north rule ("spatial-join +
tiling engine ... point-in-polygon, kNN") beyond the tile/cell
assignment the flagship already does.

Distance semantics: squared coordinate-space distance
d2 = (lat-a)^2 + (lon-b)^2 — pure IEEE multiply/add, so the engine
(numpy float64) and the DuckDB twin are bit-identical with no trig
parity risk; a production haversine drops in without changing the
join shape. The fence/city table is tiny and ships inside the pickled
closure — a large fence set would broadcast via ray.put exactly like
the flagship's R-tree (pipeline/stages.py).

Scale shape: the radius and nearest joins are shuffle-free broadcast
joins (one (batch × fences) numpy matrix per batch); host_bbox follows
the repo's partial -> bounded-md5-bucket -> merge discipline; the tile
cover bounds its fan-out by the cover zoom (<= 4^z tiles per host —
pick z so 4^z is a sane per-row cap, documented per the
custom-operator ladder).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..geo.tilemath import lonlat_to_tile
from ..pipeline.flagship import mentions
from ..pipeline.synth import CITIES
from ..util import bucket_of, derive_buckets, join, pair_key
from .relational import _fq
from .similarity import _cached_stage
from .webcorpus import HOST_RE, _md5_u64

FENCE_RADIUS_DEG = 2.0  # squared-degree geofence radius


def _mentions(webpages_path: str, zoom: int | None = None) -> ray.data.Dataset:
    return mentions(webpages_path, zoom)[0]


def _d2_matrix(lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """(n_mentions, n_cities) squared coordinate distance — explicit
    x*x form, matching the oracle's multiplication exactly."""
    dlat = lat[:, None] - CITIES[:, 0][None, :]
    dlon = lon[:, None] - CITIES[:, 1][None, :]
    return dlat * dlat + dlon * dlon


def geofence_join(webpages_path: str,
                  radius: float = FENCE_RADIUS_DEG) -> ray.data.Dataset:
    """Radius join: every (mention, fence) pair with d2 <= radius^2.
    A mention near two cities emits two rows (a genuine join, not an
    assignment)."""
    r2 = radius * radius

    def fn(b: pa.Table) -> pa.Table:
        lon = b["lon"].to_numpy()
        lat = b["lat"].to_numpy()
        d2 = _d2_matrix(lon, lat)
        i, j = np.nonzero(d2 <= r2)
        return pa.table({
            "url": pc.take(b["url"], pa.array(i)),
            "mention_idx": pc.take(pc.cast(b["mention_idx"], pa.int64()),
                                   pa.array(i)),
            "fence_id": j.astype(np.int64),
            "d2": d2[i, j]})

    return _mentions(webpages_path).map_batches(fn, batch_format="pyarrow")


def nearest_city(webpages_path: str) -> ray.data.Dataset:
    """Nearest-neighbour join: each mention's closest city (ties break
    to the lowest city_id — argmin and the oracle's row_number agree
    by construction)."""

    def fn(b: pa.Table) -> pa.Table:
        lon = b["lon"].to_numpy()
        lat = b["lat"].to_numpy()
        d2 = _d2_matrix(lon, lat)
        j = np.argmin(d2, axis=1)
        return pa.table({
            "url": b["url"],
            "mention_idx": pc.cast(b["mention_idx"], pa.int64()),
            "city_id": j.astype(np.int64),
            "d2": d2[np.arange(len(j)), j]})

    return _mentions(webpages_path).map_batches(fn, batch_format="pyarrow")


def host_bbox(webpages_path: str) -> ray.data.Dataset:
    """Per-host mention bounding box + centroid: (host, n_mentions,
    min/max lon/lat, cen_lon, cen_lat). min/max are exact; centroids
    sum EXACT integers (coords are 4-decimal, so round(c*10^4) is the
    same int64 on both engine and oracle, and integer sums are
    order-free — no float-sum merge-order parity risk), then one
    deterministic IEEE division, floor-quantized to 1e-6."""
    n_buckets = derive_buckets(webpages_path, 256)

    def partial(b: pa.Table) -> pa.Table:
        host = pc.struct_field(pc.extract_regex(b["url"], HOST_RE), "host")
        lon = b["lon"].to_numpy()
        lat = b["lat"].to_numpy()
        t = pa.table({"host": host, "lon": b["lon"], "lat": b["lat"],
                      "lon_i4": np.round(lon * 1e4).astype(np.int64),
                      "lat_i4": np.round(lat * 1e4).astype(np.int64)})
        g = pa.TableGroupBy(t, "host").aggregate(
            [("host", "count"), ("lon", "min"), ("lon", "max"),
             ("lat", "min"), ("lat", "max"),
             ("lon_i4", "sum"), ("lat_i4", "sum")])
        g = g.rename_columns(["host", "n_mentions", "min_lon", "max_lon",
                              "min_lat", "max_lat", "sum_lon", "sum_lat"])
        h = _md5_u64(g["host"].to_pylist())
        return g.append_column("bucket", pa.array(bucket_of(h, n_buckets)))

    def merge(g: pa.Table) -> pa.Table:
        m = pa.TableGroupBy(g.drop_columns(["bucket"]), "host").aggregate(
            [("n_mentions", "sum"), ("min_lon", "min"), ("max_lon", "max"),
             ("min_lat", "min"), ("max_lat", "max"),
             ("sum_lon", "sum"), ("sum_lat", "sum")])
        m = m.rename_columns(["host", "n_mentions", "min_lon", "max_lon",
                              "min_lat", "max_lat", "sum_lon", "sum_lat"])
        n = m["n_mentions"].to_numpy().astype(np.float64)

        def cen(sum_i4):  # exact int64 sum -> one IEEE div, q6 floor
            return np.floor(sum_i4.to_numpy() * 100.0 / n) / 1e6

        return pa.table({
            "host": m["host"],
            "n_mentions": pc.cast(m["n_mentions"], pa.int64()),
            "min_lon": m["min_lon"], "max_lon": m["max_lon"],
            "min_lat": m["min_lat"], "max_lat": m["max_lat"],
            "cen_lon": pa.array(cen(m["sum_lon"])),
            "cen_lat": pa.array(cen(m["sum_lat"]))})

    return _mentions(webpages_path) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(merge, batch_format="pyarrow")


def host_tile_cover(webpages_path: str, zoom: int = 4) -> ray.data.Dataset:
    """Tile cover: every XYZ tile at ``zoom`` intersecting each host's
    mention bbox — the tilebelt-style cover operator, distributed.
    Fan-out bound: <= 4^zoom tiles per host (zoom=4 -> 256); callers
    pick the zoom so rows-per-host stays a sane block size (the
    documented partitioning assumption)."""
    bbox = host_bbox(webpages_path)

    def cover(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"host": pa.array([], pa.string()),
                             "z": np.empty(0, np.int64),
                             "x": np.empty(0, np.int64),
                             "y": np.empty(0, np.int64)})
        x0, y1 = lonlat_to_tile(b["min_lon"].to_numpy(),
                                b["min_lat"].to_numpy(), zoom)
        x1, y0 = lonlat_to_tile(b["max_lon"].to_numpy(),
                                b["max_lat"].to_numpy(), zoom)
        nx = (x1 - x0 + 1).astype(np.int64)
        ny = (y1 - y0 + 1).astype(np.int64)
        reps = nx * ny
        row = np.repeat(np.arange(len(reps)), reps)
        off = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps,
                                                     reps)
        return pa.table({
            "host": pc.take(b["host"], pa.array(row)),
            "z": np.full(len(row), zoom, np.int64),
            "x": x0[row] + off // ny[row],
            "y": y0[row] + off % ny[row]})

    return bbox.map_batches(cover, batch_format="pyarrow")


def zonal_stats(webpages_path: str, zoom: int = 3,
                n_zones: int = 64) -> ray.data.Dataset:
    """Zonal statistics over the per-host convex hulls: for every
    host's hull polygon, how many mention points (from ANY host) fall
    inside it, the hull's shoelace area (global-pixel^2 at ``zoom``)
    and the point density — the classic polygon-zone aggregate,
    distributed.

    Shape: the hull table is the SMALL side (one row per host) — it
    is computed once (pipeline/polytiles.host_hulls), collected, and
    broadcast via ray.put as packed edge arrays + a PackedRTree over
    hull bboxes. The mention pass is then shuffle-free: R-tree bbox
    prefilter -> exact convex half-plane test, both fully vectorized
    over the candidate (point, hull) pair list (ragged edge expansion
    + logical reduceat — no per-pair Python). Per-batch partial
    counts (<= n_hosts rows) merge through ONE bounded
    splitmix(md5(host)) bucket groupby.

    Boundary semantics: on-edge points (hull vertices are mention
    points by construction) count INSIDE (cross >= 0 on every edge).
    The pytest oracle brute-forces all (point, hull) pairs with the
    same half-plane predicate but none of the engine's machinery.

    Zone-count contract: the zone set is the first ``n_zones`` hosts
    in lexicographic order — a BOUNDED broadcast side, like a curated
    country/geofence polygon table in production. The synthetic hulls
    span most of the world (20% of mentions are uniform-global), so
    the bbox prefilter cannot prune them; candidate volume is
    points x n_zones by construction and n_zones is the knob that
    keeps it linear."""
    n_buckets = derive_buckets(webpages_path, 256)
    from ..codec.geometry import surveyor_batch
    from ..geo.rtree import PackedRTree
    from ..pipeline.linetiles import _global_px
    from ..pipeline.polytiles import host_hulls

    hulls = host_hulls(webpages_path, zoom).to_pandas()  # small side
    hulls = hulls.sort_values("host").head(n_zones).reset_index(drop=True)
    hosts = hulls["host"].to_numpy()
    pts = [np.frombuffer(b, np.float64).reshape(-1, 2)
           for b in hulls["pts"]]
    counts = np.array([len(p) for p in pts], np.int64)
    offs = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    flat = (np.concatenate(pts) if pts
            else np.empty((0, 2), np.float64))
    # closed rings for the area computation
    closed = np.concatenate([np.concatenate([p, p[:1]]) for p in pts]) \
        if pts else np.empty((0, 2), np.float64)
    closed_offs = np.concatenate(
        [[0], np.cumsum(counts + 1)]).astype(np.int64)
    areas = surveyor_batch(closed, closed_offs)
    boxes = np.stack([
        np.minimum.reduceat(flat[:, 0], offs[:-1]),
        np.minimum.reduceat(flat[:, 1], offs[:-1]),
        np.maximum.reduceat(flat[:, 0], offs[:-1]),
        np.maximum.reduceat(flat[:, 1], offs[:-1])], axis=1) \
        if len(flat) else np.empty((0, 4))
    state_ref = ray.put((flat, offs, boxes, hosts, areas))

    def partial_factory():
        fl, of, bx, _, _ = ray.get(state_ref)
        tree = PackedRTree(bx)

        def fn(b: pa.Table) -> pa.Table:
            gx, gy = _global_px(b["lon"].to_numpy(), b["lat"].to_numpy(),
                                zoom)
            pi, hi = tree.query_points(gx, gy)
            if len(pi):
                ecnt = (of[1:] - of[:-1])[hi]
                eoffs = np.concatenate(
                    [[0], np.cumsum(ecnt)]).astype(np.int64)
                rep = np.repeat(np.arange(len(pi)), ecnt)
                eidx = (np.arange(int(ecnt.sum()), dtype=np.int64)
                        - eoffs[:-1].repeat(ecnt)
                        + of[:-1][hi].repeat(ecnt))
                # edge i -> next vertex (wraparound within hull)
                nxt = eidx + 1
                last = eoffs[1:] - 1
                nxt[last] = of[:-1][hi]  # wrap: last edge ends at v0
                x0, y0 = fl[eidx, 0], fl[eidx, 1]
                x1, y1 = fl[nxt, 0], fl[nxt, 1]
                px, py = gx[pi][rep], gy[pi][rep]
                cr = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
                inside = np.logical_and.reduceat(cr >= 0, eoffs[:-1])
                hit_h = hi[inside]
            else:
                hit_h = np.empty(0, np.int64)
            n = np.bincount(hit_h, minlength=len(of) - 1).astype(np.int64)
            live = np.flatnonzero(n > 0)
            return pa.table({
                "hull_idx": pa.array(live),
                "n_inside": pa.array(n[live])})
        return fn

    partials = _mentions(webpages_path).map_batches(
        _cached_stage(("zonal_partial", state_ref.hex(), zoom),
                      partial_factory),
        batch_format="pyarrow")

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("bucket", pa.array(
            bucket_of(t["hull_idx"].to_numpy().astype(np.uint64),
                      n_buckets)))

    def merge_factory():
        _, _, _, hs, ar = ray.get(state_ref)

        def fn(g: pa.Table) -> pa.Table:
            out = pa.TableGroupBy(
                g.select(["hull_idx", "n_inside"]),
                ["hull_idx"]).aggregate([("n_inside", "sum")])
            hidx = out["hull_idx"].to_numpy()
            ntot = out.column(1).to_numpy().astype(np.int64)
            order = np.argsort(hidx)
            hidx, ntot = hidx[order], ntot[order]
            return pa.table({
                "host": pa.array(hs[hidx].tolist(), pa.string()),
                "n_inside": pa.array(ntot),
                "area": pa.array(ar[hidx]),
                "density": pa.array(ntot / ar[hidx])})
        return fn

    merge = _cached_stage(("zonal_merge", state_ref.hex()), merge_factory)
    return partials.map_batches(add_bucket, batch_format="pyarrow") \
        .groupby("bucket").map_groups(merge, batch_format="pyarrow")


def cell_cover(webpages_path: str, min_zoom: int = 2, max_zoom: int = 6,
               n_zones: int = 64) -> ray.data.Dataset:
    """Hierarchical cell cover of the host-hull zones (the S2
    RegionCoverer pattern over the XYZ quadtree): starting from the
    ``min_zoom`` grid, each cell is classified against the convex
    hull — FULL (entirely inside, emitted at the current level),
    DISJOINT (dropped), or PARTIAL (refined into its 4 children until
    ``max_zoom``, where it is emitted as a boundary cell). The result
    is a disjoint multi-resolution cover: coarse cells where the zone
    is solid, fine cells along its boundary.

    All classification is vectorized across every (zone, cell) pair
    of a level (convex half-plane corner tests with ragged edge
    expansion + logical reduceat — the zonal_stats kernel shape);
    refinement quadruples only the PARTIAL frontier, so work per
    level tracks the boundary length, not the area. Runs as one
    map_batches over the (small) hull table — no shuffle. Output:
    (host, z, x, y, full) with full=1 for interior cells.

    Zone-count contract: same as zonal_stats (bounded broadcast-side
    zone set)."""
    from ..pipeline.polytiles import host_hulls

    # hull coords arrive in global px at hull_zoom; normalize cells to
    # that space: cell (z, x, y) spans a square of side S(z) px
    hull_zoom = 3
    hulls = host_hulls(webpages_path, hull_zoom)

    def cover_batch(b: pa.Table) -> pa.Table:
        host = np.asarray(b["host"])
        if len(host) == 0:
            return pa.table({"host": pa.array([], pa.string()),
                             "z": pa.array([], pa.int64()),
                             "x": pa.array([], pa.int64()),
                             "y": pa.array([], pa.int64()),
                             "full": pa.array([], pa.int64())})
        pts = [np.frombuffer(p, np.float64).reshape(-1, 2)
               for p in b["pts"].to_pylist()]
        counts = np.array([len(p) for p in pts], np.int64)
        offs = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        flat = np.concatenate(pts)
        world = 4096.0 * (1 << hull_zoom)  # global px extent

        def classify(hid, z, cx, cy):
            """FULL(2) / PARTIAL(1) / DISJOINT(0) per (zone, cell)."""
            side = world / (1 << z)
            x0, y0 = cx * side, cy * side
            ecnt = counts[hid]
            eoffs = np.concatenate([[0], np.cumsum(ecnt)]).astype(np.int64)
            eidx = (np.arange(int(ecnt.sum()), dtype=np.int64)
                    - eoffs[:-1].repeat(ecnt) + offs[:-1][hid].repeat(ecnt))
            nxt = eidx + 1
            last = eoffs[1:] - 1
            nxt[last] = offs[:-1][hid]
            ax, ay = flat[eidx, 0], flat[eidx, 1]
            bx, by = flat[nxt, 0], flat[nxt, 1]
            ex, ey = bx - ax, by - ay
            rx0, ry0 = x0.repeat(ecnt), y0.repeat(ecnt)
            # corner cross products against each hull edge (side is a
            # level-constant scalar)
            crs = []
            for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
                px = rx0 + dx * side
                py = ry0 + dy * side
                crs.append(ex * (py - ay) - ey * (px - ax))
            crs = np.stack(crs, axis=1)  # (pairs*edges, 4)
            corner_in = crs >= 0
            # FULL: every corner inside every edge half-plane
            full = np.logical_and.reduceat(corner_in.all(axis=1),
                                           eoffs[:-1])
            # DISJOINT (sufficient + necessary for convex vs AABB):
            # some hull edge has ALL corners strictly outside, OR the
            # hull's bbox misses the rect on some axis
            sep_edge = np.logical_or.reduceat((crs < 0).all(axis=1),
                                              eoffs[:-1])
            hminx = np.minimum.reduceat(flat[:, 0], offs[:-1])[hid]
            hmaxx = np.maximum.reduceat(flat[:, 0], offs[:-1])[hid]
            hminy = np.minimum.reduceat(flat[:, 1], offs[:-1])[hid]
            hmaxy = np.maximum.reduceat(flat[:, 1], offs[:-1])[hid]
            bbox_out = (hmaxx < x0) | (hminx > x0 + side) \
                | (hmaxy < y0) | (hminy > y0 + side)
            out = np.where(full, 2, np.where(sep_edge | bbox_out, 0, 1))
            return out

        # frontier at min_zoom: all cells of each zone's bbox cover
        n = 1 << min_zoom
        side0 = world / n
        oh, oz, ox, oy, ofull = [], [], [], [], []
        minx = np.minimum.reduceat(flat[:, 0], offs[:-1])
        maxx = np.maximum.reduceat(flat[:, 0], offs[:-1])
        miny = np.minimum.reduceat(flat[:, 1], offs[:-1])
        maxy = np.maximum.reduceat(flat[:, 1], offs[:-1])
        lo_x = np.clip((minx // side0).astype(np.int64), 0, n - 1)
        hi_x = np.clip((maxx // side0).astype(np.int64), 0, n - 1)
        lo_y = np.clip((miny // side0).astype(np.int64), 0, n - 1)
        hi_y = np.clip((maxy // side0).astype(np.int64), 0, n - 1)
        wx = hi_x - lo_x + 1
        wy = hi_y - lo_y + 1
        cover_n = wx * wy
        hid = np.repeat(np.arange(len(host)), cover_n)
        starts = np.concatenate([[0], np.cumsum(cover_n)[:-1]])
        li = np.arange(int(cover_n.sum()), dtype=np.int64) - starts[hid]
        cx = lo_x[hid] + li % wx[hid]
        cy = lo_y[hid] + li // wx[hid]
        z = min_zoom
        while len(hid):
            cls = classify(hid, z, cx, cy)
            emit = (cls == 2) | ((cls == 1) & (z == max_zoom))
            if emit.any():
                oh.append(hid[emit])
                oz.append(np.full(int(emit.sum()), z, np.int64))
                ox.append(cx[emit])
                oy.append(cy[emit])
                ofull.append((cls[emit] == 2).astype(np.int64))
            if z == max_zoom:
                break
            ref = cls == 1
            hid, cx, cy = hid[ref], cx[ref], cy[ref]
            # refine the PARTIAL frontier into its 4 children
            k = len(hid)
            hid = np.repeat(hid, 4)
            cx = np.repeat(cx * 2, 4) + np.tile(
                np.array([0, 1, 0, 1], np.int64), k)
            cy = np.repeat(cy * 2, 4) + np.tile(
                np.array([0, 0, 1, 1], np.int64), k)
            z += 1
        hid = np.concatenate(oh) if oh else np.empty(0, np.int64)
        return pa.table({
            "host": pa.array(host[hid].tolist(), pa.string()),
            "z": pa.array(np.concatenate(oz) if oz else
                          np.empty(0, np.int64)),
            "x": pa.array(np.concatenate(ox) if ox else
                          np.empty(0, np.int64)),
            "y": pa.array(np.concatenate(oy) if oy else
                          np.empty(0, np.int64)),
            "full": pa.array(np.concatenate(ofull) if ofull else
                             np.empty(0, np.int64))})

    # bound the zone set like zonal_stats (sorted-host head)
    hp = hulls.to_pandas().sort_values("host").head(n_zones)
    small = ray.data.from_pandas(hp.reset_index(drop=True))
    return small.map_batches(cover_batch, batch_format="pyarrow")


def trajectory_lengths(webpages_path: str) -> ray.data.Dataset:
    """Per-url great-circle trajectory length: mentions in mention_idx
    order form a polyline; each leg's haversine distance quantizes to
    INTEGER millimeters (floor) BEFORE the per-url sum, so sums are
    order-free and bit-exact vs the oracle. Urls with a single mention
    have no legs and drop (the SQL lag IS NOT NULL rule).

    Shuffle-free: geoparse emits one url's mentions contiguously and
    in order within a batch (row expansion never crosses a batch), so
    legs and per-url sums complete per batch — adjacency + reduceat,
    no groupby. Same double-op ORDER as the twin: dlat/2 -> radians ->
    sin -> product sum -> sqrt -> asin -> * 2R_mm -> floor."""

    def fn(b: pa.Table) -> pa.Table:
        url = np.asarray(b["url"])
        lon = b["lon"].to_numpy()
        lat = b["lat"].to_numpy()
        if len(url) < 2:
            return pa.table({"url": pa.array([], pa.string()),
                             "n_legs": pa.array([], pa.int64()),
                             "length_mm": pa.array([], pa.int64())})
        adj = url[1:] == url[:-1]
        plat, clat = lat[:-1][adj], lat[1:][adj]
        plon, clon = lon[:-1][adj], lon[1:][adj]
        sa = np.sin(np.radians((clat - plat) / 2))
        sb = np.sin(np.radians((clon - plon) / 2))
        h = sa * sa + np.cos(np.radians(plat)) * np.cos(np.radians(clat)) \
            * sb * sb
        mm = np.floor(12742000000.0 * np.arcsin(np.sqrt(h))) \
            .astype(np.int64)
        leg_url = url[1:][adj]
        starts = np.flatnonzero(np.concatenate(
            ([True], leg_url[1:] != leg_url[:-1])))
        return pa.table({
            "url": pa.array(leg_url[starts].tolist(), pa.string()),
            "n_legs": pa.array(np.diff(np.concatenate(
                (starts, [len(leg_url)]))).astype(np.int64)),
            "length_mm": pa.array(np.add.reduceat(mm, starts))})

    return _mentions(webpages_path).map_batches(fn, batch_format="pyarrow")

def comention_edges(webpages_path: str, res: int = 5) -> ray.data.Dataset:
    """Location co-occurrence graph: one edge per unordered pair of
    DISTINCT res-``res`` cells mentioned by the same url, weighted by
    the number of docs mentioning both — the self-join-on-doc edge
    extraction a knowledge-graph / co-citation pipeline runs, done
    without any join.

    Shape: geoparse keeps a url's mentions contiguous in-batch, so
    distinct cells per url and the (a < b) pair expansion complete
    per batch with one lexsort + ragged-arange arithmetic — pair rows
    never ship raw; each batch emits pre-aggregated (cell_a, cell_b,
    n) partials, which merge through ONE bounded splitmix(pair)
    bucket shuffle. Per-url pair fan-out is quadratic in that url's
    DISTINCT cells — bounded by the geoparse grammar (mentions per
    page), the knob a production run would cap; partials make the
    shuffle payload the number of distinct edges per batch, not the
    number of pair occurrences."""
    n_buckets = derive_buckets(webpages_path, 256)
    from ..geo import tilemath as tm

    def _edge_partials(cell_a, cell_b, n=None):
        order = np.lexsort((cell_b, cell_a))
        a, b2 = cell_a[order], cell_b[order]
        w = (np.ones(len(a), np.int64) if n is None else
             np.asarray(n, np.int64)[order])
        new = np.empty(len(a), dtype=bool)
        new[0] = True
        new[1:] = (a[1:] != a[:-1]) | (b2[1:] != b2[:-1])
        st = np.flatnonzero(new)
        return a[st], b2[st], np.add.reduceat(w, st)

    def expand(b: pa.Table) -> pa.Table:
        empty = pa.table({"cell_a": np.empty(0, np.int64),
                          "cell_b": np.empty(0, np.int64),
                          "n": np.empty(0, np.int64),
                          "bucket": np.empty(0, np.int64)})
        url = np.asarray(b["url"])
        if len(url) == 0:
            return empty
        cells = tm.cell_id(b["lon"].to_numpy(), b["lat"].to_numpy(), res)
        new_url = np.empty(len(url), dtype=bool)
        new_url[0] = True
        new_url[1:] = url[1:] != url[:-1]
        seg = np.cumsum(new_url) - 1
        # distinct (url, cell), cells ascending within a url
        order = np.lexsort((cells, seg))
        s, c = seg[order], cells[order]
        keep = np.empty(len(s), dtype=bool)
        keep[0] = True
        keep[1:] = (s[1:] != s[:-1]) | (c[1:] != c[:-1])
        s, c = s[keep], c[keep]
        idx = np.arange(len(s))
        new = np.empty(len(s), dtype=bool)
        new[0] = True
        new[1:] = s[1:] != s[:-1]
        segfirst = np.maximum.accumulate(np.where(new, idx, 0))
        loc = idx - segfirst           # local rank within the url
        npairs = int(loc.sum())
        if npairs == 0:
            return empty
        # every row is the RIGHT element of `loc` pairs; left elements
        # are the url's earlier (smaller) cells — a ragged arange
        right = np.repeat(idx, loc)
        blk = np.cumsum(loc) - loc     # exclusive pair offset per row
        left = (np.arange(npairs) - np.repeat(blk, loc)) \
            + np.repeat(segfirst, loc)
        a, b2, n = _edge_partials(c[left], c[right])
        return pa.table({
            "cell_a": a, "cell_b": b2, "n": n,
            "bucket": bucket_of(pair_key(a, b2), n_buckets)})

    def merge(g: pa.Table) -> pa.Table:
        a, b2, n = _edge_partials(g["cell_a"].to_numpy(),
                                  g["cell_b"].to_numpy(),
                                  g["n"].to_numpy())
        return pa.table({"cell_a": a, "cell_b": b2, "n_docs": n})

    return _mentions(webpages_path) \
        .map_batches(expand, batch_format="pyarrow") \
        .groupby("bucket").map_groups(merge, batch_format="pyarrow")


def hotspot_regions(webpages_path: str, res: int = 5,
                    threshold: int = 8) -> ray.data.Dataset:
    """Spatial hotspot detection: connected components of DENSE grid
    cells (>= threshold mentions) under 8-adjacency — the
    DBSCAN-on-a-grid shape (density filter, then flood-fill) a
    geo-analytics pipeline uses to turn point clouds into regions.

    Scale shape: the density pass is the distributed cell_counts
    pipeline (bounded cell domain); the dense-cell table is a
    model-sized REDUCTION (<= grid cells at res), so the component
    fold runs driver-side on that bounded table — the
    pagerank/triangles precedent — via path-compressed union-find
    over neighbor pairs found with one sorted searchsorted sweep (8
    probes per dense cell, no quadratic pairing). No longitude
    wrap-around: cx 0 and cx max are NOT adjacent (both sides treat
    the grid as a flat rectangle).

    Output: one row per dense cell — (cell_r{res}, region_id,
    n_mentions) with region_id = the component's minimum cell id."""
    from ..pipeline.flagship import cell_counts_pipeline

    counts = cell_counts_pipeline(webpages_path, res).to_pandas()
    counts = counts[counts["n_mentions"] >= threshold]
    cells = np.sort(counts[f"cell_r{res}"].to_numpy(np.int64))
    n = len(cells)
    out_schema = {
        f"cell_r{res}": np.empty(0, np.int64),
        "region_id": np.empty(0, np.int64),
        "n_mentions": np.empty(0, np.int64)}
    if n == 0:
        return ray.data.from_arrow(pa.table(out_schema))

    # packed id: res * 2^56 + cx * 2^28 + cy  (tilemath.cell_id layout)
    XMUL = np.int64(1 << 28)
    parent = np.arange(n, dtype=np.int64)

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:          # path compression
            parent[i], i = root, parent[i]
        return root

    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            nb = cells + np.int64(dx) * XMUL + np.int64(dy)
            pos = np.searchsorted(cells, nb)
            pos = np.clip(pos, 0, n - 1)
            # no aliasing guard needed: real cy < 2^res << 2^28, so a
            # packed id that borrows/carries across the cx field can
            # never equal a real cell id — a hit IS a true neighbor
            hit = np.flatnonzero(cells[pos] == nb)
            for i in hit:
                ra, rb = find(int(i)), find(int(pos[i]))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    roots = np.array([find(int(i)) for i in range(n)], dtype=np.int64)
    region = cells[roots]
    nm = counts.set_index(f"cell_r{res}").loc[cells, "n_mentions"] \
        .to_numpy(np.int64)
    return ray.data.from_arrow(pa.table({
        f"cell_r{res}": cells,
        "region_id": region,
        "n_mentions": nm}))


def cell_compact(webpages_path: str, zoom: int = 12,
                 min_zoom: int = 6) -> ray.data.Dataset:
    """Hierarchical cell COMPACTION (the H3/S2 `compact` operation —
    cell_cover's complement): replace every complete 4-sibling set of
    occupied cells with its parent, recursively from ``zoom`` up to
    ``min_zoom``. Output is the minimal disjoint multi-resolution set
    whose zoom-level expansion equals the occupied tile set exactly.

    Shape: the occupied set is a BOUNDED reduction (per-batch distinct
    (x, y) partials -> one splitmix(tile) bucket groupby), so the
    promote-fold runs on the driver at O(occupied cells): per level
    one sort + reduceat sibling count, promoted parents carry up,
    remainders emit. Same bounded-table-folds-driver-side contract as
    hotspot_regions."""
    n_buckets = derive_buckets(webpages_path, 256)
    import pandas as pd

    n = 1 << zoom

    def partial(b: pa.Table) -> pa.Table:
        key = b["x"].to_numpy().astype(np.int64) * n \
            + b["y"].to_numpy().astype(np.int64)
        u = np.unique(key)
        return pa.table({"key": u, "bucket": bucket_of(u, n_buckets)})

    def dedup(g: pa.Table) -> pa.Table:
        return pa.table({"key": np.unique(g["key"].to_numpy())})

    occ = _mentions(webpages_path, zoom) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(dedup, batch_format="pyarrow") \
        .to_pandas()["key"].to_numpy()

    out_z, out_x, out_y = [], [], []
    keys = np.unique(occ)
    cur_n = n
    for z in range(zoom, min_zoom, -1):
        if keys.size == 0:
            break
        x, y = keys // cur_n, keys % cur_n
        parent = (x >> 1) * (cur_n >> 1) + (y >> 1)
        order = np.argsort(parent, kind="stable")
        p = parent[order]
        starts = np.flatnonzero(np.concatenate(([True], p[1:] != p[:-1])))
        sizes = np.diff(np.append(starts, p.size))
        full = sizes == 4  # a parent has exactly 4 distinct children
        promote = np.repeat(full, sizes)
        keep = keys[order][~promote]
        kx, ky = keep // cur_n, keep % cur_n
        out_z.append(np.full(keep.size, z, np.int64))
        out_x.append(kx)
        out_y.append(ky)
        keys = p[starts][full]
        cur_n >>= 1
    x, y = keys // cur_n, keys % cur_n
    out_z.append(np.full(keys.size, min_zoom, np.int64))
    out_x.append(x)
    out_y.append(y)
    df = pd.DataFrame({"z": np.concatenate(out_z),
                       "x": np.concatenate(out_x),
                       "y": np.concatenate(out_y)})
    return df.sort_values(["z", "x", "y"]).reset_index(drop=True)


def segment_bearings(webpages_path: str) -> ray.data.Dataset:
    """Compass-sector histogram of trajectory leg bearings: each
    consecutive mention pair (per url, mention order) gets its initial
    great-circle bearing, folded into 8 sectors of 45 deg centered on
    N/NE/E/... (sector = floor(fmod(deg + 382.5, 360) / 45)).

    Shuffle shape mirrors trajectory_lengths (legs complete per batch
    via geoparse's in-batch url contiguity); the output domain is 8
    rows, so per-batch bincount partials merge in one block. The twin
    runs the IDENTICAL double-op sequence (radians -> sin/cos ->
    atan2 -> degrees -> +382.5 -> fmod -> /45 -> floor), the same
    libm-parity contract trajectory_lengths has relied on since r3."""

    def fn(b: pa.Table) -> pa.Table:
        url = np.asarray(b["url"])
        lon = b["lon"].to_numpy()
        lat = b["lat"].to_numpy()
        if len(url) < 2:
            return pa.table({"sector": pa.array([], pa.int64()),
                             "n_legs": pa.array([], pa.int64())})
        adj = url[1:] == url[:-1]
        plat, clat = lat[:-1][adj], lat[1:][adj]
        plon, clon = lon[:-1][adj], lon[1:][adj]
        dlon_r = np.radians(clon - plon)
        y = np.sin(dlon_r) * np.cos(np.radians(clat))
        x = np.cos(np.radians(plat)) * np.sin(np.radians(clat)) \
            - np.sin(np.radians(plat)) * np.cos(np.radians(clat)) \
            * np.cos(dlon_r)
        deg = np.degrees(np.arctan2(y, x))
        sector = np.floor(np.fmod(deg + 382.5, 360.0) / 45.0) \
            .astype(np.int64)
        cnt = np.bincount(sector, minlength=8).astype(np.int64)
        return pa.table({"sector": pa.array(np.arange(8, dtype=np.int64)),
                         "n_legs": pa.array(cnt)})

    def merge(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b, "sector").aggregate([("n_legs", "sum")])
        g = g.rename_columns(["sector", "n_legs"])
        g = g.filter(pc.greater(g["n_legs"], 0)).sort_by("sector")
        return pa.table({"sector": pc.cast(g["sector"], pa.int64()),
                         "n_legs": pc.cast(g["n_legs"], pa.int64())})

    return _mentions(webpages_path).map_batches(fn, batch_format="pyarrow") \
        .repartition(1).map_batches(merge, batch_format="pyarrow")


def tile_adjacency(webpages_path: str, zoom: int = 12) -> ray.data.Dataset:
    """Occupied-tile adjacency graph: one edge per unordered pair of
    OCCUPIED tiles that touch in the 8-neighborhood at ``zoom``, with
    both tiles' mention counts — the spatial-join shape behind
    contiguity weights (spatial autocorrelation, region growing,
    flood-fill seeds). Output (z, xa, ya, xb, yb, n_a, n_b) with
    (xa, ya) < (xb, yb) lexicographic.

    Scale shape — NO broadcast of the occupied set and NO all-pairs:
    (1) per-batch partial counts collapse mentions to tile rows;
    (2) ONE bounded splitmix(tile) bucket groupby finalizes counts
    (a tile lives in exactly one bucket);
    (3) each tile re-keys itself (side 0) and PROBES its four FORWARD
    neighbors (side 1, keyed by the neighbor tile) — forward =
    (dx, dy) in {(1,-1), (1,0), (1,1), (0,1)}, so each unordered
    adjacent pair meets exactly once with the lexicographic order
    built in; (4) a second bounded bucket groupby co-locates each
    key's side-0 row (the neighbor, if occupied) with its side-1
    probes and matches them vectorized. Probes into unoccupied tiles
    die silently; out-of-grid probes are never emitted. Shuffle
    payload is O(occupied tiles), never O(mentions).

    Exact DuckDB twin: oracles.tile_adjacency_sql (self-join of the
    per-tile counts on |dx| <= 1 AND |dy| <= 1 with the same
    lexicographic order)."""
    n_buckets = derive_buckets(webpages_path, 256)

    ds = _mentions(webpages_path, zoom)
    KX = np.int64(1) << np.int64(26)  # zoom <= 25: disjoint fields

    def partial(b: pa.Table) -> pa.Table:
        x = b["x"].to_numpy().astype(np.int64)
        y = b["y"].to_numpy().astype(np.int64)
        key = x * KX + y
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "key": pa.array(u), "n": pa.array(cnt.astype(np.int64)),
            "bucket": pa.array(bucket_of(u, n_buckets))})

    def merge_counts(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy()
        n = g["n"].to_numpy()
        order = np.argsort(key, kind="stable")
        key, n = key[order], n[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], key[1:] != key[:-1]))) if len(key) else \
            np.empty(0, np.int64)
        return pa.table({
            "key": pa.array(key[starts]),
            "n": pa.array(np.add.reduceat(n, starts).astype(np.int64)
                          if len(key) else n)})

    n_tiles = 1 << zoom
    FWD = ((1, -1), (1, 0), (1, 1), (0, 1))

    def emit(b: pa.Table) -> pa.Table:
        key = b["key"].to_numpy()
        n = b["n"].to_numpy()
        x = key // KX
        y = key % KX
        keys = [key]
        sides = [np.zeros(len(key), np.int8)]
        oxs, oys, ons = [x], [y], [n]
        for dx, dy in FWD:
            nx_, ny_ = x + dx, y + dy
            ok = (nx_ >= 0) & (nx_ < n_tiles) & (ny_ >= 0) & (ny_ < n_tiles)
            keys.append(nx_[ok] * KX + ny_[ok])
            sides.append(np.ones(int(ok.sum()), np.int8))
            oxs.append(x[ok])
            oys.append(y[ok])
            ons.append(n[ok])
        k = np.concatenate(keys)
        return pa.table({
            "key": pa.array(k),
            "side": pa.array(np.concatenate(sides)),
            "ox": pa.array(np.concatenate(oxs)),
            "oy": pa.array(np.concatenate(oys)),
            "on": pa.array(np.concatenate(ons)),
            "bucket": pa.array(bucket_of(k, n_buckets))})

    def match(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy()
        side = g["side"].to_numpy()
        s0 = side == 0
        k0 = key[s0]
        order0 = np.argsort(k0, kind="stable")
        k0 = k0[order0]
        bx = g["ox"].to_numpy()[s0][order0]
        by = g["oy"].to_numpy()[s0][order0]
        bn = g["on"].to_numpy()[s0][order0]
        s1 = ~s0
        k1 = key[s1]
        if len(k0) == 0 or len(k1) == 0:
            return pa.table({c: pa.array([], pa.int64()) for c in
                             ("z", "xa", "ya", "xb", "yb", "n_a", "n_b")})
        pos = np.clip(np.searchsorted(k0, k1), 0, len(k0) - 1)
        found = k0[pos] == k1
        ax = g["ox"].to_numpy()[s1][found]
        ay = g["oy"].to_numpy()[s1][found]
        an = g["on"].to_numpy()[s1][found]
        p = pos[found]
        return pa.table({
            "z": pa.array(np.full(len(p), zoom, np.int64)),
            "xa": pa.array(ax.astype(np.int64)),
            "ya": pa.array(ay.astype(np.int64)),
            "xb": pa.array(bx[p].astype(np.int64)),
            "yb": pa.array(by[p].astype(np.int64)),
            "n_a": pa.array(an.astype(np.int64)),
            "n_b": pa.array(bn[p].astype(np.int64))})

    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(merge_counts, batch_format="pyarrow") \
        .map_batches(emit, batch_format="pyarrow") \
        .groupby("bucket").map_groups(match, batch_format="pyarrow")


def tile_moran(webpages_path: str, zoom: int = 12) -> ray.data.Dataset:
    """Moran's I spatial autocorrelation of mention counts over the
    occupied-tile rook+bishop (8-neighborhood) contiguity graph — THE
    classic "is the density clustered?" statistic, computed from six
    EXACT integer aggregates so the DuckDB twin is bit-identical up to
    the final round:

        N  = occupied tiles        S1 = sum n_i     S2 = sum n_i^2
        E  = unordered edges       SC = sum n_a*n_b  SA = sum n_a+n_b

        xbar = S1 / N                       (one IEEE divide)
        num  = 2.0 * (SC - xbar * SA + E * xbar * xbar)
        den  = S2 - N * xbar * xbar
        I    = (N / (2.0 * E)) * num / den  (binary weights, W = 2E)

    Both sides evaluate the SAME expressions in the same order
    (left-assoc), then round half-away-from-zero to 6 — the repo's
    standard float-parity contract. Output one row: (n_tiles, w_sum,
    moran_i, expected_i) where expected_i = -1/(N-1). Degenerate
    inputs give the twin's NULLs (DuckDB's x / 0 is NULL): moran_i is
    NULL when there are no tiles, no edges or equal counts (den = 0),
    expected_i when N = 1.

    Scale shape: the count aggregates fold from per-batch partials
    (three int64s per batch); the edge aggregates fold the same way
    over tile_adjacency's bounded edge stream. No driver
    materialization beyond six integers. The input parses twice (once
    per chain) — a production job would checkpoint the assignment
    table (pipeline/job.stage_a) and feed both from it."""
    from ray.data.aggregate import Sum

    nb = derive_buckets(webpages_path, 256)
    edges = tile_adjacency(webpages_path, zoom)

    def edge_partial(b: pa.Table) -> pa.Table:
        na = b["n_a"].to_numpy()
        nb_ = b["n_b"].to_numpy()
        return pa.table({
            "e": pa.array([len(na)], pa.int64()),
            "sc": pa.array([int((na * nb_).sum())], pa.int64()),
            "sa": pa.array([int((na + nb_).sum())], pa.int64())})

    eagg = edges.map_batches(edge_partial, batch_format="pyarrow") \
        .aggregate(Sum("e", alias_name="e"), Sum("sc", alias_name="sc"),
                   Sum("sa", alias_name="sa"))

    ds = _mentions(webpages_path, zoom)

    def count_partial(b: pa.Table) -> pa.Table:
        x = b["x"].to_numpy().astype(np.int64)
        y = b["y"].to_numpy().astype(np.int64)
        key = x * (np.int64(1) << np.int64(26)) + y
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(u),
                         "n": pa.array(cnt.astype(np.int64)),
                         "bucket": pa.array(bucket_of(u, nb))})

    def count_merge(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy()
        n = g["n"].to_numpy()
        order = np.argsort(key, kind="stable")
        key, n = key[order], n[order]
        if len(key) == 0:
            return pa.table({"nt": pa.array([], pa.int64()),
                             "s1": pa.array([], pa.int64()),
                             "s2": pa.array([], pa.int64())})
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        tot = np.add.reduceat(n, starts)
        return pa.table({
            "nt": pa.array([len(starts)], pa.int64()),
            "s1": pa.array([int(tot.sum())], pa.int64()),
            "s2": pa.array([int((tot * tot).sum())], pa.int64())})

    cagg = ds.map_batches(count_partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(count_merge, batch_format="pyarrow") \
        .aggregate(Sum("nt", alias_name="nt"), Sum("s1", alias_name="s1"),
                   Sum("s2", alias_name="s2"))

    n_t, s1, s2 = (int(cagg[c] or 0) for c in ("nt", "s1", "s2"))
    e, sc, sa = (int(eagg[c] or 0) for c in ("e", "sc", "sa"))
    moran = None  # NULL, as the twin's x / 0 is NULL
    if n_t and e:
        xbar = s1 / n_t
        num = 2.0 * (sc - xbar * sa + e * xbar * xbar)
        den = s2 - n_t * xbar * xbar
        if den:
            moran = float(_fq((n_t / (2.0 * e)) * num / den, 6))
    return ray.data.from_arrow(pa.table({
        "n_tiles": pa.array([n_t], pa.int64()),
        "w_sum": pa.array([2 * e], pa.int64()),
        "moran_i": pa.array([moran], pa.float64()),
        "expected_i": pa.array([float(_fq(-1.0 / (n_t - 1), 6))
                                if n_t != 1 else None], pa.float64())}))


def tile_components(webpages_path: str, zoom: int = 12,
                    max_rounds: int = 32,
                    aqe_max_edges: int = 2_000_000) -> ray.data.Dataset:
    """Connected components over the occupied-tile adjacency graph —
    contiguous hotspot regions (urban areas, coastlines) labeled by
    their lexicographically smallest member tile. Output (z, x, y,
    cluster_x, cluster_y) for every tile with >= 1 occupied neighbor
    (isolated tiles form no edge, mirroring dup_clusters' contract).

    Same distributed min-label propagation as ops.dedup.dup_clusters
    (labels start as identity; each round one bucket-exchange join
    (util.join) ships labels over the bidirectional edges and a
    bounded-bucket groupby takes per-node minima; sum(label) is the
    monotone convergence scalar). Spatial components are chains, not
    cliques — diameter, and so round count, can reach tens for
    coastline-shaped regions; max_rounds=32 with a loud failure, never
    silent truncation.

    Exact DuckDB twin: oracles.tile_components_sql (recursive
    reachability walk, min label per node)."""
    nb = derive_buckets(webpages_path, 256)

    KX = np.int64(1) << np.int64(26)
    pairs = tile_adjacency(webpages_path, zoom)

    def to_edges(t: pa.Table) -> pa.Table:
        a = t["xa"].to_numpy() * KX + t["ya"].to_numpy()
        b = t["xb"].to_numpy() * KX + t["yb"].to_numpy()
        return pa.table({"src": pa.array(np.concatenate([a, b])),
                         "dst": pa.array(np.concatenate([b, a]))})

    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()
    EMPTY = pa.table({"z": pa.array([], pa.int64()),
                      "x": pa.array([], pa.int64()),
                      "y": pa.array([], pa.int64()),
                      "cluster_x": pa.array([], pa.int64()),
                      "cluster_y": pa.array([], pa.int64())})
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(EMPTY)

    # AQE (the big_orders pattern): the per-round exchange's fixed
    # cost dwarfs the work below millions of edges, so a MEASURED
    # small edge set collapses on the driver with a
    # vectorized min-label fixpoint + pointer jumping (O(E) numpy per
    # round, O(log diameter) rounds) — take_all gated behind the
    # count, the bounded-materialization contract. Bigger graphs take
    # the distributed propagation below.
    if n_edges <= aqe_max_edges:
        t = pa.concat_tables(ray.get(edges.to_arrow_refs()))
        src = t["src"].to_numpy()
        dst = t["dst"].to_numpy()
        keys, inv = np.unique(np.concatenate([src, dst]),
                              return_inverse=True)
        s = inv[:len(src)]
        d = inv[len(src):]
        lab = np.arange(len(keys), dtype=np.int64)
        while True:
            before = lab.copy()
            np.minimum.at(lab, d, lab[s])
            lab = lab[lab]  # pointer jump: label-of-label
            if np.array_equal(lab, before):
                break
        out_k = keys
        out_l = keys[lab]
        return ray.data.from_arrow(pa.table({
            "z": pa.array(np.full(len(out_k), zoom, np.int64)),
            "x": pa.array(out_k // KX), "y": pa.array(out_k % KX),
            "cluster_x": pa.array(out_l // KX),
            "cluster_y": pa.array(out_l % KX)}))

    def node_partial(t: pa.Table) -> pa.Table:
        u = np.unique(t["src"].to_numpy()).astype(np.int64)
        return pa.table({"key": pa.array(u), "label": pa.array(u),
                         "bucket": pa.array(bucket_of(u, nb))})

    def label_merge(g: pa.Table) -> pa.Table:
        ids = g["key"].to_numpy()
        lab = g["label"].to_numpy()
        uniq, inv = np.unique(ids, return_inverse=True)
        lab_min = np.full(uniq.size, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(lab_min, inv, lab)
        return pa.table({"key": pa.array(uniq.astype(np.int64)),
                         "label": pa.array(lab_min)})

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "bucket", pa.array(bucket_of(t["key"].to_numpy(), nb)))

    labels = edges.map_batches(node_partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(label_merge, batch_format="pyarrow") \
        .materialize()
    prev_sum = labels.sum("label")

    for _ in range(max_rounds):
        j = join(edges, labels, "src", "key", "inner", nb)

        def msg(t: pa.Table) -> pa.Table:
            return pa.table({"key": t["dst"], "label": t["label"]})

        cand = labels.map_batches(
            lambda t: t.select(["key", "label"]), batch_format="pyarrow") \
            .union(j.map_batches(msg, batch_format="pyarrow"))
        labels = cand.map_batches(add_bucket, batch_format="pyarrow") \
            .groupby("bucket").map_groups(label_merge,
                                          batch_format="pyarrow") \
            .materialize()
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    else:
        raise RuntimeError(
            f"tile_components: labels still changing after {max_rounds} "
            "rounds (component diameter exceeds the bound)")

    def finalize(t: pa.Table) -> pa.Table:
        k = t["key"].to_numpy()
        lab = t["label"].to_numpy()
        return pa.table({
            "z": pa.array(np.full(len(k), zoom, np.int64)),
            "x": pa.array(k // KX), "y": pa.array(k % KX),
            "cluster_x": pa.array(lab // KX),
            "cluster_y": pa.array(lab % KX)})

    return labels.map_batches(finalize, batch_format="pyarrow")


def tile_hotspots(webpages_path: str, zoom: int = 12) -> ray.data.Dataset:
    """Local hotspot lift per occupied tile (the Getis-Ord-flavored
    complement of tile_moran's global statistic): for each tile, the
    mean count of its occupied 8-neighbors relative to the global mean
    — lift > 1 marks tiles embedded in dense regions, regardless of
    their own count. Output (z, x, y, n, n_neighbors, neigh_sum,
    lift); isolated tiles carry lift = -1.0 (documented sentinel —
    a neighbor mean over zero neighbors has no value).

    Float contract (the tile_moran pattern): lift =
    round((neigh_sum / k) / (S1 / N), 6) with both sides evaluating
    the identical two-division sequence on the same exact integers.

    Scale shape: neighbor sums fold from tile_adjacency's edge stream
    (each edge scatters its counterpart's count to both endpoints) in
    ONE bounded bucket groupby that also carries each tile's own count
    as a side row — isolated tiles survive with k = 0. The input
    parses per chain (see tile_moran's note on checkpointing the
    assignment table instead)."""
    from ray.data.aggregate import Sum

    nb = derive_buckets(webpages_path, 256)

    KX = np.int64(1) << np.int64(26)
    edges = tile_adjacency(webpages_path, zoom)
    ds = _mentions(webpages_path, zoom)

    def count_partial(b: pa.Table) -> pa.Table:
        x = b["x"].to_numpy().astype(np.int64)
        y = b["y"].to_numpy().astype(np.int64)
        key = x * KX + y
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "key": pa.array(u), "n": pa.array(cnt.astype(np.int64)),
            "ns": pa.array(np.zeros(len(u), np.int64)),
            "k": pa.array(np.zeros(len(u), np.int64)),
            "bucket": pa.array(bucket_of(u, nb))})

    def edge_scatter(b: pa.Table) -> pa.Table:
        ka = b["xa"].to_numpy() * KX + b["ya"].to_numpy()
        kb = b["xb"].to_numpy() * KX + b["yb"].to_numpy()
        na = b["n_a"].to_numpy()
        nbn = b["n_b"].to_numpy()
        key = np.concatenate([ka, kb])
        ns = np.concatenate([nbn, na])  # each side gets the OTHER's n
        k_, s1, s2 = _nsum(key, ns)
        return pa.table({
            "key": pa.array(k_), "n": pa.array(np.zeros(len(k_), np.int64)),
            "ns": pa.array(s1.astype(np.int64)),
            "k": pa.array(s2.astype(np.int64)),
            "bucket": pa.array(bucket_of(k_, nb))})

    def merge(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy()
        order = np.argsort(key, kind="stable")
        key = key[order]
        n = g["n"].to_numpy()[order]
        ns = g["ns"].to_numpy()[order]
        k_ = g["k"].to_numpy()[order]
        if len(key) == 0:
            return pa.table({c: pa.array([], pa.int64())
                             for c in ("key", "n", "ns", "k")})
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        return pa.table({
            "key": pa.array(key[starts]),
            "n": pa.array(np.add.reduceat(n, starts).astype(np.int64)),
            "ns": pa.array(np.add.reduceat(ns, starts).astype(np.int64)),
            "k": pa.array(np.add.reduceat(k_, starts).astype(np.int64))})

    merged = ds.map_batches(count_partial, batch_format="pyarrow") \
        .union(edges.map_batches(edge_scatter, batch_format="pyarrow")) \
        .groupby("bucket").map_groups(merge, batch_format="pyarrow")

    # global N and S1: the tile_moran aggregate (bounded partials)
    def g_partial(b: pa.Table) -> pa.Table:
        x = b["x"].to_numpy().astype(np.int64)
        y = b["y"].to_numpy().astype(np.int64)
        key = x * KX + y
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(u),
                         "n": pa.array(cnt.astype(np.int64)),
                         "bucket": pa.array(bucket_of(u, nb))})

    def g_merge(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy()
        n = g["n"].to_numpy()
        order = np.argsort(key, kind="stable")
        key, n = key[order], n[order]
        if len(key) == 0:
            return pa.table({"nt": pa.array([], pa.int64()),
                             "s1": pa.array([], pa.int64())})
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        tot = np.add.reduceat(n, starts)
        return pa.table({"nt": pa.array([len(starts)], pa.int64()),
                         "s1": pa.array([int(tot.sum())], pa.int64())})

    gagg = _mentions(webpages_path, zoom) \
        .map_batches(g_partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(g_merge, batch_format="pyarrow") \
        .aggregate(Sum("nt", alias_name="nt"), Sum("s1", alias_name="s1"))
    n_t = int(gagg["nt"])
    s1 = int(gagg["s1"])

    def finalize(b: pa.Table) -> pa.Table:
        key = b["key"].to_numpy()
        n = b["n"].to_numpy()
        ns = b["ns"].to_numpy()
        k_ = b["k"].to_numpy()
        xbar = s1 / n_t
        with np.errstate(divide="ignore", invalid="ignore"):
            lift = (ns / k_) / xbar
        q = lift * 1e6
        lift6 = np.where(q >= 0, np.floor(q + 0.5), np.ceil(q - 0.5)) / 1e6
        lift6 = np.where(k_ == 0, -1.0, lift6)
        return pa.table({
            "z": pa.array(np.full(len(key), zoom, np.int64)),
            "x": pa.array(key // KX), "y": pa.array(key % KX),
            "n": pa.array(n.astype(np.int64)),
            "n_neighbors": pa.array(k_.astype(np.int64)),
            "neigh_sum": pa.array(ns.astype(np.int64)),
            "lift": pa.array(lift6)})

    return merged.map_batches(finalize, batch_format="pyarrow")


def _nsum(key: np.ndarray, val: np.ndarray):
    """(unique sorted keys, per-key sums, per-key counts)."""
    order = np.argsort(key, kind="stable")
    k = key[order]
    if len(k) == 0:
        return k, val[:0], val[:0]
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    return (k[starts], np.add.reduceat(val[order], starts),
            np.diff(np.append(starts, len(k))))
