"""Geo layer: tile math vs known anchors, cell hierarchy, geoparser
grammars + decoy rejection, R-tree vs brute force, PIP."""

import numpy as np
import pyarrow as pa
import pytest

from raytiles.geo import tilemath as tm
from raytiles.geo.parse import GeoParser
from raytiles.geo.rtree import PackedRTree


def test_tile_anchor_values():
    # well-known: San Francisco at z=12 -> slippy tile (655, 1583)
    x, y = tm.lonlat_to_tile(np.array([-122.4194]), np.array([37.7749]), 12)
    assert (x[0], y[0]) == (655, 1583)
    # Greenwich at z=1 -> (1, 0) east/north quadrant
    x, y = tm.lonlat_to_tile(np.array([0.0]), np.array([51.5]), 1)
    assert (x[0], y[0]) == (1, 0)
    # origin corner
    x, y = tm.lonlat_to_tile(np.array([-180.0]), np.array([85.0]), 4)
    assert (x[0], y[0]) == (0, 0)


def test_tile_local_in_range():
    rng = np.random.default_rng(3)
    lon = rng.uniform(-179, 179, 1000)
    lat = rng.uniform(-84, 84, 1000)
    x, y = tm.lonlat_to_tile(lon, lat, 12)
    lx, ly = tm.lonlat_to_local(lon, lat, 12, x, y)
    assert lx.min() >= 0 and lx.max() < 4096
    assert ly.min() >= 0 and ly.max() < 4096


def test_tile_bounds_roundtrip():
    z = 7
    tx = np.array([20, 63, 100])
    ty = np.array([30, 64, 90])
    b = tm.tile_bounds(z, tx, ty)
    cx = (b[:, 0] + b[:, 2]) / 2
    cy = (b[:, 1] + b[:, 3]) / 2
    gx, gy = tm.lonlat_to_tile(cx, cy, z)
    assert np.array_equal(gx, tx) and np.array_equal(gy, ty)


def test_cell_hierarchy():
    lon = np.array([-122.4194, 2.3522, 139.6503])
    lat = np.array([37.7749, 48.8566, 35.6762])
    for r in range(1, 10):
        child = tm.cell_id(lon, lat, r)
        parent = tm.cell_id(lon, lat, r - 1)
        assert np.array_equal(tm.cell_parent(child), parent)
    res, ix, iy = tm.cell_unpack(tm.cell_id(lon, lat, 9))
    assert (res == 9).all()
    assert (ix < 2 ** 10).all() and (iy < 2 ** 9).all()


def _parse(texts):
    return GeoParser().parse_arrow(pa.array(texts, pa.string()))


def test_geoparser_grammars():
    row, mi, lat, lon = _parse([
        "city located at 37.7749, -122.4194 downtown",
        "point (lat 51.5074, lon -0.1278) here",
        "at 40.7128N 74.0060W corner",
        "mixed (lat 1.3521, lon 103.8198) then located at -33.8688, 151.2093 end",
        "no geo price $12.99 version 3.25 on 12.05.2024 rated 4.5",
        "",
    ])
    assert row.tolist() == [0, 1, 2, 3, 3]
    assert (row.dtype, mi.dtype, lat.dtype, lon.dtype) == \
        (np.int64, np.int32, np.float64, np.float64)
    assert (lat[0], lon[0]) == (37.7749, -122.4194)
    assert (lat[1], lon[1]) == (51.5074, -0.1278)
    assert (lat[2], lon[2]) == (40.7128, -74.0060)
    assert mi[3:].tolist() == [0, 1]
    assert lat[4] == -33.8688


def test_geoparser_arrow_large_string_and_sliced():
    """parse_arrow must give identical output for string, large_string
    (int64 offsets — pyarrow promotes for >2GB data) and sliced inputs;
    a raw-buffer walk that reinterprets large_string offsets as int32
    silently misattributes mentions."""
    p = GeoParser()
    texts = ["pad no geo here", "city located at 37.7749, -122.4194 x",
             "(lat 51.5074, lon -0.1278)", "nothing",
             "at 40.7128N 74.0060W corner then located at 1.0000, 2.0000"]
    base = pa.array(texts, pa.string())
    expect = p.parse_arrow(base)
    for variant in (pa.array(texts, pa.large_string()),
                    pa.chunked_array([texts[:2], texts[2:]],
                                     pa.large_string()),
                    base.slice(0),  # offset-0 identity
                    pa.array(["x"] + texts, pa.string()).slice(1),
                    pa.array(["x"] + texts, pa.large_string()).slice(1)):
        got = p.parse_arrow(variant)
        for e, g_ in zip(expect, got):
            assert np.array_equal(e, g_), (variant.type, e, g_)
    # row_pos sanity: mentions attributed to the right rows
    assert expect[0].tolist() == [1, 2, 4, 4]


_GLUE = ["", "", " ", "7", "42", "-", "é", ", "]
_MUTATE = list("0123456789.-, NSEW()l") + ["é"]


def _numeral(rng):
    """0-5 integer digits, 3-5 decimals, maybe signed."""
    def digits(lo, hi):
        return "".join(map(str, rng.integers(0, 10, int(rng.integers(lo, hi)))))
    return "-" * int(rng.random() < 0.3) + digits(0, 6) + "." + digits(3, 6)


def _mention(rng):
    """A mention in one of the three grammars, with in- or out-of-range
    coordinates or a near-miss numeral; 40% get one byte mutated."""
    if rng.random() < 0.5:
        a, b = f"{rng.uniform(-95, 95):.4f}", f"{rng.uniform(-190, 190):.4f}"
        c, d = f"{rng.uniform(0, 95):.4f}", f"{rng.uniform(0, 190):.4f}"
    else:
        a, b = _numeral(rng), _numeral(rng)
        c, d = _numeral(rng).lstrip("-"), _numeral(rng).lstrip("-")
    s = [f"located at {a}, {b}", f"(lat {a}, lon {b})",
         f"{c}{'NS'[int(rng.integers(0, 2))]} {d}{'EW'[int(rng.integers(0, 2))]}"
         ][int(rng.integers(0, 3))]
    if rng.random() < 0.4:
        i = int(rng.integers(0, len(s)))
        s = s[:i] + _MUTATE[int(rng.integers(0, len(_MUTATE)))] + s[i + 1:]
    return s


@pytest.mark.parametrize("seed", [17, 18, 19, 20])
def test_geoparser_scanner_matches_python_scan(seed, monkeypatch):
    """Property: parse_arrow's numpy scanner must be byte-identical,
    dtypes included, to re.finditer of MASTER_RE (_py_scan_arrow, then
    the range filter and renumbering) on random streams of mentions
    and near-misses glued together, plus the cases the scanner's
    offsets make delicate."""
    from raytiles.geo import parse
    p = GeoParser()

    def reference(arr):
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        row, _, lat, lon = p._py_scan_arrow(arr)
        keep = (np.abs(lat) <= parse.MAX_LAT) & (np.abs(lon) <= 180.0)
        row = row[keep]
        mi = np.arange(row.size) - np.searchsorted(row, row)
        return row, mi.astype(np.int32), lat[keep], lon[keep]

    rng = np.random.default_rng(seed)
    docs = ["".join(_mention(rng) + _GLUE[int(rng.integers(0, len(_GLUE)))]
                    for _ in range(int(rng.integers(0, 6))))
            for _ in range(300)]
    docs += [
        # a doc that begins with digits after one that ends in digits:
        # the integer digits are counted from the doc's own start
        "the year 1999", "5.1234N 1.0000E", "located at 1.0000, 2.00007",
        ".1234N 1.0000E",
        "3.0000S 4.0000W", "located at ", "1.0000, 2.0000", "(lat ",
        "-1.0000, lon 2.0000)",
        # a doc that ends inside a mention: it must not run on into the
        # next doc
        "located at 1.0000, 2.00", "00 then", "1.0000N 2.0000", "E",
        # fmt1's longitude runs straight into a fmt3 mention: the regex
        # resumes after fmt1 and fmt3 starts one digit later
        "located at 1.0000, 12.34565.1234N 1.0000E",
        "(lat 1.0000, lon 2.0000)5.1234N 1.0000E",
        "located at -0.0000, -0.0000 and 00.0000S 0.0000W",
        " ".join("located at 37.7749, -122.4194" for _ in range(45)),
        None, "",
    ]
    docs[5::40] = [None] * len(docs[5::40])
    for t in (pa.string(), pa.large_string()):
        arr = pa.array(docs, t)
        # nulls whose slots still hold text: those mentions must not count
        hidden = pa.Array.from_buffers(t, len(arr), [pa.py_buffer(
            np.packbits(np.arange(len(arr)) % 3 > 0, bitorder="little"))]
            + arr.buffers()[1:])
        for variant in (arr, hidden, arr.slice(7, 250), arr.slice(299),
                        pa.chunked_array([arr.slice(0, 11), arr.slice(11, 0),
                                          arr.slice(11)]),
                        pa.chunked_array([arr.slice(i, 3)
                                          for i in range(0, len(arr), 3)])):
            expect = reference(variant)
            assert expect[0].size > 0
            # the default pieces, then smaller ones: chunks sliced at
            # doc boundaries and runs of chunks concatenated
            for piece_bytes in (parse.PIECE_BYTES, 2048, 256):
                monkeypatch.setattr(parse, "PIECE_BYTES", piece_bytes)
                got = p.parse_arrow(variant)
                for e, g in zip(expect, got):
                    assert e.dtype == g.dtype and e.tobytes() == g.tobytes()


def test_geoparser_range_validation():
    row, mi, lat, lon = _parse(
        ["located at 89.0000, 10.0000 then located at 10.0000, 20.0000"])
    # |lat| > 85.05 dropped, survivor renumbered from 0
    assert row.tolist() == [0] and mi.tolist() == [0] and lat.tolist() == [10.0]


def test_geoparser_call_shape():
    from raytiles.pipeline.flagship import MENTION_SCHEMA, _parse_docs
    docs = pa.table({"url": ["u1", "u2", "u3"],
                     "text": ["located at 1.0000, 2.0000", "nothing", None]})
    out = _parse_docs(GeoParser(), docs)
    assert out.schema == MENTION_SCHEMA
    assert out["url"].to_pylist() == ["u1"]
    assert _parse_docs(GeoParser(), docs.slice(1)).schema == MENTION_SCHEMA


def test_rtree_matches_bruteforce():
    rng = np.random.default_rng(11)
    boxes = rng.uniform(-100, 100, size=(300, 2))
    boxes = np.concatenate([boxes, boxes + rng.uniform(1, 20, size=(300, 2))], axis=1)
    tree = PackedRTree(boxes)
    px = rng.uniform(-120, 120, 500)
    py = rng.uniform(-120, 120, 500)
    pi, bi = tree.query_points(px, py)
    got = set(zip(pi.tolist(), bi.tolist()))
    expect = set()
    for i in range(px.size):
        inside = (px[i] >= boxes[:, 0]) & (px[i] <= boxes[:, 2]) \
            & (py[i] >= boxes[:, 1]) & (py[i] <= boxes[:, 3])
        for j in np.flatnonzero(inside):
            expect.add((i, int(j)))
    assert got == expect


def test_rtree_tiny_and_empty():
    t1 = PackedRTree(np.array([[0, 0, 1, 1]]))
    pi, bi = t1.query_points(np.array([0.5, 2.0]), np.array([0.5, 2.0]))
    assert pi.tolist() == [0] and bi.tolist() == [0]
    t0 = PackedRTree(np.empty((0, 4)))
    pi, bi = t0.query_points(np.array([0.5]), np.array([0.5]))
    assert pi.size == 0


def test_rtree_tile_assignment_equals_floor_math():
    """The broadcast-R-tree PIP assignment must agree with direct tile
    arithmetic (the conformance the assign stage relies on)."""
    z = 6
    rng = np.random.default_rng(5)
    lon = rng.uniform(-179, 179, 2000)
    lat = rng.uniform(-80, 80, 2000)
    tx, ty = tm.lonlat_to_tile(lon, lat, z)
    want = set(zip(range(lon.size), (tx.astype(int) * (1 << z) + ty).tolist()))
    # R-tree over ALL z=6 tile bounds, shrunk slightly to break edge ties
    allx, ally = np.meshgrid(np.arange(1 << z), np.arange(1 << z))
    boxes = tm.tile_bounds(z, allx.ravel(), ally.ravel())
    eps = 1e-9
    boxes[:, :2] += eps
    boxes[:, 2:] -= eps
    tree = PackedRTree(boxes)
    pi, bi = tree.query_points(lon, lat)
    got = {(int(p), int(allx.ravel()[b]) * (1 << z) + int(ally.ravel()[b]))
           for p, b in zip(pi, bi)}
    assert got == want


@pytest.mark.parametrize("z", [6, 8])
def test_floor_tile_among_unshrunk_rtree_hits(z):
    """The assign stage computes tiles by floor math alone, with no
    spatial index. Over the UNSHRUNK tile boxes (edges inclusive), the
    floor-math tile of every point is among the point's R-tree hits.
    Covers random points, exact tile edges in lon and in lat,
    lon = +-180 and the parser's latitude clamp lat = +-MAX_LAT."""
    import pyarrow as pa

    from raytiles.geo.parse import MAX_LAT
    from raytiles.pipeline.stages import TileAssigner

    n = 1 << z
    rng = np.random.default_rng(17 + z)
    edges = tm.tile_bounds(z, np.arange(n + 1), np.arange(n + 1))
    lon_edges = edges[:, 0]           # every tile's west edge, -180..180
    lat_edges = edges[:, 3]           # every tile's north edge, +-85.0511
    k = n + 1
    corners_lon = np.array([-180.0, 180.0, -180.0, 180.0, 0.0, 0.0, -180.0, 180.0])
    corners_lat = np.array([MAX_LAT, MAX_LAT, -MAX_LAT, -MAX_LAT,
                            MAX_LAT, -MAX_LAT, 0.0, 0.0])
    lon = np.concatenate([rng.uniform(-180, 180, 3000),       # random
                          lon_edges,                          # lon edges
                          rng.uniform(-180, 180, k),          # lat edges
                          corners_lon])                       # +-180, clamp
    lat = np.concatenate([rng.uniform(-MAX_LAT, MAX_LAT, 3000),
                          rng.uniform(-MAX_LAT, MAX_LAT, k),
                          lat_edges,
                          corners_lat])
    batch = pa.table({"url": pa.array(["u"] * lon.size),
                      "mention_idx": pa.array(np.zeros(lon.size, np.int32)),
                      "lon": lon, "lat": lat})
    out = TileAssigner(z, with_cells=False)(batch)
    fx = out["x"].to_numpy().astype(np.int64)
    fy = out["y"].to_numpy().astype(np.int64)

    allx, ally = np.meshgrid(np.arange(n), np.arange(n))
    allx, ally = allx.ravel(), ally.ravel()
    tree = PackedRTree(tm.tile_bounds(z, allx, ally))
    pi, bi = tree.query_points(lon, lat)
    ok = (allx[bi] == fx[pi]) & (ally[bi] == fy[pi])
    covered = np.zeros(lon.size, dtype=bool)
    covered[pi[ok]] = True
    missing = np.flatnonzero(~covered)
    assert missing.size == 0, list(zip(lon[missing][:5], lat[missing][:5]))


def test_quadkey_prefix_is_parent_tile():
    from raytiles.geo.tilemath import lonlat_to_tile, quadkey
    lon = np.array([-122.4194, 2.3522, 139.6503, 0.0])
    lat = np.array([37.7749, 48.8566, 35.6762, 0.0])
    qk12 = quadkey(lon, lat, 12)
    qk6 = quadkey(lon, lat, 6)
    # ancestor property: z6 key is the z12 key's 6-char prefix
    assert all(a.startswith(b) for a, b in zip(qk12, qk6))
    # digit reconstruction matches tile coords
    x, y = lonlat_to_tile(lon, lat, 12)
    for i, k in enumerate(qk12):
        rx = ry = 0
        for ch in k:
            d = int(ch)
            rx = (rx << 1) | (d & 1)
            ry = (ry << 1) | (d >> 1)
        assert rx == x[i] and ry == y[i]


def test_douglas_peucker_properties():
    from raytiles.geo.simplify import dp_keep_mask, simplify_ragged
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        x = rng.integers(0, 4096, n)
        y = rng.integers(0, 4096, n)
        tol = float(rng.uniform(1, 200))
        keep = dp_keep_mask(x, y, tol)
        assert keep[0] and keep[-1]
        # deviation bound: every dropped point is within tol of the
        # simplified polyline (check distance to its bracketing kept
        # segment — the DP invariant)
        kept_idx = np.flatnonzero(keep)
        for i in np.flatnonzero(~keep):
            a = kept_idx[kept_idx < i].max()
            b = kept_idx[kept_idx > i].min()
            dx, dy = float(x[b] - x[a]), float(y[b] - y[a])
            seg2 = dx * dx + dy * dy
            if seg2 == 0:
                d2 = float((x[i] - x[a]) ** 2 + (y[i] - y[a]) ** 2)
            else:
                cr = (x[i] - x[a]) * dy - (y[i] - y[a]) * dx
                d2 = float(cr * cr) / seg2
            assert d2 <= tol * tol + 1e-9
        # idempotent
        keep2 = dp_keep_mask(x[keep], y[keep], tol)
        assert keep2.all()
    # ragged wrapper: per-run endpoints survive
    offs = np.array([0, 2, 7, 12])
    x = rng.integers(0, 4096, 12); y = rng.integers(0, 4096, 12)
    k = simplify_ragged(offs, x, y, 50.0)
    for s, e in zip(offs[:-1], offs[1:]):
        assert k[s] and k[e - 1]


def test_trajectories_simplified_decodable_and_smaller(ray_session):
    from raytiles.codec.decode import decode_tile
    from raytiles.pipeline.synth import webpages_path
    from raytiles.pipeline.trajectories import trajectories_pipeline
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    plain = trajectories_pipeline(wp, 6).to_pandas()
    simp = trajectories_pipeline(wp, 6, simplify_tolerance=64.0).to_pandas()
    assert len(simp) == len(plain)
    assert simp["n_lines"].tolist() == plain["n_lines"].tolist()

    def total_pts(df):
        tot = 0
        for mvt in df["mvt"]:
            t = decode_tile(mvt)
            for l in t.layers.values():
                for f in l.linestrings:
                    for part in f.geometry:
                        assert len(part) >= 2
                        tot += len(part)
        return tot

    assert total_pts(simp) <= total_pts(plain)


# ---------------------------------------------------------------------------
# rectangle clipping kernels (geo/clip.py)
# ---------------------------------------------------------------------------

def _inside_convex(qx, qy, rx, ry):
    """Point-in-convex-ring via cross products (ring open, CCW in
    coordinate algebra); boundary counts as inside."""
    n = len(rx)
    ax, ay = rx, ry
    bx, by = np.roll(rx, -1), np.roll(ry, -1)
    cr = (bx - ax)[None, :] * (qy[:, None] - ay[None, :]) \
        - (by - ay)[None, :] * (qx[:, None] - ax[None, :])
    return (cr >= -1e-9).all(axis=1)


def test_clip_segments_parametric_and_membership():
    """Clipped endpoints lie ON the original segment, inside the rect;
    rejected segments have no sampled point inside the rect."""
    rng = np.random.default_rng(7)
    n = 4000
    x0, y0, x1, y1 = rng.uniform(-50, 50, (4, n))
    xmin, ymin = rng.uniform(-60, 40, (2, n))
    xmax = xmin + rng.uniform(1, 30, n)
    ymax = ymin + rng.uniform(1, 30, n)
    from raytiles.geo.clip import clip_segments
    keep, cx0, cy0, cx1, cy1 = clip_segments(
        x0, y0, x1, y1, xmin, ymin, xmax, ymax)
    k = np.flatnonzero(keep)
    eps = 1e-7
    for cx, cy in ((cx0, cy0), (cx1, cy1)):
        assert (cx[k] >= xmin[k] - eps).all() and (cx[k] <= xmax[k] + eps).all()
        assert (cy[k] >= ymin[k] - eps).all() and (cy[k] <= ymax[k] + eps).all()
        # collinearity with the original segment
        cross = (x1[k] - x0[k]) * (cy[k] - y0[k]) \
            - (y1[k] - y0[k]) * (cx[k] - x0[k])
        seg_len = np.hypot(x1[k] - x0[k], y1[k] - y0[k])
        assert (np.abs(cross) <= 1e-6 * np.maximum(seg_len, 1) ** 2).all()
    # rejected segments: a dense parametric sample never enters the rect
    r = np.flatnonzero(~keep)[:500]
    t = np.linspace(0, 1, 33)
    sx = x0[r, None] + t[None, :] * (x1[r] - x0[r])[:, None]
    sy = y0[r, None] + t[None, :] * (y1[r] - y0[r])[:, None]
    inside = ((sx >= xmin[r, None]) & (sx <= xmax[r, None])
              & (sy >= ymin[r, None]) & (sy <= ymax[r, None]))
    assert not inside.any()


def test_clip_ring_montecarlo_membership():
    """For convex rings: inside(clipped) == inside(original) AND
    inside(rect), on a random probe grid."""
    from raytiles.geo.clip import clip_ring
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = rng.integers(3, 10)
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        rad = rng.uniform(2, 10)  # one radius per ring: vertices on a
        cx0, cy0 = rng.uniform(-10, 10, 2)  # circle => convex
        # CCW in coordinate algebra (positive shoelace)
        rx = cx0 + rad * np.cos(ang)
        ry = cy0 + rad * np.sin(ang)
        xmin, ymin = rng.uniform(-15, 5, 2)
        xmax, ymax = xmin + rng.uniform(2, 20), ymin + rng.uniform(2, 20)
        ox, oy = clip_ring(rx, ry, xmin, ymin, xmax, ymax)
        qx = rng.uniform(-25, 25, 400)
        qy = rng.uniform(-25, 25, 400)
        want = _inside_convex(qx, qy, rx, ry) \
            & (qx >= xmin) & (qx <= xmax) & (qy >= ymin) & (qy <= ymax)
        if len(ox) >= 3:
            got = _inside_convex(qx, qy, ox, oy)
        else:
            got = np.zeros(len(qx), bool)
        # exclude probes within eps of either boundary (open/closed
        # disagreement at edges is not a correctness signal)
        clearance = 1e-6
        near_rect = (np.minimum(np.abs(qx - xmin), np.abs(qx - xmax))
                     < clearance) | \
                    (np.minimum(np.abs(qy - ymin), np.abs(qy - ymax))
                     < clearance)
        mask = ~near_rect
        assert (got[mask] == want[mask]).all()


def test_clip_rings_batched_equals_single():
    """The batched multi-ring kernel is element-wise identical to the
    single-ring kernel on random (ring, rect) pairs."""
    from raytiles.geo.clip import clip_ring, clip_rings
    rng = np.random.default_rng(3)
    for _ in range(60):
        nrings = rng.integers(1, 9)
        xs, ys, offs, rects = [], [], [0], []
        for _ in range(nrings):
            n = rng.integers(3, 12)
            ang = np.sort(rng.uniform(0, 2 * np.pi, n))
            rad = rng.uniform(1, 10, n)
            c = rng.uniform(-20, 20, 2)
            xs.append(c[0] + rad * np.cos(ang))
            ys.append(c[1] + rad * np.sin(ang))
            offs.append(offs[-1] + n)
            x0, y0 = rng.uniform(-25, 20, 2)
            rects.append((x0, y0, x0 + rng.uniform(1, 20),
                          y0 + rng.uniform(1, 20)))
        rects = np.asarray(rects)
        cx, cy, coffs = clip_rings(
            np.concatenate(xs), np.concatenate(ys),
            np.asarray(offs, np.int64),
            rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3])
        for r in range(nrings):
            ex, ey = clip_ring(xs[r], ys[r], *rects[r])
            gx, gy = cx[coffs[r]:coffs[r + 1]], cy[coffs[r]:coffs[r + 1]]
            assert len(gx) == len(ex)
            assert np.allclose(gx, ex) and np.allclose(gy, ey)


def test_geohash_canonical_and_prefix_property():
    """Pin textbook geohashes (ezs42, sqc8b49rny, gcpvj0) and the
    refinement property: a lower-precision hash is a prefix of any
    higher-precision hash of the same point, odd and even alike."""
    import numpy as np

    from raytiles.geo.tilemath import geohash
    lon = np.array([-5.6, 13.361389, -0.1278])
    lat = np.array([42.6, 38.115556, 51.5074])
    assert list(geohash(lon, lat, 5)) == ["ezs42", "sqc8b49"[:5], "gcpvj"]
    assert geohash(lon[1:2], lat[1:2], 10)[0] == "sqc8b49rny"
    assert geohash(lon[2:3], lat[2:3], 6)[0] == "gcpvj0"
    full = geohash(lon, lat, 12)
    for p in range(1, 12):
        assert list(geohash(lon, lat, p)) == [h[:p] for h in full]
