"""Spatial-join ops: single-process numpy oracles at sf0.001 (SQL
twins get full value verification from the driver gate at sf0.01)."""

import numpy as np
import pytest

from tests.conftest import SF_SMOKE

pytestmark = pytest.mark.usefixtures("ray_session")


def _mentions_df():
    import ray

    from raytiles.pipeline.flagship import geoparse, read_webpages
    from raytiles.pipeline.synth import webpages_path
    return geoparse(read_webpages(webpages_path(SF_SMOKE))).to_pandas()


def test_geofence_join_matches_numpy():
    from raytiles.ops.spatial import FENCE_RADIUS_DEG, geofence_join
    from raytiles.pipeline.synth import CITIES
    df = geofence_join(
        __import__("raytiles.pipeline.synth", fromlist=["webpages_path"])
        .webpages_path(SF_SMOKE)).to_pandas()
    m = _mentions_df()
    dlat = m["lat"].to_numpy()[:, None] - CITIES[:, 0][None, :]
    dlon = m["lon"].to_numpy()[:, None] - CITIES[:, 1][None, :]
    d2 = dlat * dlat + dlon * dlon
    i, j = np.nonzero(d2 <= FENCE_RADIUS_DEG ** 2)
    assert len(df) == len(i) > 0
    got = set(zip(df["url"], df["mention_idx"], df["fence_id"]))
    want = set(zip(m["url"].to_numpy()[i], m["mention_idx"].to_numpy()[i], j))
    assert got == want


def test_nearest_city_every_mention_once():
    from raytiles.ops.spatial import nearest_city
    from raytiles.pipeline.synth import CITIES, webpages_path
    df = nearest_city(webpages_path(SF_SMOKE)).to_pandas()
    m = _mentions_df()
    assert len(df) == len(m)
    dlat = m["lat"].to_numpy()[:, None] - CITIES[:, 0][None, :]
    dlon = m["lon"].to_numpy()[:, None] - CITIES[:, 1][None, :]
    want = np.argmin(dlat * dlat + dlon * dlon, axis=1)
    key = dict(zip(zip(m["url"], m["mention_idx"]), want))
    for u, mi, c in zip(df["url"], df["mention_idx"], df["city_id"]):
        assert key[(u, mi)] == c


def test_host_bbox_contains_and_covers():
    from raytiles.geo.tilemath import lonlat_to_tile
    from raytiles.ops.spatial import host_bbox, host_tile_cover
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(SF_SMOKE)
    bb = host_bbox(wp).to_pandas()
    m = _mentions_df()
    m["host"] = m["url"].str.extract(r"^https?://([^/]+)/")[0]
    g = m.groupby("host")
    want_n = g.size()
    for _, r in bb.iterrows():
        assert want_n[r["host"]] == r["n_mentions"]
        assert r["min_lon"] <= r["cen_lon"] + 1e-6
        assert r["cen_lat"] <= r["max_lat"] + 1e-6
    lo = g["lon"].min()
    hi = g["lon"].max()
    assert np.allclose(bb.set_index("host")["min_lon"], lo[bb["host"]].to_numpy())
    assert np.allclose(bb.set_index("host")["max_lon"], hi[bb["host"]].to_numpy())

    cover = host_tile_cover(wp, zoom=4).to_pandas()
    # every mention's tile at z=4 appears in its host's cover
    tx, ty = lonlat_to_tile(m["lon"].to_numpy(), m["lat"].to_numpy(), 4)
    have = set(zip(cover["host"], cover["x"], cover["y"]))
    for h, x, y in zip(m["host"], tx, ty):
        assert (h, x, y) in have
    # cover is exactly the bbox rectangle per host
    per_host = cover.groupby("host").size()
    for _, r in bb.iterrows():
        x0, y1 = lonlat_to_tile(np.array([r["min_lon"]]), np.array([r["min_lat"]]), 4)
        x1, y0 = lonlat_to_tile(np.array([r["max_lon"]]), np.array([r["max_lat"]]), 4)
        assert per_host[r["host"]] == (x1[0] - x0[0] + 1) * (y1[0] - y0[0] + 1)


def test_zonal_stats_bruteforce_oracle():
    """Zonal counts vs an all-pairs half-plane brute force (no R-tree,
    no partials, no bucket shuffle): exact integer equality per zone;
    area equals the closed-ring shoelace."""
    from raytiles.codec.geometry import surveyor
    from raytiles.ops.spatial import zonal_stats
    from raytiles.pipeline.flagship import geoparse, read_webpages
    from raytiles.pipeline.linetiles import _global_px
    from raytiles.pipeline.polytiles import host_hulls
    from raytiles.pipeline.synth import webpages_path

    zoom, n_zones = 3, 24
    wp = webpages_path(SF_SMOKE)
    got = zonal_stats(wp, zoom, n_zones=n_zones).to_pandas() \
        .sort_values("host").reset_index(drop=True)

    hulls = host_hulls(wp, zoom).to_pandas() \
        .sort_values("host").head(n_zones).reset_index(drop=True)
    m = geoparse(read_webpages(wp)).to_pandas()
    gx, gy = _global_px(m["lon"].to_numpy(), m["lat"].to_numpy(), zoom)

    want = {}
    for _, row in hulls.iterrows():
        hull = np.frombuffer(row["pts"], np.float64).reshape(-1, 2)
        nx = np.roll(hull, -1, axis=0)
        inside = np.ones(len(gx), bool)
        for (x0, y0), (x1, y1) in zip(hull, nx):
            inside &= ((x1 - x0) * (gy - y0)
                       - (y1 - y0) * (gx - x0)) >= 0
        closed = np.concatenate([hull, hull[:1]])
        want[row["host"]] = (int(inside.sum()), surveyor(closed))

    assert set(got["host"]) <= set(want)
    # zones with zero points inside are legitimately absent
    for _, r in got.iterrows():
        n, a = want[r["host"]]
        assert int(r["n_inside"]) == n
        assert np.isclose(r["area"], a)
        assert np.isclose(r["density"], n / a)
    covered = {h for h, (n, _) in want.items() if n > 0}
    assert set(got["host"]) == covered


def test_cell_cover_properties():
    """Hierarchical cover: (a) cells of one zone are disjoint (no
    ancestor pairs, no dups); (b) every mention point inside the hull
    falls in an emitted cell; (c) FULL cells have all 4 corners inside
    the hull; (d) boundary cells genuinely intersect the hull
    (clip_ring non-empty)."""
    from raytiles.geo.clip import clip_ring
    from raytiles.ops.spatial import cell_cover
    from raytiles.pipeline.flagship import geoparse, read_webpages
    from raytiles.pipeline.linetiles import _global_px
    from raytiles.pipeline.polytiles import host_hulls
    from raytiles.pipeline.synth import webpages_path

    wp = webpages_path(SF_SMOKE)
    cov = cell_cover(wp, min_zoom=2, max_zoom=6, n_zones=16).to_pandas()
    hulls = host_hulls(wp, 3).to_pandas().set_index("host")
    m = geoparse(read_webpages(wp)).to_pandas()
    m["host"] = m["url"].str.extract(r"^https?://([^/]+)/")
    gx, gy = _global_px(m["lon"].to_numpy(), m["lat"].to_numpy(), 3)
    m["gx"], m["gy"] = gx, gy
    world = 4096.0 * (1 << 3)

    def inside_hull(hull, px, py):
        nx = np.roll(hull, -1, axis=0)
        ok = np.ones(np.shape(px), bool)
        for (x0, y0), (x1, y1) in zip(hull, nx):
            ok &= ((x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)) >= 0
        return ok

    checked_hosts = 0
    for host, g in cov.groupby("host"):
        hull = np.frombuffer(hulls.loc[host, "pts"],
                             np.float64).reshape(-1, 2)
        cells = list(zip(g["z"], g["x"], g["y"]))
        # (a) disjoint: no duplicates, no ancestor pairs
        assert len(set(cells)) == len(cells)
        cellset = set(cells)
        for z, x, y in cells:
            for za in range(2, z):
                assert (za, x >> (z - za), y >> (z - za)) not in cellset
        # (b) point coverage
        sub = m[m["host"] == host]
        for px, py in zip(sub["gx"], sub["gy"]):
            if not inside_hull(hull, px, py):
                continue
            hit = any(
                (x * world / (1 << z)) <= px <= ((x + 1) * world / (1 << z))
                and (y * world / (1 << z)) <= py
                <= ((y + 1) * world / (1 << z))
                for z, x, y in cells)
            assert hit, (host, px, py)
        # (c) FULL soundness + (d) boundary intersection
        for _, r in g.iterrows():
            side = world / (1 << r["z"])
            x0, y0 = r["x"] * side, r["y"] * side
            corners_in = inside_hull(
                hull,
                np.array([x0, x0 + side, x0, x0 + side]),
                np.array([y0, y0, y0 + side, y0 + side]))
            if r["full"] == 1:
                assert corners_in.all()
            else:
                cx, cy = clip_ring(hull[:, 0], hull[:, 1],
                                   x0, y0, x0 + side, y0 + side)
                assert len(cx) >= 3
        checked_hosts += 1
    assert checked_hosts == 16


def test_trajectory_lengths_single_process_oracle():
    """Replicate: per-url consecutive-mention haversine legs, each
    floored to integer mm, summed; single-mention urls drop."""
    import numpy as np

    from raytiles.ops.spatial import trajectory_lengths
    from raytiles.pipeline.flagship import geoparse, read_webpages
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    got = trajectory_lengths(wp).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    m = geoparse(read_webpages(wp)).to_pandas() \
        .sort_values(["url", "mention_idx"])
    want = {}
    for url, g in m.groupby("url", sort=True):
        if len(g) < 2:
            continue
        lat, lon = g["lat"].to_numpy(), g["lon"].to_numpy()
        sa = np.sin(np.radians((lat[1:] - lat[:-1]) / 2))
        sb = np.sin(np.radians((lon[1:] - lon[:-1]) / 2))
        h = sa * sa + np.cos(np.radians(lat[:-1])) \
            * np.cos(np.radians(lat[1:])) * sb * sb
        mm = np.floor(12742000000.0 * np.arcsin(np.sqrt(h))).astype(np.int64)
        want[url] = (len(mm), int(mm.sum()))
    assert len(got) == len(want)
    for _, r in got.iterrows():
        n, s = want[r["url"]]
        assert r["n_legs"] == n and r["length_mm"] == s


def test_comention_edges_matches_bruteforce():
    """Engine edge counts vs a per-url set-of-cells itertools
    recompute at sf0.001."""
    from itertools import combinations

    from raytiles.geo.tilemath import cell_id
    from raytiles.ops.spatial import comention_edges
    from raytiles.pipeline.synth import webpages_path
    got = comention_edges(webpages_path(SF_SMOKE)).to_pandas()
    m = _mentions_df()
    cells = cell_id(m["lon"].to_numpy(), m["lat"].to_numpy(), 5)
    want: dict = {}
    for url, grp in zip(m["url"], cells):
        want.setdefault(url, set()).add(int(grp))
    edges: dict = {}
    for cs in want.values():
        for a, b in combinations(sorted(cs), 2):
            edges[(a, b)] = edges.get((a, b), 0) + 1
    assert len(got) == len(edges)
    got_map = {(int(r.cell_a), int(r.cell_b)): int(r.n_docs)
               for r in got.itertuples()}
    assert got_map == edges


def test_cell_pagerank_matches_power_iteration():
    """Engine PageRank vs a dense single-process power iteration on
    the same edge list. The unquantized reference pins convergence
    (allclose at quantization tolerance); the QUANTIZED single-process
    recurrence — the r4 exact-twin iteration — must match bit-exactly."""
    from raytiles.ops.graph import cell_pagerank
    from raytiles.ops.spatial import comention_edges
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(SF_SMOKE)
    got = cell_pagerank(wp).to_pandas().sort_values("cell") \
        .reset_index(drop=True)
    edges = comention_edges(wp).to_pandas()
    cells = np.unique(np.concatenate(
        [edges["cell_a"].to_numpy(), edges["cell_b"].to_numpy()]))
    n = len(cells)
    idx = {c: i for i, c in enumerate(cells)}
    w = np.zeros((n, n))
    for r in edges.itertuples():
        w[idx[r.cell_a], idx[r.cell_b]] += r.n_docs
        w[idx[r.cell_b], idx[r.cell_a]] += r.n_docs
    deg = w.sum(1)
    # unquantized reference: convergence sanity
    p = np.full(n, 1.0 / n)
    for _ in range(10):
        p = (1 - 0.85) / n + 0.85 * (w.T @ (p / deg))
    assert len(got) == n
    assert (got["cell"].to_numpy() == cells).all()
    assert abs(got["rank_micro"].sum() / 1e9 - 1.0) < 1e-6
    assert np.allclose(got["rank_micro"].to_numpy() / 1e9, p,
                       rtol=0, atol=1e-6)
    # quantized recurrence: bit-exact
    rq = np.full(n, int(np.floor(1e9 / n)), np.int64)
    for _ in range(10):
        share = (rq.astype(np.float64) / 1e9) / deg
        inflow = np.zeros(n, np.int64)
        for r in edges.itertuples():
            a, b_, wt = idx[r.cell_a], idx[r.cell_b], float(r.n_docs)
            inflow[b_] += int(np.floor(share[a] * wt * 1e12))
            inflow[a] += int(np.floor(share[b_] * wt * 1e12))
        rq = np.floor(((1.0 - 0.85) / n
                       + 0.85 * (inflow.astype(np.float64) / 1e12))
                      * 1e9).astype(np.int64)
    assert np.array_equal(got["rank_micro"].to_numpy(), rq)


def test_cell_triangles_matches_bruteforce():
    """Engine edge-iterator triangle counts vs itertools over the
    same edge list: every triangle {a<b<c} counted once at (a, b)."""
    from itertools import combinations
    from raytiles.ops.graph import cell_triangles
    from raytiles.ops.spatial import comention_edges
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(SF_SMOKE)
    got = cell_triangles(wp).to_pandas() \
        .sort_values(["cell_a", "cell_b"]).reset_index(drop=True)
    edges = comention_edges(wp).to_pandas()
    eset = {(r.cell_a, r.cell_b) for r in edges.itertuples()}
    adj = {}
    for a, b in eset:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {}
    for a in sorted(adj):
        for b, c in combinations(sorted(x for x in adj[a] if x > a), 2):
            if (b, c) in eset:
                want[(a, b)] = want.get((a, b), 0) + 1
    assert len(got) == len(want) > 0
    for r in got.itertuples():
        assert want[(r.cell_a, r.cell_b)] == r.n_tri


def test_hotspot_regions_matches_bruteforce_flood_fill():
    """Engine union-find components vs a BFS flood fill over the same
    dense-cell set; region ids are component minima."""
    from collections import deque
    from raytiles.ops.spatial import hotspot_regions
    from raytiles.pipeline.flagship import cell_counts_pipeline
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(SF_SMOKE)
    thr = 3  # smoke tier is sparse; keep several multi-cell regions
    got = hotspot_regions(wp, threshold=thr).to_pandas() \
        .sort_values("cell_r5").reset_index(drop=True)
    counts = cell_counts_pipeline(wp, 5).to_pandas()
    dense = set(counts[counts.n_mentions >= thr]["cell_r5"]
                .astype(np.int64))
    assert len(got) == len(dense) > 3
    XMUL = 1 << 28
    seen, want = set(), {}
    for start in sorted(dense):
        if start in seen:
            continue
        comp, q = [], deque([start])
        seen.add(start)
        while q:
            c = q.popleft()
            comp.append(c)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    nb = c + dx * XMUL + dy
                    if nb in dense and nb not in seen:
                        seen.add(nb)
                        q.append(nb)
        for c in comp:
            want[c] = min(comp)
    assert {int(r.cell_r5): int(r.region_id) for r in got.itertuples()} \
        == want
    assert len(set(want.values())) > 1  # multiple regions live


def test_cell_compact_invariants():
    """Compaction is disjoint, covers the occupied set exactly when
    re-expanded to the leaf zoom, and is maximal (no complete sibling
    set survives at any level)."""
    import numpy as np
    import pandas as pd

    from raytiles.ops.spatial import cell_compact
    from raytiles.pipeline.flagship import assignments_pipeline
    from raytiles.pipeline.synth import webpages_path
    from tests.conftest import SF_SMOKE
    wp = webpages_path(SF_SMOKE)
    zoom, mz = 12, 6
    df = cell_compact(wp, zoom, mz)
    m = assignments_pipeline(wp, zoom).to_pandas()
    occ = set(zip(m["x"].astype(int), m["y"].astype(int)))
    # exact coverage: expand every emitted cell to zoom leaves
    leaves = set()
    for _, r in df.iterrows():
        s = zoom - int(r["z"])
        bx, by = int(r["x"]) << s, int(r["y"]) << s
        for dx in range(1 << s):
            for dy in range(1 << s):
                leaf = (bx + dx, by + dy)
                assert leaf not in leaves  # disjointness
                leaves.add(leaf)
    assert leaves == occ
    # maximality: no 4 emitted same-level siblings share a parent
    for z, g in df.groupby("z"):
        if z == mz:
            continue  # promotion stops at min_zoom by contract
        par = pd.DataFrame({"px": g["x"] // 2, "py": g["y"] // 2})
        counts = par.value_counts()
        assert (counts < 4).all()
    # at least one promotion actually happened
    assert (df["z"] < zoom).any()


def test_tile_adjacency_invariants():
    import numpy as np

    from raytiles.ops.spatial import tile_adjacency
    from raytiles.pipeline.synth import webpages_path

    df = tile_adjacency(webpages_path("/root/testdata/sf0.001"), 12) \
        .to_pandas()
    assert len(df) > 0
    dx = df["xb"] - df["xa"]
    dy = df["yb"] - df["ya"]
    # true 8-neighborhood, lexicographic order, each pair once
    assert ((dx.abs() <= 1) & (dy.abs() <= 1)).all()
    assert ((dx > 0) | ((dx == 0) & (dy > 0))).all()
    pairs = set(zip(df["xa"], df["ya"], df["xb"], df["yb"]))
    assert len(pairs) == len(df)
    assert (df["n_a"] > 0).all() and (df["n_b"] > 0).all()


def test_tile_moran_clustered_positive():
    from raytiles.ops.spatial import tile_moran
    from raytiles.pipeline.synth import webpages_path

    row = tile_moran(webpages_path("/root/testdata/sf0.001"), 12) \
        .to_pandas().iloc[0]
    # synth corpus plants city-cluster skew: counts of touching tiles
    # correlate, so Moran's I must exceed the null expectation
    assert row["moran_i"] > row["expected_i"]
    assert abs(row["expected_i"] - (-1.0 / (row["n_tiles"] - 1))) < 1e-6


# ops that must return zero rows, as their DuckDB twin does, on input
# with no mentions; zonal_stats and cell_cover have no twin
_NO_MENTIONS = ("tile_hotspots", "cell_compact", "zonal_stats",
                "cell_cover", "hotspot_regions")
# and on urls that have one mention each (no trajectory legs)
_NO_LEGS = ("trajectory_lengths", "segment_bearings")


@pytest.mark.parametrize("texts,ops", [
    (["no coordinates in this page"], ("tile_moran",) + _NO_MENTIONS),
    (["located at 37.7749, -122.4194"], ("tile_moran",)),     # N = 1
    (["located at 37.7749, -122.4194",
      "located at -33.8688, 151.2093"], ("tile_moran",) + _NO_LEGS),
    (["located at 0.0100, 0.0100",
      "located at 0.0100, 0.1000"], ("tile_moran",)),         # den = 0
], ids=["empty", "one_tile", "no_edges", "equal_counts"])
def test_tile_moran_degenerate_matches_twin(tmp_path, texts, ops):
    """Degenerate inputs give each op's DuckDB twin rows (x / 0 is
    NULL there) instead of raising: tile_moran on every case, the ops
    of _NO_MENTIONS on input without mentions and those of _NO_LEGS on
    two one-mention urls (no edges either), where they return zero
    rows."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raytiles import oracles
    from raytiles.ops import spatial

    wp = tmp_path / "webpages.parquet"
    wp.mkdir()
    pq.write_table(pa.table({
        "url": [f"https://h{i}.example/p" for i in range(len(texts))],
        "text": texts}), wp / "part-0.parquet")
    for op in ops:
        res = getattr(spatial, op)(str(wp))
        got = res if isinstance(res, pd.DataFrame) else res.to_pandas()
        twin = getattr(oracles, f"{op}_sql", None)
        if twin is None:
            assert len(got) == 0, op
            continue
        want = duckdb.sql(twin(str(wp))).df()
        # Ray's to_pandas drops the columns of a dataset with no rows
        cols = list(got.columns) or res.schema().names
        assert sorted(cols) == sorted(want.columns), op
        assert len(got) == len(want) == (op == "tile_moran"), op
        for c in cols if len(want) else ():  # tile_moran's one row
            g, w = got[c].iloc[0], want[c].iloc[0]
            assert (pd.isna(g) and pd.isna(w)) or g == w, (op, c, g, w)


def test_tile_components_match_union_find():
    import numpy as np

    from raytiles.ops.spatial import tile_adjacency, tile_components
    from raytiles.pipeline.synth import webpages_path

    wp = webpages_path("/root/testdata/sf0.001")
    edges = tile_adjacency(wp, 12).to_pandas()
    comp = tile_components(wp, 12).to_pandas()

    # local union-find oracle over the same edges
    parent: dict = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for xa, ya, xb, yb in zip(edges["xa"], edges["ya"],
                              edges["xb"], edges["yb"]):
        for k in ((xa, ya), (xb, yb)):
            parent.setdefault(k, k)
        ra, rb = find((xa, ya)), find((xb, yb))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {k: find(k) for k in parent}
    got = {(x, y): (cx, cy) for x, y, cx, cy in zip(
        comp["x"], comp["y"], comp["cluster_x"], comp["cluster_y"])}
    assert got == want


def test_tile_components_distributed_path_matches_aqe():
    """Force the distributed min-label propagation (aqe_max_edges=0)
    and assert it matches the driver union-find path row for row."""
    from raytiles.ops.spatial import tile_components
    from raytiles.pipeline.synth import webpages_path

    wp = webpages_path("/root/testdata/sf0.001")
    cols = ["z", "x", "y", "cluster_x", "cluster_y"]
    a = tile_components(wp, 12).to_pandas() \
        .sort_values(cols).reset_index(drop=True)
    b = tile_components(wp, 12, aqe_max_edges=0).to_pandas() \
        .sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b) > 0
    assert a.equals(b)


def test_tile_hotspots_lift_semantics():
    from raytiles.ops.spatial import tile_hotspots
    from raytiles.pipeline.synth import webpages_path

    df = tile_hotspots(webpages_path("/root/testdata/sf0.001"), 12) \
        .to_pandas()
    assert len(df) > 0
    iso = df["n_neighbors"] == 0
    assert (df.loc[iso, "lift"] == -1.0).all()
    assert (df.loc[iso, "neigh_sum"] == 0).all()
    # city-cluster synth: some tiles sit in denser-than-average
    # neighborhoods, some in sparser ones
    assert (df.loc[~iso, "lift"] > 1.0).any()
    assert (df.loc[~iso, "lift"] < 1.0).any()
    assert (df["n"] > 0).all()
