"""Grouped-selection operators (groupops): single-process pandas/numpy
oracles. Full value verification against the DuckDB twins comes from
scripts/check_correctness.py + the driver gate; these tests pin the
semantics at sf0.001 and the structural invariants (exact per-stratum
counts, rank bounds, quantile rule, interval-match completeness)."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from tests.conftest import SF_SMOKE

pytestmark = pytest.mark.usefixtures("ray_session")


def test_top_orders_matches_pandas_rank():
    from raytiles.ops.groupops import top_orders_per_customer
    df = top_orders_per_customer(SF_SMOKE, k=3).to_pandas()
    orders = pq.read_table(f"{SF_SMOKE}/orders.parquet").to_pandas()
    want = orders.sort_values(
        ["o_custkey", "o_totalprice", "o_orderkey"],
        ascending=[True, False, True]).groupby("o_custkey").head(3)
    assert len(df) == len(want)
    assert df["rank"].between(1, 3).all()
    got = set(zip(df["o_custkey"], df["o_orderkey"]))
    exp = set(zip(want["o_custkey"], want["o_orderkey"]))
    assert got == exp
    # rank 1 is the max-price order per customer
    r1 = df[df["rank"] == 1].set_index("o_custkey")["o_totalprice"]
    mx = orders.groupby("o_custkey")["o_totalprice"].max()
    assert np.allclose(r1.sort_index(), mx.sort_index(), rtol=0, atol=0)


def test_stratified_sample_exact_counts_and_md5_order():
    from raytiles.ops.groupops import stratified_sample
    n = 5
    df = stratified_sample(SF_SMOKE, n_per_stratum=n).to_pandas()
    docs = pq.read_table(f"{SF_SMOKE}/documents.parquet").to_pandas()
    sizes = docs.groupby("lang").size()
    got_sizes = df.groupby("lang").size()
    for lang, tot in sizes.items():
        assert got_sizes.get(lang, 0) == min(n, tot)
    # per stratum the selected ids are the n smallest by (md5hex, doc_id)
    for lang, grp in docs.groupby("lang"):
        key = sorted((hashlib.md5(str(i).encode()).hexdigest(), i)
                     for i in grp["doc_id"])
        exp = [i for _, i in key[:n]]
        sub = df[df["lang"] == lang].sort_values("sample_rank")
        assert list(sub["doc_id"]) == exp
        assert list(sub["sample_rank"]) == list(range(1, len(exp) + 1))


def test_group_quantiles_rule():
    from raytiles.ops.groupops import group_quantiles
    qs = (0.25, 0.50, 0.75, 0.95)
    df = group_quantiles(SF_SMOKE, qs=qs).to_pandas().set_index("l_suppkey")
    li = pq.read_table(f"{SF_SMOKE}/lineitem.parquet",
                       columns=["l_suppkey", "l_quantity"]).to_pandas()
    for supp, grp in li.groupby("l_suppkey"):
        v = np.sort(grp["l_quantity"].to_numpy())
        row = df.loc[supp]
        assert row["n"] == len(v)
        for q in qs:
            # p_q = min value with cumulative count >= ceil(q*n)
            exp = v[int(np.ceil(q * len(v))) - 1]
            assert row[f"p{int(q * 100)}"] == exp
    mono = df[["p25", "p50", "p75", "p95"]].to_numpy()
    assert (np.diff(mono, axis=1) >= 0).all()


def test_range_join_matches_mask_join():
    from raytiles.ops.groupops import orders_price_bands
    df = orders_price_bands(SF_SMOKE).to_pandas()
    orders = pq.read_table(f"{SF_SMOKE}/orders.parquet",
                           columns=["o_orderkey", "o_totalprice"]).to_pandas()
    v = orders["o_totalprice"].to_numpy()
    exp_pairs = set()
    for i in range(120):
        lo, hi = i * 5000.0, i * 5000.0 + 15000.0
        for ok in orders["o_orderkey"].to_numpy()[(v >= lo) & (v < hi)]:
            exp_pairs.add((int(ok), i))
    assert set(zip(df["o_orderkey"], df["band_id"])) == exp_pairs
    assert len(df) == len(exp_pairs)


def test_distinct_users_matches_nunique():
    from raytiles.ops.groupops import distinct_users
    df = distinct_users(SF_SMOKE).to_pandas().set_index("event_type")
    ev = pq.read_table(f"{SF_SMOKE}/events.parquet",
                       columns=["event_type", "user_id"]).to_pandas()
    exp = ev.groupby("event_type")["user_id"].nunique()
    assert len(df) == len(exp)
    for et, n in exp.items():
        assert df.loc[et, "n_users"] == n


def test_vocab_topk_matches_python_tokenizer():
    import re
    from raytiles.ops.text import TOKEN_RE, vocab_topk
    df = vocab_topk(SF_SMOKE, k=10).to_pandas()
    docs = pq.read_table(f"{SF_SMOKE}/documents.parquet").to_pandas()
    tok_re = re.compile(TOKEN_RE)
    dfreq, tfreq = {}, {}
    for _, row in docs.iterrows():
        toks = tok_re.findall(row["text"])
        for t in set(toks):
            dfreq[t] = dfreq.get(t, 0) + 1
        for t in toks:
            tfreq[t] = tfreq.get(t, 0) + 1
    exp = sorted(dfreq, key=lambda t: (-dfreq[t], t))[:10]
    got = df.sort_values(["df", "token"], ascending=[False, True])
    assert list(got["token"]) == exp
    for _, r in got.iterrows():
        assert r["df"] == dfreq[r["token"]] and r["tf"] == tfreq[r["token"]]


def test_doc_top_terms_rank_rule():
    import re
    from collections import Counter
    from raytiles.ops.text import TOKEN_RE, doc_top_terms
    df = doc_top_terms(SF_SMOKE, k=3).to_pandas()
    docs = pq.read_table(f"{SF_SMOKE}/documents.parquet").to_pandas()
    tok_re = re.compile(TOKEN_RE)
    for _, row in docs.sample(10, random_state=0).iterrows():
        c = Counter(tok_re.findall(row["text"]))
        exp = sorted(c, key=lambda t: (-c[t], t))[:3]
        sub = df[df["doc_id"] == row["doc_id"]].sort_values("rank")
        assert list(sub["token"]) == exp
        assert list(sub["tf"]) == [c[t] for t in exp]


def _order_revenue_expected() -> pd.DataFrame:
    """order_revenue(SF_SMOKE) as a single-process pandas join, sorted
    by o_orderkey."""
    li = pq.read_table(f"{SF_SMOKE}/lineitem.parquet",
                       columns=["l_orderkey", "l_extendedprice",
                                "l_discount"]).to_pandas()
    orders = pq.read_table(f"{SF_SMOKE}/orders.parquet").to_pandas()
    li["rev"] = li["l_extendedprice"] * (1 - li["l_discount"])
    agg = li.groupby("l_orderkey").agg(
        revenue=("rev", "sum"), n_items=("rev", "size")).reset_index()
    exp = agg.merge(orders[orders["o_orderstatus"] == "O"],
                    left_on="l_orderkey", right_on="o_orderkey")
    return exp.sort_values("o_orderkey").reset_index(drop=True)


def test_order_revenue_matches_pandas_join():
    from raytiles.ops.relational import order_revenue
    df = order_revenue(SF_SMOKE).to_pandas()
    want = _order_revenue_expected()
    assert len(df) == len(want)
    got = df.sort_values("o_orderkey").reset_index(drop=True)
    assert np.array_equal(got["o_orderkey"], want["o_orderkey"])
    assert np.array_equal(got["n_items"], want["n_items"])
    assert np.allclose(got["revenue"], want["revenue"].round(2), atol=0.005)


def test_approx_distinct_hll_accuracy_and_determinism():
    from raytiles.ops.sketch import approx_distinct_users
    df = approx_distinct_users(SF_SMOKE).to_pandas().set_index("event_type")
    ev = pq.read_table(f"{SF_SMOKE}/events.parquet",
                       columns=["event_type", "user_id"]).to_pandas()
    exact = ev.groupby("event_type")["user_id"].nunique()
    assert len(df) == len(exact)
    for et, n in exact.items():
        est = df.loc[et, "n_users_est"]
        # m=4096 -> sigma ~1.6%; allow 5% (deterministic, so stable)
        assert abs(est - n) <= max(3, 0.05 * n), (et, est, n)
    # merge invariance: a different batch regrouping yields the same
    # registers, hence bit-identical estimates
    df2 = approx_distinct_users(SF_SMOKE).to_pandas().set_index("event_type")
    assert df["n_users_est"].sort_index().equals(
        df2["n_users_est"].sort_index())


def test_tile_neighborhood_stencil():
    from raytiles.ops.raster import tile_neighborhood
    from raytiles.pipeline.flagship import (assign, geoparse,
                                            read_webpages)
    from raytiles.pipeline.synth import webpages_path
    wp = webpages_path(SF_SMOKE)
    df = tile_neighborhood(wp, 12).to_pandas()
    a = assign(geoparse(read_webpages(wp)), 12,
               with_cells=False).to_pandas()
    counts = a.groupby(["x", "y"]).size()
    assert len(df) == len(counts)
    cd = counts.to_dict()
    for _, r in df.sample(min(50, len(df)), random_state=0).iterrows():
        assert r["n_features"] == cd[(r["x"], r["y"])]
        hood = sum(cd.get((r["x"] + dx, r["y"] + dy), 0)
                   for dx in (-1, 0, 1) for dy in (-1, 0, 1))
        assert r["n_hood"] == hood


def test_redact_locations_removes_all_mentions():
    import re
    from raytiles.geo.parse import MASTER_RE
    from raytiles.ops.extract import redact_locations
    from raytiles.pipeline.synth import webpages_path
    df = redact_locations(webpages_path(SF_SMOKE)).to_pandas()
    rx = re.compile(MASTER_RE)
    hit = df[df["n_redacted"] > 0]
    assert len(hit) > 0
    for _, r in hit.sample(min(20, len(hit)), random_state=0).iterrows():
        assert rx.search(r["clean_text"]) is None
        assert r["clean_text"].count("[LOC]") == r["n_redacted"]


def test_user_features_pivot():
    from raytiles.ops.relational import user_features
    df = user_features(SF_SMOKE).to_pandas().set_index("user_id")
    ev = pq.read_table(f"{SF_SMOKE}/events.parquet").to_pandas()
    piv = ev.pivot_table(index="user_id", columns="event_type",
                         values="event_id", aggfunc="size",
                         fill_value=0)
    assert len(df) == len(piv)
    for et in piv.columns:
        got = df[f"n_{et}"].sort_index()
        assert np.array_equal(got.to_numpy(),
                              piv[et].sort_index().to_numpy())
    sums = ev.groupby("user_id")["value"].sum()
    assert np.allclose(df["sum_value"].sort_index(),
                       sums.sort_index().round(6), atol=1e-5)


def test_group_mode_matches_pandas_argmax(monkeypatch):
    """Modal user per event type with (count desc, user asc) ties —
    exact vs a pandas recompute."""
    import numpy as np
    import pyarrow.parquet as pq

    from raytiles.ops.groupops import group_mode
    from tests.conftest import SF_SMOKE
    monkeypatch.setenv("RAYTILES_FORCE_BUCKETS", "16")  # non-default
    got = group_mode(SF_SMOKE).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)
    ev = pq.read_table(f"{SF_SMOKE}/events.parquet",
                       columns=["event_type", "user_id"]).to_pandas()
    counts = ev.groupby(["event_type", "user_id"]).size() \
        .reset_index(name="n")
    counts = counts.sort_values(
        ["event_type", "n", "user_id"],
        ascending=[True, False, True], kind="stable")
    want = counts.groupby("event_type").first().reset_index()
    assert len(got) == len(want)
    assert (got["event_type"].to_numpy() == want["event_type"].to_numpy()).all()
    assert (got["modal_user"].to_numpy() == want["user_id"].to_numpy()).all()
    assert (got["n"].to_numpy().astype(np.int64)
            == want["n"].to_numpy().astype(np.int64)).all()
