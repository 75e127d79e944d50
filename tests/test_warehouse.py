"""Warehouse wave two (ops/warehouse.py): structural + single-process
pandas oracles at sf0.001. Full value verification comes from the
DuckDB twins via scripts/check_correctness.py and the driver gate;
these tests pin the invariants that SQL can't see (tie-break rules,
zero-bin arithmetic, integer exactness of threshold predicates)."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from tests.conftest import SF_SMOKE

pytestmark = pytest.mark.usefixtures("ray_session")


def _cents(x):
    v = np.asarray(x, dtype=np.float64) * 100.0
    return np.where(v >= 0, np.floor(v + 0.5), np.ceil(v - 0.5)).astype(np.int64)


def test_shipping_priority_topk_and_ties():
    from raytiles.ops.warehouse import shipping_priority
    df = shipping_priority(SF_SMOKE).to_pandas()
    assert list(df.columns) == ["o_orderkey", "orderdate_us", "revenue_cents"]
    assert len(df) <= 10
    # descending revenue, orderkey ascending within equal revenue
    rc = df["revenue_cents"].to_numpy()
    assert (np.diff(rc) <= 0).all()
    for i in range(len(df) - 1):
        if rc[i] == rc[i + 1]:
            assert df["o_orderkey"].iloc[i] < df["o_orderkey"].iloc[i + 1]


def test_custdist_zero_bin_accounts_for_all_customers():
    from raytiles.ops.warehouse import custdist
    df = custdist(SF_SMOKE).to_pandas()
    n_cust = pq.read_table(f"{SF_SMOKE}/customer.parquet").num_rows
    assert int(df["custdist"].sum()) == n_cust
    assert (df["c_count"] >= 0).all()
    # single-process oracle
    orders = pq.read_table(f"{SF_SMOKE}/orders.parquet").to_pandas()
    cnt = orders[orders["o_orderpriority"] != "1-URGENT"] \
        .groupby("o_custkey").size()
    want = cnt.value_counts().to_dict()
    if n_cust - len(cnt) > 0:
        want[0] = n_cust - len(cnt)
    got = dict(zip(df["c_count"], df["custdist"]))
    assert got == want


def test_important_parts_integer_threshold():
    from raytiles.ops.warehouse import important_parts
    df = important_parts(SF_SMOKE).to_pandas()
    li = pq.read_table(f"{SF_SMOKE}/lineitem.parquet").to_pandas()
    li["cents"] = _cents(li["l_extendedprice"] * (1 - li["l_discount"]))
    per = li.groupby("l_partkey")["cents"].sum()
    total = int(per.sum())
    want = {int(k) for k, v in per.items() if int(v) * 10000 > 8 * total}
    assert set(df["p_partkey"]) == want
    got = df.set_index("p_partkey")["revenue_cents"].to_dict()
    for k in want:
        assert got[k] == int(per[k])


def test_min_cost_supplier_argmin_tiebreak():
    from raytiles.ops.warehouse import min_cost_supplier
    df = min_cost_supplier(SF_SMOKE).to_pandas()
    assert df["p_partkey"].is_unique
    # recompute single-process
    li = pq.read_table(f"{SF_SMOKE}/lineitem.parquet").to_pandas()
    part = pq.read_table(f"{SF_SMOKE}/part.parquet").to_pandas()
    supp = pq.read_table(f"{SF_SMOKE}/supplier.parquet").to_pandas()
    nat = pq.read_table(f"{SF_SMOKE}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{SF_SMOKE}/region.parquet").to_pandas()
    eur = set(nat.merge(reg, left_on="n_regionkey", right_on="r_regionkey")
              .query("r_name == 'EUROPE'")["n_nationkey"])
    sk = set(supp[supp["s_nationkey"].isin(eur)]["s_suppkey"])
    pk = set(part[part["p_size"] == 15]["p_partkey"])
    li = li[li["l_partkey"].isin(pk) & li["l_suppkey"].isin(sk)].copy()
    li["cents"] = _cents(li["l_extendedprice"])
    pair = li.groupby(["l_partkey", "l_suppkey"])["cents"].sum().reset_index()
    pair = pair.sort_values(["l_partkey", "cents", "l_suppkey"])
    win = pair.groupby("l_partkey").first().reset_index()
    got = df.sort_values("p_partkey").reset_index(drop=True)
    assert np.array_equal(got["p_partkey"].to_numpy(),
                          win["l_partkey"].to_numpy())
    assert np.array_equal(got["s_suppkey"].to_numpy(),
                          win["l_suppkey"].to_numpy())
    assert np.array_equal(got["min_cents"].to_numpy(),
                          win["cents"].to_numpy())


def test_banded_revenue_matches_pandas_or_predicate():
    from raytiles.ops.warehouse import banded_revenue
    df = banded_revenue(SF_SMOKE).to_pandas()
    li = pq.read_table(f"{SF_SMOKE}/lineitem.parquet").to_pandas()
    part = pq.read_table(f"{SF_SMOKE}/part.parquet").to_pandas()
    j = li.merge(part, left_on="l_partkey", right_on="p_partkey")
    m = ((j["p_brand"] == "Brand#1") & j["p_size"].between(1, 5)
         & j["l_quantity"].between(1, 11)) \
        | ((j["p_brand"] == "Brand#2") & j["p_size"].between(1, 10)
           & j["l_quantity"].between(10, 20)) \
        | ((j["p_brand"] == "Brand#3") & j["p_size"].between(1, 15)
           & j["l_quantity"].between(20, 30))
    sel = j[m]
    cents = _cents(sel["l_extendedprice"] * (1 - sel["l_discount"]))
    assert int(df["n_items"].iloc[0]) == int(m.sum())
    assert int(df["revenue_cents"].iloc[0]) == int(cents.sum())


def test_ship_volume_excludes_same_region_flow():
    from raytiles.ops.warehouse import ship_volume
    df = ship_volume(SF_SMOKE).to_pandas()
    assert (df["supp_region"] != df["cust_region"]).all()
    assert set(df["supp_region"]) | set(df["cust_region"]) <= \
        {"ASIA", "AMERICA"}
    assert (df["revenue_cents"] > 0).all()


def test_top_supplier_is_argmax_with_all_ties():
    from raytiles.ops.warehouse import top_supplier
    df = top_supplier(SF_SMOKE).to_pandas()
    assert len(df) >= 1
    assert df["total_cents"].nunique() == 1


def test_big_orders_shuffle_branch_matches_broadcast(monkeypatch):
    """big_orders joins on the bucket exchange only when more than
    BIG_ORDERS_BROADCAST_ROWS orders qualify, which no test tier
    reaches; forcing the threshold to 0 must give the broadcast
    branch's frame."""
    from raytiles.ops import warehouse

    def frame(df):
        return df.sort_values("o_orderkey").reset_index(drop=True)

    bcast = frame(warehouse.big_orders(SF_SMOKE, 100).to_pandas())
    monkeypatch.setattr(warehouse, "BIG_ORDERS_BROADCAST_ROWS", 0)
    shuffled = frame(warehouse.big_orders(SF_SMOKE, 100).to_pandas())
    assert len(bcast) > 0
    pd.testing.assert_frame_equal(shuffled, bcast)
