"""The one equi-join path (util.cogroup / util.join): rows equal to
pandas.merge for every join type the queries use, on the bucket
exchange with no aggregator actors — so a 2-CPU session runs a join
that Ray's actor hash join deadlocked on."""

import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from tests.conftest import SF_SMOKE

pytestmark = pytest.mark.usefixtures("ray_session")

N_BUCKETS = 3


def _sides():
    # keys 1..6 land in all three buckets; 6 and 9 exist on one side only
    left = pa.table({"k": pa.array([1, 2, 2, 3, 4, 5, 6], pa.int64()),
                     "a": pa.array([10., 20., 21., 30., 40., 50., 60.]),
                     "s": pa.array(["p", "q", "r", "s", "t", "u", "v"])})
    right = pa.table({"rk": pa.array([1, 2, 3, 3, 4, 5, 9], pa.int64()),
                      "b": pa.array([100, 200, 300, 301, 400, 500, 900],
                                    pa.int64())})
    return left, right


def _frame(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _merge(left: pa.Table, right: pa.Table, how: str) -> pd.DataFrame:
    m = left.to_pandas().merge(right.to_pandas(), left_on="k",
                               right_on="rk", how=how)
    # Arrow's join emits the key once, coalesced into the left column
    m["k"] = m["k"].fillna(m["rk"])
    m = m.drop(columns="rk")
    # a missing string reads back from Arrow as None, not NaN
    m["s"] = m["s"].astype(object).where(m["s"].notna(), None)
    return m.sort_values(list(m.columns)).reset_index(drop=True)


@pytest.mark.parametrize("how,arrow", [("inner", "inner"),
                                       ("left", "left outer"),
                                       ("outer", "full outer")])
def test_join_matches_pandas_merge(how, arrow):
    from raytiles.util import join
    left, right = _sides()
    got = _frame(join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                      "k", "rk", arrow, N_BUCKETS))
    want = _merge(left, right, how)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_join_one_side_only_bucket():
    """Buckets with rows on one side only: the two ``lone`` left keys
    share no bucket with the one right row, so the outer join keeps
    them with null right columns and the inner join drops them."""
    from raytiles.util import bucket_of, join
    right = pa.table({"rk": pa.array([1], pa.int64()),
                      "b": pa.array([100], pa.int64())})
    rb = bucket_of(np.array([1]), N_BUCKETS)[0]
    lone = [k for k in range(2, 40)
            if bucket_of(np.array([k]), N_BUCKETS)[0] != rb][:2]
    left = pa.table({"k": pa.array([1] + lone, pa.int64()),
                     "a": pa.array([1., 2., 3.])})
    inner = _frame(join(ray.data.from_arrow(left),
                        ray.data.from_arrow(right), "k", "rk", "inner",
                        N_BUCKETS))
    assert inner["k"].tolist() == [1]
    outer = _frame(join(ray.data.from_arrow(left),
                        ray.data.from_arrow(right), "k", "rk", "left outer",
                        N_BUCKETS))
    assert outer["k"].tolist() == sorted([1] + lone)
    assert outer["b"].isna().sum() == 2


def test_inner_join_with_empty_right_side():
    from raytiles.util import join
    left, right = _sides()
    got = join(ray.data.from_arrow(left),
               ray.data.from_arrow(right.slice(0, 0)), "k", "rk", "inner",
               N_BUCKETS).to_pandas()
    assert len(got) == 0


def test_cogroup_passes_each_side_typed():
    from raytiles.util import cogroup
    left, right = _sides()

    def fn(l: pa.Table, r: pa.Table) -> pa.Table:
        assert l.schema.equals(left.schema), l.schema
        assert r.schema.equals(right.schema), r.schema
        return pa.table({"nl": [l.num_rows], "nr": [r.num_rows]})

    out = cogroup(ray.data.from_arrow(left), ray.data.from_arrow(right),
                  "k", "rk", fn, N_BUCKETS).to_pandas()
    assert (out["nl"].sum(), out["nr"].sum()) == \
        (left.num_rows, right.num_rows)


CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from raytiles.ops.relational import order_revenue
df = order_revenue(sys.argv[2]).to_pandas()
df.to_parquet(sys.argv[3])
print("OK", len(df))
"""


def test_order_revenue_runs_at_two_cpus(tmp_path):
    """order_revenue in a clean num_cpus=2 session: Ray's actor hash
    join held both CPU slots with its aggregator actors and never
    finished there; the bucket exchange needs no actor."""
    import os

    import pyarrow.parquet as pq

    from tests.test_groupops import _order_revenue_expected
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = tmp_path / "order_revenue.parquet"
    res = subprocess.run(
        [sys.executable, "-c", CHILD, repo, SF_SMOKE, str(out)],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=240)
    assert res.returncode == 0 and "OK" in res.stdout, res.stderr[-800:]
    got = pq.read_table(out).to_pandas() \
        .sort_values("o_orderkey").reset_index(drop=True)
    want = _order_revenue_expected()
    assert np.array_equal(got["o_orderkey"], want["o_orderkey"])
    assert np.array_equal(got["n_items"], want["n_items"])
    assert np.allclose(got["revenue"], want["revenue"].round(2), atol=0.005)
