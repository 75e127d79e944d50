"""Publish canonical result hashes for EVERY registered query at
sf0.01 to RESULTS_SHA.json, so breadth can be verified without
re-running all pipelines and any silent output change diffs in review.

Canonical form (the declared normalization — tests/test_results_sha.py
spot-checks it): columns sorted by name, rows sorted by all columns,
bytes rendered as 32-hex-char prefixes (scripts/check_correctness.norm),
then CSV with float_format="%.17g" (round-trip-exact float64) and md5
over the UTF-8 bytes. Queries are deterministic (fixed seeds), so the
hash is stable run to run on the same inputs.

Usage: python scripts/publish_hashes.py [--check] [sf_dir] [name ...]

``--check`` hashes the named queries (default: all), prints each one
whose entry differs from RESULTS_SHA.json and exits 1 if any does. It
never writes the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(_HERE))  # repo root (raytiles, entry)
sys.path.insert(0, _HERE)                   # scripts/ (check_correctness)

from check_correctness import norm, to_pandas  # noqa: E402


def _json_default(o):
    if hasattr(o, "tolist"):
        return o.tolist()
    if isinstance(o, bytes):
        return o.hex()
    return str(o)


def _canon_cell(v):
    """Render nested cells (ndarray / list / tuple / dict, arbitrarily
    nested) as a deterministic string so norm()'s row sort and the CSV
    are well-defined for rows-only queries with structured columns."""
    import numpy as np
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, dict):
        return json.dumps({str(k): v[k] for k in sorted(v, key=str)},
                          default=_json_default)
    return json.dumps(v, default=_json_default)


def canonical_md5(df) -> str:
    df = df.copy()
    for c in df.columns:
        if df[c].dtype == object and len(df):
            first = df[c].iloc[0]
            if isinstance(first, (list, tuple, dict)) or \
                    type(first).__name__ == "ndarray":
                df[c] = df[c].map(_canon_cell)
    d = norm(df)
    csv = d.to_csv(index=False, float_format="%.17g")
    return hashlib.md5(csv.encode("utf-8")).hexdigest()


def hash_query(fn, sf_dir: str) -> dict:
    """RESULTS_SHA.json entry of one query: rows, sorted column names
    and canonical md5, or the error it raised."""
    try:
        df = to_pandas(fn(sf_dir))
        md5 = canonical_md5(df)
    except Exception as e:  # noqa: BLE001
        return {"error": f"{type(e).__name__}: {e}"}
    return {"rows": int(len(df)), "cols": sorted(map(str, df.columns)),
            "md5": md5}


def main() -> None:
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    args = sys.argv[1:]
    check = "--check" in args
    args = [a for a in args if a != "--check"]
    sf_dir = args[0] if args else "/root/testdata/sf0.01"
    only = set(args[1:])
    out_path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "RESULTS_SHA.json")

    import __ray_entry__ as entrymod
    qs = entrymod.queries()

    recorded = {}
    if os.path.exists(out_path):
        with open(out_path) as f:
            recorded = json.load(f).get("queries", {})
    # a partial refresh keeps the other entries
    results = dict(recorded) if only and not check else {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        results[name] = got = hash_query(fn, sf_dir)
        if "error" in got:
            print(f"{name:24s} ERROR {got['error']}")
        else:
            print(f"{name:24s} rows={got['rows']:7d} md5={got['md5']}"
                  f"  ({time.time()-t0:4.1f}s)")
    ray.shutdown()
    if check:
        differ = [n for n in results if results[n] != recorded.get(n)]
        for n in differ:
            print(f"DIFFERS {n}: recorded {recorded.get(n)} got {results[n]}")
        print(f"checked {len(results)} queries, {len(differ)} differ")
        sys.exit(1 if differ else 0)
    with open(out_path, "w") as f:
        json.dump({"sf_dir": sf_dir,
                   "normalization": "sorted cols, sorted rows, bytes->hex32,"
                                    " csv float %.17g, md5 utf-8",
                   "queries": dict(sorted(results.items()))}, f, indent=1)
    print(f"wrote {out_path} ({len(results)} queries)")


if __name__ == "__main__":
    main()
