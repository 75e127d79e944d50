"""Spot-check RESULTS_SHA.json: re-run a sample of cheap queries at
sf0.01 and verify their canonical md5 matches the published value, so
any silent output change diffs in review (VERDICT r3 item 7)."""

import json
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHA_PATH = os.path.join(REPO, "RESULTS_SHA.json")
SF = "/root/testdata/sf0.01"

# cheap, shape-diverse queries (relational, window, text, dedup, geo,
# sketch families); from user_features on they cover util.exchange /
# run_starts: a float partial merge, a row exchange, multi-key run
# scans, an exchange into one merge, two exchanges of one partial, two
# chained exchanges, the re-exchange of a merge output, the HLL
# register exchange and an id-bucket exchange with a broadcast carry
SPOT = ["pricing_summary", "top_customers", "events_hourly",
        "events_asof", "props_extract", "hdr_quantiles", "exact_dedup",
        "minhash_bands", "tile_counts", "char_trigrams",
        "user_features", "funnel_conversion", "events_ohlc",
        "event_transitions", "type_affinity", "dup_spans", "source_kl",
        "hll_sketches", "pack_sequences"]


@pytest.mark.usefixtures("ray_session")
def test_spot_hashes_match_published():
    sys.path.insert(0, os.path.join(REPO, "scripts"))
    sys.path.insert(0, REPO)
    from check_correctness import to_pandas
    from publish_hashes import canonical_md5

    import __ray_entry__ as entrymod
    with open(SHA_PATH) as f:
        published = json.load(f)["queries"]
    qs = entrymod.queries()
    missing = [n for n in SPOT if n not in published]
    assert not missing, f"not in RESULTS_SHA.json: {missing}"
    for name in SPOT:
        df = to_pandas(qs[name](SF))
        got = canonical_md5(df)
        want = published[name]
        assert "md5" in want, f"{name} published with error: {want}"
        assert got == want["md5"], \
            f"{name}: canonical md5 drifted ({got} vs {want['md5']})"
        assert len(df) == want["rows"]


def test_published_file_covers_all_queries():
    sys.path.insert(0, REPO)
    import __ray_entry__ as entrymod
    with open(SHA_PATH) as f:
        published = json.load(f)["queries"]
    names = set(entrymod.queries())
    missing = names - set(published)
    assert not missing, f"queries missing from RESULTS_SHA.json: {missing}"
    errored = [n for n, v in published.items() if "md5" not in v]
    assert not errored, f"queries published with errors: {errored}"


def test_readme_registry_counts():
    """README's layout table states the registry's size; keep it the
    count of queries() and oracle_sql(), not a hand-kept number."""
    import re
    sys.path.insert(0, REPO)
    import __ray_entry__ as entrymod
    with open(os.path.join(REPO, "README.md")) as f:
        stated = re.findall(r"\((\d+) queries, (\d+) DuckDB oracles\)", f.read())
    assert stated == [(str(len(entrymod.queries())),
                       str(len(entrymod.oracle_sql())))]


def test_query_table_resolves():
    """Every QUERY_TABLE target names a function that exists and takes
    the arguments its call shape passes, so a typo in a "module:function"
    string fails here rather than first in a driver run."""
    import inspect
    sys.path.insert(0, REPO)
    import __ray_entry__ as entrymod
    assert list(entrymod.QUERY_TABLE) == list(entrymod.queries())
    for name, target in entrymod.QUERY_TABLE.items():
        if callable(target):
            continue
        ref, *consts = (target,) if isinstance(target, str) else target
        fn = entrymod._load(ref)
        assert callable(fn), f"{name}: {ref} is not callable"
        inspect.signature(fn).bind("sf_dir", *consts)
