"""Layout invariance: an op's output must not depend on how many hash
buckets its exchange uses. ``util.derive_buckets`` decides every
derived count, and ``RAYTILES_FORCE_BUCKETS`` overrides all of them at
once, so one op per module runs at its default count and at 7 (prime,
far below every floor) and must give the same canonical md5."""

import importlib
import os
import sys

import pytest

from tests.conftest import SF_SMOKE

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (module, op, input): "sf" passes the tier dir, "wp" its webpages path
OPS = [
    ("relational", "events_sessions", "sf"),
    ("relational", "user_features", "sf"),
    ("groupops", "group_mode", "sf"),
    ("text", "vocab_topk", "sf"),
    ("text", "pack_sequences", "sf"),
    ("webcorpus", "per_source_cap", "sf"),
    ("warehouse", "custdist", "sf"),
    ("sketch", "heavy_hitters", "sf"),
    ("spatial", "tile_hotspots", "wp"),
    ("raster", "point_clusters", "wp"),
    ("profile", "profile_table", "sf"),
    ("partdim", "brand_type_stats", "sf"),
]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("module,op,arg", OPS,
                         ids=[f"{m}.{o}" for m, o, _ in OPS])
def test_output_independent_of_bucket_count(monkeypatch, module, op, arg):
    sys.path.insert(0, os.path.join(REPO, "scripts"))
    from check_correctness import to_pandas
    from publish_hashes import canonical_md5

    from raytiles.pipeline.synth import webpages_path
    fn = getattr(importlib.import_module(f"raytiles.ops.{module}"), op)
    path = webpages_path(SF_SMOKE) if arg == "wp" else SF_SMOKE

    monkeypatch.delenv("RAYTILES_FORCE_BUCKETS", raising=False)
    default = to_pandas(fn(path))
    monkeypatch.setenv("RAYTILES_FORCE_BUCKETS", "7")
    forced = to_pandas(fn(path))
    assert len(default) > 0
    assert canonical_md5(forced) == canonical_md5(default)
