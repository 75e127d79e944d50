"""Worker-shippability regression: every stage callable must
cloudpickle-deserialize in a process that CANNOT import raytiles from
disk (ray workers when the driver runs outside the repo). Catches the
lazy-relative-import class of bug (an inner `from ..x import y`
executing on the worker) that shows up as a silent pipeline hang."""

import subprocess
import sys
import tempfile

LOADER = """
import sys
assert not any('repo' in p for p in sys.path), sys.path
from ray import cloudpickle
import pyarrow as pa, pandas as pd, numpy as np
fn = cloudpickle.loads(open(sys.argv[1], 'rb').read())
kind = sys.argv[2]
if kind == 'encode':
    batch = pa.table({
        'z': pa.array([12], pa.int32()), 'x': pa.array([655], pa.int32()),
        'y': pa.array([1583], pa.int32()),
        'urls': pa.array([['https://a/1', 'https://b/2']], pa.list_(pa.string())),
        'mention_idx': pa.array([[0, 1]], pa.list_(pa.int32())),
        'local_x': pa.array([[100, 4095]], pa.list_(pa.int32())),
        'local_y': pa.array([[0, 2048]], pa.list_(pa.int32())),
    })
    out = fn(batch)
    assert out.num_rows == 1 and len(out['mvt'][0].as_py()) > 10
elif kind == 'parse':
    row_pos, mention_idx, lat, lon = fn(pa.array(['x', 'located at 1.0000, 2.0000']))
    assert row_pos.tolist() == [1] and (lat[0], lon[0]) == (1.0, 2.0)
elif kind == 'decode':
    raw = open(sys.argv[3], 'rb').read()
    tile, err = fn(raw)
    assert err is None and len(tile.layers) == 1
elif kind == 'pack':
    batch = pa.table({
        'url': pa.array(['a', 'b']), 'mention_idx': pa.array([0, 0], pa.int32()),
        'z': pa.array([12, 12], pa.int32()), 'x': pa.array([1, 1], pa.int32()),
        'y': pa.array([2, 2], pa.int32()),
        'local_x': pa.array([5, 6], pa.int32()), 'local_y': pa.array([7, 8], pa.int32()),
    })
    out = fn(batch)
    assert out.num_rows == 1
elif kind == 'assign':
    batch = pa.table({
        'url': pa.array(['a', 'b']), 'mention_idx': pa.array([0, 1], pa.int32()),
        'lon': pa.array([-122.4194, 180.0]), 'lat': pa.array([37.7749, -85.05]),
    })
    out = fn(batch)
    assert out['x'].to_pylist() == [655, 4095], out['x']
    assert out['y'].to_pylist() == [1583, 4095], out['y']
print('OK')
"""


def _roundtrip_in_clean_process(obj, kind: str, *args: str) -> None:
    from ray import cloudpickle
    with tempfile.NamedTemporaryFile(suffix=".bin") as fh:
        fh.write(cloudpickle.dumps(obj))
        fh.flush()
        res = subprocess.run(
            [sys.executable, "-c", LOADER, fh.name, kind, *args],
            capture_output=True, text=True, cwd="/tmp")
        assert res.returncode == 0 and "OK" in res.stdout, \
            f"{kind}: {res.stderr[-800:]}"


def test_encoder_ships_by_value():
    from raytiles.pipeline.encode_stage import FastPointEncoder
    enc = FastPointEncoder()

    def encode_batch(b):
        return enc(b)

    _roundtrip_in_clean_process(encode_batch, "encode")


def test_assigner_ships_by_value():
    """flagship.assign hands a plain TileAssigner instance to
    map_batches, so the instance itself must ship to a clean process."""
    from raytiles.pipeline.stages import TileAssigner
    _roundtrip_in_clean_process(TileAssigner(12, with_cells=False), "assign")


def test_parser_ships_by_value():
    from raytiles.geo.parse import GeoParser
    parser = GeoParser()

    def parse_batch(texts):
        return parser.parse_arrow(texts)

    _roundtrip_in_clean_process(parse_batch, "parse")


def test_pack_and_merge_ship_by_value():
    from raytiles.pipeline.stages import merge_tile_partials, pack_tile_partials
    _roundtrip_in_clean_process(pack_tile_partials, "pack")
    # merge needs the packed schema; deserialization alone proves
    # shippability (invocation is covered by the pipeline tests)
    from ray import cloudpickle
    code = ("import sys; assert not any('repo' in p for p in sys.path); "
            "from ray import cloudpickle; "
            "cloudpickle.loads(open(sys.argv[1],'rb').read()); print('OK')")
    with tempfile.NamedTemporaryFile(suffix=".bin") as fh:
        fh.write(cloudpickle.dumps(merge_tile_partials))
        fh.flush()
        res = subprocess.run([sys.executable, "-c", code, fh.name],
                             capture_output=True, text=True, cwd="/tmp")
        assert res.returncode == 0 and "OK" in res.stdout, res.stderr[-500:]


def test_trajectory_and_raster_fns_ship_by_value():
    from ray import cloudpickle
    import subprocess as sp
    from raytiles.pipeline.trajectories import encode_trajectories
    from raytiles.ops.extract import extract_batch
    for fn in (encode_trajectories, extract_batch):
        blob = cloudpickle.dumps(fn)
        code = ("import sys; assert not any('repo' in p for p in sys.path); "
                "from ray import cloudpickle; "
                "cloudpickle.loads(open(sys.argv[1],'rb').read()); print('OK')")
        with tempfile.NamedTemporaryFile(suffix=".bin") as fh:
            fh.write(blob)
            fh.flush()
            res = sp.run([sys.executable, "-c", code, fh.name],
                         capture_output=True, text=True, cwd="/tmp")
            assert res.returncode == 0 and "OK" in res.stdout, res.stderr[-500:]


def test_decode_ships_by_value():
    """codec.decode must ship to workers: a module-level
    struct.Struct (unpicklable) once broke every decode-using stage
    while the library itself imported fine locally."""
    from raytiles.codec.decode import decode_tile_safe
    from tests.conftest import fixture_path
    # the child runs from /tmp: hand it the resolved absolute path
    _roundtrip_in_clean_process(decode_tile_safe, "decode",
                                fixture_path("onepoint.mvt"))


def test_no_uint64_output_columns_in_stages():
    """Convention guard (CLAUDE.md): stages must not emit pa.uint64()
    columns — values >= 2^63 can silently round through float64 in
    Ray's streamed output path. The codec's arrowio feature table is
    exempt: its uint64 fields mirror the MVT spec's Word64 id/uint
    types (VectorTile.hs:123, Value.hs:53-57) and never ride a
    shuffle."""
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "raytiles"
    offenders = []
    for sub in ("ops", "pipeline", "geo"):
        for p in sorted((root / sub).glob("*.py")):
            for i, line in enumerate(p.read_text().splitlines(), 1):
                code = line.split("#", 1)[0]
                if "pa.uint64()" in code:
                    offenders.append(f"{p.name}:{i}")
    assert not offenders, offenders


def test_no_relative_imports_in_worker_code():
    """Convention guard (CLAUDE.md): a relative ``from .x import y`` in
    a nested function or a method runs where that code runs, and on a
    Ray worker outside the repo it fails with ModuleNotFoundError.
    Nested functions and methods are what the stages ship to workers,
    so the import belongs at module level."""
    import ast
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "raytiles"
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    offenders = []

    def walk(node, in_worker_code: bool, in_func: bool, rel: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.ImportFrom) and child.level
                    and in_worker_code):
                offenders.append(f"{rel}:{child.lineno}")
            is_func = isinstance(child, funcs)
            walk(child,
                 in_worker_code or (is_func and in_func)
                 or (is_func and isinstance(node, ast.ClassDef)),
                 in_func or is_func, rel)

    for p in sorted(root.rglob("*.py")):
        walk(ast.parse(p.read_text()), False, False,
             str(p.relative_to(root)))
    assert not offenders, offenders


def test_one_join_path():
    """Convention guard (CLAUDE.md): every two-input equi-join runs on
    the bucket exchange (util.join / util.cogroup). Ray's
    ``Dataset.join`` parks aggregator actors on CPU slots and
    deadlocked at num_cpus=2, and its partition count was read off the
    cluster. Fails on any reference to ``cluster_resources`` or
    ``_join_partitions`` under raytiles/, and on any ``.join(`` call
    that passes a join-type string positionally, a Ray-spelled join
    type (``left_outer``, ...), or a ``num_partitions`` argument —
    the shapes of a ``Dataset.join`` call. Arrow's per-bucket
    ``Table.join(..., join_type="inner")`` keyword form stays legal:
    it is what util.join runs inside each bucket."""
    import ast
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "raytiles"
    verbs = {"inner", "left outer", "right outer", "full outer",
             "left semi", "right semi", "left anti", "right anti"}
    ray_verbs = {v.replace(" ", "_") for v in verbs if " " in v}
    offenders = []
    for p in sorted(root.rglob("*.py")):
        rel = str(p.relative_to(root))
        for node in ast.walk(ast.parse(p.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None) \
                or getattr(node, "name", None)
            if name in ("cluster_resources", "_join_partitions"):
                offenders.append(f"{rel}:{getattr(node, 'lineno', '?')} {name}")
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"):
                continue
            kw = {k.arg: k.value for k in node.keywords}
            pos = [a.value for a in node.args if isinstance(a, ast.Constant)]
            jt = kw.get("join_type")
            jt = jt.value if isinstance(jt, ast.Constant) else None
            if ("num_partitions" in kw
                    or any(v in verbs | ray_verbs for v in pos)
                    or jt in ray_verbs):
                offenders.append(f"{rel}:{node.lineno} .join(")
    assert not offenders, offenders


# op modules whose one-key hash exchanges and run scans are on util,
# each with the functions that keep their own exchange and why
# (CHANGES.md names the same sites)
EXCHANGES_ON_UTIL = {
    "relational": {
        "order_price_ranks": "range partition on sampled splits, not a "
                             "hash of one key column",
    },
    "text": {},
    "dedup": {},
    "sketch": {},
    "webcorpus": {},
    "tokenizer": {},
    "spatial": {},
    "raster": {},
}


def test_exchanges_on_util():
    """Convention guard (CLAUDE.md): in every module of
    EXCHANGES_ON_UTIL each one-input hash-bucket exchange is
    ``util.exchange`` and each run scan is ``util.run_starts``. Fails
    on a ``groupby`` of a column whose name contains ``bucket`` (or is
    ``shard``), a bucket column computed by hand (``bucket_of`` or
    ``stages.tile_bucket``) or a hand-written ``k[1:] != k[:-1]`` (or
    ``==``, either order) scan outside the module's allowed
    functions."""
    import ast
    import pathlib
    ops = pathlib.Path(__file__).resolve().parent.parent / "raytiles" / "ops"

    def bounds(s):
        """(lower, upper) source of a step-less slice subscript."""
        sl = s.slice if isinstance(s, ast.Subscript) else None
        if not (isinstance(sl, ast.Slice) and sl.step is None):
            return None
        return tuple(ast.unparse(e) if e else None
                     for e in (sl.lower, sl.upper))

    def is_scan(node):
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.NotEq, ast.Eq))):
            return False
        pair = {bounds(node.left), bounds(node.comparators[0])}
        return pair == {("1", None), (None, "-1")}

    def is_bucket_groupby(node):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "groupby" and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            return False
        col = node.args[0].value
        return "bucket" in col or col == "shard"

    def is_bucket_fn(node):
        names = {"bucket_of", "tile_bucket"}
        if isinstance(node, ast.ImportFrom):
            return any(a.name in names for a in node.names)
        return isinstance(node, ast.Name) and node.id in names

    offenders = []
    for module, allowed in EXCHANGES_ON_UTIL.items():
        tree = ast.parse((ops / f"{module}.py").read_text())
        for top in tree.body:
            if not isinstance(top, ast.FunctionDef) or top.name in allowed:
                continue
            name = f"{module}.{top.name}"
            for node in ast.walk(top):
                if is_bucket_groupby(node):
                    offenders.append(f"{name}:{node.lineno} groupby")
                if is_bucket_fn(node):
                    offenders.append(f"{name}:{node.lineno} bucket column")
                if is_scan(node):
                    offenders.append(f"{name}:{node.lineno} run scan")
    assert not offenders, offenders


def test_derive_buckets_scaling(tmp_path, monkeypatch):
    """Bucket-count derivation: floor at small inputs (historical
    layouts unchanged), linear in input bytes past the floor, capped,
    env hook forces."""
    from raytiles import util
    from raytiles.util import derive_buckets, input_bytes

    f = tmp_path / "t.parquet"
    f.write_bytes(b"x" * 1024)  # 1 KiB input
    assert derive_buckets(str(f), floor=256) == 256   # below floor
    # linear region: 100 buckets' worth of bytes at a tiny target
    monkeypatch.setattr(util, "BUCKET_TARGET_BYTES", 8)
    assert derive_buckets(str(f), floor=4) == 128
    # directory form sums member files
    d = tmp_path / "dir.parquet"
    d.mkdir()
    (d / "a").write_bytes(b"x" * 512)
    (d / "b").write_bytes(b"x" * 512)
    assert derive_buckets(str(d), floor=4) == 128
    # the shared size scan: non-local or missing paths size as 0, so
    # derivation takes the floor (and util.layout its unsized layout)
    assert input_bytes(str(d)) == 1024
    assert input_bytes("s3://bucket/webpages.parquet") == 0
    assert input_bytes(str(tmp_path / "missing")) == 0
    assert derive_buckets("s3://bucket/webpages.parquet", floor=7) == 7
    monkeypatch.setattr(util, "MAX_BUCKETS", 64)  # the cap
    assert derive_buckets(str(f), floor=4) == 64
    # env hook (tests/test_bucket_invariance.py runs every family under it)
    monkeypatch.setenv("RAYTILES_FORCE_BUCKETS", "33")
    assert derive_buckets(str(f), floor=256) == 33


def test_env_knobs_pinned():
    """Every environment variable the library reads is a setting
    nobody tests by default. Pin the set: a new os.environ / os.getenv
    read under raytiles/ must come with a deliberate edit here."""
    import pathlib
    import re
    root = pathlib.Path(__file__).resolve().parent.parent / "raytiles"
    key = re.compile(r"""(?:\.get)?\s*[\[(]\s*["']([^"']+)["']""")
    names = set()
    for p in sorted(root.rglob("*.py")):
        text = p.read_text()
        for m in re.finditer(r"os\.(?:environ|getenv)\b", text):
            k = key.match(text, m.end())
            names.add(k.group(1) if k else f"{p.name}:<non-literal key>")
    assert names == {"RAYTILES_FORCE_BUCKETS"}, sorted(names)

