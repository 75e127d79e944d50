#!/usr/bin/env python3
"""raytiles benchmark: three seeded workloads, one result line each.

    python3 perfbench/run.py --workload flagship_60k --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is the separate traced run that prints the
per-layer metrics. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is the
run report (host facts, session config, pass times). The full report,
spans included, is written under .perfbench_work/reports/. See
perfbench/README.md for the workloads and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

from spans import NullTracer, Tracer, wrapped

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# docs: seed-generated web pages; tiles: seed-generated mixed tiles;
# timeout: seconds one pass may take before it counts as failed;
# setups: set-ups per run, setup_s is their median (a Ray set-up takes
# ~7 s, a codec one ~1 s).
WORKLOADS = {
    "flagship_60k": {"kind": "flagship", "docs": 60_000, "timeout": 30, "setups": 3},
    "tile_job_120k": {"kind": "job", "docs": 120_000, "timeout": 45, "setups": 3},
    "codec_fixpoint": {"kind": "codec", "tiles": 6, "timeout": 30, "setups": 5},
}
SMOKE_SIZES = {"flagship_60k": {"docs": 3_000, "setups": 1},
               "tile_job_120k": {"docs": 3_000, "setups": 1},
               "codec_fixpoint": {"tiles": 3, "setups": 1}}
MIN_PASSES = 3  # measured passes per run, even past --seconds
TRACED_CODEC_PASSES = 10  # codec passes the traced run sums over, per mode


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _cpu_times() -> tuple[float, float]:
    """(total, steal) jiffies from /proc/stat."""
    with open("/proc/stat") as fh:
        f = [float(v) for v in fh.readline().split()[1:9]]
    return sum(f), f[7]


def host_facts() -> dict:
    return {"cpu_count": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()),
            "ray_version": importlib.metadata.version("ray"),
            "python": platform.python_version(),
            "machine": platform.machine()}


def call_with_timeout(fn, timeout: float):
    """Run fn() in a daemon thread -> (value, seconds, error). error is
    None, a traceback string, or "timeout"."""
    box: dict = {}

    def target():
        t0 = time.perf_counter()
        try:
            box["value"] = fn()
        except Exception:
            box["error"] = traceback.format_exc()
        box["seconds"] = time.perf_counter() - t0

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        return None, timeout, "timeout"
    return box.get("value"), box["seconds"], box.get("error")


class Passes:
    """Attempted / failed pass counts and the times of passes that
    produced correct output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []
        self.errors: list[str] = []

    def record(self, seconds: float, error: str | None, timed: bool = True) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(error.strip().splitlines()[-1])
            print(f"perfbench: pass failed: {error}", file=sys.stderr)
            return False
        if timed:
            self.times.append(seconds)
        return True


def measure(one_pass, seconds: float, passes: Passes, min_passes: int) -> None:
    """Closed loop: one pass at a time until ``seconds`` have passed and
    at least ``min_passes`` were attempted."""
    t_end = time.perf_counter() + seconds
    start = passes.attempted
    while passes.attempted - start < min_passes or time.perf_counter() < t_end:
        one_pass()


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _min(xs):
    return min(xs) if xs else float("nan")


# --------------------------------------------------------------------- Ray

class RayWorkload:
    """flagship_60k and tile_job_120k: a seeded docs input, the
    reference digest from the single-process chain, then Ray passes."""

    def __init__(self, name: str, cfg: dict, seed: int, work: str) -> None:
        import kernels
        self.name, self.cfg, self.seed = name, cfg, seed
        self.kernels = kernels
        self.path = kernels.docs_input(work, cfg["docs"], seed)
        self.out = os.path.join(work, "out", name)
        os.makedirs(self.out, exist_ok=True)
        self.ray_tmp = os.environ["RAY_TMPDIR"]
        self.session: dict = {}

    def reference(self, tr):
        """Run the kernel chain; keep its digest, tile count and mvt
        bytes. Runs before ray.init: with a session up, FastPointEncoder
        fans large batches out to Ray tasks."""
        t0 = time.perf_counter()
        tiles = self.kernels.kernel_chain(self.path, tr or NullTracer(),
                                          os.path.join(self.out, "chain.parquet"))
        wall = time.perf_counter() - t0
        self.ref_digest = self.kernels.tile_digest(tiles)
        self.n_tiles = tiles.num_rows
        self.ref_blobs = tiles["mvt"].to_pylist()
        return wall

    def one_pass(self, passes: Passes, timed: bool = True):
        import rayload
        k = self.kernels
        if self.cfg["kind"] == "flagship":
            target = os.path.join(self.out, "tiles")
            value, secs, err = call_with_timeout(
                lambda: rayload.flagship_pass(self.path, target), self.cfg["timeout"])
            read = k.read_flagship_output
        else:
            target = os.path.join(self.out, "job")
            value, secs, err = call_with_timeout(
                lambda: rayload.job_pass(self.path, target), self.cfg["timeout"])
            read = k.read_job_output
        if err == "timeout":
            rayload.stop()  # unblocks the hung pass; the next one gets a fresh session
            rayload.start(self.ray_tmp)
        elif err is None:
            got = k.tile_digest(read(target))
            if got != self.ref_digest:
                err = f"digest mismatch: {got} != reference {self.ref_digest}"
        passes.record(secs, err, timed)
        return value, secs

    def run(self, seconds: float, passes: Passes, min_passes: int, setups: int) -> dict:
        """Each set-up (a fresh session and its cold pass) is followed by
        its share of the measured passes, so the passes are spread over
        the whole run rather than bunched at its end."""
        self.reference(None)
        import rayload
        setup_s = []
        for _ in range(setups):
            t0 = time.perf_counter()
            rayload.start(self.ray_tmp)
            t_init = time.perf_counter() - t0
            _, cold = self.one_pass(passes, timed=False)
            setup_s.append(t_init + cold)
            measure(lambda: self.one_pass(passes), seconds / setups, passes,
                    -(-min_passes // setups))
            self.session = {**rayload.SESSION, **rayload.context_facts()}
            rayload.stop()
        wall = _min(passes.times)
        return {"setup_s": _median(setup_s), "wall_s": wall,
                "docs_per_s": self.cfg["docs"] / wall,
                "tiles_per_s": self.n_tiles / wall,
                "_setups_s": setup_s, "_wall_median_s": _median(passes.times)}

    def trace(self, passes: Passes) -> dict:
        import rayload
        tr = Tracer(f"{self.name}-{self.seed}")
        self.reference(None)  # warm-up: first calls compile regexes, fill caches
        untraced_chain = self.reference(None)
        with _geometry_spans(tr):
            traced_chain = self.reference(tr)
            # the output tiles must be a general-codec fixpoint too
            ok = self.kernels.codec_fixpoint(self.ref_blobs, tr)
        passes.record(0.0, None if ok else "output tiles are not a codec fixpoint",
                      timed=False)
        rayload.start(self.ray_tmp)
        self.one_pass(passes, timed=False)  # cold
        _, untraced = self.one_pass(passes)
        m = {}
        if self.cfg["kind"] == "flagship":
            ds, traced = self.one_pass(passes)
            ops = rayload.operator_stats(ds) if ds is not None else []
        else:
            root = os.path.join(self.out, "job")
            shutil.rmtree(root, ignore_errors=True)
            from raytiles.pipeline import job
            cap = rayload.WriteCapture()

            def stages():
                with cap, tr.span("job.stage_a"):
                    job.stage_a(self.path, root)
                with tr.span("job.stage_b"):
                    return job.stage_b(root)
            res, traced, err = call_with_timeout(stages, self.cfg["timeout"])
            if err is None and self.kernels.tile_digest(
                    self.kernels.read_job_output(root)) != self.ref_digest:
                err = "digest mismatch"
            if passes.record(traced, err):
                with tr.span("job.resume"):
                    resumed = job.run_job(self.path, root)
                passes.record(0.0, None if resumed["computed"] == 0 else
                              "resume recomputed finished partitions", timed=False)
                m.update({"job.stage_a_s": tr.total("job.stage_a"),
                          "job.stage_b_s": tr.total("job.stage_b"),
                          "job.partitions": res["partitions"],
                          "job.resume_s": tr.total("job.resume")})
            ops = rayload.operator_stats(cap.datasets[0]) if cap.datasets and err is None else []
        self.session = {**rayload.SESSION, **rayload.context_facts()}
        rayload.stop()
        m.update(_chain_layers(tr))
        m.update(rayload.layer_stats(ops))
        kernel_s = sum(m[f"{k}.self_s"] for k in
                       ("read", "geoparse", "assign", "pack", "merge", "encode", "write"))
        m["ray.overhead_ratio"] = 1 - kernel_s / (untraced * rayload.SESSION["num_cpus"])
        m["trace.chain_overhead_s"] = traced_chain - untraced_chain
        m["trace.ray_overhead_s"] = traced - untraced
        self.ops, self.tracer = ops, tr
        return m


def _chain_layers(tr) -> dict:
    st, c = tr.self_times(), tr.counts
    m = {f"{k}.self_s": st.get(k, 0.0) for k in
         ("read", "geoparse", "assign", "pack", "merge", "encode", "write")}
    m["assign.rtree_query_s"] = tr.total("assign.rtree_query")
    scanned = c.get("geoparse.docs_scanned", 0)
    docs_in = c.get("geoparse.docs_in", 0)
    m["geoparse.prefilter_pass_ratio"] = scanned / docs_in if docs_in else 0.0
    m["geoparse.useful_ratio"] = c.get("geoparse.docs_useful", 0) / scanned if scanned else 0.0
    for key in ("read.rows", "read.bytes", "geoparse.docs_in", "geoparse.mentions_out",
                "assign.rows", "pack.rows_in", "pack.rows_out", "merge.tiles",
                "encode.features", "encode.bytes_out", "encode.features_per_tile_max",
                "encode.features_per_tile_p99", "write.bytes"):
        m[key] = c.get(key, 0)
    m.update(_codec_layers(tr))
    return m


def _codec_layers(tr) -> dict:
    st = tr.self_times()
    tiles = tr.counts.get("codec.tiles", 0)
    m = {"codec.encode.self_s": st.get("codec.encode", 0.0),
         "codec.decode.self_s": st.get("codec.decode", 0.0),
         "codec.decode_us_per_tile": tr.total("codec.decode") / tiles * 1e6 if tiles else 0.0,
         "codec.encode_us_per_tile": tr.total("codec.encode") / tiles * 1e6 if tiles else 0.0,
         "codec.bytes": tr.counts.get("codec.bytes", 0),
         "codec.features": tr.counts.get("codec.features", 0)}
    for g in ("points", "linestrings", "polygons"):
        m[f"codec.geometry.decode_{g}_s"] = tr.total(f"codec.geometry.decode_{g}")
    return m


def _geometry_spans(tr) -> contextlib.ExitStack:
    """codec.decode's geometry decoders, each wrapped in a span."""
    from raytiles.codec import decode
    stack = contextlib.ExitStack()
    for g in ("points", "linestrings", "polygons"):
        stack.enter_context(wrapped(tr, decode, f"decode_{g}", f"codec.geometry.decode_{g}"))
    return stack


def _become_subreaper() -> None:
    """Orphaned descendants (Ray workers whose raylet exited) are
    re-parented to this process instead of init, so _reap_children
    can wait for every process the run started."""
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _children() -> list[int]:
    me, kids = os.getpid(), []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == me:
                kids.append(int(d))
    return kids


def _reap_children(grace: float = 10.0) -> None:
    """Shut Ray down if it is still up, then wait until this process has
    no children left: reap each as it exits, and kill those still
    running after ``grace`` seconds."""
    ray = sys.modules.get("ray")
    if ray is not None and ray.is_initialized():
        ray.shutdown()
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for kid in _children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(kid, signal.SIGKILL)
        time.sleep(0.02)


def _ray_temp_dir() -> str:
    """Ray's session files go inside the checkout. A Unix socket path is
    capped at 107 bytes and Ray appends ~62, so a checkout deeper than
    that falls back to a fresh directory under the system temp dir."""
    path = os.path.join(ROOT, ".pbray")
    if len(path) <= 44:
        return path
    return tempfile.mkdtemp(prefix="pbray-", dir="/tmp")


# ------------------------------------------------------------------- codec

def _codec_setup(seed: int, n_tiles: int) -> None:
    """Child interpreter: import of the codec modules plus the cold first
    pass (tile generation not timed); prints the seconds taken."""
    t0 = time.perf_counter()
    import codecload
    t1 = time.perf_counter()
    tiles = codecload.make_tiles(seed, n_tiles)
    t2 = time.perf_counter()
    codecload.codec_pass(tiles, NullTracer())
    print(t1 - t0 + time.perf_counter() - t2)


class CodecWorkload:
    """A pass round-trips each seeded tile once; every tile's round trip
    is timed on its own."""

    def __init__(self, name: str, cfg: dict, seed: int, work: str) -> None:
        import codecload
        self.name, self.cfg, self.seed = name, cfg, seed
        self.codecload = codecload
        self.tiles = codecload.make_tiles(seed, cfg["tiles"])
        self.tile_s: list[list[float]] = [[] for _ in self.tiles]
        self.session: dict = {}

    def one_pass(self, passes: Passes, tr=None, timed=True):
        value, secs, err = call_with_timeout(
            lambda: self.codecload.codec_pass(self.tiles, tr or NullTracer()),
            self.cfg["timeout"])
        if err is None and value[0]:
            err = f"{value[0]} tiles failed the encode/decode fixpoint"
        if passes.record(secs, err, timed) and timed:
            for times, t in zip(self.tile_s, value[1]):
                times.append(t)
        return secs

    def _setup(self, passes: Passes) -> float:
        """One set-up in a fresh interpreter, waited for on every path; a
        set-up that fails or times out counts as a failed operation."""
        code = f"import run; run._codec_setup({self.seed}, {self.cfg['tiles']})"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, ROOT]))
        t0 = time.perf_counter()
        try:
            child = subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   timeout=self.cfg["timeout"])
            if child.returncode == 0:
                return float(child.stdout.split()[-1])
            err = f"exit code {child.returncode}: {child.stderr.strip()[-500:]}"
        except subprocess.TimeoutExpired:  # the child is killed and reaped
            err = "timeout"
        seconds = time.perf_counter() - t0
        passes.record(seconds, f"codec set-up failed: {err}", timed=False)
        return seconds

    def run(self, seconds: float, passes: Passes, min_passes: int, setups: int) -> dict:
        """Set-ups and shares of the measured passes alternate, as in
        RayWorkload.run."""
        setup_s = []
        self.one_pass(passes, timed=False)  # warm this process
        for _ in range(setups):
            setup_s.append(self._setup(passes))
            measure(lambda: self.one_pass(passes), seconds / setups, passes,
                    -(-min_passes // setups))
        # A VM that shares its cores runs fast and slow in turns of a few
        # ms; a whole pass (~20 ms) seldom falls in one fast stretch, a
        # single tile (~3 ms) does, so wall_s sums each tile's fastest
        # round trip (see README.md).
        wall = sum(_min(times) for times in self.tile_s)
        n = len(self.tiles)
        return {"setup_s": _median(setup_s), "wall_s": wall,
                "docs_per_s": n / wall, "tiles_per_s": n / wall,
                "_setups_s": setup_s, "_wall_median_s": _median(passes.times),
                "_pass_min_s": _min(passes.times)}

    def trace(self, passes: Passes) -> dict:
        tr = Tracer(f"{self.name}-{self.seed}")
        self.one_pass(passes, timed=False)  # warm
        untraced = sum(self.one_pass(passes) for _ in range(TRACED_CODEC_PASSES))
        with _geometry_spans(tr):
            traced = sum(self.one_pass(passes, tr=tr) for _ in range(TRACED_CODEC_PASSES))
        self.tracer = tr
        m = _codec_layers(tr)
        m["trace.chain_overhead_s"] = traced - untraced
        return m


# ------------------------------------------------------------- entry point

def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None,
                 min_passes: int = MIN_PASSES) -> tuple[dict, dict]:
    """-> (result line, report)."""
    cfg = dict(WORKLOADS[name], **(sizes or {}))
    spec = load_spec()
    cls = CodecWorkload if cfg["kind"] == "codec" else RayWorkload
    total0, steal0 = _cpu_times()
    t_start = time.perf_counter()
    wl = cls(name, cfg, seed, WORK)
    passes = Passes()
    if trace:
        raw = wl.trace(passes)
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        raw = wl.run(seconds, passes, min_passes, cfg["setups"])
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    # a per-layer metric of a layer this workload does not run is 0
    metrics = {k: {"value": float(raw.get(k, 0)), "unit": u} for k, u in names}
    total1, steal1 = _cpu_times()
    report = {"workload": name, "seed": seed, "trace": int(trace), "config": cfg,
              "session": wl.session,
              "host": {**host_facts(),
                       "steal_pct": 100 * (steal1 - steal0) / max(total1 - total0, 1)},
              "run_s": time.perf_counter() - t_start,
              "pass_s": passes.times,
              **{k[1:]: v for k, v in raw.items() if k.startswith("_")},
              "failed_ratio": passes.failed / max(passes.attempted, 1),
              "errors": passes.errors}
    if trace:
        report["spans"] = wl.tracer.spans
        report["operators"] = getattr(wl, "ops", [])
    result = {"correct": passes.failed == 0, "attempted": passes.attempted,
              "failed": passes.failed, "metrics": metrics}
    return result, report


def write_report(report: dict) -> str:
    d = os.path.join(WORK, "reports")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    return path


def check_result(result: dict, spec: dict, trace: bool) -> list[str]:
    """Problems with a result line: a named metric missing, without a
    unit, or not a finite number; a failed or uncounted run."""
    problems = []
    want = spec["per_layer" if trace else "end_to_end"]
    for m in want:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: missing or wrong unit")
        elif not isinstance(got["value"], float) or got["value"] != got["value"]:
            problems.append(f"{m['name']}: not a number")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"run not correct: {result}")
    return problems


def smoke() -> int:
    """Every workload, untraced and traced, at tiny sizes; every metric
    named in BENCHMARK.json must be printed with its unit."""
    spec = load_spec()
    bad = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, report = run_workload(name, 1, 0.5, trace, SMOKE_SIZES[name],
                                          min_passes=1)
            problems = check_result(result, spec, trace)
            print(json.dumps({"workload": name, "trace": int(trace),
                              "run_s": round(report["run_s"], 2), "problems": problems}))
            bad += problems
    print(json.dumps({"smoke": "ok" if not bad else "failed"}))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny sizes and check the output")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "raytiles")):
        _fail(f"no raytiles package under {ROOT}; run from a full checkout")
    if not os.path.isfile(SPEC):
        _fail(f"{SPEC} not found")
    os.makedirs(WORK, exist_ok=True)
    _become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["RAY_TMPDIR"] = _ray_temp_dir()  # read by Ray and RayWorkload
    sys.path.insert(0, ROOT)
    try:
        if args.smoke:
            return smoke()
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
        path = write_report(report)
        print(f"perfbench: report written to {path}", file=sys.stderr)
        slim = {k: v for k, v in report.items() if k not in ("spans", "operators")}
        print(json.dumps(slim, default=str))
        print(json.dumps(result))
        return 0
    finally:
        _reap_children()
        shutil.rmtree(os.environ["RAY_TMPDIR"], ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
