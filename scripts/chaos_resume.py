"""Chaos-resume evidence at scale (north_rule: "resumable from
checkpoint with per-partition lineage + metrics"):

1. run the checkpointed tile job UNINTERRUPTED on a big input tier
   (default sfbig12, 21.6M docs) into root A;
2. run the SAME job into root B in a child process and SIGKILL it
   mid-stage-B (after >= KILL_AFTER partitions have manifests but
   before the job finishes);
3. resume root B in a fresh process — stage A's done-marker and every
   finished stage-B manifest must be SKIPPED, the rest recomputed;
4. assert byte-identical results: the resumed run's tiles (z, x, y,
   md5(mvt)) equal the uninterrupted run's, tile for tile, and both
   manifests cover all partitions with consistent lineage.

The job's partition count follows its input's size (util.layout: 2 at
sf0.01, 13 at sf0.1, 64 at sfbig12), so CHAOS_KILL_AFTER must be below
it: a run whose kill cannot land before the job finishes fails, with a
message when the uninterrupted run has too few partitions.

Writes one JSON line (the logged artifact) and exits non-zero on any
mismatch. Usage:

    CHAOS_KILL_AFTER=4 RAY_GRAFT_CPUS=2 \
        python scripts/chaos_resume.py [sf_dir] [zoom]
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

SF_DIR = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sfbig12"
ZOOM = int(sys.argv[2]) if len(sys.argv) > 2 else 12
KILL_AFTER = int(os.environ.get("CHAOS_KILL_AFTER", "8"))
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "16"))

_CHILD = r"""
import sys, os
sys.path.insert(0, %(repo)r)
import ray
ray.init(address="local", num_cpus=%(ncpu)d, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from raytiles.pipeline.synth import webpages_path
from raytiles.pipeline.job import run_job
summary = run_job(webpages_path(%(sf)r), %(root)r, %(zoom)d)
print("JOB_DONE", summary)
ray.shutdown()
"""


def _run_job(root: str, kill_after: int | None) -> dict:
    """Run the job in a child process; if kill_after is set, SIGKILL
    the child once that many stage-B manifests exist. Returns
    {finished, killed_with_n_manifests}."""
    code = _CHILD % {"repo": REPO, "ncpu": NCPU, "sf": SF_DIR,
                     "root": root, "zoom": ZOOM}
    child = subprocess.Popen([sys.executable, "-c", code],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    mdir = os.path.join(root, "stage_b", "manifest")
    killed_at = None
    if kill_after is not None:
        while child.poll() is None:
            n = len([f for f in os.listdir(mdir)
                     if f.endswith(".json")]) if os.path.isdir(mdir) else 0
            if n >= kill_after:
                child.send_signal(signal.SIGKILL)
                killed_at = n
                break
            time.sleep(0.2)
        child.wait()
        # also tear down the orphaned ray cluster the killed driver
        # leaves behind (raylet + workers survive a driver SIGKILL)
        subprocess.run(["ray", "stop", "--force"],
                       capture_output=True)
        return {"finished": False, "killed_with_n_manifests": killed_at}
    out, _ = child.communicate()
    assert child.returncode == 0, f"job failed: rc={child.returncode}"
    assert "JOB_DONE" in out
    return {"finished": True, "stdout_tail": out.strip().splitlines()[-1]}


def _tiles_digest(root: str) -> tuple[int, str]:
    """(n_tiles, md5 over the sorted (z, x, y, md5(mvt)) stream)."""
    import pyarrow.parquet as pq
    rows = []
    b_root = os.path.join(root, "stage_b")
    for d in sorted(os.listdir(b_root)):
        if not d.startswith("partition="):
            continue
        t = pq.read_table(os.path.join(b_root, d, "data.parquet"))
        z = t["z"].to_numpy()
        x = t["x"].to_numpy()
        y = t["y"].to_numpy()
        mvts = t["mvt"].to_pylist()
        for i in range(t.num_rows):
            rows.append((int(z[i]), int(x[i]), int(y[i]),
                         hashlib.md5(mvts[i]).hexdigest()))
    rows.sort()
    h = hashlib.md5(json.dumps(rows).encode()).hexdigest()
    return len(rows), h


def main() -> int:
    base = os.environ.get("CHAOS_ROOT", "/tmp/raytiles_chaos")
    root_a = os.path.join(base, "uninterrupted")
    root_b = os.path.join(base, "chaos")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(root_a)
    os.makedirs(root_b)

    t0 = time.time()
    a = _run_job(root_a, kill_after=None)
    t_a = round(time.time() - t0, 1)
    from raytiles.pipeline.checkpoint import finished_partitions
    man_a = finished_partitions(os.path.join(root_a, "stage_b"))
    if len(man_a) <= KILL_AFTER:
        print(f"chaos_resume: the uninterrupted job has {len(man_a)} "
              f"partitions, so a kill after CHAOS_KILL_AFTER={KILL_AFTER} "
              "manifests cannot land before it finishes; lower "
              "CHAOS_KILL_AFTER or use a larger input", file=sys.stderr)
        return 1

    t0 = time.time()
    k = _run_job(root_b, kill_after=KILL_AFTER)
    t_kill = round(time.time() - t0, 1)
    n_manifests_after_kill = len([
        f for f in os.listdir(os.path.join(root_b, "stage_b", "manifest"))
        if f.endswith(".json")])

    t0 = time.time()
    r = _run_job(root_b, kill_after=None)
    t_resume = round(time.time() - t0, 1)

    # resume must have SKIPPED the killed run's finished partitions
    resume_line = r["stdout_tail"]
    import re
    m = re.search(r"'skipped': (\d+)", resume_line)
    n_skipped = int(m.group(1)) if m else -1
    n_a, dig_a = _tiles_digest(root_a)
    n_b, dig_b = _tiles_digest(root_b)
    man_b = finished_partitions(os.path.join(root_b, "stage_b"))

    result = {
        "metric": "chaos_resume",
        "sf": SF_DIR, "zoom": ZOOM, "num_cpus": NCPU,
        "uninterrupted_sec": t_a,
        "killed_with_n_manifests": k["killed_with_n_manifests"],
        "manifests_surviving_kill": n_manifests_after_kill,
        "resume_sec": t_resume, "killed_run_sec": t_kill,
        "resume_summary": resume_line,
        "resume_skipped_partitions": n_skipped,
        "n_tiles_uninterrupted": n_a, "n_tiles_resumed": n_b,
        "tiles_byte_identical": dig_a == dig_b,
        "digest": dig_a,
        "manifest_partitions_a": len(man_a),
        "manifest_partitions_b": len(man_b),
        "lineage_fingerprints_equal": all(
            man_a[p]["input_fingerprint"] == man_b[p]["input_fingerprint"]
            and man_a[p]["rows_out"] == man_b[p]["rows_out"]
            for p in man_a),
    }
    print(json.dumps(result))
    ok = (result["tiles_byte_identical"]
          and result["lineage_fingerprints_equal"]
          and k["killed_with_n_manifests"] is not None
          and KILL_AFTER <= n_manifests_after_kill < len(man_a)
          and n_skipped == n_manifests_after_kill
          and len(man_a) == len(man_b) and n_a == n_b and n_a > 0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
