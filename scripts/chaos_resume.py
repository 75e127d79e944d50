"""Chaos-resume evidence at scale (north_rule: "resumable from
checkpoint with per-partition lineage + metrics"):

1. run the checkpointed tile job UNINTERRUPTED on a big input tier
   (default sfbig12, 21.6M docs) into root A;
2. run the SAME job into root B in a child process and SIGKILL it
   inside one stage, once >= KILL_AFTER of that stage's partitions
   have manifests but before the stage ends: with CHAOS_STAGE=b
   (default) stage-B buckets, with CHAOS_STAGE=a stage-A read groups;
3. resume root B in a fresh process — every partition of the killed
   stage that has a manifest must be SKIPPED, the rest recomputed
   (a kill in stage B also skips all of stage A; a kill in stage A
   encodes all of stage B);
4. assert byte-identical results: the resumed run's tiles (z, x, y,
   md5(mvt)) equal the uninterrupted run's, tile for tile, and both
   runs' manifests cover all partitions with consistent lineage.

The job's partition counts follow its input's size (util.layout: 2
read groups and 2 buckets at sf0.01, 13 and 13 at sf0.1, 64 and 64 at
sfbig12), so CHAOS_KILL_AFTER must be below the killed stage's count:
a run whose kill cannot land before the stage ends fails, with a
message when the uninterrupted run has too few partitions.

Writes one JSON line (the logged artifact) and exits non-zero on any
mismatch. Usage:

    CHAOS_STAGE=a CHAOS_KILL_AFTER=4 RAY_GRAFT_CPUS=2 \
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
STAGE = os.environ.get("CHAOS_STAGE", "b")

_CHILD = r"""
import json, sys, os
sys.path.insert(0, %(repo)r)
import ray
ray.init(address="local", num_cpus=%(ncpu)d, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from raytiles.pipeline.synth import webpages_path
from raytiles.pipeline.job import run_job
summary = run_job(webpages_path(%(sf)r), %(root)r, %(zoom)d)
print("JOB_DONE", json.dumps(summary))
ray.shutdown()
"""


def _manifests(root: str) -> dict[int, dict]:
    """The killed stage's finished partitions under ``root``."""
    from raytiles.pipeline.checkpoint import finished_partitions
    from raytiles.pipeline.job import A_MANIFEST
    if STAGE == "a":
        return finished_partitions(root, A_MANIFEST)
    return finished_partitions(os.path.join(root, "stage_b"))


def _run_job(root: str, kill_after: int | None) -> dict:
    """Run the job in a child process; if kill_after is set, SIGKILL
    the child once that many of the killed stage's manifests exist.
    Returns {finished, killed_with_n_manifests} or the job's summary."""
    code = _CHILD % {"repo": REPO, "ncpu": NCPU, "sf": SF_DIR,
                     "root": root, "zoom": ZOOM}
    child = subprocess.Popen([sys.executable, "-c", code],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    if kill_after is not None:
        killed_at = None
        while child.poll() is None:
            n = len(_manifests(root))
            if n >= kill_after:
                child.send_signal(signal.SIGKILL)
                killed_at = n
                break
            time.sleep(0.05)
        child.wait()
        # also tear down the orphaned ray cluster the killed driver
        # leaves behind (raylet + workers survive a driver SIGKILL)
        subprocess.run(["ray", "stop", "--force"],
                       capture_output=True)
        return {"finished": False, "killed_with_n_manifests": killed_at}
    out, _ = child.communicate()
    assert child.returncode == 0, f"job failed: rc={child.returncode}"
    line = [ln for ln in out.splitlines() if ln.startswith("JOB_DONE ")][-1]
    return json.loads(line.split(" ", 1)[1])


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
    if STAGE not in ("a", "b"):
        print(f"chaos_resume: CHAOS_STAGE must be a or b, not {STAGE!r}",
              file=sys.stderr)
        return 2
    base = os.environ.get("CHAOS_ROOT", "/tmp/raytiles_chaos")
    root_a = os.path.join(base, "uninterrupted")
    root_b = os.path.join(base, "chaos")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(root_a)
    os.makedirs(root_b)

    t0 = time.time()
    _run_job(root_a, kill_after=None)
    t_a = round(time.time() - t0, 1)
    man_a = _manifests(root_a)
    if len(man_a) <= KILL_AFTER:
        print(f"chaos_resume: the uninterrupted job's stage {STAGE} has "
              f"{len(man_a)} partitions, so a kill after CHAOS_KILL_AFTER="
              f"{KILL_AFTER} manifests cannot land before it ends; lower "
              "CHAOS_KILL_AFTER or use a larger input", file=sys.stderr)
        return 1

    t0 = time.time()
    k = _run_job(root_b, kill_after=KILL_AFTER)
    t_kill = round(time.time() - t0, 1)
    n_manifests_after_kill = len(_manifests(root_b))

    t0 = time.time()
    resumed = _run_job(root_b, kill_after=None)
    t_resume = round(time.time() - t0, 1)

    # resume must have SKIPPED the killed stage's finished partitions
    if STAGE == "a":
        n_skipped = resumed["groups_skipped"]
        rest_ok = resumed["skipped"] == 0  # stage B encodes everything
    else:
        n_skipped = resumed["skipped"]
        rest_ok = resumed["groups_computed"] == 0  # stage A was done
    n_a, dig_a = _tiles_digest(root_a)
    n_b, dig_b = _tiles_digest(root_b)
    man_b = _manifests(root_b)

    result = {
        "metric": "chaos_resume", "stage": STAGE,
        "sf": SF_DIR, "zoom": ZOOM, "num_cpus": NCPU,
        "uninterrupted_sec": t_a,
        "killed_with_n_manifests": k["killed_with_n_manifests"],
        "manifests_surviving_kill": n_manifests_after_kill,
        "resume_sec": t_resume, "killed_run_sec": t_kill,
        "resume_summary": resumed,
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
          and n_skipped == n_manifests_after_kill and rest_ok
          and len(man_a) == len(man_b) and n_a == n_b and n_a > 0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
