"""CLI entry for the resumable tiling job (`ray job submit`-able):

    python scripts/tile_job.py [sf_dir] [output_root] [zoom]

Owns its Ray session (guarded init). Stage A runs one checkpointed
task per read group and stage B one per bucket; the bucket count
(= stage-B partitions) follows the input's on-disk size (util.layout's
reducer count). Resumes from the manifests only when output_root holds
a run of the same sf_dir and zoom over the same input files: stage A
records those, the resolved bucket count and the group plan before
its first group starts, and any other run there is dropped and
recomputed. Prints the job's summary as one JSON line.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    import ray
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from raytiles.pipeline.job import run_job
    from raytiles.pipeline.synth import webpages_path

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    root = sys.argv[2] if len(sys.argv) > 2 else "/tmp/raytiles_job"
    zoom = int(sys.argv[3]) if len(sys.argv) > 3 else 12
    summary = run_job(webpages_path(sf_dir), root, zoom)
    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    main()
