"""Tests of the benchmark itself (run with `python3 -m pytest perfbench`).

The smoke run covers every workload, untraced and traced, at tiny
sizes and checks that every metric named in BENCHMARK.json is printed
with its unit. The other tests check that the benchmark refuses to
run without the raytiles sources, and that a run leaves no process
behind.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_smoke_prints_every_metric():
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                       cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stdout + p.stderr[-3000:]
    assert p.stdout.strip().splitlines()[-1] == '{"smoke": "ok"}'


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "codec_fixpoint",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert p.returncode != 0
    assert p.stdout == ""


def _session_members(sid: int) -> list[int]:
    found = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as fh:
                    if int(fh.read().rsplit(")", 1)[1].split()[3]) == sid:
                        found.append(int(d))
            except (OSError, ValueError, IndexError):
                pass
    return found


def test_run_leaves_no_process():
    """The codec set-up starts child interpreters; once run.py has
    exited, no process of its session may be left, not even one that is
    still exiting."""
    p = subprocess.Popen([sys.executable, "perfbench/run.py", "--workload", "codec_fixpoint",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, start_new_session=True)
    out, _ = p.communicate(timeout=170)
    assert p.returncode == 0, out
    assert _session_members(p.pid) == []
