"""``tools/ab_pairs.py``: what it refuses, and what it leaves behind when stopped."""
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "ab_pairs.py"
PROC = Path("/proc")


def _start(tmp_path, *args):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    return subprocess.Popen(
        [sys.executable, str(TOOL), "--workload", "scheme-windowed", *args],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _benchmark_children(tmp_path) -> list[int]:
    """Pids of the benchmark runs started from copies under ``tmp_path``."""
    pids = []
    for cmdline in PROC.glob("[0-9]*/cmdline"):
        try:
            argv = cmdline.read_bytes()
        except OSError:  # the process ended meanwhile
            continue
        if b"run.py" in argv and str(tmp_path).encode() in argv:
            pids.append(int(cmdline.parent.name))
    return pids


@pytest.mark.parametrize("seeds", ["11", "11-11", "12-11"])
def test_fewer_than_two_seeds_are_refused_before_any_copy(tmp_path, seeds):
    proc = _start(tmp_path, "--seeds", seeds)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "two seeds" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not PROC.is_dir(), reason="finds the benchmark child through /proc")
def test_sigterm_kills_the_run_and_removes_the_copies(tmp_path):
    if subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True).returncode:
        pytest.skip("the tool copies the tree through git")
    proc = _start(tmp_path, "--seeds", "11-12", "--seconds", "60")
    try:
        deadline = time.monotonic() + 30
        while not _benchmark_children(tmp_path):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "no benchmark run started"
            time.sleep(0.05)
        assert [p.name for p in tmp_path.iterdir()][0].startswith("ab-pairs-")
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        orphans = _benchmark_children(tmp_path)
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
    assert proc.returncode == 128 + signal.SIGTERM
    assert orphans == []
    assert list(tmp_path.iterdir()) == []
