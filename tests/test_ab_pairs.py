"""``tools/ab_pairs.py``: what it refuses, what it leaves behind when
stopped, and how it summarizes paired runs."""
import importlib.util
import json
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
BENCH = json.loads((REPO / "BENCHMARK.json").read_text())


def _tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(**series):
    """Synthetic runs, one dict of metric values per pair."""
    return [dict(zip(series, values)) for values in zip(*series.values())]


class TestSummarize:
    def test_every_end_to_end_metric_is_reported(self):
        names = [m["name"] for m in BENCH["end_to_end"]]
        same = _runs(**{name: [1.0, 2.0, 3.0] for name in names})
        lines, worse = _tool().summarize(same, same, BENCH["end_to_end"], names)
        assert worse == []
        assert [line.split(":")[0] for line in lines] == [n for n in names for _ in range(3)]
        assert all("better in 0 of 3 pairs" in line for line in lines[2::3])

    def test_a_lower_metric_beyond_its_bound_is_marked(self):
        summarize = _tool().summarize
        old = _runs(wall_s=[1.0, 1.1, 0.9, 1.0], peak_rss_mb=[100.0, 100.0, 101.0, 99.0])
        # wall_s 10% faster in every pair; peak_rss_mb 5% over, bound 0.04
        new = _runs(wall_s=[0.9, 0.99, 0.81, 0.9], peak_rss_mb=[105.0, 105.0, 106.0, 104.0])
        lines, worse = summarize(old, new, BENCH["end_to_end"], ["wall_s", "peak_rss_mb"])
        assert worse == ["peak_rss_mb"]
        assert "better in 4 of 4 pairs" in lines[2] and "WORSE" not in lines[2]
        assert "better in 0 of 4 pairs" in lines[5] and "WORSE beyond bound 0.04" in lines[5]
        # 3% over stays inside the bound
        new = _runs(wall_s=[1.0] * 4, peak_rss_mb=[103.0, 103.0, 104.0, 102.0])
        assert summarize(old, new, BENCH["end_to_end"], ["peak_rss_mb"])[1] == []

    def test_a_higher_metric_is_worse_when_it_falls(self):
        spec = [{"name": "hits", "better": "higher", "bound": 0.1}]
        old = _runs(hits=[10.0, 10.0, 10.0])
        lines, worse = _tool().summarize(old, _runs(hits=[8.0, 8.0, 9.0]), spec, ["hits"])
        assert worse == ["hits"] and "better in 0 of 3" in lines[2]
        lines, worse = _tool().summarize(old, _runs(hits=[12.0, 9.5, 12.0]), spec, ["hits"])
        assert worse == [] and "better in 2 of 3" in lines[2]

    def test_zero_parent_median_and_unbounded_metrics(self):
        # a gap of 0 that grows at all is beyond any share of 0; a metric
        # outside the list has no bound and is never marked
        old = _runs(best_gap=[0.0, 0.0, 0.0], other=[1.0, 1.0, 1.0])
        new = _runs(best_gap=[0.0, 0.01, 0.01], other=[9.0, 9.0, 9.0])
        lines, worse = _tool().summarize(old, new, BENCH["end_to_end"], ["best_gap", "other"])
        assert worse == ["best_gap"]
        assert "WORSE" not in "".join(lines[3:])
        assert _tool().summarize(old, old, BENCH["end_to_end"], ["best_gap"])[1] == []


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
