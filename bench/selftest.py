#!/usr/bin/env python3
"""Smoke self-test of the benchmark; takes about half a minute.

    python3 bench/selftest.py

Runs one tiny op of each workload, untraced and traced, and checks that
every op passes, that every metric BENCHMARK.json names appears with its
unit, and that tracing leaves the exported text unchanged (equal digests).
It also checks that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def tiny_workloads():
    """The three workloads at the smallest size that still crosses every
    module they load at full size."""
    from workloads import DesignStream, Herringbone, ShowcaseMotion
    return [DesignStream(), Herringbone(rows=3, cols=3, frames=2),
            ShowcaseMotion(frames=3)]


def check_result(result, spec, wl_name, trace):
    where = f"{wl_name} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0, where
    assert result["attempted"] >= 1, where
    want = {m["name"]: m["unit"] for m in
            spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{where}: metrics {sorted(set(got) ^ set(want))} differ"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, f"{where}: {name}"
        assert isinstance(m["value"], (int, float)), f"{where}: {name}"
        assert math.isfinite(m["value"]), f"{where}: {name}"
        if not trace:
            assert m["value"] > 0, f"{where}: {name} is {m['value']}"


def check_refuses_without_sources(spec):
    """Copy only BENCHMARK.json and the benchmark's files; the run must fail
    without printing a result."""
    bare = run.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for rel in spec["paths"]:
            shutil.copytree(run.ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload",
             "design_stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = run.load_workloads()
    for w in spec["workloads"]:
        assert w["why"] == workloads[w["name"]].why, w["name"]
    for wl in tiny_workloads():
        digests = []
        for trace in (0, 1):
            result, notes = run.measure(wl, seed=7, seconds=1e-3,
                                        trace=bool(trace), setup_probes=1)
            check_result(result, spec, wl.name, trace)
            digests.append(notes["digest"])
        assert digests[0] == digests[1], f"{wl.name}: tracing changed output"
        print(f"ok {wl.name}: digest {digests[0]['sha256'][:16]}")
    check_refuses_without_sources(spec)
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
