#!/usr/bin/env python3
"""quadfold benchmark: one closed-loop run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; quadfold is imported from its `src/`.
One caller in this single-threaded process starts the next op only after the
previous one returned.  The last line of standard output is the result:
`{"correct", "attempted", "failed", "metrics"}`, with every end-to-end metric
for `--trace 0` and every per-module metric for `--trace 1`.  The line
before it, `{"notes": ...}`, holds what a metric value alone cannot: the
versions, the tail percentile and its sample count, the output digest, the
wall-clock timings behind the reported ones and the tracing overhead.
End-to-end timings are given at a fixed reference host speed (`hostclock`).
See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostclock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-up probes per untraced run, half before and half after the timed ops,
# so that the median spans two moments of the host's drifting speed.
SETUP_PROBES = 10

END_TO_END = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "certify_s": "s", "frames_per_s": "1/s", "peak_rss_mb": "MB",
}
# span name -> stats reported per completed op
LAYER_STATS = {
    "vertex.solve_at_crease": ("calls", "self_s", "failed"),
    "vertex.solve_on_branch": ("calls", "self_s"),
    "vertex.fold_interval": ("calls", "self_s"),
    "vertex.classify": ("calls",),
    "units.validate_unit": ("calls", "self_s"),
    "units.design": ("calls", "self_s"),
    "pattern.stitch": ("calls", "self_s"),
    "foldability.certify": ("calls", "self_s"),
    "foldability.propagate": ("calls", "self_s", "failed"),
    "realize.realize": ("calls", "self_s"),
    "realize.sweep": ("self_s",),
    "realize.loop_closure_residual": ("calls", "self_s"),
    "foldio.export": ("self_s",),
    "foldio.import_fold": ("calls", "self_s"),
}
STAT_UNITS = {"calls": "calls/op", "failed": "calls/op", "self_s": "s/op"}
PER_LAYER = {
    **{f"{span}.{stat}": STAT_UNITS[stat]
       for span, stats in LAYER_STATS.items() for stat in stats},
    "vertex.branch_cache.hit_ratio": "ratio",
    "units.validate_unit.distinct_ratio": "ratio",
    "foldability.propagate.per_certify": "calls",
    "foldio.export.bytes": "B/op",
    "host.calib_s": "s",
    "trace.overhead.op_p50_s": "s",
}


def calibrate() -> float:
    """A fixed pure-Python loop: drift diagnostic, never a normaliser."""
    t0 = perf_counter()
    acc = 0
    for k in range(300_000):
        acc = (acc + k * k) % 1_000_003
    return perf_counter() - t0


def tail(durations) -> tuple:
    """(value, percentile, samples above): the highest percentile that still
    has at least ten samples above it.  Below twenty ops that percentile
    would not reach the median, so the slowest op stands in."""
    d = sorted(durations)
    k = len(d) - 11 if len(d) >= 20 else len(d) - 1
    return d[k], 100.0 * (k + 1) / len(d), len(d) - 1 - k


class Phase:
    """The ops of one timed closed loop, traced or not."""

    def __init__(self):
        self.durations = []     # seconds at the clock's speed, per op
        self.wall_s = []        # plain wall seconds, per op
        self.outs = []          # OpOut per op that passed its checks
        self.digests = []
        self.errors = []

    def summary(self) -> dict:
        value, pct, above = tail(self.durations)
        certify = [statistics.fmean(o.certify_s) for o in self.outs if o.certify_s]
        rates = [o.frames / o.frame_s for o in self.outs if o.frames]
        return {
            "op_p50_s": statistics.median(self.durations),
            "op_tail_s": value,
            "op_tail_percentile": pct,
            "op_tail_samples_above": above,
            "ops_per_s": len(self.durations) / sum(self.durations),
            "certify_s": statistics.median(certify) if certify else None,
            "frames_per_s": statistics.median(rates) if rates else None,
        }


def run_phase(wl, state, budget_s, workdir, tracer=None) -> Phase:
    """Run ops until the next one would likely end past `budget_s`."""
    phase = Phase()
    begin = perf_counter()
    while True:
        inp = wl.next_input(state)
        if tracer is not None:
            tracer.begin_op(len(phase.durations))
        token, t0 = hostclock.current.start(), perf_counter()
        try:
            out = wl.op(inp, workdir)
        except Exception as exc:  # a failed op is counted, the run goes on
            out = None
            phase.errors.append(f"{type(exc).__name__}: {exc}")
        phase.durations.append(hostclock.current.stop(token))
        phase.wall_s.append(perf_counter() - t0)
        if out is not None:
            h = hashlib.sha256()
            for text in out.texts:
                h.update(text.encode())
            phase.digests.append(h.hexdigest())
            out.texts = None  # keep the run's memory the library's own
            phase.outs.append(out)
        elapsed = perf_counter() - begin
        if elapsed + elapsed / len(phase.durations) > budget_s:
            return phase


def digest(wl, phase: Phase) -> dict:
    """Digest of the exported 12-digit text of the run's first ops; the same
    seed gives the same inputs, so equal code gives an equal digest."""
    first = phase.digests[:wl.digest_ops]
    return {"sha256": hashlib.sha256("".join(first).encode()).hexdigest(),
            "ops": len(first)}


def probe_setup(workload: str, seed: int) -> float:
    """Wall seconds from starting a fresh process to its being ready to run
    the first op: interpreter start, `import quadfold`, building the inputs.
    Not rescaled to the reference speed: start-up is mostly imports and
    page faults, which the host's slow states slow far less than the
    reference loop, so rescaling would add spread, not remove it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited {proc.returncode}")
    return elapsed


def layer_metrics(tracer, n_ops: int, cache_delta: tuple) -> tuple:
    agg = tracer.aggregate()
    metrics = {}
    for span, stats in LAYER_STATS.items():
        for stat in stats:
            metrics[f"{span}.{stat}"] = agg[span][stat] / n_ops
    hits, misses = cache_delta
    lookups = hits + misses
    validate_calls = agg["units.validate_unit"]["calls"]
    certify_calls = agg["foldability.certify"]["calls"]
    metrics["vertex.branch_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["units.validate_unit.distinct_ratio"] = (
        len(tracer.validated_units) / validate_calls if validate_calls else 0.0)
    metrics["foldability.propagate.per_certify"] = (
        agg["foldability.propagate"]["in_certify"] / certify_calls
        if certify_calls else 0.0)
    metrics["foldio.export.bytes"] = tracer.export_bytes / n_ops
    bases = {
        "vertex.branch_cache.hit_ratio": {"lookups": lookups},
        "units.validate_unit.distinct_ratio": {
            "calls": validate_calls,
            "distinct_units": len(tracer.validated_units)},
        "foldability.propagate.per_certify": {
            "certify_calls": certify_calls,
            "n_samples_per_certify": 200},
        "per_op": {"traced_ops": n_ops},
    }
    return metrics, bases


def measure(wl, seed: int, seconds: float, trace: bool,
            setup_probes: int = SETUP_PROBES) -> tuple:
    """One run of one workload; returns (result, notes)."""
    import numpy
    import quadfold.vertex
    from tracer import Tracer

    calib = [calibrate() for _ in range(3)]
    n_probes = 0 if trace else setup_probes
    setup = [probe_setup(wl.name, seed) for _ in range(n_probes // 2)]
    clock = None
    state = wl.setup(seed)
    workdir = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            tracer = Tracer()
            cache = quadfold.vertex._branch_param_cached
            before = cache.cache_info()
            tracer.install()
            try:
                timed = run_phase(wl, state, seconds / 2, workdir, tracer)
            finally:
                tracer.uninstall()
            after = cache.cache_info()
            plain = run_phase(wl, state, seconds / 2, workdir)
            phases = [timed, plain]
        else:
            clock = hostclock.HostClock()
            clock.install()
            try:
                timed = run_phase(wl, state, seconds, workdir)
            finally:
                clock.uninstall()
            phases = [timed]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    setup += [probe_setup(wl.name, seed) for _ in range(n_probes - len(setup))]
    calib += [calibrate() for _ in range(3)]

    attempted = sum(len(p.durations) for p in phases)
    failed = sum(len(p.errors) for p in phases)
    e2e = timed.summary()
    notes = {
        "workload": wl.name, "why": wl.why, "seed": seed, "trace": int(trace),
        "seconds": seconds, "closed_loop_clients": 1,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "error_rate": {"failed": failed, "attempted": attempted},
        "errors": [e for p in phases for e in p.errors][:5],
        "op_tail": {"percentile": e2e["op_tail_percentile"],
                    "samples_above": e2e["op_tail_samples_above"],
                    "samples": len(timed.durations)},
        "digest": digest(wl, timed),
        "op_s": timed.durations if len(timed.durations) <= 64 else None,
        "op_wall_p50_s": statistics.median(timed.wall_s),
        "host_calib_s": {"start": calib[:3], "end": calib[3:]},
    }
    outs = [o for p in phases for o in p.outs]
    if any(o.roundtrips for o in outs):
        notes["fold_roundtrips"] = {
            "checked": sum(o.roundtrips for o in outs),
            "text_identical": sum(o.roundtrips_identical for o in outs)}
    correct = failed == 0
    if wl.fixed_inputs:
        same = len({d for p in phases for d in p.digests}) <= 1
        notes["identical_outputs_every_op"] = same
        correct = correct and same

    if trace:
        metrics, notes["bases"] = layer_metrics(
            tracer, len(timed.durations),
            (after.hits - before.hits, after.misses - before.misses))
        metrics["host.calib_s"] = statistics.median(calib)
        untraced = plain.summary()
        notes["trace_overhead"] = {
            k: (None if e2e[k] is None or untraced[k] is None
                else e2e[k] - untraced[k])
            for k in ("op_p50_s", "op_tail_s", "ops_per_s", "certify_s",
                      "frames_per_s")}
        metrics["trace.overhead.op_p50_s"] = notes["trace_overhead"]["op_p50_s"]
        units = PER_LAYER
    else:
        metrics = {k: e2e[k] for k in ("op_p50_s", "op_tail_s", "ops_per_s",
                                       "certify_s", "frames_per_s")}
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        notes["setup_samples_s"] = setup
        notes["host_speed"] = {
            "reference_loop_s": hostclock.REF_LOOP_S,
            "loop_p50_s": statistics.median(clock.loops),
            "loops": len(clock.loops),
            "paused_s": clock.paused}
        units = END_TO_END
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, notes


def load_workloads() -> dict:
    """Import quadfold from this checkout's sources and return the workloads;
    exits with an error when the checkout has no sources."""
    if not (SRC / "quadfold" / "__init__.py").is_file():
        sys.exit(f"bench: no quadfold sources at {SRC}; run from a checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import quadfold
    if Path(quadfold.__file__).resolve().parent != SRC / "quadfold":
        sys.exit(f"bench: imported quadfold from {quadfold.__file__}, "
                 f"not from {SRC}")
    from workloads import WORKLOADS
    return WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # child of probe_setup
    args = ap.parse_args(argv)
    workloads = load_workloads()
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads)}")
    wl = workloads[args.workload]
    if args.setup_probe:
        wl.setup(args.seed)
        print("ready", flush=True)
        return 0
    # A terminated run still removes its files (`measure`'s finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    result, notes = measure(wl, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"notes": notes}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
