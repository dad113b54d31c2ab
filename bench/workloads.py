"""The benchmark's workloads.

Each workload makes its inputs from the seed (the library only ever sees the
generated inputs), runs one closed-loop op per input, and checks the op's
outputs; a failed check raises `CheckFailed` and counts the op as failed.
`setup(seed)` returns the workload's state, `next_input(state)` draws the
next op's input outside the timed region, and `op(input, workdir)` is the
timed op.
Every call into quadfold goes through a module attribute (`vertex.classify`,
`foldio.export_obj`, ...) so the tracer's swapped functions see it.
"""

from __future__ import annotations

import importlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import hostclock

# importlib, because the package binds the function `realize` over the name
# of its submodule
fixtures, foldability, foldio, pattern, realize, units, vertex = (
    importlib.import_module("quadfold." + name) for name in (
        "fixtures", "foldability", "foldio", "pattern", "realize", "units",
        "vertex"))

TAU_VERDICT = 1e-8   # certify / validate_unit residual bound
TAU_EXACT = 1e-9     # rotation closure, rigidity, driven-angle reproduction

_deg = math.radians


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def fmt(values) -> str:
    """12-significant-digit text, the precision of quadfold's exports."""
    return " ".join("{:.12g}".format(float(x)) for x in values)


@dataclass
class OpOut:
    texts: list                 # exported 12-digit text, for the digest
    certify_s: list = field(default_factory=list)  # one per verdict call
    frames: int = 0             # states realized, verified and exported
    frame_s: float = 0.0        # time spent producing those frames
    # FOLD round trips, and those whose text came back byte for byte; the
    # check itself is the acceptance suite's value criterion, because
    # re-stitching a showcase's 12-digit plan moves its layout coordinates
    # in the twelfth digit
    roundtrips: int = 0
    roundtrips_identical: int = 0


def same_to_12_digits(a, b) -> bool:
    """The acceptance suite's FOLD round-trip criterion: equal structure,
    equal non-float values, floats within 5e-11 relative (1e-9 absolute)."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same_to_12_digits(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(same_to_12_digits(x, y) for x, y in zip(a, b)))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=5e-11, abs_tol=1e-9)
    return a == b


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# design_stream
# ---------------------------------------------------------------------------


def _generic_alphas(rng: random.Random) -> tuple:
    """Sector angles with no collinear crease pair and no flat-foldability,
    each at least 8 degrees away from those special cases."""
    while True:
        a = [rng.uniform(60.0, 120.0) for _ in range(3)]
        a.append(360.0 - sum(a))
        if not 60.0 <= a[3] <= 120.0:
            continue
        sums = [a[k] + a[(k + 1) % 4] for k in range(4)] + [a[0] + a[2]]
        if all(abs(s - 180.0) > 8.0 for s in sums):
            return tuple(_deg(x) for x in a)


def _ff_unit_args(rng: random.Random) -> tuple:
    modes = list(units.FFUnitMode)
    while True:
        a1, a2, a3 = (_deg(rng.uniform(50.0, 130.0)) for _ in range(3))
        mode = rng.choice(modes)
        a4 = mode.alpha4(a1, a2, a3)
        if not _deg(20.0) < a4 < _deg(160.0):
            continue
        if min(abs(a1 - math.pi / 2) + abs(a2 - math.pi / 2),
               abs(a3 - math.pi / 2) + abs(a4 - math.pi / 2)) < _deg(6.0):
            continue
        return a1, a2, a3, mode


class DesignStream:
    name = "design_stream"
    why = ("new generic vertex and flat-foldable unit every design: only vertex "
           "and units work, and the per-vertex caches always miss")
    digest_ops = 10
    fixed_inputs = False
    # Designs per op.  One design takes 10 to 16 ms; a batch of 24 keeps the
    # tail percentile (ten ops above it) clear of the one- to two-second
    # slowdowns this host shows.
    BATCH = 24

    def setup(self, seed: int):
        return random.Random(seed)

    def next_input(self, rng):
        return [(_generic_alphas(rng),
                 tuple(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.85)
                       for _ in range(3)),
                 _ff_unit_args(rng))
                for _ in range(self.BATCH)]

    def op(self, inp, workdir: Path) -> OpOut:
        out = OpOut([])
        for design in inp:
            self._design(design, out)
        return out

    @staticmethod
    def _design(design, out: OpOut):
        alphas, fractions, (a1, a2, a3, mode) = design
        t0 = hostclock.current.start()
        v = vertex.Vertex4(alphas)
        check(vertex.classify(v).tag is vertex.ClassTag.GENERIC,
              f"{v!r} not classified generic")
        for branch in vertex.CURVE_BRANCHES:
            iv = vertex.fold_interval(v, branch)
            check(iv.hi > 0.0, f"{v!r} branch {branch.value}: empty interval")
            for f in fractions:
                sol = vertex.solve_on_branch(v, f * iv.hi, branch)
                res = realize.loop_closure_residual(v, sol)
                check(res < TAU_EXACT, f"closure residual {res:.3e}")
                out.texts.append(fmt(sol.rho))
                out.frames += 1
            for crease in (1, 2, 3, 4):
                want = sol.rho[crease - 1]
                got = vertex.solve_at_crease(v, crease, want, branch)
                err = abs(vertex.normalize_angle(got.rho[crease - 1] - want))
                check(err < TAU_EXACT,
                      f"crease {crease} driven to {want!r} reads {err:.3e} off")
                res = realize.loop_closure_residual(v, got)
                check(res < TAU_EXACT, f"closure residual {res:.3e}")
                out.texts.append(fmt(got.rho))
                out.frames += 1
        out.frame_s += hostclock.current.stop(t0)

        unit = units.solve_ff_unit(a1, a2, a3, mode)
        t1 = hostclock.current.start()
        report = units.validate_unit(unit, 200)
        out.certify_s.append(hostclock.current.stop(t1))
        check(report.valid(), f"unit residual {report.max_residual:.3e}")
        out.texts.append(fmt(unit.sector + report.interval
                             + (report.max_residual,)))


# ---------------------------------------------------------------------------
# herringbone_8x8
# ---------------------------------------------------------------------------


class Herringbone:
    name = "herringbone_8x8"
    why = ("stitch, certify and sweep a new 8x8 herringbone every op: pattern "
           "and foldability carry the load, with work shared inside one input")
    digest_ops = 1
    fixed_inputs = False
    # Pinned range, checked to stitch, certify and sweep at 8x8: c = 60 makes
    # the sweep raise RigidityViolation, a = c raises WrongClass, a <= 84
    # raises LayoutFailure, and a + c = 180 turns the vertex flat-foldable,
    # whose closed forms make the op twenty times cheaper.
    A_DEG = (93.0, 97.0)
    C_DEG = (70.0, 74.0)

    def __init__(self, rows: int = 8, cols: int = 8, frames: int = 12):
        self.rows, self.cols, self.n_frames = rows, cols, frames

    def setup(self, seed: int):
        return random.Random(seed)

    def next_input(self, rng):
        return rng.uniform(*self.A_DEG), rng.uniform(*self.C_DEG)

    def op(self, inp, workdir: Path) -> OpOut:
        a, c = inp
        plan = fixtures.herringbone_plan(self.rows, self.cols, a, c)
        p = pattern.stitch(plan)
        t0 = hostclock.current.start()
        report = foldability.certify(p, n_samples=200)
        certify_s = hostclock.current.stop(t0)
        check(report.verdict, f"(a, c) = ({a!r}, {c!r}): {report.reason}")
        check(report.max_residual < TAU_VERDICT,
              f"certify residual {report.max_residual:.3e}")

        t1 = hostclock.current.start()
        motion = realize.sweep(p, n_frames=self.n_frames, n_samples=200)
        texts = [foldio.fold_dumps(foldio.export_fold(p))]
        _write(workdir / "pattern.fold", texts[0])
        for k, state_k in enumerate(motion.frames):
            texts.append(foldio.export_obj(state_k, p))
            _write(workdir / f"frame_{k:03d}.obj", texts[-1])
        frame_s = hostclock.current.stop(t1)
        check(len(motion) == self.n_frames, f"{len(motion)} frames")
        check(motion.max_rigidity_residual <= TAU_EXACT,
              f"rigidity residual {motion.max_rigidity_residual:.3e}")
        check(motion.max_closure_residual <= TAU_EXACT,
              f"closure residual {motion.max_closure_residual:.3e}")
        return OpOut(texts, [certify_s], len(motion), frame_s)


# ---------------------------------------------------------------------------
# showcase_motion
# ---------------------------------------------------------------------------


class ShowcaseMotion:
    name = "showcase_motion"
    why = ("certify and sweep both fixed showcases at 240 frames, writing and "
           "reading every frame: realize and foldio lead, caches stay warm")
    digest_ops = 1
    fixed_inputs = True
    # (plan constructor, branch count, DOF caption) from the paper's showcases
    SHOWCASES = (
        ("showcase_a", fixtures.showcase_a_plan, 1, "2 + 3 + 2 - 2 = 5"),
        ("showcase_b", fixtures.showcase_b_plan, 4, "3 + 3 + 1 + 3 - 4 = 6"),
    )

    def __init__(self, frames: int = 240):
        self.n_frames = frames

    def setup(self, seed: int):
        # Fixed inputs: the seed has nothing to choose here.
        showcases = []
        for name, build, branches, caption in self.SHOWCASES:
            plan = build()
            showcases.append((name, plan, pattern.stitch(plan), branches,
                              caption))
        return showcases

    def next_input(self, showcases):
        return showcases

    def op(self, inp, workdir: Path) -> OpOut:
        out = OpOut([])
        for name, plan, p, branches, caption in inp:
            t0 = hostclock.current.start()
            report = foldability.certify(p, n_samples=200)
            out.certify_s.append(hostclock.current.stop(t0))
            check(report.verdict, f"{name}: {report.reason}")
            check(report.max_residual < TAU_VERDICT,
                  f"{name}: certify residual {report.max_residual:.3e}")

            t1 = hostclock.current.start()
            motion = realize.sweep(p, n_frames=self.n_frames, n_samples=200)
            tree = foldability.build_tree(p)
            cp_text = foldio.fold_dumps(foldio.export_fold(p))
            out.texts.append(cp_text)
            _write(workdir / f"{name}.fold", cp_text)
            for k, (st, t) in enumerate(zip(motion.frames,
                                            motion.driving_angles)):
                obj = foldio.export_obj(st, p)
                _write(workdir / f"{name}_{k:03d}.obj", obj)
                prop = foldability.propagate(tree, t)
                doc = foldio.fold_dumps(
                    foldio.export_fold(st, pattern=p, angles=prop))
                _write(workdir / f"{name}_{k:03d}.fold", doc)
                out.texts += [obj, doc]
            out.frame_s += hostclock.current.stop(t1)
            out.frames += len(motion)
            check(len(motion) == self.n_frames, f"{name}: {len(motion)} frames")
            check(motion.max_rigidity_residual <= TAU_EXACT,
                  f"{name}: rigidity {motion.max_rigidity_residual:.3e}")
            check(motion.max_closure_residual <= TAU_EXACT,
                  f"{name}: closure {motion.max_closure_residual:.3e}")

            text = (workdir / f"{name}.fold").read_text(encoding="utf-8")
            back = foldio.fold_dumps(foldio.export_fold(foldio.import_fold(text)))
            check(same_to_12_digits(json.loads(back), json.loads(text)),
                  f"{name}: FOLD round trip changed a value")
            out.roundtrips += 1
            out.roundtrips_identical += back == text
            n_points = (p.m + 2) * (p.n + 2)
            for k in range(len(motion)):
                doc = json.loads((workdir / f"{name}_{k:03d}.fold")
                                 .read_text(encoding="utf-8"))
                check(len(doc["vertices_coords"]) == n_points,
                      f"{name} frame {k}: wrong vertex count")
            got = pattern.count_branches(plan)
            check(got == branches, f"{name}: {got} branches, want {branches}")
            got = pattern.count_dof(plan).caption()
            check(got == caption, f"{name}: DOF {got!r}, want {caption!r}")
        return out


# Every workload `run.py` accepts.  BENCHMARK.json lists design_stream and
# herringbone_8x8 only: showcase_motion's run-to-run spread on the reference
# host exceeded the largest admissible bound (see NOTES.md), so it stays a
# workload to run by name.
WORKLOADS = {w.name: w for w in (DesignStream(), Herringbone(), ShowcaseMotion())}
