#!/usr/bin/env python3
"""One sha256 over the vertex, unit, certify, sweep and command-line outputs
of a fixed input set.

    python3 tools/output_digest.py                        # this checkout's src/
    PYTHONPATH=/other/checkout/src python3 tools/output_digest.py
    python3 tools/output_digest.py --texts                # the texts themselves

A change that should leave every computed float alone prints the same hash
before and after.  Each output is a repr, or the exception type and message
where the call raises:

* vertex layer: `classify` of seeded vertices of every class, each also with
  two sector angles moved by amounts that keep or break a collinear sum
  (warnings included), and `solve_generic` at seeded angles on both
  branches of seeded flat-foldable vertices, each solution as its `rho`,
  `xi_of(v, rho[0])`, `branch` and `raw_rho`; and `solve_at_crease` (the
  solution and its `raw_rho`) of seeded vertices of every class on every
  curve and segment branch at all four creases, at 0, -0.0, 5e-16, +-pi,
  4.0, NaN, seeded angles and angles the branch reaches, so refusals and
  their messages are covered too; and `solve_at_crease` at the targets where
  the computed lift is least monotone, on seeded generic vertices (both
  branches) and straight-line vertices (either collinear pair) with
  sectors at 20 and 160 degrees among them: the flat state's rounding
  residues and the angles reached at +-r_max and within 1e-12..1e-3 of 0
  and of +-r_max; and `solve_at_crease` at +-a for a at, just above and
  just below the magnitude of a bisected crease's lift at r = 0, where that
  lift is not zero, on seeded generic vertices (both branches), where a
  walk's mirrored inversion starts and stops;
* unit layer: the unit, its `validate_unit` report over 200 samples and its
  `valid_branch_pairs`, for seeded units from `solve_ff_unit` (all four
  modes), `make_flatfoldable_basic_unit`, `make_straightline_unit` and
  `identical_vertex_unit` (both curve branches, mirrored and plain); and
  the `validate_unit` reports (200 and 33 samples) of degenerate-shared
  units, whose connecting crease never folds, so the side-crease drive is
  covered too: seeded double-collinear vertices over their mirrored, plain
  and half-turned copies, both on LINE_SEGMENT_2 (as in
  `square_grid_plan`), with every sign pair; and each `FFUnitMode`'s
  `branch`, `signs` and `alpha4` at seeded and near-degenerate sector
  angles, with `UNIT_KINDS` and the `DOF_TABLE` that `count_dof` reads;
* blankets: the `certify` report for every enumerated branch choice and both
  uniform curve-branch choices of showcases A and B, four seeded 8x8
  herringbones, a 4x4 herringbone and the non-square 3x5 and 5x3
  herringbones, the `export_svg` text of each of those blankets, plain
  and, where it certifies, coloured by `mv_assignment` at half its
  certified driving angle, and the text of the
  FOLD and OBJ exports of a 6-frame `sweep` of each of those blankets that
  certifies on its default branches, with each frame's rigidity and
  closure residuals in full precision (so a residual bit that moves shows,
  not only the 12-digit exports);
* derived blankets: the `certify` report (49 samples) of every half-degree
  `with_vertex` perturbation of showcases A and B (each vertex, sector pair
  (k, k+2) moved by +-0.5 degree), the `valid_branch_pairs` of every unit of
  both showcases and of a 4x4 herringbone, and each showcase's layout after
  `relayout(plan.lengths)`, coordinates in full precision;
* walks: the `certify` report (200 samples) of showcase A with vertex
  (0,2)'s a1 and a3 moved by -+0.5 degree both ways, where some samples
  fail to propagate, of a 16x16 herringbone and of
  `herringbone_plan(8, 8, 96.5, 73.5)`, whose driving limit ends in a band
  where probes fail and pass in no order; and, with vertex (0,2)'s
  a1 and a3 or a2 and a4 so moved both ways, `propagate` at each of the
  200 samples of that pattern's `certify` grid: the largest cut-crease
  residual, or the refusal's type and message, which names the vertex;
* relaid-out blankets: 40 seeded `relayout`s of showcases A and B and a 4x4
  herringbone (crease lengths 0.2-3, boundary 0.2-4).  A relayout that
  raises gives its exception type and message.  Of the others, only those
  whose faces this tool's own geometry check finds simple and
  counter-clockwise are kept (no two opposite edges cross, positive
  shoelace area), and each kept one gives its `certify` report, its SVG
  texts as above and the FOLD and OBJ text and the residuals of a 6-frame
  `sweep`;
* refusals: `export_obj` of a flat 2x2 square grid with one face squashed
  to a point;
* command line: `quadfold.cli.main` run in a temporary directory on
  `vertex solve`/`interval`, `unit solve-ff`/`validate` and `pattern
  stitch`/`count`/`certify`/`sweep`/`svg` over both showcases and two plans
  written only as unit descriptors, each with the defaults and with its
  count or `--rho` flag.  Each run gives its exit code, stdout, stderr and
  the hash of every file it wrote;
* exact acceptance: seeded `solve_ff_unit` units of all four modes, each
  with its bottom vertex's stored sectors moved to (a1 - d, a2 + d, a3 + d,
  a4 - d), which keeps it flat-foldable, for every d in `FF_MOVES`: whether
  `stitch` accepts the one-unit plan (or its refusal) and the unit's
  `valid_branch_pairs`, the two checks that accept a pair of flat-foldable
  curves from their transmission constants;
* twin columns: a seeded 16x16 herringbone's `certify` report and the
  residuals of its 12-frame `sweep`, and an 8x8 herringbone with one
  vertex moved in a lower row or in the top row, which ends its repeated
  columns there: its report and `propagate` at 13 driving angles;
* one acceptance rule: two units of generic vertices whose sampled
  residual crosses `TAU_UNIT` between 33, 64 and 200 samples, each with
  its `stitch` verdict, its `valid_branch_pairs` and `quadfold unit
  validate` of the file its `to_json` writes, at the default samples and
  at `--samples 500`;
* a large sweep: the FOLD and OBJ text of every frame of a 12-frame
  `sweep` of `herringbone_plan(32, 32)`;
* usage errors: `quadfold.cli.main` run as above on malformed flags, each
  refused with exit code 2 and a usage line: `--alphas` with an empty
  entry, a wrong count or a non-number, `--branch b1`, `--branches` with a
  wrong number of column groups or of tokens in a group, and `--samples 1`
  (usage lines wrapped at 80 columns);
* unit views: for every unit of the fixture plans and every unit the
  unit-layer section builds, its role-labelled `sector`, its `swapped()`
  unit and `Unit.from_json` of its `to_json` document (each unit as its
  stored sectors, branches, signs, kind and mode); `FFUnitMode.from_token`
  on each mode's token in several spellings and on refused tokens; and the
  sign pairs `Unit` and `Unit.from_json` refuse or accept (bools, floats,
  numpy integers, a list, wrong values and lengths), with `stitch` of a
  3x3 herringbone whose units carry their pairs as lists;
* input rules: `quadfold unit solve-ff` with each mode's token
  upper-cased and padded and with refused tokens, and its `-h` text (at 80
  columns); `QuadPattern` built directly with m or n of 0, and what
  `export_fold`, `export_svg`, `build_tree`, `certify` and `realize` make
  of each; and both exports of showcase A with mv maps that each hold one
  fault (a key that names no edge, a boundary letter other than B, a
  crease letter other than M, V or F, two letters for one edge), with a
  crease keyed to None, and with two faults.

One line per text gives that text's own hash, so a diff of two outputs names
the texts that moved; the last line is the total.  It is a comparison tool,
not a golden: the hash is compared between two source trees, never stored.

With --texts each text is printed in full, so a diff of two outputs shows the
numbers that moved.  Each text is a block: a line `--- <n> bytes`, then the
n bytes that the default mode hashes, its label line and its text, each
ending in a newline.  The first 16 hex digits of a block's sha256 and its
label make that text's default line, and one sha256 over all blocks in
order is the total, which the last line prints as in the default mode.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

# PYTHONPATH comes first on sys.path, so it picks the source tree to digest.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import quadfold  # noqa: E402
from quadfold import (  # noqa: E402
    BranchId,
    ClassTag,
    FFUnitMode,
    PlanLengths,
    QuadfoldError,
    QuadPattern,
    StitchPlan,
    Unit,
    Vertex4,
    build_tree,
    certify,
    classify,
    enumerate_branch_choices,
    export_fold,
    export_obj,
    export_svg,
    fold_dumps,
    fold_interval,
    identical_vertex_unit,
    make_flatfoldable_basic_unit,
    mv_assignment,
    make_straightline_unit,
    propagate,
    realize,
    solve_at_crease,
    solve_ff_unit,
    solve_generic,
    solve_on_branch,
    stitch,
    sweep,
    valid_branch_pairs,
    validate_unit,
    xi_of,
)
from quadfold.cli import main as cli_main  # noqa: E402
from quadfold.foldability import Propagation  # noqa: E402
from quadfold.pattern import DOF_TABLE  # noqa: E402
from quadfold.units import UNIT_KINDS  # noqa: E402
from quadfold.vertex import _branch_param  # noqa: E402
from quadfold.fixtures import (  # noqa: E402
    herringbone_plan,
    showcase_a_plan,
    showcase_b_plan,
    single_ff_unit_plan,
    square_grid_plan,
)

SEED = 7
N_HERRINGBONES = 4
N_FRAMES = 6
# The bench's herringbone range: every blanket in it stitches, certifies
# and sweeps at 8x8.
A_DEG = (93.0, 97.0)
C_DEG = (70.0, 74.0)
N_VERTICES = 8      # seeded vertices per class
N_UNITS = 4         # seeded units per constructor (and per flat-foldable mode)
N_MODE_ANGLES = 20  # seeded sector triples per flat-foldable mode
# sector-angle moves: inside TAU_ANGLE (still collinear), inside
# TAU_CLASS_BAND (a warning), beyond it
NUDGES = (4e-10, 3e-9, 5e-7, 2e-6)
N_RELAYOUTS = 40
N_DRIVEN = 21       # seeded vertices driven at each crease (3 per class)
# driving angles: flat, signed zero, below the flat cutoff, the ends of
# [-pi, pi], beyond them and not a number
DRIVE_ANGLES = (0.0, -0.0, 5e-16, math.pi, -math.pi, 4.0, math.nan)
N_HARD = 8          # seeded vertices per kind driven at hard targets
HARD_OFFSETS = (1e-12, 1e-9, 1e-6, 1e-3)
N_FALLBACK = 6      # seeded vertices per kind where the bisection's guess
                    # may miss
N_ZERO_LIFT = 12    # seeded generic vertices driven next to their lift at 0
# a generic vertex whose c2 lift at r = 0 on branch 1 is 3.3e-8, not 0
ZERO_LIFT_VERTEX = (0.9473112183836143, 1.1173880097720161,
                    2.4183622088582677, 1.800123870165688)
MAX_SUM_MISS = 0.9e-9  # sectors summing this far from 2*pi pass Vertex4
# targets whose tangent half-angle is 0 or subnormal
TINY_TARGETS = (5e-324, -5e-324, 1e-300, -1e-300)
# moves of a flat-foldable unit's bottom sectors, around the size whose
# residual crosses TAU_UNIT (about 1.4e-9 on 80/100/60-degree designs)
FF_MOVES = (0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 1e-6)
# (top, bottom) stored sectors of units on branch 2 of both vertices, signs
# (1, 1), whose sampled residual crosses TAU_UNIT: A's is 9.939e-9 at 33
# samples and 1.0009e-8 at 64, B's 1.0026e-8 at 33 and 9.984e-9 at 64
THRESHOLD_UNITS = {
    "A": ((1.0487673900869332, 1.841195053869466, 1.5872927501457519,
           1.805930113077436),
          (1.8059301155697016, 1.5872927501457519, 1.8411950513772002,
           1.0487673900869332)),
    "B": ((1.4899506918888203, 1.4449796707683553, 1.4577072898110597,
           1.8905476547113516),
          (1.8905476567442456, 1.4577072898110597, 1.4449796687354612,
           1.4899506918888203)),
}


def _sector(rng) -> float:
    return math.radians(rng.uniform(25.0, 155.0))


def _generic(rng) -> Vertex4:
    while True:
        a = [_sector(rng) for _ in range(3)]
        a4 = 2.0 * math.pi - sum(a)
        if 0.3 < a4 < math.pi - 0.3:
            return Vertex4((*a, a4))


def _flat_foldable(rng) -> Vertex4:
    a1, a2 = _sector(rng), _sector(rng)
    return Vertex4((a1, a2, math.pi - a1, math.pi - a2))


def vertices(rng):
    """(class name, vertex) pairs: seeded vertices of every class."""
    pi = math.pi
    for _ in range(N_VERTICES):
        a, b = _sector(rng), math.radians(rng.uniform(10.0, 80.0))
        straight = Vertex4((a, b, pi - b, pi - a))
        yield "generic", _generic(rng)
        yield "flat_foldable", _flat_foldable(rng)
        yield "straight_line_13", straight
        yield "straight_line_24", straight.shifted(1)
        yield "double_collinear", Vertex4((a, pi - a, a, pi - a))
        yield "adjacent_collinear", Vertex4((pi, b, pi - b - 0.2, 0.2))
        yield "trivial", Vertex4((pi + 0.3, b, 0.4, pi - 0.7 - b))


def _solution(v, fn):
    try:
        sol = fn()
    except QuadfoldError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((sol.rho, xi_of(v, sol.rho[0]), sol.branch, sol.raw_rho))


def vertex_texts():
    rng = random.Random(SEED)
    for k, (name, v) in enumerate(vertices(rng)):
        yield f"classify {name} {k}", _outcome(lambda: classify(v))
        for nudge in NUDGES:
            i, j = rng.sample(range(4), 2)
            a = list(v.alpha)
            a[i] += nudge
            a[j] -= nudge
            w = Vertex4(a)
            yield (f"classify {name} {k} nudged {nudge:g}",
                   _outcome(lambda: classify(w)))
    for k in range(N_VERTICES):
        v = _flat_foldable(rng)
        for b in (BranchId.BRANCH_1, BranchId.BRANCH_2):
            for r in (rng.uniform(-math.pi, math.pi) for _ in range(4)):
                yield (f"solve_generic flat_foldable {k} {b.value} {r!r}",
                       _solution(v, lambda: solve_generic(v, r, b)))


def _driven(v, crease, angle, branch):
    sol = solve_at_crease(v, crease, angle, branch)
    return sol, sol.raw_rho


def crease_texts():
    """`solve_at_crease` of seeded vertices of every class on every branch
    (curves and segments) at all four creases, over DRIVE_ANGLES, two
    seeded angles in (-pi, pi) and the angles the branch reaches at two
    seeded parameters; refusals give their type and message."""
    rng = random.Random(SEED + 4)
    for k, (name, v) in enumerate(itertools.islice(vertices(rng), N_DRIVEN)):
        for b in BranchId:
            angles = [*DRIVE_ANGLES,
                      *(rng.uniform(-math.pi, math.pi) for _ in range(2))]
            fractions = [rng.uniform(-1.0, 1.0) for _ in range(2)]
            try:
                hi = fold_interval(v, b).hi or math.pi
                reached = [solve_on_branch(v, f * hi, b).rho for f in fractions]
            except QuadfoldError:
                reached = []
            for crease in (1, 2, 3, 4):
                for angle in angles + [rho[crease - 1] for rho in reached]:
                    yield (f"solve_at_crease {name} {k} {b.value} c{crease} "
                           f"{angle!r}",
                           _outcome(lambda: _driven(v, crease, angle, b)))


def _hard_sector(rng) -> float:
    return rng.choice((20.0, 160.0, rng.uniform(20.0, 160.0)))


def _hard_vertices(rng):
    """(name, vertex, curve branches): seeded generic vertices and
    straight-line vertices with either collinear pair, each drawn sector
    20, 160 or uniform in between with equal odds."""
    made = 0
    while made < N_HARD:
        a1, a2, a3 = (_hard_sector(rng) for _ in range(3))
        a4 = 360.0 - a1 - a2 - a3
        if not 20.0 <= a4 <= 160.0:
            continue
        v = Vertex4.from_degrees((a1, a2, a3, a4))
        if classify(v).tag is ClassTag.GENERIC:
            made += 1
            yield "generic", v, (BranchId.BRANCH_1, BranchId.BRANCH_2)
    made = 0
    while made < N_HARD:
        a1, a2 = _hard_sector(rng), _hard_sector(rng)
        v = Vertex4.from_degrees((a1, a2, 180.0 - a2, 180.0 - a1))
        cls = classify(v)
        if cls.tag is ClassTag.STRAIGHT_LINE and not cls.flat_foldable:
            made += 1
            yield "straight_line_13", v, (BranchId.BRANCH_2,)
            yield "straight_line_24", v.shifted(1), (BranchId.BRANCH_2,)


def hard_crease_texts():
    """`solve_at_crease` at every crease of `_hard_vertices` at the angles
    reached at r = +-1e-300, where every arccos argument has its flat-state
    value, so the angle is the flat state's rounding residue; at +-r_max;
    and at HARD_OFFSETS from 0 and from +-r_max."""
    rng = random.Random(SEED + 9)
    for k, (name, v, branches) in enumerate(_hard_vertices(rng)):
        for b in branches:
            hi = fold_interval(v, b).hi
            rs = [1e-300, hi]
            for d in HARD_OFFSETS:
                rs += [d, hi - d]
            rhos = [solve_on_branch(v, sign * r, b).rho
                    for r in rs for sign in (1.0, -1.0)]
            for crease in (1, 2, 3, 4):
                for rho in rhos:
                    angle = rho[crease - 1]
                    yield (f"solve_at_crease hard {name} {k} {b.value} "
                           f"c{crease} {angle!r}",
                           _outcome(lambda: _driven(v, crease, angle, b)))


def _fallback_vertices(rng):
    """(name, vertex, curve branches) where the closed-form guess of the
    guided bisection may miss its 1e-11 window, so that the bisection falls
    back to evaluating every midpoint: showcase A's vertex (0,2) with a1 up
    and a3 down by half a degree, seeded generic vertices up to half a
    degree from straight-line, and seeded generic and straight-line vertices
    (either collinear pair) with one sector moved so the four miss 2*pi by
    up to MAX_SUM_MISS."""
    curves = (BranchId.BRANCH_1, BranchId.BRANCH_2)
    a = list(stitch(showcase_a_plan()).vertex(0, 2).alpha)
    a[0] += math.radians(0.5)
    a[2] -= math.radians(0.5)
    yield "showcase_a (0,2) perturbed", Vertex4(a), curves
    made = 0
    while made < N_FALLBACK:
        a1, b = _sector(rng), math.radians(rng.uniform(10.0, 80.0))
        a = [a1, b, math.pi - b, math.pi - a1]
        i, d = rng.randrange(4), math.radians(rng.uniform(-0.5, 0.5))
        a[i] += d
        a[(i + 2) % 4] -= d
        v = Vertex4(a)
        cls = classify(v)
        if cls.tag is ClassTag.GENERIC and not cls.flat_foldable:
            made += 1
            yield "near_straight_line", v, curves
    for _ in range(N_FALLBACK):
        a1, b = _sector(rng), math.radians(rng.uniform(10.0, 80.0))
        for name, a, branches in (
                ("generic", list(_generic(rng).alpha), curves),
                ("straight_line",
                 [a1, b, math.pi - b, math.pi - a1], (BranchId.BRANCH_2,))):
            a[rng.randrange(4)] += rng.uniform(-MAX_SUM_MISS, MAX_SUM_MISS)
            v = Vertex4(a)
            yield f"{name} sum_miss", v, branches
            if name == "straight_line":
                yield f"{name} sum_miss shifted", v.shifted(1), branches


def fallback_crease_texts():
    """`solve_at_crease` at every crease of `_fallback_vertices` at the
    angles reached at three seeded parameters, at +-r_max and at
    HARD_OFFSETS from 0 and from +-r_max; and each curve's own inversion
    (`invert`, which `solve_at_crease` reaches only for angles of at least
    1e-15) at TINY_TARGETS."""
    rng = random.Random(SEED + 11)
    for k, (name, v, branches) in enumerate(_fallback_vertices(rng)):
        for b in branches:
            try:
                p = _branch_param(v.alpha, b)
            except QuadfoldError as exc:
                yield (f"fallback {name} {k} {b.value}",
                       f"{type(exc).__name__}: {exc}")
                continue
            hi = p.r_max
            rs = [hi, *(rng.uniform(-hi, hi) for _ in range(3))]
            for d in HARD_OFFSETS:
                rs += [d, hi - d]
            rhos = []
            for r in rs:
                for sign in (1.0, -1.0):
                    try:
                        rhos.append(solve_on_branch(v, sign * r, b).rho)
                    except QuadfoldError:
                        pass
            for crease in (1, 2, 3, 4):
                for rho in rhos:
                    angle = rho[crease - 1]
                    yield (f"solve_at_crease fallback {name} {k} {b.value} "
                           f"c{crease} {angle!r}",
                           _outcome(lambda: _driven(v, crease, angle, b)))
                for t in TINY_TARGETS:
                    yield (f"invert fallback {name} {k} {b.value} "
                           f"c{crease} {t!r}",
                           _outcome(lambda: p.invert(crease - 1, t)))


def zero_lift_texts():
    """`solve_at_crease` at +-a, for a at |lift_zero| and the floats next to
    it, at c2 and c4 of ZERO_LIFT_VERTEX and of seeded generic vertices on
    both curve branches, wherever the curve's stored lift at r = 0 there is
    not zero."""
    rng = random.Random(SEED + 13)
    vs = [Vertex4(ZERO_LIFT_VERTEX)]
    while len(vs) <= N_ZERO_LIFT:
        v = _generic(rng)
        if not classify(v).flat_foldable:
            vs.append(v)
    for k, v in enumerate(vs):
        for b in (BranchId.BRANCH_1, BranchId.BRANCH_2):
            p = _branch_param(v.alpha, b)
            for crease in (2, 4):
                zero = abs(p.lift_zero[crease - 1])
                if not zero:
                    continue
                for a in (math.nextafter(zero, 0.0), zero,
                          math.nextafter(zero, math.inf)):
                    for angle in (a, -a):
                        yield (f"solve_at_crease zero lift {k} {b.value} "
                               f"c{crease} {angle!r}",
                               _outcome(lambda: _driven(v, crease, angle, b)))


def units(rng):
    """(label, constructor call) pairs: seeded units of every constructor."""
    for k in range(N_UNITS):
        a1, a2, a3 = _sector(rng), _sector(rng), _sector(rng)
        for mode in FFUnitMode:
            yield (f"solve_ff_unit {mode.value} {k}",
                   lambda mode=mode, a=(a1, a2, a3): solve_ff_unit(*a, mode))
        yield (f"make_flatfoldable_basic_unit {k}",
               lambda a=(a1, a2): make_flatfoldable_basic_unit(*a))
        a, b = _sector(rng), math.radians(rng.uniform(10.0, 80.0))
        for shift in (0, 1):
            v = Vertex4((a, b, math.pi - b, math.pi - a)).shifted(shift)
            yield (f"make_straightline_unit {shift} {k}",
                   lambda v=v: make_straightline_unit(v))
        double = Vertex4((a, math.pi - a, a, math.pi - a))
        yield (f"make_straightline_unit double {k}",
               lambda v=double: make_straightline_unit(v))
        for name, v in (("generic", _generic(rng)),
                        ("flat_foldable", _flat_foldable(rng))):
            for b in (BranchId.BRANCH_1, BranchId.BRANCH_2):
                for mirrored in (True, False):
                    yield (f"identical_vertex_unit {name} {b.value} "
                           f"{mirrored} {k}",
                           lambda v=v, b=b, m=mirrored: identical_vertex_unit(
                               v, b, mirrored=m))


def unit_texts():
    rng = random.Random(SEED + 1)
    for label, make in units(rng):
        try:
            u = make()
        except QuadfoldError as exc:
            yield label, f"{type(exc).__name__}: {exc}"
            continue
        yield label, "\n".join((repr(u),
                                _outcome(lambda: validate_unit(u, 200)),
                                _outcome(lambda: valid_branch_pairs(u))))


def degenerate_shared_texts():
    rng = random.Random(SEED + 3)
    line2 = BranchId.LINE_SEGMENT_2
    for k in range(N_UNITS):
        a = _sector(rng)
        v = Vertex4((a, math.pi - a, a, math.pi - a))
        for name, bottom in (("mirrored", v.mirrored()), ("plain", v),
                             ("half-turned", v.shifted(2))):
            for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                u = Unit(top=v, bottom=bottom, branch_top=line2,
                         branch_bottom=line2, signs=signs)
                for n in (200, 33):
                    yield (f"double_collinear line2 {name} {signs} {k} "
                           f"validate_unit {n}",
                           _outcome(lambda: validate_unit(u, n)))


def mode_texts():
    """Each flat-foldable mode's branch, signs and `alpha4` at seeded sector
    triples and at triples near 0, pi/2 and pi; then the unit kinds and
    their DOF terms."""
    rng = random.Random(SEED + 9)
    triples = [(_sector(rng), _sector(rng), _sector(rng))
               for _ in range(N_MODE_ANGLES)]
    triples += [(math.pi / 2,) * 3, (1e-6, 1e-6, math.pi - 1e-6),
                (math.pi - 1e-6, 1e-6, math.pi / 2)]
    for mode in FFUnitMode:
        yield (f"mode {mode.value}", "\n".join(
            [repr((mode.branch, mode.signs))]
            + [repr(mode.alpha4(*a)) for a in triples]))
    yield "unit kinds", repr((UNIT_KINDS, DOF_TABLE))


def blankets():
    """(name, plan) pairs of the fixed input set."""
    yield "showcase_a", showcase_a_plan()
    yield "showcase_b", showcase_b_plan()
    rng = random.Random(SEED)
    for k in range(N_HERRINGBONES):
        a, c = rng.uniform(*A_DEG), rng.uniform(*C_DEG)
        yield f"herringbone_8x8_{k}", herringbone_plan(8, 8, a, c)
    yield "herringbone_4x4", herringbone_plan(4, 4)
    # non-square: a fold that swaps rows and columns shows here
    yield "herringbone_3x5", herringbone_plan(3, 5)
    yield "herringbone_5x3", herringbone_plan(5, 3)


def _outcome(fn):
    try:
        return repr(fn())
    except QuadfoldError as exc:
        return f"{type(exc).__name__}: {exc}"


def derived_texts():
    for name, plan in (("showcase_a", showcase_a_plan()),
                       ("showcase_b", showcase_b_plan())):
        p = stitch(plan)
        for i in range(p.m):
            for j in range(p.n):
                for k in range(4):
                    a = list(p.vertex(i, j).alpha)
                    a[k] += math.radians(0.5)
                    a[(k + 2) % 4] -= math.radians(0.5)
                    bad = p.with_vertex(i, j, Vertex4(a))
                    yield (f"{name} perturbed ({i},{j}) {k} certify",
                           _outcome(lambda: certify(bad, None, 49)))
        yield (f"{name} relayout grid",
               _outcome(lambda: p.relayout(plan.lengths).grid.tolist()))
    for name, plan in (("showcase_a", showcase_a_plan()),
                       ("showcase_b", showcase_b_plan()),
                       ("herringbone_4x4", herringbone_plan(4, 4))):
        for j, col in enumerate(plan.columns):
            for k, u in enumerate(col):
                yield (f"{name} unit ({k},{j}) valid_branch_pairs",
                       _outcome(lambda: valid_branch_pairs(u)))


def walk_texts():
    """`certify` reports (200 samples): showcase A's vertex (0,2) with a1
    and a3 moved by -+0.5 degree both ways, where the walk refuses some of
    the samples; a 16x16 herringbone, whose walk shares each column's
    solves; and herringbone_plan(8, 8, 96.5, 73.5), whose driving limit
    ends in a band where probes fail and pass in no order."""
    p = stitch(showcase_a_plan())
    for sign in (1.0, -1.0):
        a = list(p.vertex(0, 2).alpha)
        a[0] += sign * math.radians(0.5)
        a[2] -= sign * math.radians(0.5)
        bad = p.with_vertex(0, 2, Vertex4(a))
        yield (f"showcase_a perturbed (0,2) {sign:+g} certify 200",
               _outcome(lambda: certify(bad, None, 200)))
    yield ("herringbone_16x16 certify",
           _outcome(lambda: certify(stitch(herringbone_plan(16, 16)))))
    yield ("herringbone_8x8 96.5/73.5 certify",
           _outcome(lambda: certify(stitch(herringbone_plan(8, 8, 96.5,
                                                            73.5)))))


def walk_refusal_texts():
    """`propagate` at each of the 200 `certify` samples of showcase A with
    vertex (0,2)'s sector pair (k, k+2), k = 0 or 1, moved by +-0.5
    degree: one text per pattern, a line per sample giving the largest
    cut-crease residual or the refusal's type and message."""
    p = stitch(showcase_a_plan())
    for k in (0, 1):
        for sign in (1.0, -1.0):
            a = list(p.vertex(0, 2).alpha)
            a[k] += sign * math.radians(0.5)
            a[k + 2] -= sign * math.radians(0.5)
            bad = p.with_vertex(0, 2, Vertex4(a))
            tree = build_tree(bad)
            lines = [_outcome(lambda: propagate(tree, t).max_residual())
                     for t in certify(bad, None, 200).samples]
            yield (f"showcase_a perturbed (0,2) {k} {sign:+g} propagate at "
                   f"the 200 certify samples", "\n".join(lines))


def _svg_texts(name, p):
    """The crease-pattern SVG, plain and, where the pattern certifies,
    coloured at half its certified driving angle."""
    yield f"{name} svg", _outcome(lambda: export_svg(p))
    report = certify(p)
    if report.verdict:
        rho = 0.5 * report.interval[1]
        yield (f"{name} svg mv {rho!r}",
               _outcome(lambda: export_svg(p, mv_assignment(p, None, rho))))


def _sweep_texts(name, p):
    try:
        motion = sweep(p, n_frames=N_FRAMES)
    except QuadfoldError as exc:
        yield f"{name} sweep", f"{type(exc).__name__}: {exc}"
        return
    for k, state in enumerate(motion.frames):
        yield f"{name} frame {k} fold", fold_dumps(export_fold(state, pattern=p))
        yield f"{name} frame {k} obj", export_obj(state, p)
        # as floats: the digest is of the value, whatever its scalar type
        yield (f"{name} frame {k} residuals",
               repr((float(state.rigidity_residual),
                     float(state.closure_residual))))


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _faces_simple(p) -> bool:
    """Whether every face of the layout is a simple counter-clockwise
    quadrilateral: neither pair of opposite edges crosses, and the shoelace
    area is positive.  Written apart from the library's own check."""
    g = p.grid.tolist()
    for face in p.faces():
        k0, k1, k2, k3 = (g[r][c] for r, c in p.face_corners(*face))
        for (p1, p2), (q1, q2) in (((k0, k1), (k2, k3)), ((k1, k2), (k3, k0))):
            if (_cross(p1, p2, q1) * _cross(p1, p2, q2) < 0
                    and _cross(q1, q2, p1) * _cross(q1, q2, p2) < 0):
                return False
        if _cross(k0, k1, k2) + _cross(k0, k2, k3) <= 0.0:
            return False
    return True


def relayout_texts():
    rng = random.Random(SEED + 2)
    bases = [stitch(plan) for plan in (showcase_a_plan(), showcase_b_plan(),
                                       herringbone_plan(4, 4))]
    for k in range(N_RELAYOUTS):
        base = bases[k % len(bases)]
        lengths = PlanLengths(
            top=tuple(rng.uniform(0.2, 3.0) for _ in range(base.n - 1)),
            left=tuple(rng.uniform(0.2, 3.0) for _ in range(base.m - 1)),
            boundary=rng.uniform(0.2, 4.0))
        name = f"relayout {k}"
        try:
            p = base.relayout(lengths)
        except QuadfoldError as exc:
            yield f"{name} refused", f"{type(exc).__name__}: {exc}"
            continue
        if not _faces_simple(p):
            continue
        yield f"{name} certify", _outcome(lambda: certify(p))
        yield from _svg_texts(name, p)
        yield from _sweep_texts(name, p)


def squashed_texts():
    """`export_obj` of a flat 2x2 square grid whose top-left face is
    squashed to one point: a zero-area refusal."""
    p = stitch(square_grid_plan(2, 2))
    state = sweep(p, n_frames=1).frames[0]
    coords = state.coords.copy()
    coords[0, 0] = coords[0, 1] = coords[1, 0] = coords[1, 1]
    squashed = dataclasses.replace(state, coords=coords)
    yield "squashed face obj", _outcome(lambda: export_obj(squashed, p))


# plans written only as unit descriptors: three straight-line columns, and
# one flat-foldable unit
DESCRIPTOR_PLANS = {
    "descriptors_sl": {"columns": [[{"kind": "straight_line",
                                     "alphas_deg": [95, 85, 75, 105]}]] * 3},
    "descriptors_ff": {"columns": [[{"kind": "flat_foldable",
                                     "alphas_deg": [80, 100, 60],
                                     "mode": "10a-1"}]]},
}


def _cli_commands():
    """(argv, flag) pairs; `flag` is the argv tail a run adds with its
    flag, or None for a command that takes none."""
    for alphas in ("80,95,75,110", "80,100.00001,80,99.99999"):
        for b in ("1", "2"):
            yield (["vertex", "solve", "--rho1", "60", "--alphas", alphas,
                    "--branch", b], None)
            yield (["vertex", "interval", "--alphas", alphas,
                    "--branch", b], None)
    for mode in FFUnitMode:
        yield (["unit", "solve-ff", "--alphas", "80,100,60",
                "--mode", mode.value], None)
    for name in ("ff_unit", "sl_unit", "double_collinear_unit"):
        yield ["unit", "validate", f"in/{name}.json"], ["--samples", "64"]
    plans = ("showcase_a", "showcase_b", *DESCRIPTOR_PLANS)
    for name in plans:
        yield ["pattern", "count", f"in/{name}.json"], None
        yield (["pattern", "stitch", f"in/{name}.json", "-o", "out/p.fold"],
               None)
    for name in plans:
        fold = f"in/{name}.fold"
        yield ["pattern", "certify", fold], ["--samples", "50"]
        yield (["pattern", "certify", fold, "--report", "out/r.json"],
               ["--samples", "50"])
        yield (["pattern", "sweep", fold, "--out-dir", "out/frames"],
               ["--frames", "4"])
        yield (["pattern", "sweep", fold, "--out-dir", "out/frames",
                "--format", "fold"], ["--frames", "2"])
        yield ["pattern", "svg", fold, "-o", "out/p.svg"], ["--rho", "10"]
    yield (["pattern", "certify", "in/showcase_a.fold",
            "--branches", "2,2,2;1,1,1;2,2,2"], ["--samples", "50"])


def _write_inputs(root: Path):
    """The unit, plan and FOLD files the commands read."""
    inputs = root / "in"
    inputs.mkdir()
    docs = {f"{name}.json": doc for name, doc in DESCRIPTOR_PLANS.items()}
    docs["showcase_a.json"] = showcase_a_plan().to_json()
    docs["showcase_b.json"] = showcase_b_plan().to_json()
    docs["ff_unit.json"] = solve_ff_unit(
        math.radians(80), math.radians(100), math.radians(60),
        FFUnitMode.A_PLUS).to_json()
    docs["sl_unit.json"] = next(showcase_a_plan().units()).to_json()
    docs["double_collinear_unit.json"] = next(
        square_grid_plan(2, 2).units()).to_json()
    for name, doc in docs.items():
        (inputs / name).write_text(json.dumps(doc), encoding="utf-8")
    for name in ("showcase_a", "showcase_b", *DESCRIPTOR_PLANS):
        plan = StitchPlan.from_json(docs[f"{name}.json"])
        (inputs / f"{name}.fold").write_text(
            fold_dumps(export_fold(stitch(plan))), encoding="utf-8")


def _cli_run(argv) -> str:
    """Exit code, stdout, stderr and the written files of one run, in a
    fresh out/."""
    shutil.rmtree("out", ignore_errors=True)
    os.mkdir("out")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback the CLI let through
            code = f"{type(exc).__name__}: {exc}"
    files = [(str(f), hashlib.sha256(f.read_bytes()).hexdigest())
             for f in sorted(Path("out").rglob("*")) if f.is_file()]
    return repr((code, out.getvalue(), err.getvalue(), files))


@contextlib.contextmanager
def _cli_dir():
    """A temporary working directory for CLI runs, its path; the working
    directory is restored on leaving."""
    saved_cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(saved_cwd)


def cli_texts():
    with _cli_dir() as tmp:
        _write_inputs(tmp)
        for argv, flag in _cli_commands():
            for with_flag in (False, True) if flag else (False,):
                run = argv + flag if with_flag else argv
                yield "cli default " + " ".join(run), _cli_run(run)


def _stitched(u) -> str:
    stitch(StitchPlan(columns=((u,),)))
    return "stitched"


def ff_acceptance_texts():
    """The `stitch` verdict and the `valid_branch_pairs` of seeded
    flat-foldable units with the bottom's sectors moved by each of
    `FF_MOVES`."""
    rng = random.Random(SEED + 11)

    for k in range(N_UNITS):
        a1, a2, a3 = _sector(rng), _sector(rng), _sector(rng)
        for mode in FFUnitMode:
            try:
                u = solve_ff_unit(a1, a2, a3, mode)
            except QuadfoldError as exc:
                yield (f"ff acceptance {mode.value} {k}",
                       f"{type(exc).__name__}: {exc}")
                continue
            b1, b2, b3, b4 = u.bottom.alpha
            for d in FF_MOVES:
                w = dataclasses.replace(u, bottom=Vertex4(
                    (b1 - d, b2 + d, b3 + d, b4 - d)))
                label = f"ff acceptance {mode.value} {k} d={d!r}"
                yield f"{label} stitch", _outcome(lambda: _stitched(w))
                yield (f"{label} valid_branch_pairs",
                       _outcome(lambda: valid_branch_pairs(w)))


def twin_column_texts():
    """Blankets whose columns partly repeat: the `certify` report (200
    samples) and the residuals of a 12-frame `sweep` of a seeded 16x16
    herringbone; and `herringbone_plan(8, 8)` with vertex (3,5), or
    top-row vertex (0,4), moved by +0.5 degree on a1 and -0.5 on a3, so
    its twin columns end there: the report and, at each of 13 driving
    angles over [-1.9, 1.9] (inside the unmoved blanket's interval), the
    largest cut-crease residual or the refusal."""
    rng = random.Random(SEED + 13)
    a, c = rng.uniform(*A_DEG), rng.uniform(*C_DEG)
    p = stitch(herringbone_plan(16, 16, a, c))
    yield (f"herringbone_16x16 {a!r}/{c!r} certify",
           _outcome(lambda: certify(p)))
    yield (f"herringbone_16x16 {a!r}/{c!r} sweep residuals",
           _outcome(lambda: [(float(s.rigidity_residual),
                              float(s.closure_residual))
                             for s in sweep(p, n_frames=12).frames]))
    p = stitch(herringbone_plan(8, 8))
    for i, j in ((3, 5), (0, 4)):
        alpha = list(p.vertex(i, j).alpha)
        alpha[0] += math.radians(0.5)
        alpha[2] -= math.radians(0.5)
        moved = p.with_vertex(i, j, Vertex4(alpha))
        tree = build_tree(moved)
        yield (f"herringbone_8x8 ({i},{j}) moved certify",
               _outcome(lambda: certify(moved)))
        yield (f"herringbone_8x8 ({i},{j}) moved propagate",
               "\n".join(_outcome(lambda: propagate(tree, t).max_residual())
                         for t in (1.9 * (k / 6 - 1) for k in range(13))))


def threshold_unit_texts():
    """Units A and B of `THRESHOLD_UNITS`: the `stitch` verdict, the
    `valid_branch_pairs` and `quadfold unit validate` of the file the
    unit's `to_json` writes (B's does not read back bit for bit), with
    the default samples and with `--samples 500`."""
    with _cli_dir():
        for name, (top, bottom) in THRESHOLD_UNITS.items():
            u = Unit(top=Vertex4(top), bottom=Vertex4(bottom),
                     branch_top=BranchId.BRANCH_2,
                     branch_bottom=BranchId.BRANCH_2, signs=(1, 1))
            yield f"unit {name} stitch", _outcome(lambda: _stitched(u))
            yield (f"unit {name} valid_branch_pairs",
                   _outcome(lambda: valid_branch_pairs(u)))
            Path(f"{name}.json").write_text(json.dumps(u.to_json()),
                                            encoding="utf-8")
            for flag in ([], ["--samples", "500"]):
                argv = ["unit", "validate", f"{name}.json", *flag]
                yield "cli default " + " ".join(argv), _cli_run(argv)


def _cli_usage_commands():
    """Runs that each refuse a malformed flag."""
    for alphas in ("80,,95,75,110,", "80,95,75", "80,95,x,110"):
        yield ["vertex", "interval", "--alphas", alphas, "--branch", "1"]
        yield ["vertex", "solve", "--alphas", alphas, "--rho1", "10",
               "--branch", "1"]
    yield ["unit", "solve-ff", "--alphas", "80,x,60", "--mode", "10a-1"]
    yield ["vertex", "interval", "--alphas", "80,95,75,110", "--branch", "b1"]
    fold = "in/showcase_a.fold"
    for spec in ("1,1,1;1,1,1", "1,1,1;1,1;1,1,1", "1,1,1,1;1,1,1;1,1,1"):
        yield ["pattern", "certify", fold, "--branches", spec]
        yield ["pattern", "sweep", fold, "--out-dir", "out/frames",
               "--branches", spec]
    yield ["pattern", "certify", fold, "--samples", "1"]
    yield ["unit", "validate", "in/ff_unit.json", "--samples", "1"]


def cli_usage_texts():
    # argparse wraps a usage line to the terminal's width, read from COLUMNS
    with mock.patch.dict(os.environ, COLUMNS="80"), _cli_dir() as tmp:
        _write_inputs(tmp)
        for argv in _cli_usage_commands():
            yield "cli usage " + " ".join(argv), _cli_run(argv)


def large_sweep_texts():
    """The FOLD and OBJ text of each frame of a 12-frame sweep of
    `herringbone_plan(32, 32)`."""
    p = stitch(herringbone_plan(32, 32))
    for k, state in enumerate(sweep(p, n_frames=12).frames):
        yield (f"herringbone_32x32 frame {k} fold",
               fold_dumps(export_fold(state, pattern=p)))
        yield f"herringbone_32x32 frame {k} obj", export_obj(state, p)


def _unit_state(u) -> str:
    return repr((u.top.alpha, u.bottom.alpha, u.branch_top, u.branch_bottom,
                 u.signs, u.kind, u.mode))


def _any_outcome(fn) -> str:
    """repr of the result, or the type and message of any exception."""
    try:
        return repr(fn())
    except Exception as exc:  # a TypeError or ValueError belongs here too
        return f"{type(exc).__name__}: {exc}"


# sign pairs as `Unit` takes them and as a unit document states them
SIGN_PAIRS = ((1, -1), [1, -1], (True, True), (1.0, -1.0), (True, -1),
              (1, 1.0), (np.int64(1), np.int32(-1)), (np.bool_(True), 1),
              (1, 0), (2, -1), (1,), (1, 1, 1), "11", None)
MODE_TOKENS = [t for m in FFUnitMode
               for t in (m.value, m.value.upper(), f"  {m.value.upper()}\n")]
MODE_TOKENS += ["10a", "10a-3", "A_PLUS", "a_plus", "", "FFUnitMode.A_PLUS",
                7, None]


def unit_view_texts():
    fixture_plans = (showcase_a_plan(), showcase_b_plan(), herringbone_plan(),
                     square_grid_plan(), single_ff_unit_plan())
    views = [(f"fixture {k}", u) for k, u in enumerate(dict.fromkeys(
        u for plan in fixture_plans for u in plan.units()))]
    for label, make in units(random.Random(SEED + 1)):
        try:
            views.append((label, make()))
        except QuadfoldError:
            pass
    for label, u in views:
        yield (f"unit view {label}", "\n".join((
            repr(u.sector), _outcome(lambda: _unit_state(u.swapped())),
            _outcome(lambda: _unit_state(Unit.from_json(u.to_json()))))))
    for token in MODE_TOKENS:
        yield (f"mode token {token!r}",
               _any_outcome(lambda: FFUnitMode.from_token(token)))
    u = next(herringbone_plan(3, 3).units())
    doc = u.to_json()
    for signs in SIGN_PAIRS:
        yield (f"sign pair {signs!r} Unit", _any_outcome(
            lambda: _unit_state(dataclasses.replace(u, signs=signs))))
        listed = signs if signs is None or isinstance(signs, str) else [
            x.item() if isinstance(x, np.generic) else x for x in signs]
        yield (f"sign pair {signs!r} Unit.from_json", _any_outcome(
            lambda: _unit_state(Unit.from_json(dict(doc, signs=listed)))))
    plan = herringbone_plan(3, 3)
    listed = StitchPlan(columns=tuple(
        tuple(dataclasses.replace(u, signs=list(u.signs)) for u in col)
        for col in plan.columns), lengths=plan.lengths)
    yield ("sign pair lists stitch", _any_outcome(
        lambda: [[v.alpha for v in row] for row in stitch(listed).vertices]))


# `--mode` spellings: each mode's token upper-cased and padded, and refused
# tokens
MODE_FLAG_TOKENS = [t for m in FFUnitMode
                    for t in (m.value.upper(), f" {m.value.upper()}",
                              f"\t{m.value} \n")]
MODE_FLAG_TOKENS += ["10a-3", "10a", "A_PLUS", ""]


def _empty_pattern(m, n):
    return QuadPattern(m, n, (), (), None, np.zeros((m + 2, n + 2, 2)), ())


def _mv_maps(p):
    """Named mv maps of `p`: one per single fault, a crease keyed to None
    and a map with two faults."""
    _, a, b = next(e for e in p.edges() if e[0] != "boundary")
    _, c, d = next(e for e in p.edges() if e[0] == "boundary")
    nowhere = ((9, 9), (9, 10))
    return {
        "unknown key": {nowhere: "M"},
        "boundary letter": {(d, c): "V"},
        "crease letter": {(b, a): "X"},
        "two letters": {(a, b): "F", (b, a): "M"},
        "crease None": {(b, a): None},
        "crease letter then unknown key": {(b, a): "X", nowhere: "M"},
    }


def input_rule_texts():
    with mock.patch.dict(os.environ, COLUMNS="80"), _cli_dir():
        for token in MODE_FLAG_TOKENS:
            argv = ["unit", "solve-ff", "--alphas", "80,100,60", "--mode",
                    token]
            yield f"cli mode {token!r}", _cli_run(argv)
        yield "cli unit solve-ff -h", _cli_run(["unit", "solve-ff", "-h"])
    uses = {
        "export_fold": lambda p: fold_dumps(export_fold(p)),
        "export_svg": export_svg,
        "build_tree": lambda p: build_tree(p).cut_creases,
        "certify": lambda p: certify(p).summary(),
        "realize": lambda p: realize(p, Propagation(0.0, (), ())).coords,
    }
    for m, n in ((0, 0), (0, 2), (2, 0)):
        yield (f"empty pattern {m}x{n}",
               _any_outcome(lambda: _empty_pattern(m, n).grid.shape))
        for name, use in uses.items():
            yield (f"empty pattern {m}x{n} {name}",
                   _any_outcome(lambda: use(_empty_pattern(m, n))))
    p = stitch(showcase_a_plan())
    for name, mv in _mv_maps(p).items():
        yield (f"mv {name} export_fold",
               _any_outcome(lambda: fold_dumps(export_fold(p, mv))))
        yield f"mv {name} export_svg", _any_outcome(lambda: export_svg(p, mv))


def texts():
    """Every text the digest covers, labelled, in a fixed order."""
    yield from vertex_texts()
    yield from crease_texts()
    yield from hard_crease_texts()
    yield from fallback_crease_texts()
    yield from zero_lift_texts()
    yield from unit_texts()
    yield from degenerate_shared_texts()
    yield from mode_texts()
    yield from derived_texts()
    yield from walk_texts()
    yield from walk_refusal_texts()
    for name, plan in blankets():
        p = stitch(plan)
        choices = (*enumerate_branch_choices(p), BranchId.BRANCH_1,
                   BranchId.BRANCH_2)
        for k, choice in enumerate(choices):
            yield f"{name} certify {k}", _outcome(lambda: certify(p, choice))
        yield from _svg_texts(name, p)
        yield from _sweep_texts(name, p)
    yield from relayout_texts()
    yield from squashed_texts()
    yield from cli_texts()
    yield from ff_acceptance_texts()
    yield from twin_column_texts()
    yield from threshold_unit_texts()
    yield from large_sweep_texts()
    yield from cli_usage_texts()
    yield from unit_view_texts()
    yield from input_rule_texts()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Digest of quadfold's outputs over a fixed input set.")
    parser.add_argument("--texts", action="store_true",
                        help="print each text in full instead of its hash")
    args = parser.parse_args(argv)
    print(f"quadfold from {Path(quadfold.__file__).parent}", file=sys.stderr)
    total = hashlib.sha256()
    n = 0
    for label, text in texts():
        data = f"{label}\n{text}\n".encode()
        total.update(data)
        n += 1
        if args.texts:
            sys.stdout.flush()
            sys.stdout.buffer.write(f"--- {len(data)} bytes\n".encode() + data)
        else:
            print(f"{hashlib.sha256(data).hexdigest()[:16]}  {label}")
    print(f"{total.hexdigest()}  ({n} texts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
