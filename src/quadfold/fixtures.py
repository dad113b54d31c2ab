"""Reference pattern compositions used by the demos and the test suite.

Two showcase blankets, both 3x3 inner vertices (three columns of two units):

* `showcase_a` - four straight-line basic units in the outer columns and a
  flat-foldable unit with a flat-foldable basic unit stitched below it in the
  middle column.  Exactly one panel row ends up with parallel column creases,
  so the independent-sector-angle accounting reads 2 + 3 + 2 - 2 = 5, and
  every column admits a single branch of motion: 1 x 1 x 1 = 1.

* `showcase_b` - four identical-vertex generic units in the outer columns
  and two flat-foldable units stitched in the middle column.  Both panel rows
  are non-parallel: 3 + 3 + 1 + 3 - 4 = 6 independent sector angles, and the
  outer columns each fold on either of their two curve branches:
  2 x 1 x 2 = 4.

All angles are derived, not hard-coded: the free parameters below are fed
through the same closure conditions the stitcher enforces, so the panels of
the assembled blankets close exactly.
"""

from __future__ import annotations

import math

from .pattern import PlanLengths, StitchPlan
from .units import FFUnitMode, Unit, identical_vertex_unit, \
    make_flatfoldable_basic_unit, solve_ff_unit
from .vertex import TWO_PI, BranchId, Vertex4

_rad = math.radians


def _mirrored_pair(v: Vertex4, branch: BranchId, kind: str = "custom"):
    """Two identical-vertex units of `v`, the second hung below the first:
    mirroring twice gives `v` back exactly, so a column may alternate them."""
    top = identical_vertex_unit(v, branch, kind=kind)
    return top, identical_vertex_unit(top.bottom, branch, kind=kind)


def showcase_a_plan() -> StitchPlan:
    """Straight-line columns flanking a flat-foldable column.

    Outer-column vertices fold along horizontal straight lines; the middle
    column's design follows from requiring every inner panel to close and the
    lower panel row to come out with parallel column creases.  Two free
    choices remain (one sector angle per straight-line family)."""
    a = _rad(95.0)   # shared "a" angle of both straight-line vertices
    c = _rad(75.0)   # second free angle of the left column's vertex

    f1 = TWO_PI - 2.0 * c - a
    f3 = math.pi - a
    f4 = a
    f2 = FFUnitMode.A_MINUS.alpha4(f1, f4, f3)   # A-minus closure
    g = 0.5 * (f2 + f3)

    left_v = Vertex4((a, math.pi - a, c, math.pi - c))
    right_v = Vertex4((a, math.pi - a, g, math.pi - g))

    ff_unit = solve_ff_unit(f1, f2, f3, FFUnitMode.A_MINUS)
    ff_basic = make_flatfoldable_basic_unit(math.pi - f3, math.pi - f4)

    return StitchPlan(columns=(
        _mirrored_pair(left_v, BranchId.BRANCH_2, "straight_line"),
        (ff_unit, ff_basic),
        _mirrored_pair(right_v, BranchId.BRANCH_2, "straight_line"),
    ), lengths=PlanLengths())


def showcase_b_plan() -> StitchPlan:
    """Generic identical-vertex columns flanking two stitched flat-foldable
    units.  Six free sector angles survive the panel closures."""
    h1, h2, h3 = _rad(70.0), _rad(85.0), _rad(75.0)
    h4 = FFUnitMode.A_MINUS.alpha4(h1, h2, h3)
    h5 = _rad(80.0)
    h6 = FFUnitMode.A_MINUS.alpha4(math.pi - h3, math.pi - h4, h5)

    ff1 = solve_ff_unit(h1, h2, h3, FFUnitMode.A_MINUS)
    ff2 = solve_ff_unit(math.pi - h3, math.pi - h4, h5, FFUnitMode.A_MINUS)

    g4 = 0.5 * (h1 + h4)
    g1 = 0.5 * (math.pi - h3 + h6)
    g2 = _rad(98.0)
    g3 = TWO_PI - g1 - g2 - g4
    g_v = Vertex4((g1, g2, g3, g4))

    w3 = 0.5 * (h2 + h3)
    w2 = 0.5 * (math.pi - h4 + h5)
    w1 = _rad(85.0)
    w4 = TWO_PI - w1 - w2 - w3
    w_v = Vertex4((w1, w2, w3, w4))

    return StitchPlan(columns=(
        _mirrored_pair(g_v, BranchId.BRANCH_1),
        (ff1, ff2),
        _mirrored_pair(w_v, BranchId.BRANCH_1),
    ), lengths=PlanLengths())


def herringbone_plan(rows: int = 4, cols: int = 4, a_deg: float = 95.0,
                     c_deg: float = 75.0) -> StitchPlan:
    """Homogeneous blanket of one straight-line column repeated.

    Every column stacks mirrored copies of the vertex (a, pi-a, c, pi-c),
    whose fold line runs horizontally; the panel closures force adjacent
    columns to repeat the same vertex, giving an arbitrarily large
    herringbone-style blanket with two free sector angles.
    """
    v = Vertex4.from_degrees((a_deg, 180.0 - a_deg, c_deg, 180.0 - c_deg))
    pair = _mirrored_pair(v, BranchId.BRANCH_2, "straight_line")
    col = tuple(pair[k % 2] for k in range(rows - 1))
    return StitchPlan(columns=(col,) * cols)


def square_grid_plan(rows: int = 2, cols: int = 2) -> StitchPlan:
    """All-right-angle grid: every vertex (90, 90, 90, 90).

    Vertices sit on their horizontal line-segment motion so the pattern can
    be driven from the left crease (the top row folds, the rest stays flat).
    """
    v = Vertex4.from_degrees((90, 90, 90, 90))
    col = []
    top = v
    for _ in range(rows - 1):
        u = Unit(top=top, bottom=top.mirrored(),
                 branch_top=BranchId.LINE_SEGMENT_2,
                 branch_bottom=BranchId.LINE_SEGMENT_2,
                 signs=(1, 1), kind="double_collinear")
        col.append(u)
        top = u.bottom
    return StitchPlan(columns=tuple(tuple(col) for _ in range(cols)))


def single_ff_unit_plan(a1_deg=80.0, a2_deg=100.0, a3_deg=60.0,
                        mode: FFUnitMode = FFUnitMode.A_PLUS) -> StitchPlan:
    """Smallest interesting blanket: one flat-foldable unit, two vertices."""
    u = solve_ff_unit(_rad(a1_deg), _rad(a2_deg), _rad(a3_deg), mode)
    return StitchPlan(columns=((u,),))
