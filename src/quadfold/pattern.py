"""Quadrilateral blankets: stitch unit columns into a grid crease pattern.

Grid model
----------
A pattern has m*n inner vertices arranged in rows (index i, downward) and
columns (index j, rightward).  Every inner vertex carries four creases

    U (up), L (left), D (down), R (right)

which in the vertex labelling of :mod:`quadfold.vertex` are c1, c2, c3, c4.
Stored sector angles are therefore (a1, a2, a3, a4) = (R^U, U^L, L^D, D^R
sectors).  Units occupy vertically adjacent vertex pairs; adjacent units in a
column share a vertex, adjacent columns share their horizontal creases.

The planar layout spans a point grid with one ring of boundary points around
the inner vertices: grid point (r, c), r in 0..m+1, c in 0..n+1, with inner
vertex (i, j) at grid point (i+1, j+1).  Faces are the (m+1)*(n+1) grid
quads.  Interior crease lengths follow from intersecting crease lines; only
the top-row and left-column crease lengths (and the boundary stub length)
are free design inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .config import TAU_DEGENERATE, TAU_DIR, TAU_LAYOUT
from .errors import (
    IncompatibleUnits,
    LayoutFailure,
    NegativeDof,
    NotABlanket,
    ValidationFailed,
)
from .units import DOF_TABLE, _validated, is_json_number, json_keys, \
    json_numbers, unit_from_descriptor, valid_branch_pairs
from .vertex import TWO_PI, Vertex4, normalize_angle


@dataclass(frozen=True)
class PlanLengths:
    top: Optional[tuple] = None      # n-1 horizontal crease lengths in row 0
    left: Optional[tuple] = None     # m-1 vertical crease lengths in column 0
    boundary: float = 1.0

    def top_at(self, j: int) -> float:
        return 1.0 if self.top is None else self.top[j]

    def left_at(self, i: int) -> float:
        return 1.0 if self.left is None else self.left[i]


@dataclass(frozen=True)
class StitchPlan:
    """Ordered unit stacks, one per column, plus free crease lengths."""

    columns: tuple
    lengths: PlanLengths = field(default_factory=PlanLengths)

    def __post_init__(self):
        if not self.columns or any(len(col) == 0 for col in self.columns):
            raise NotABlanket("a plan needs at least one unit per column")
        heights = {len(col) for col in self.columns}
        if len(heights) != 1:
            raise NotABlanket(
                "all columns must stack the same number of units "
                f"(got heights {sorted(heights)})"
            )

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) + 1

    def units(self):
        for col in self.columns:
            yield from col

    def to_json(self) -> dict:
        doc = {"columns": [[u.to_json() for u in col] for col in self.columns]}
        if self.lengths.top is not None:
            doc["top_lengths"] = list(self.lengths.top)
        if self.lengths.left is not None:
            doc["left_lengths"] = list(self.lengths.left)
        if self.lengths.boundary != 1.0:
            doc["boundary_length"] = self.lengths.boundary
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "StitchPlan":
        if not isinstance(doc, dict):
            raise ValidationFailed(
                f"a plan must be a JSON object, got {doc!r}")
        json_keys(doc, ("columns", "top_lengths", "left_lengths",
                        "boundary_length"), "a plan")
        cols = doc.get("columns")
        if not isinstance(cols, (list, tuple)) or not all(
                isinstance(col, (list, tuple)) for col in cols):
            raise ValidationFailed(
                f"columns must be a list of unit lists, got {cols!r}")
        columns = tuple(tuple(unit_from_descriptor(d) for d in col)
                        for col in cols)
        top, left = (tuple(json_numbers(doc, key)) if key in doc else None
                     for key in ("top_lengths", "left_lengths"))
        boundary = doc.get("boundary_length", 1.0)
        if not is_json_number(boundary):
            raise ValidationFailed(
                f"boundary_length must be a number, got {boundary!r}")
        lengths = PlanLengths(top=top, left=left, boundary=float(boundary))
        return cls(columns=columns, lengths=lengths)


# ---------------------------------------------------------------------------
# pattern
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadPattern:
    """Immutable stitched blanket: vertex grid, layout and branch defaults.

    Equality and hashing go by identity: the layout is an array.  A pattern
    has at least one inner vertex: NotABlanket refuses m or n below 1.
    """

    m: int
    n: int
    vertices: tuple                  # m rows of n Vertex4
    branch_default: tuple            # m rows of n BranchId
    plan: Optional[StitchPlan]
    grid: np.ndarray                 # (m+2, n+2, 2) planar layout
    directions: tuple                # per vertex (U, L, D, R) planar angles
    # `certify`'s reports of this pattern, keyed by its arguments
    certified: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise NotABlanket("pattern has no inner vertices")
        self.grid.flags.writeable = False

    @classmethod
    def from_vertices(cls, vertices, branch_default,
                      lengths=None) -> "QuadPattern":
        """Build a blanket directly from a vertex grid (no unit provenance).

        Rigid-foldability certification applies to any grid of developable
        vertices; this constructor supports blankets that were not stitched
        from units.  NotABlanket refuses an empty or ragged vertex grid and
        a branch grid of another shape; the layout checks the panels.
        """
        vertices = tuple(tuple(row) for row in vertices)
        branch_default = tuple(tuple(row) for row in branch_default)
        m, n = len(vertices), len(vertices[0]) if vertices else 0
        for name, rows in (("vertices", vertices),
                           ("branch_default", branch_default)):
            if n == 0 or len(rows) != m or any(len(r) != n for r in rows):
                raise NotABlanket(
                    "vertices and branch_default must be grids of one "
                    f"non-empty shape; {name} has row lengths "
                    f"{[len(r) for r in rows]}")
        return _laid_out(vertices, branch_default, None,
                         lengths or PlanLengths())

    def vertex(self, i: int, j: int) -> Vertex4:
        return self.vertices[i][j]

    def point(self, r: int, c: int) -> np.ndarray:
        return self.grid[r, c]

    def point_index(self, r: int, c: int) -> int:
        return r * (self.n + 2) + c

    def faces(self):
        """Grid quads as (r, c) of their top-left corner."""
        return [(r, c) for r in range(self.m + 1) for c in range(self.n + 1)]

    @staticmethod
    def face_corners(r: int, c: int):
        return ((r, c), (r + 1, c), (r + 1, c + 1), (r, c + 1))

    def edges(self):
        """All grid edges as (kind, a, b) with kind 'col'/'row'/'boundary'.

        a, b are (r, c) grid coordinates; foldable creases are the vertical
        edges in columns 1..n and the horizontal edges in rows 1..m.
        """
        out = []
        for c in range(self.n + 2):
            for r in range(self.m + 1):
                kind = "col" if 1 <= c <= self.n else "boundary"
                out.append((kind, (r, c), (r + 1, c)))
        for r in range(self.m + 2):
            for c in range(self.n + 1):
                kind = "row" if 1 <= r <= self.m else "boundary"
                out.append((kind, (r, c), (r, c + 1)))
        return out

    def parallel_rows(self) -> tuple:
        """For each inner panel row, whether its column creases are parallel."""
        out = []
        for i in range(self.m - 1):
            dirs = [self.directions[i][j][2] for j in range(self.n)]
            ref = dirs[0]
            out.append(all(
                abs(normalize_angle(d - ref)) <= TAU_DIR for d in dirs[1:]
            ))
        return tuple(out)

    def with_vertex(self, i: int, j: int, v: Vertex4) -> "QuadPattern":
        """Copy with one vertex replaced, skipping all validation.

        Diagnostic helper: the result is generally *not* a valid blanket and
        exists so that certification can be exercised on broken input.  It
        keeps this pattern's layout and drops the plan, since no plan
        stitches the changed grid.
        """
        rows = [list(row) for row in self.vertices]
        rows[i][j] = v
        return replace(self, vertices=tuple(tuple(row) for row in rows),
                       plan=None)

    def relayout(self, lengths: PlanLengths) -> "QuadPattern":
        """Copy laid out with other free crease lengths, which the plan
        (if any) then records."""
        plan = self.plan and replace(self.plan, lengths=lengths)
        return _laid_out(self.vertices, self.branch_default, plan, lengths)


def _vertex_directions(v: Vertex4, dir_u=None, dir_l=None):
    """Planar angles of (U, L, D, R) creases given one anchor direction."""
    a = v.alpha
    if dir_u is None:
        dir_u = dir_l - a[1]
    else:
        dir_l = dir_u + a[1]
    dir_d = dir_l + a[2]
    dir_r = dir_d + a[3]
    return (dir_u, dir_l, dir_d, dir_r)


def _unit_vec(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _ray_intersection(p1, d1, p2, d2):
    """Parameters (t1, t2) with p1 + t1*u(d1) = p2 + t2*u(d2)."""
    u1, u2 = _unit_vec(d1), _unit_vec(d2)
    det = u1[0] * (-u2[1]) - (-u2[0]) * u1[1]
    if abs(det) < TAU_DEGENERATE:
        return None
    rhs = p2 - p1
    t1 = (rhs[0] * (-u2[1]) - (-u2[0]) * rhs[1]) / det
    t2 = (u1[0] * rhs[1] - rhs[0] * u1[1]) / det
    return t1, t2


def _laid_out(vertices, branches, plan, lengths: PlanLengths) -> QuadPattern:
    """The pattern of a vertex grid laid out with `lengths`."""
    grid, dirs = _layout(vertices, lengths)
    return QuadPattern(len(vertices), len(vertices[0]), vertices, branches,
                       plan, grid, dirs)


def _layout(vertices, lengths: PlanLengths):
    """Place the grid in the plane from sector angles and free lengths,
    checking every panel and every measured sector angle."""
    _check_panel_sums(vertices)
    m, n = len(vertices), len(vertices[0])
    for key, xs, want in (("top_lengths", lengths.top, n - 1),
                          ("left_lengths", lengths.left, m - 1),
                          ("boundary_length", (lengths.boundary,), 1)):
        if xs is not None and (len(xs) != want or not all(
                math.isfinite(x) and x > 0.0 for x in xs)):
            raise LayoutFailure(
                f"{key} must hold {want} positive, finite lengths for "
                f"{m}x{n} inner vertices, got {xs!r}")
    dirs = [[None] * n for _ in range(m)]
    grid = np.zeros((m + 2, n + 2, 2))  # inner vertex (i, j) at (i+1, j+1)

    dirs[0][0] = _vertex_directions(vertices[0][0], dir_u=math.pi / 2)
    for j in range(1, n):
        dirs[0][j] = _vertex_directions(
            vertices[0][j], dir_l=dirs[0][j - 1][3] + math.pi
        )
        grid[1, j + 1] = grid[1, j] + lengths.top_at(j - 1) * _unit_vec(
            dirs[0][j - 1][3]
        )
    for i in range(1, m):
        dirs[i][0] = _vertex_directions(
            vertices[i][0], dir_u=dirs[i - 1][0][2] + math.pi
        )
        grid[i + 1, 1] = grid[i, 1] + lengths.left_at(i - 1) * _unit_vec(
            dirs[i - 1][0][2]
        )
        for j in range(1, n):
            dirs[i][j] = _vertex_directions(
                vertices[i][j], dir_u=dirs[i - 1][j][2] + math.pi
            )
            hit = _ray_intersection(grid[i, j + 1], dirs[i - 1][j][2],
                                    grid[i + 1, j], dirs[i][j - 1][3])
            if hit is None:
                raise LayoutFailure(
                    f"crease lines bounding panel ({i - 1},{j - 1}) are "
                    "parallel; no intersection",
                    panel=(i - 1, j - 1),
                )
            t1, t2 = hit
            if t1 <= 0 or t2 <= 0:
                raise LayoutFailure(
                    f"panel ({i - 1},{j - 1}) folds back on itself "
                    f"(intersection parameters {t1:.3g}, {t2:.3g})",
                    panel=(i - 1, j - 1),
                )
            grid[i + 1, j + 1] = grid[i, j + 1] + t1 * _unit_vec(
                dirs[i - 1][j][2])

    b = lengths.boundary
    for j in range(n):
        grid[0, j + 1] = grid[1, j + 1] + b * _unit_vec(dirs[0][j][0])
        grid[m + 1, j + 1] = grid[m, j + 1] + b * _unit_vec(dirs[m - 1][j][2])
    for i in range(m):
        grid[i + 1, 0] = grid[i + 1, 1] + b * _unit_vec(dirs[i][0][1])
        grid[i + 1, n + 1] = grid[i + 1, n] + b * _unit_vec(dirs[i][n - 1][3])
    # paper corners by parallelogram completion
    grid[0, 0] = grid[1, 0] + grid[0, 1] - grid[1, 1]
    grid[0, n + 1] = grid[1, n + 1] + grid[0, n] - grid[1, n]
    grid[m + 1, 0] = grid[m, 0] + grid[m + 1, 1] - grid[m, 1]
    grid[m + 1, n + 1] = grid[m, n + 1] + grid[m + 1, n] - grid[m, n]

    check_layout_angles(vertices, grid)
    _check_faces(grid)
    return grid, tuple(tuple(row) for row in dirs)


def _check_faces(grid):
    """Every face must be a simple counter-clockwise quadrilateral in its
    corner order (`QuadPattern.face_corners`): positive signed area and at
    most one corner turning clockwise by more than TAU_DEGENERATE (longest
    edge)^2.  Coincident or collinear corners pass; a crossing (bow-tie) or
    inverted face is refused with LayoutFailure naming it."""
    pts = grid.tolist()
    for r in range(len(pts) - 1):
        for c in range(len(pts[0]) - 1):
            q = [pts[a][b] for a, b in QuadPattern.face_corners(r, c)]
            nxt = q[1:] + q[:1]
            ex = [b[0] - a[0] for a, b in zip(q, nxt)]  # edge k: k -> k+1
            ey = [b[1] - a[1] for a, b in zip(q, nxt)]
            area = sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(q, nxt))
            tol = TAU_DEGENERATE * max(x * x + y * y for x, y in zip(ex, ey))
            clockwise = sum(ex[k - 1] * ey[k] - ey[k - 1] * ex[k] < -tol
                            for k in range(4))
            if not area > 0.0 or clockwise > 1:
                raise LayoutFailure(
                    f"face ({r},{c}) is not a simple counter-clockwise "
                    f"quadrilateral: it crosses itself or is inverted "
                    f"(signed area {0.5 * area:.3g}, {clockwise} corners "
                    "turning clockwise)")


def _check_panel_sums(vertices):
    """Every inner panel's four sector angles must sum to 2*pi within
    TAU_LAYOUT; IncompatibleUnits names the first panel that does not."""
    for i in range(len(vertices) - 1):
        for j in range(len(vertices[0]) - 1):
            total = (vertices[i][j].alpha[3] + vertices[i + 1][j].alpha[0]
                     + vertices[i + 1][j + 1].alpha[1]
                     + vertices[i][j + 1].alpha[2])
            if abs(total - TWO_PI) > TAU_LAYOUT:
                raise IncompatibleUnits(
                    f"inner panel ({i},{j}) sector angles sum to {total!r}, "
                    "expected 2*pi; adjacent columns do not fit"
                )


def check_layout_angles(vertices, grid):
    """Measured sector angles of the placed layout must match the data;
    LayoutFailure names the first vertex and sector that do not."""
    g = grid.tolist()
    for i, row in enumerate(vertices):
        for j, v in enumerate(row):
            px, py = g[i + 1][j + 1]
            # spokes R, U, L, D: sector a(k+1) turns from spoke k to k+1
            ang = [math.atan2(y - py, x - px) for x, y in (
                g[i + 1][j + 2], g[i][j + 1], g[i + 1][j], g[i + 2][j + 1])]
            for k in range(4):
                got = (ang[(k + 1) % 4] - ang[k]) % TWO_PI
                want = v.alpha[k]
                if abs(got - want) > TAU_LAYOUT * 10:
                    raise LayoutFailure(
                        f"layout does not realize sector a{k + 1} at vertex "
                        f"({i},{j}): measured {got!r} vs {want!r}"
                    )


def stitch(plan: StitchPlan) -> QuadPattern:
    """Assemble a plan into a pattern, checking shared vertices and panels.

    Raises IncompatibleUnits for mismatched shared sector angles or branch
    assignments, ValidationFailed for a unit that `_acceptance_residual`,
    the one unit rule, refuses (exactly for two flat-foldable curves, by a
    `UNIT_SAMPLES`-sample sweep otherwise), and LayoutFailure when the
    planar layout cannot be realized.
    """
    m, n = plan.n_rows, plan.n_cols
    vertices = [[None] * n for _ in range(m)]
    branches = [[None] * n for _ in range(m)]
    accepted = set()  # equal units check once

    for j, col in enumerate(plan.columns):
        for k, u in enumerate(col):
            if u not in accepted:
                accepted.add(_validated(
                    u, f"unit {k} of column {j} fails validation "
                       "(max residual {:.3e})"))
            if k == 0:
                vertices[0][j] = u.top
                branches[0][j] = u.branch_top
            else:
                if not vertices[k][j].isclose(u.top):
                    raise IncompatibleUnits(
                        f"column {j}: unit {k} top vertex does not match the "
                        f"unit above (shared vertex ({k},{j}))"
                    )
                if branches[k][j] is not u.branch_top:
                    raise IncompatibleUnits(
                        f"column {j}: units {k - 1} and {k} assign different "
                        f"branches to shared vertex ({k},{j})"
                    )
            vertices[k + 1][j] = u.bottom
            branches[k + 1][j] = u.branch_bottom

    vertices = tuple(tuple(row) for row in vertices)
    branches = tuple(tuple(row) for row in branches)
    return _laid_out(vertices, branches, plan, plan.lengths)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DofReport:
    """Independent-sector-angle accounting of a plan.

    `unit_terms` lists every unit's contribution in column-major stitching
    order (zeros included); `terms` is the same list with zeros dropped, which
    is how the totals are conventionally written.  `row_deductions` holds the
    inner-panel count charged to each non-parallel panel row.
    """

    unit_terms: tuple
    row_deductions: tuple
    branch_count: int

    @property
    def terms(self) -> tuple:
        return tuple(t for t in self.unit_terms if t != 0)

    @property
    def deduction(self) -> int:
        return sum(self.row_deductions)

    @property
    def total(self) -> int:
        return sum(self.unit_terms) - self.deduction

    def caption(self) -> str:
        parts = " + ".join(str(t) for t in self.terms)
        if self.deduction:
            return f"{parts} - {self.deduction} = {self.total}"
        return f"{parts} = {self.total}"


def count_dof(plan: StitchPlan) -> DofReport:
    """Count independent sector angles unit by unit.

    Each column's first unit contributes its kind's base count and every
    further stitched unit the kind's stitch increment (`DOF_TABLE`, from
    `units`); each inner-panel row whose column creases are not parallel in
    the layout deducts its number of inner panels.  Raises NegativeDof when
    the total goes negative, and whatever `stitch` raises for the plan
    (ValidationFailed for a failing unit).
    """
    pattern = stitch(plan)
    unit_terms = []
    for col in plan.columns:
        for k, u in enumerate(col):
            base, inc = DOF_TABLE[u.kind]
            unit_terms.append(base if k == 0 else inc)
    deductions = []
    n_inner = plan.n_cols - 1
    for parallel in pattern.parallel_rows():
        deductions.append(0 if parallel else n_inner)
    report = DofReport(tuple(unit_terms), tuple(deductions),
                       count_branches(plan))
    if report.total < 0:
        raise NegativeDof(
            f"plan over-constrained: {report.caption()} is negative"
        )
    return report


def branch_chains(plan: StitchPlan) -> list:
    """Each column's consistent, transmitting branch chains, top vertex
    first: one list per column, in the list order of valid_branch_pairs."""
    # equal units ask once
    pairs = {u: valid_branch_pairs(u) for u in dict.fromkeys(plan.units())}
    out = []
    for col in plan.columns:
        chains = [(bt, bb) for bt, bb, _ in pairs[col[0]]]
        for u in col[1:]:
            chains = [c + (bb,) for c in chains
                      for bt, bb, _ in pairs[u] if bt is c[-1]]
        out.append(chains)
    return out


def count_branches(plan: StitchPlan) -> int:
    """Number of branch assignments of the whole pattern: the product over
    columns of each column's consistent, transmitting branch chains."""
    return math.prod(len(chains) for chains in branch_chains(plan))
