"""3D folded states: rotation oracle, panel assembly, rigidity checks, sweeps.

The loop-closure oracle is deliberately independent of every closed-form
transmission in :mod:`quadfold.vertex`: it only composes rotations about the
unfolded crease directions and measures the distance from the identity, so it
can certify those formulas without sharing any algebra with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .config import (DEFAULT_FRAMES, DEFAULT_SAMPLES, TAU_CLOSURE,
                     TAU_DEGENERATE, TAU_RIGID, check_count)
from .errors import ClosureViolation, RigidityViolation
from .foldability import (BranchChoice, Propagation, _propagation, _walk,
                          build_tree, certify, check_solved_grid, crease_slot)
from .pattern import QuadPattern, check_layout_angles
from .vertex import Vertex4, VertexSolution


def _rot3(ux, uy, uz, c, s):
    """Rotation matrix about the unit axis (ux, uy, uz) by the angle of
    cosine c and sine s, as nested tuples; elementwise over arrays c, s."""
    C = 1.0 - c
    return (
        (c + ux * ux * C, ux * uy * C - uz * s, ux * uz * C + uy * s),
        (uy * ux * C + uz * s, c + uy * uy * C, uy * uz * C - ux * s),
        (uz * ux * C - uy * s, uz * uy * C + ux * s, c + uz * uz * C),
    )


def _mat_mul(a, b):
    # straight-line for speed; the explicit 0.0 + ... is the left-to-right
    # float sum sum() computes
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return ((0.0 + a00 * b00 + a01 * b10 + a02 * b20,
             0.0 + a00 * b01 + a01 * b11 + a02 * b21,
             0.0 + a00 * b02 + a01 * b12 + a02 * b22),
            (0.0 + a10 * b00 + a11 * b10 + a12 * b20,
             0.0 + a10 * b01 + a11 * b11 + a12 * b21,
             0.0 + a10 * b02 + a11 * b12 + a12 * b22),
            (0.0 + a20 * b00 + a21 * b10 + a22 * b20,
             0.0 + a20 * b01 + a21 * b11 + a22 * b21,
             0.0 + a20 * b02 + a21 * b12 + a22 * b22))


def loop_closure_residual(v: Vertex4,
                          solution: Union[VertexSolution, Sequence[float]]
                          ) -> float:
    """Frobenius distance from identity of the composed crease rotations.

    The four creases are embedded in the plane by accumulating sector angles
    (c1 at angle 0, then a2, a3, a4 between consecutive creases) and each is
    rotated about by its folding angle, in counter-clockwise crease order.
    Zero means the four angles are a genuine rigid configuration of the
    vertex.
    """
    rho = solution.rho if isinstance(solution, VertexSolution) else tuple(solution)
    if len(rho) != 4:
        raise ValueError("need four folding angles")
    a = v.alpha
    angles = (0.0, a[1], a[1] + a[2], a[1] + a[2] + a[3])
    R = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    for phi, r in zip(angles, rho):
        if r == 0.0:
            continue
        R = _mat_mul(R, _rot3(math.cos(phi), math.sin(phi), 0.0,
                              math.cos(r), math.sin(r)))
    # the squared entries of R - I, summed row-major from 0.0
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    r00, r11, r22 = r00 - 1.0, r11 - 1.0, r22 - 1.0
    return math.sqrt(0.0 + r00 * r00 + r01 * r01 + r02 * r02 + r10 * r10
                     + r11 * r11 + r12 * r12 + r20 * r20 + r21 * r21
                     + r22 * r22)


def _rotations(points, dirs, angles) -> np.ndarray:
    """Homogeneous 4x4 rotations, (k, F, 4, 4): entry [i, f] turns about the
    line through points[i] along the unit dirs[i] by angles[i, f].  The
    trig is `math`'s, as in the oracle: numpy's may differ in the last bit."""
    flat = angles.ravel().tolist()
    c = np.array([math.cos(a) for a in flat]).reshape(angles.shape)
    s = np.array([math.sin(a) for a in flat]).reshape(angles.shape)
    # matmul takes BLAS's product only on contiguous operands; its own loop
    # (on a transposed view, say) rounds differently, so R is stacked whole
    R = np.stack([x for row in _rot3(*dirs.T[..., None], c, s) for x in row],
                 axis=-1).reshape(angles.shape + (3, 3))
    T = np.zeros(angles.shape + (4, 4))
    T[..., 3, 3] = 1.0
    T[..., :3, :3] = R
    T[..., :3, 3] = points[:, None] - (R @ points[:, None, :, None])[..., 0]
    return T


def _norms(x: np.ndarray) -> np.ndarray:
    # vecdot sums as the dot inside np.linalg.norm does: the same bits
    return np.sqrt(np.vecdot(x, x))


@dataclass(frozen=True, eq=False)
class FoldedState:
    """Rigidly folded embedding of the whole grid at one driving angle
    (`angles.driving`).

    Equality and hashing go by identity: the coordinates are an array.
    """

    coords: np.ndarray            # (m+2, n+2, 3)
    angles: Propagation           # the crease angles folded by
    rigidity_residual: float      # worst relative length/planarity deviation
    closure_residual: float       # worst vertex/cycle closure


# a face's corners (`face_corners`) as offsets from its (r, c); its edges
# and diagonals as corner pairs, (1, 0), (3, 0) and (2, 0) as planarity
# reads them: the two edges spanning the plane, the diagonal measured off it
_CORNER_DR, _CORNER_DC = np.array(QuadPattern.face_corners(0, 0)).T
_PAIR_A, _PAIR_B = np.array([1, 1, 2, 3, 2, 1]), np.array([0, 2, 3, 0, 0, 3])


def _place_column(coords, T, pts, c) -> tuple:
    """Place face column c, folded by its transforms T (face, frame, 4, 4),
    into coords and verify it: per frame, the column's worst corner gap and
    its worst strain (edges, diagonals, planarity).  Each check is a few
    array passes over the column's four corners or six corner pairs stacked,
    (frame, corner or pair, face): the extra memory is one column's."""
    m = T.shape[0] - 1
    # corner k of face r is grid point (r + dr[k], c + dc[k]): the layout's,
    # (face, corner, xyzw), and the face's own, (frame, corner, face, xyz);
    # one contiguous matrix-vector operand per corner, as in `_rotations`
    rows = np.arange(m + 1)[:, None] + _CORNER_DR
    corners = pts[rows, c + _CORNER_DC]
    own = (T[:, :, None] @ corners[:, None, :, :, None])[..., :3, 0]
    own = own.transpose(1, 2, 0, 3)
    # a corner belongs to the first face (row-major) that has it: the face
    # above-left of it, except on the top row and left column
    coords[:, 1:, c + 1] = own[:, 2]
    coords[:, 0, c + 1] = own[:, 3, 0]
    if c == 0:
        coords[:, 1:, 0] = own[:, 1]
        coords[:, 0, 0] = own[:, 0, 0]
    folded = coords[:, rows.T, c + _CORNER_DC[:, None]]
    # the face must agree with its corners' stored positions; a stack is
    # dropped once read, and fmax, as max(), keeps the running value over NaN
    gap = np.fmax.reduce(_norms(own - folded), axis=(1, 2))
    del own
    # congruence: edges and diagonals, each pair's length in the layout
    # (pair, face) and folded (frame, pair, face)
    d2 = _norms(corners[:, _PAIR_A, :2] - corners[:, _PAIR_B, :2]).T
    edges = folded[:, _PAIR_A] - folded[:, _PAIR_B]
    del folded
    d3 = _norms(edges)
    strain = np.fmax.reduce(np.abs(d3 - d2) / np.maximum(d2, 1.0),
                            axis=(1, 2))
    # planarity; with three corners collinear (two may coincide) the normal
    # is rounding noise, so the bound scales with the face
    nrm = np.cross(edges[:, 0], edges[:, 3])
    nn = _norms(nrm)
    scale = np.fmax(np.fmax(d3[:, 0], d3[:, 3]), 1.0)
    bent = nn > TAU_DEGENERATE * scale * scale
    off = np.zeros_like(nn)
    off[bent] = np.abs(np.vecdot(edges[:, 4][bent],
                                 nrm[bent] / nn[bent, None])) / scale[bent]
    return gap, np.fmax(strain, np.fmax.reduce(off, axis=1))


def _fold_frames(p: QuadPattern, sols, props) -> tuple:
    """Each propagation of `props` as a FoldedState, folded one face
    column at a time by the angles of `sols`, an m x n grid of solution
    lists (a walk's) whose entry k is frame k's.

    Column 0 chains down its rows, one matmul per row over the frames;
    every later column is one matmul of the column on its left with one
    rotation per (face, frame), then `_place_column`'s stacked checks.
    Every float is the one a face by face, frame by frame walk computes,
    and the extra memory is a few stacks of one column's transforms.  The
    oracle and the raises follow, frame by frame.
    """
    g = p.grid
    check_layout_angles(p.vertices, g)
    m, n, frames = p.m, p.n, len(props)
    coords = np.zeros((frames, m + 2, n + 2, 3))
    closure, rigidity = np.zeros((2, frames))
    # the grid points in the plane z = 0, homogeneous
    pts = np.concatenate([g, np.zeros(g.shape[:2] + (1,)),
                          np.ones(g.shape[:2] + (1,))], axis=2)

    def turns(kind, ends, sign):
        # crossing crease a->b from its right side to its left composes +rho
        slots = [crease_slot(m, n, kind, a, b) for a, b in ends]
        rho = np.array([[sign * s.rho[k] for s in sols[i][j][:frames]]
                        for i, j, k in slots])
        (ra, ca), (rb, cb) = np.array(ends).transpose(1, 2, 0)
        d = pts[rb, cb, :3] - pts[ra, ca, :3]
        d /= _norms(d)[:, None]
        return _rotations(pts[ra, ca, :3], d, rho)

    # the layout makes faces counter-clockwise, so face (r, c) lies left of
    # (r, c)->(r+1, c) and right of (r, c)->(r, c+1); the top-left face
    # stays in the plane
    T = np.empty((m + 1, frames, 4, 4))
    T[0] = np.eye(4)
    T[1:] = turns("row", [((r, 0), (r, 1)) for r in range(1, m + 1)], -1.0)
    for r in range(m):
        T[r + 1] = T[r] @ T[r + 1]
    for c in range(n + 1):
        if c > 0:
            T = T @ turns("col", [((r, c), (r + 1, c)) for r in range(m + 1)],
                          1.0)
        gap, strain = _place_column(coords, T, pts, c)
        closure = np.fmax(closure, gap)
        rigidity = np.fmax(rigidity, strain)

    # the oracle reads (sector angles, rho) only, and a blanket repeats a
    # few: a list twin columns share (the walk's, for equal vertices) is
    # read once, then each distinct state of a frame is checked once,
    # row-major as the whole grid would be
    lists = {id(c): (v, c) for vs, row in zip(p.vertices, sols)
             for v, c in zip(vs, row)}.values()
    for k in range(frames):
        distinct = {(v.alpha, c[k].rho): (v, c[k]) for v, c in lists}
        closure[k] = max(closure[k], *(loop_closure_residual(v, sol)
                                       for v, sol in distinct.values()))
        # a closure mismatch is the cause; a rigidity failure is its symptom
        if closure[k] > TAU_CLOSURE:
            raise ClosureViolation(
                f"fold angles are inconsistent: closure residual "
                f"{closure[k]:.3e} exceeds {TAU_CLOSURE:.1e}")
        if rigidity[k] > TAU_RIGID:
            raise RigidityViolation(
                f"panel deformation {rigidity[k]:.3e} exceeds {TAU_RIGID:.1e}")
    return tuple(FoldedState(coords[k], prop, float(rigidity[k]),
                             float(closure[k])) for k, prop in enumerate(props))


def realize(p: QuadPattern, prop: Propagation) -> FoldedState:
    """Fold the pattern by a propagation's crease angles.

    The faces fold one column at a time.  The top-left face stays in the
    plane; every other face composes its parent's transform (the face on
    its left, or above it in column 0) with the rotation about the crossed
    crease line by that crease's folding angle, places the corners no
    earlier face (row-major) reached and is verified: each corner where the
    earlier faces put it, the panel congruent to the layout (edge lengths,
    diagonals, planarity).  Column 0 chains down its rows; every later
    column takes one array pass.  The result is bit for bit that of a face
    by face walk.  Every vertex's folding angles must also close under the
    rotation oracle.  The fold follows the layout, so a layout that does not
    realize the vertex data (that of a `with_vertex` copy, which keeps its
    parent's) is refused with LayoutFailure first.  Before that, a
    propagation that does not solve the pattern's m x n grid is refused
    with ValueError.  `sweep` folds all its frames in the same passes.
    """
    check_solved_grid(p, prop)
    return _fold_frames(p, [[[s] for s in row] for row in prop.solutions],
                        [prop])[0]


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Folding motion sampled from the trivial state to the final state.

    Equality and hashing go by identity, as for its frames.
    """

    frames: tuple                 # FoldedState per sample
    driving_angles: tuple
    max_rigidity_residual: float
    max_closure_residual: float

    def __len__(self):
        return len(self.frames)


def sweep(p: QuadPattern, branch_choice: BranchChoice = None,
          n_frames: int = DEFAULT_FRAMES, *,
          n_samples: int = DEFAULT_SAMPLES) -> SweepResult:
    """Realize the folding motion over the certified interval.

    Frames run from the trivial state (driving angle 0) to the endpoint of
    the interval `certify` (memoised per pattern) gives for these
    arguments; a pattern it does not certify at `TAU_COMPAT` is refused
    with ClosureViolation.  One walk gives every frame's angles: its
    solution lists go to the column passes of `realize` as they are, all
    frames are folded and verified together, and the maxima of the
    per-frame residuals are reported.  Each frame's `angles` is the
    propagation `propagate` gives at its driving angle.  Where the walk
    refuses a frame, the frames before it are folded first, then its
    refusal is raised.  An `n_frames` that is not an integer >= 1 (a
    bool is not) is refused with ValueError, as are `certify`'s bad
    arguments.
    """
    check_count(n_frames, 1, "need at least one frame")
    report = certify(p, branch_choice, n_samples)
    if not report.verdict:
        raise ClosureViolation(
            f"cannot sweep an uncertified pattern: {report.reason}")
    t_end, tree = report.interval[1], build_tree(p)
    ts = tuple(0.0 if n_frames == 1 else t_end * k / (n_frames - 1)
               for k in range(n_frames))
    # the walk takes the branch grid the report certified
    sols, refused = _walk(p, report.branch_choice, ts)
    # frame by frame, the frames before a refused one come first
    props = [_propagation(tree, t, sols, k)
             for k, t in enumerate(ts[:min(refused, default=n_frames)])]
    frames = _fold_frames(p, sols, props) if props else ()
    if refused:
        raise refused[min(refused)]
    return SweepResult(
        frames=frames, driving_angles=ts,
        max_rigidity_residual=max(s.rigidity_residual for s in frames),
        max_closure_residual=max(s.closure_residual for s in frames))
