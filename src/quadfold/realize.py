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

from .config import DEFAULT_SAMPLES, TAU_CLOSURE, TAU_COMPAT, TAU_RIGID
from .errors import ClosureViolation, RigidityViolation
from .foldability import BranchChoice, Propagation, build_tree, certify, propagate
from .pattern import QuadPattern, check_layout_angles
from .vertex import Vertex4, VertexSolution


def _rot3(ux: float, uy: float, uz: float, angle: float):
    """Rotation matrix about the unit axis (ux, uy, uz), as nested lists."""
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return (
        (c + ux * ux * C, ux * uy * C - uz * s, ux * uz * C + uy * s),
        (uy * ux * C + uz * s, c + uy * uy * C, uy * uz * C - ux * s),
        (uz * ux * C - uy * s, uz * uy * C + ux * s, c + uz * uz * C),
    )


def _mat_mul(a, b):
    # the explicit 0.0 + ... is the left-to-right float sum sum() computes
    return tuple(
        tuple(0.0 + a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
              for j in range(3))
        for i in range(3)
    )


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
        R = _mat_mul(R, _rot3(math.cos(phi), math.sin(phi), 0.0, r))
    s = 0.0
    for i in range(3):
        for j in range(3):
            d = R[i][j] - (1.0 if i == j else 0.0)
            s += d * d
    return math.sqrt(s)


def _rot_about_line(point: np.ndarray, direction: np.ndarray,
                    angle: float) -> np.ndarray:
    """Homogeneous 4x4 rotation about the line through `point` along
    `direction` (unit vector)."""
    ux, uy, uz = direction
    R = np.array(_rot3(ux, uy, uz, angle))
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = point - R @ point
    return T


@dataclass(frozen=True)
class FoldedState:
    """Rigidly folded embedding of the whole grid at one driving angle
    (`angles.driving`)."""

    coords: np.ndarray            # (m+2, n+2, 3)
    angles: Propagation           # the crease angles folded by
    rigidity_residual: float      # worst relative length/planarity deviation
    closure_residual: float       # worst vertex/cycle closure


def realize(p: QuadPattern, prop: Propagation) -> FoldedState:
    """Fold the pattern by a propagation's crease angles.

    One row-major walk over the faces.  The top-left face stays in the
    plane; every other face composes the transform of its walk parent (the
    face on its left, or above it in column 0) with the rotation about the
    crossed crease line by that crease's folding angle.  The face then
    places the corners no earlier face reached and is verified: each corner
    where the earlier faces put it, and the panel congruent to the layout
    (edge lengths, diagonals, planarity).  Every vertex's folding angles
    must also close under the rotation oracle.  The walk folds the layout,
    so a layout that does not realize the vertex data (that of a
    `with_vertex` copy, which keeps its parent's) is refused with
    LayoutFailure first.
    """
    grid2 = p.grid
    check_layout_angles(p.vertices, grid2)
    coords = np.zeros((p.m + 2, p.n + 2, 3))
    transforms = {}
    closure = 0.0
    rigidity = 0.0
    for r, c in p.faces():
        if (r, c) == (0, 0):
            T = np.eye(4)
        else:
            # crossing from the crease's right side to its left composes
            # +rho.  Faces are counter-clockwise (the layout guarantees it),
            # so face (r, c) lies left of (r, c)->(r+1, c) and right of
            # (r, c)->(r, c+1).
            if c > 0:
                # shared vertical edge
                parent, kind, a_pt, b_pt = (r, c - 1), "col", (r, c), (r + 1, c)
                sign = 1.0
            else:
                parent, kind, a_pt, b_pt = (r - 1, c), "row", (r, c), (r, c + 1)
                sign = -1.0
            pa = np.array([*grid2[a_pt], 0.0])
            pb = np.array([*grid2[b_pt], 0.0])
            d = pb - pa
            d /= np.linalg.norm(d)
            T = transforms[parent] @ _rot_about_line(
                pa, d, sign * prop.edge_angle(kind, a_pt, b_pt)
            )
        transforms[(r, c)] = T
        corners = p.face_corners(r, c)
        flat = [grid2[q] for q in corners]
        own = [(T @ np.array([*q2, 0.0, 1.0]))[:3] for q2 in flat]
        # a corner belongs to the first face of the walk that has it: the
        # face above-left of it, except on the top row and left column
        for (qr, qc), x in zip(corners, own):
            if (qr > r or r == 0) and (qc > c or c == 0):
                coords[qr, qc] = x
        folded = [coords[q] for q in corners]
        # the face must agree with its corners' stored positions
        for x, q3 in zip(own, folded):
            closure = max(closure, float(np.linalg.norm(x - q3)))
        # congruence: edges and diagonals
        idx = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3))
        for a_i, b_i in idx:
            d2 = np.linalg.norm(flat[a_i] - flat[b_i])
            d3 = np.linalg.norm(folded[a_i] - folded[b_i])
            rigidity = max(rigidity, abs(d3 - d2) / max(d2, 1.0))
        # planarity; with three corners collinear (two may coincide) the face
        # is planar and its normal is rounding noise, so the bound scales
        # with the face
        e1 = folded[1] - folded[0]
        e2 = folded[3] - folded[0]
        nrm = np.cross(e1, e2)
        nn = np.linalg.norm(nrm)
        scale = max(np.linalg.norm(e1), np.linalg.norm(e2), 1.0)
        if nn > 1e-12 * scale * scale:
            off = abs(float(np.dot(folded[2] - folded[0], nrm / nn)))
            rigidity = max(rigidity, off / scale)

    for i in range(p.m):
        for j in range(p.n):
            res = loop_closure_residual(p.vertex(i, j), prop.solutions[i][j])
            closure = max(closure, res)

    # inconsistent input angles show up as closure mismatch first;
    # rigidity failures on top of closure are a symptom, not the cause
    if closure > TAU_CLOSURE:
        raise ClosureViolation(
            f"fold angles are inconsistent: closure residual "
            f"{closure:.3e} exceeds {TAU_CLOSURE:.1e}"
        )
    if rigidity > TAU_RIGID:
        raise RigidityViolation(
            f"panel deformation {rigidity:.3e} exceeds {TAU_RIGID:.1e}"
        )
    return FoldedState(coords=coords, angles=prop,
                       rigidity_residual=rigidity, closure_residual=closure)


@dataclass(frozen=True)
class SweepResult:
    """Folding motion sampled from the trivial state to the final state."""

    frames: tuple                 # FoldedState per sample
    driving_angles: tuple
    max_rigidity_residual: float
    max_closure_residual: float

    def __len__(self):
        return len(self.frames)


def sweep(p: QuadPattern, branch_choice: BranchChoice = None,
          n_frames: int = 30, *, n_samples: int = DEFAULT_SAMPLES,
          compat_tol: float = TAU_COMPAT) -> SweepResult:
    """Realize the folding motion over the certified interval.

    Frames run from the trivial state (driving angle 0) to the certified
    interval endpoint.  Each frame is fully verified; the maxima of the
    per-frame residuals are reported.  `compat_tol` is the certification
    bound (see `certify`).
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    report = certify(p, branch_choice, n_samples, compat_tol=compat_tol)
    if not report.verdict:
        raise ClosureViolation(
            f"cannot sweep an uncertified pattern: {report.reason}"
        )
    t_end = report.interval[1]
    tree = build_tree(p)
    frames = []
    ts = []
    worst_r = worst_c = 0.0
    for k in range(n_frames):
        t = 0.0 if n_frames == 1 else t_end * k / (n_frames - 1)
        prop = propagate(tree, t, branch_choice)
        state = realize(p, prop)
        frames.append(state)
        ts.append(t)
        worst_r = max(worst_r, state.rigidity_residual)
        worst_c = max(worst_c, state.closure_residual)
    return SweepResult(frames=tuple(frames), driving_angles=tuple(ts),
                       max_rigidity_residual=worst_r,
                       max_closure_residual=worst_c)
