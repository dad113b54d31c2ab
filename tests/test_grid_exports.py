"""The point grid written once and read whole: the layout, its angle check
and the FOLD, OBJ and SVG exports against their point-by-point forms.

The reference functions below are verbatim copies of the point-by-point
implementations (renamed, `ref_export_obj` with its absolute 1e-12 zero-area
bound), and `_crease_letter` is a verbatim copy of the per-crease letter
lookup they used.  The array forms must give the same grid bytes,
directions, output text, and refusal type and message on every input here,
except where the OBJ zero-area bound now scales with the face.
"""

import math
import random
from dataclasses import replace
from typing import Optional, Union

import numpy as np
import pytest

from quadfold import (
    LayoutFailure,
    PlanLengths,
    QuadfoldError,
    SerializationError,
    Vertex4,
    certify,
    export_fold,
    export_obj,
    export_svg,
    fold_dumps,
    mv_assignment,
    stitch,
    sweep,
)
from quadfold import pattern as pattern_mod
from quadfold.config import TAU_LAYOUT
from quadfold.foldability import Propagation, mv_letter
from quadfold.foldio import (
    _CREASE_LETTERS,
    _FLOAT_FMT,
    _SVG_COLORS,
    _contradicts,
)
from quadfold.fixtures import (
    herringbone_plan,
    showcase_a_plan,
    showcase_b_plan,
    square_grid_plan,
)
from quadfold.pattern import (
    TWO_PI,
    QuadPattern,
    _check_faces,
    _check_panel_sums,
    _ray_intersection,
    _unit_vec,
    _vertex_directions,
)
from quadfold.realize import FoldedState

# ---------------------------------------------------------------------------
# point-by-point reference implementations
# ---------------------------------------------------------------------------


def ref_layout(vertices, lengths: PlanLengths):
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
    pos = [[None] * n for _ in range(m)]

    dirs[0][0] = _vertex_directions(vertices[0][0], dir_u=math.pi / 2)
    pos[0][0] = np.zeros(2)
    for j in range(1, n):
        dirs[0][j] = _vertex_directions(
            vertices[0][j], dir_l=dirs[0][j - 1][3] + math.pi
        )
        pos[0][j] = pos[0][j - 1] + lengths.top_at(j - 1) * _unit_vec(
            dirs[0][j - 1][3]
        )
    for i in range(1, m):
        dirs[i][0] = _vertex_directions(
            vertices[i][0], dir_u=dirs[i - 1][0][2] + math.pi
        )
        pos[i][0] = pos[i - 1][0] + lengths.left_at(i - 1) * _unit_vec(
            dirs[i - 1][0][2]
        )
        for j in range(1, n):
            dirs[i][j] = _vertex_directions(
                vertices[i][j], dir_u=dirs[i - 1][j][2] + math.pi
            )
            hit = _ray_intersection(
                pos[i - 1][j], dirs[i - 1][j][2], pos[i][j - 1], dirs[i][j - 1][3]
            )
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
            pos[i][j] = pos[i - 1][j] + t1 * _unit_vec(dirs[i - 1][j][2])

    b = lengths.boundary
    grid = np.zeros((m + 2, n + 2, 2))
    for i in range(m):
        for j in range(n):
            grid[i + 1, j + 1] = pos[i][j]
    for j in range(n):
        grid[0, j + 1] = pos[0][j] + b * _unit_vec(dirs[0][j][0])
        grid[m + 1, j + 1] = pos[m - 1][j] + b * _unit_vec(dirs[m - 1][j][2])
    for i in range(m):
        grid[i + 1, 0] = pos[i][0] + b * _unit_vec(dirs[i][0][1])
        grid[i + 1, n + 1] = pos[i][n - 1] + b * _unit_vec(dirs[i][n - 1][3])
    # paper corners by parallelogram completion
    grid[0, 0] = grid[1, 0] + grid[0, 1] - grid[1, 1]
    grid[0, n + 1] = grid[1, n + 1] + grid[0, n] - grid[1, n]
    grid[m + 1, 0] = grid[m, 0] + grid[m + 1, 1] - grid[m, 1]
    grid[m + 1, n + 1] = grid[m, n + 1] + grid[m + 1, n] - grid[m, n]

    ref_check_layout_angles(vertices, grid)
    _check_faces(grid)
    return grid, tuple(tuple(row) for row in dirs)

def ref_check_layout_angles(vertices, grid):
    """Measured sector angles of the placed layout must match the data;
    LayoutFailure names the first vertex and sector that do not."""
    m, n = len(vertices), len(vertices[0])
    for i in range(m):
        for j in range(n):
            p = grid[i + 1, j + 1]
            spokes = (
                grid[i, j + 1] - p,      # U
                grid[i + 1, j] - p,      # L
                grid[i + 2, j + 1] - p,  # D
                grid[i + 1, j + 2] - p,  # R
            )
            ang = [math.atan2(s[1], s[0]) for s in spokes]
            # sectors a1..a4 = R^U, U^L, L^D, D^R
            order = (3, 0, 1, 2)
            for k in range(4):
                got = (ang[order[(k + 1) % 4]] - ang[order[k]]) % TWO_PI
                want = vertices[i][j].alpha[k]
                if abs(got - want) > TAU_LAYOUT * 10:
                    raise LayoutFailure(
                        f"layout does not realize sector a{k + 1} at vertex "
                        f"({i},{j}): measured {got!r} vs {want!r}"
                    )

def _crease_letter(mv: dict, a: tuple, b: tuple) -> Optional[str]:
    """The letter `mv` gives the crease between grid points a and b, keyed
    either way round, or None where it gives none.  Anything but M, V or F
    is refused, naming the crease."""
    letter = mv.get((a, b))
    if letter is None:
        letter = mv.get((b, a))
    if letter is not None and letter not in _CREASE_LETTERS:
        raise SerializationError(
            f"crease {a}-{b} is assigned {letter!r}; a crease takes M, V "
            "or F")
    return letter

def ref_export_fold(obj: Union[QuadPattern, FoldedState], mv: Optional[dict] = None,
                *, pattern: Optional[QuadPattern] = None,
                angles: Optional[Propagation] = None) -> dict:
    """Build a FOLD document for a pattern (crease pattern) or folded frame.

    For a FoldedState the owning pattern must be supplied; `angles` (by
    default the Propagation the state was folded by) fills edges_foldAngle,
    and `mv` overrides the assignment letters `mv_letter` derives from the
    angle signs.  A letter that contradicts its angle as `import_fold`
    reads it (V on a negative angle, M on a positive one, F on one not
    below `TAU_FLAT`) is refused.
    """
    if isinstance(obj, QuadPattern):
        p, points, frame_class = obj, obj.grid, "creasePattern"
    elif isinstance(obj, FoldedState):
        if pattern is None:
            raise SerializationError("folded frames need their pattern")
        p, points, frame_class = pattern, obj.coords, "foldedForm"
        if angles is None:
            angles = obj.angles
    else:
        raise SerializationError(f"cannot export {type(obj).__name__}")
    coords = [[float(x) for x in points[r, c]]
              for r in range(p.m + 2) for c in range(p.n + 2)]

    edges_vertices = []
    assignment = []
    fold_angle = []
    for kind, a, b in p.edges():
        edges_vertices.append([p.point_index(*a), p.point_index(*b)])
        if kind == "boundary":
            assignment.append("B")
            fold_angle.append(0.0)
            continue
        angle = 0.0 if angles is None else angles.edge_angle(kind, a, b)
        letter = None if mv is None else _crease_letter(mv, a, b)
        if letter is None:
            letter = mv_letter(angle)
        if _contradicts(letter, math.degrees(angle)):
            raise SerializationError(
                f"assignment {letter} contradicts fold angle {angle!r}"
            )
        assignment.append(letter)
        fold_angle.append(math.degrees(angle))

    faces = [
        [p.point_index(*q) for q in p.face_corners(r, c)]
        for r, c in p.faces()
    ]
    doc = {
        "file_spec": 1.1,
        "file_creator": "quadfold",
        "file_classes": ["singleModel"],
        "frame_classes": [frame_class],
        "vertices_coords": coords,
        "edges_vertices": edges_vertices,
        "edges_assignment": assignment,
        "edges_foldAngle": fold_angle,
        "faces_vertices": faces,
        "quadfold:grid": [p.m, p.n],
    }
    if p.plan is not None:
        doc["quadfold:plan"] = p.plan.to_json()
    return doc

def ref_export_obj(state: FoldedState, pattern: QuadPattern) -> str:
    """Wavefront OBJ with quad faces; vertex order is grid row-major."""
    if not np.isfinite(state.coords).all():
        raise SerializationError("non-finite vertex coordinate in folded "
                                 "state; refusing to emit")
    lines = ["# quadfold folded state"]
    for r in range(pattern.m + 2):
        for c in range(pattern.n + 2):
            x, y, z = state.coords[r, c]
            lines.append("v " + " ".join(_FLOAT_FMT.format(v) for v in (x, y, z)))
    for r, c in pattern.faces():
        ids = [pattern.point_index(*q) + 1 for q in pattern.face_corners(r, c)]
        pts = [state.coords[q] for q in pattern.face_corners(r, c)]
        area = 0.5 * np.linalg.norm(
            np.cross(pts[2] - pts[0], pts[3] - pts[1])
        )
        if area < 1e-12:
            raise SerializationError(
                f"face ({r},{c}) has zero area; refusing to emit"
            )
        lines.append("f " + " ".join(str(i) for i in ids))
    return "\n".join(lines) + "\n"

def ref_export_svg(pattern: QuadPattern, mv: Optional[dict] = None) -> str:
    """Printable crease pattern: mountains red, valleys blue, flat grey,
    boundary black."""
    if pattern.m < 1 or pattern.n < 1:
        raise SerializationError("empty pattern")
    pts = pattern.grid.reshape(-1, 2)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    pad = 0.05 * max(span[0], span[1], 1e-9)
    view = (lo[0] - pad, -(hi[1] + pad), span[0] + 2 * pad, span[1] + 2 * pad)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{}">'.format(
            " ".join(_FLOAT_FMT.format(v) for v in view)
        ),
    ]
    for kind, a, b in pattern.edges():
        if kind == "boundary":
            letter = "B"
        elif mv is None:
            letter = "F"
        else:
            letter = _crease_letter(mv, a, b) or "F"
        xa, ya = pattern.grid[a]
        xb, yb = pattern.grid[b]
        lines.append(
            '<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="{}" '
            'stroke-width="0.01"/>'.format(
                _FLOAT_FMT.format(xa), _FLOAT_FMT.format(-ya),
                _FLOAT_FMT.format(xb), _FLOAT_FMT.format(-yb),
                _SVG_COLORS[letter]
            )
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

SEED = 15
N_RELAYOUTS = 40
N_FRAMES = 4


def _refusal(exc):
    return type(exc).__name__, str(exc)


def _layout_outcome(layout, vertices, lengths):
    """Grid bytes, shape and directions of a layout, or its refusal."""
    try:
        grid, dirs = layout(vertices, lengths)
    except QuadfoldError as exc:
        return _refusal(exc)
    return grid.tobytes(), grid.shape, dirs


def _parallel_grid():
    """A 2x2 vertex grid whose one panel closes (its sectors sum to 2*pi)
    but whose crease lines from (0,1) down and from (1,0) right are
    parallel: vertex (1,1) has a straight sector.  Crease lengths do not
    move directions, so no relayout of a blanket that lays out meets it."""
    v = Vertex4.from_degrees
    return ((v((100, 100, 100, 60)), v((100, 100, 60, 100))),
            (v((60, 100, 100, 100)), v((60, 180, 60, 60))))


@pytest.fixture(scope="module")
def bases():
    """(name, pattern): both showcases and seeded herringbones, square and
    not (a writer that swaps rows and columns fails the last two)."""
    out = [("showcase_a", stitch(showcase_a_plan())),
           ("showcase_b", stitch(showcase_b_plan())),
           ("herringbone_4x4", stitch(herringbone_plan(4, 4)))]
    rng = random.Random(SEED)
    for k in range(2):
        a, c = rng.uniform(93.0, 97.0), rng.uniform(70.0, 74.0)
        out.append((f"herringbone_8x8_{k}",
                    stitch(herringbone_plan(8, 8, a, c))))
    out += [("herringbone_3x6", stitch(herringbone_plan(3, 6))),
            ("herringbone_6x3", stitch(herringbone_plan(6, 3)))]
    return out


@pytest.fixture(scope="module")
def relayouts(bases):
    """(name, base pattern, lengths): 40 seeded relayouts of both showcases
    and the 4x4 herringbone, many of them refused."""
    rng = random.Random(SEED + 1)
    small = [p for _, p in bases[:3]]
    out = []
    for k in range(N_RELAYOUTS):
        base = small[k % len(small)]
        out.append((f"relayout {k}", base, PlanLengths(
            top=tuple(rng.uniform(0.2, 3.0) for _ in range(base.n - 1)),
            left=tuple(rng.uniform(0.2, 3.0) for _ in range(base.m - 1)),
            boundary=rng.uniform(0.2, 4.0))))
    return out


@pytest.fixture(scope="module")
def laid_out(bases, relayouts):
    """(name, pattern) of every input that lays out."""
    out = list(bases)
    for name, base, lengths in relayouts:
        try:
            out.append((name, base.relayout(lengths)))
        except LayoutFailure:
            pass
    return out


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


def test_layout_matches_reference(bases, relayouts):
    """Same grid bytes and directions, or the same refusal, on the blankets
    at their own lengths, the seeded relayouts and a parallel panel."""
    inputs = [(name, p.vertices, p.plan.lengths) for name, p in bases]
    inputs += [(name, p.vertices, lengths) for name, p, lengths in relayouts]
    inputs.append(("parallel", _parallel_grid(), PlanLengths()))
    refusals = []
    for name, vertices, lengths in inputs:
        got = _layout_outcome(pattern_mod._layout, vertices, lengths)
        assert got == _layout_outcome(ref_layout, vertices, lengths), name
        if isinstance(got[0], str):
            refusals.append(got[1])
    for named in ("are parallel", "folds back on itself",
                  "is not a simple counter-clockwise quadrilateral"):
        assert any(named in msg for msg in refusals), named
    assert len(refusals) < len(inputs) - len(bases)  # some relayouts kept


def test_layout_angle_check_matches_reference(bases):
    """The angle check passes the laid-out blankets and refuses, naming
    the same vertex, sector and measured angle, every half-degree
    `with_vertex` perturbation of the showcases."""
    def outcome(check, p):
        try:
            check(p.vertices, p.grid)
        except QuadfoldError as exc:
            return _refusal(exc)
        return None

    for name, p in bases:
        assert outcome(pattern_mod.check_layout_angles, p) is None, name
        assert outcome(ref_check_layout_angles, p) is None, name
    for name, p in bases[:2]:
        for i in range(p.m):
            for j in range(p.n):
                for k in range(4):
                    a = list(p.vertex(i, j).alpha)
                    a[k] += math.radians(0.5)
                    a[(k + 2) % 4] -= math.radians(0.5)
                    bad = p.with_vertex(i, j, Vertex4(a))
                    got = outcome(pattern_mod.check_layout_angles, bad)
                    assert got is not None
                    assert got == outcome(ref_check_layout_angles, bad), (
                        name, i, j, k)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_crease_pattern_exports_match_reference(laid_out):
    """FOLD and SVG text of every laid-out pattern, the SVG plain and
    coloured at half the certified driving angle."""
    for name, p in laid_out:
        assert (fold_dumps(export_fold(p))
                == fold_dumps(ref_export_fold(p))), name
        assert export_svg(p) == ref_export_svg(p), name
        report = certify(p)
        if report.verdict:
            mv = mv_assignment(p, None, 0.5 * report.interval[1])
            assert export_svg(p, mv) == ref_export_svg(p, mv), name


def test_frame_exports_match_reference(laid_out):
    """FOLD and OBJ text of every frame of a sweep of each laid-out
    pattern that certifies."""
    swept = 0
    for name, p in laid_out:
        try:
            motion = sweep(p, n_frames=N_FRAMES)
        except QuadfoldError:
            continue
        swept += 1
        for k, state in enumerate(motion.frames):
            assert (fold_dumps(export_fold(state, pattern=p))
                    == fold_dumps(ref_export_fold(state, pattern=p))), (
                name, k)
            assert export_obj(state, p) == ref_export_obj(state, p), (name, k)
    assert swept > len(laid_out) // 2


def _flat_state(rows=2, cols=2):
    p = stitch(square_grid_plan(rows, cols))
    return p, sweep(p, n_frames=1).frames[0]


@pytest.mark.parametrize("faces", [
    [(0, 0)], [(1, 1)], [(2, 1)], [(2, 2), (0, 1)],
])
def test_obj_zero_area_refusal_matches_reference(faces):
    """A face squashed to a point is refused by both forms, naming the
    same (first, row-major) face."""
    p, state = _flat_state()
    coords = state.coords.copy()
    for r, c in faces:
        coords[r:r + 2, c:c + 2] = coords[r, c]
    bad = replace(state, coords=coords)
    with pytest.raises(SerializationError, match="zero area") as got:
        export_obj(bad, p)
    with pytest.raises(SerializationError) as want:
        ref_export_obj(bad, p)
    assert str(got.value) == str(want.value)


def test_obj_non_finite_refusal_matches_reference():
    p, state = _flat_state()
    coords = state.coords.copy()
    coords[2, 1, 0] = math.inf
    bad = replace(state, coords=coords)
    with pytest.raises(SerializationError) as got:
        export_obj(bad, p)
    with pytest.raises(SerializationError) as want:
        ref_export_obj(bad, p)
    assert str(got.value) == str(want.value)


def test_obj_zero_area_bound_scales_with_the_face():
    """The one intended difference: at crease lengths 1e-6 every face is
    below the old absolute 1e-12 area bound, so the point-by-point form
    refused a frame that sweeps and verifies; the scaled bound emits it."""
    p = stitch(herringbone_plan(4, 4))
    tiny = p.relayout(PlanLengths(top=(1e-6,) * (p.n - 1),
                                  left=(1e-6,) * (p.m - 1), boundary=1e-6))
    state = sweep(tiny, n_frames=2).frames[1]
    with pytest.raises(SerializationError, match=r"face \(0,0\) has zero"):
        ref_export_obj(state, tiny)
    assert export_obj(state, tiny).count("\nf ") == (p.m + 1) * (p.n + 1)
