"""File interchange: FOLD documents, OBJ meshes and SVG crease patterns.

FOLD documents carry the crease pattern (2D) or a folded frame (3D) in the
standard fields plus a namespaced "quadfold:plan" block that allows lossless
reconstruction of the stitched pattern.  All floats are printed with 12
significant digits through a canonical serializer so identical inputs always
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Union

import numpy as np

from .config import TAU_DEGENERATE, TAU_FLAT, TAU_SVG_SPAN
from .errors import SerializationError
from .foldability import Propagation, check_solved_grid, mv_letter
from .pattern import QuadPattern, StitchPlan, stitch
from .realize import FoldedState, _norms
from .units import is_json_number

_FLOAT_FMT = "{:.12g}"
_OBJ_VERTEX = "v " + " ".join([_FLOAT_FMT] * 3)
_CREASE_LETTERS = ("M", "V", "F")
_FLAT_DEG = math.degrees(TAU_FLAT)


def _float_text(value) -> str:
    x = float(value)
    if not math.isfinite(x):
        raise SerializationError(f"non-finite float {x!r} in document")
    s = _FLOAT_FMT.format(x)
    return "0" if s == "-0" else s


# each type's writer, looked up by exact type; a value of another type (a
# numpy scalar, a subclass) takes the first writer whose types, in this
# order, it is an instance of.  A str is written by json.dumps's own encoder.
_WRITERS = {t: write for types, write in (
    ((bool,), lambda v: "true" if v else "false"),
    ((int, np.integer), lambda v: str(int(v))),
    ((float, np.floating), _float_text),
    ((str,), json.encoder.encode_basestring_ascii),
    ((type(None),), lambda v: "null"),
    ((list, tuple), lambda v: "[" + ",".join(map(_fmt, v)) + "]"),
    ((dict,), lambda v: "{" + ",".join(f"{_fmt(str(k))}:{_fmt(x)}"
                                       for k, x in sorted(v.items())) + "}"),
) for t in types}


def _fmt(value) -> str:
    write = _WRITERS.get(type(value))
    if write is None:
        write = next((w for t, w in _WRITERS.items() if isinstance(value, t)),
                     None)
        if write is None:
            raise SerializationError(
                f"cannot serialize {type(value).__name__}")
    return write(value)


def fold_dumps(doc: dict) -> str:
    """Canonical FOLD serialization: sorted keys, 12-significant-digit floats
    (-0 written 0).  Each value's writer is looked up in one table by exact
    type, a numpy scalar's or a subclass's by isinstance in table order."""
    return _fmt(doc)


def _contradicts(letter: str, angle_deg: float) -> bool:
    """Whether a crease letter contradicts its fold angle in degrees, as a
    document holds it: V below zero, M above, F at or beyond the flat
    threshold (`TAU_FLAT`)."""
    return (letter == "V" and angle_deg < 0 or letter == "M" and angle_deg > 0
            or letter == "F" and abs(angle_deg) >= _FLAT_DEG)


def _mv_letters(p: QuadPattern, mv: Optional[dict]) -> dict:
    """The letter `mv` gives each edge it names, keyed (a, b) as `p.edges()`
    gives the edge.  SerializationError names the first key, in `mv`'s
    order, that names no edge of `p` either way round, gives a boundary
    edge a letter other than B, gives an edge a second letter keyed the
    other way round, or gives a crease a letter other than M, V or F
    (None included)."""
    if mv is None:
        return {}
    edges = {}
    for kind, a, b in p.edges():
        edges[a, b] = edges[b, a] = (kind, a, b)
    letters = {}
    for key, letter in mv.items():
        if key not in edges:
            raise SerializationError(
                f"mv key {key!r} names no edge of the {p.m}x{p.n} pattern")
        kind, a, b = edges[key]
        if kind == "boundary" and letter != "B":
            raise SerializationError(
                f"boundary edge {a}-{b} is assigned {letter!r}; a boundary "
                "edge takes B")
        other = mv.get((b, a) if key == (a, b) else (a, b), letter)
        if other != letter:
            raise SerializationError(
                f"edge {a}-{b} is assigned both {letter!r} and {other!r}")
        if kind != "boundary" and letter not in _CREASE_LETTERS:
            raise SerializationError(
                f"crease {a}-{b} is assigned {letter!r}; a crease takes M, V "
                "or F")
        letters[a, b] = letter
    return letters


def _check_frame_shape(state: FoldedState, pattern: QuadPattern):
    """SerializationError unless the frame spans the pattern's point grid."""
    want = (pattern.m + 2, pattern.n + 2, 3)
    if state.coords.shape != want:
        raise SerializationError(
            f"frame coordinates have shape {state.coords.shape}; the "
            f"{pattern.m}x{pattern.n} pattern needs {want}")


def export_fold(obj: Union[QuadPattern, FoldedState], mv: Optional[dict] = None,
                *, pattern: Optional[QuadPattern] = None,
                angles: Optional[Propagation] = None) -> dict:
    """Build a FOLD document for a pattern (crease pattern) or folded frame.

    For a FoldedState the owning pattern, whose point grid the state spans,
    must be supplied; `angles` (by default the Propagation the state was
    folded by) fills edges_foldAngle, and `mv` overrides the assignment
    letters `mv_letter` derives from the angle signs.  A letter that
    contradicts its angle as `import_fold` reads it (V on a negative angle,
    M on a positive one, F on one not below `TAU_FLAT`) is refused, and so
    is an `mv` that `_mv_letters` refuses: a key that names no edge, a
    boundary edge letter other than B (`mv_assignment` gives B to each
    boundary edge), a crease letter other than M, V or F, or an edge keyed
    both ways round with two letters.  `angles` that do not solve the
    pattern's m x n grid are refused with SerializationError.
    """
    if isinstance(obj, QuadPattern):
        p, points, frame_class = obj, obj.grid, "creasePattern"
    elif isinstance(obj, FoldedState):
        if pattern is None:
            raise SerializationError("folded frames need their pattern")
        _check_frame_shape(obj, pattern)
        p, points, frame_class = pattern, obj.coords, "foldedForm"
        if angles is None:
            angles = obj.angles
    else:
        raise SerializationError(f"cannot export {type(obj).__name__}")
    if angles is not None:
        check_solved_grid(p, angles, SerializationError)
    letters = _mv_letters(p, mv)

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
        letter = letters.get((a, b)) or mv_letter(angle)
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
        "vertices_coords": points.reshape(-1, points.shape[-1]).tolist(),
        "edges_vertices": edges_vertices,
        "edges_assignment": assignment,
        "edges_foldAngle": fold_angle,
        "faces_vertices": faces,
        "quadfold:grid": [p.m, p.n],
    }
    if p.plan is not None:
        doc["quadfold:plan"] = p.plan.to_json()
    return doc


def _finite_number(x) -> bool:
    return is_json_number(x) and math.isfinite(x)


def import_fold(doc: Union[dict, str]) -> QuadPattern:
    """Rebuild a pattern from a FOLD document produced by export_fold.

    The pattern is re-stitched from the "quadfold:plan" block, and its own
    export defines the structure the document must have.  Text that is not
    JSON, or a document that is not an object, is refused.  So is a document
    whose "quadfold:grid", "edges_vertices" or "faces_vertices" differs from
    that export's in any entry, or whose "vertices_coords",
    "edges_assignment" or "edges_foldAngle" holds another number of
    entries.  Each vertex must be 2 or 3 finite numbers, all of one length,
    and each fold angle a finite number.  A boundary edge must be B with
    angle zero; a crease M, V or F agreeing with its angle: V not below
    zero, M not above, F of magnitude below the flat threshold (`TAU_FLAT`
    in degrees).  The coordinates are not compared with the layout.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise SerializationError(
            f"a FOLD document must be a JSON object, got "
            f"{type(doc).__name__}")
    for key in ("vertices_coords", "edges_vertices", "faces_vertices"):
        if key not in doc:
            raise SerializationError(f"FOLD document lacks {key}")
    if "quadfold:plan" not in doc:
        raise SerializationError(
            "document lacks quadfold:plan; cannot rebuild the pattern"
        )
    p = stitch(StitchPlan.from_json(doc["quadfold:plan"]))
    ref = export_fold(p)
    got = {**ref, **doc}  # an absent key is the export's
    for key in ("quadfold:grid", "vertices_coords", "edges_vertices",
                "faces_vertices", "edges_assignment", "edges_foldAngle"):
        if not isinstance(got[key], list) or len(got[key]) != len(ref[key]):
            raise SerializationError(
                f"{key} must be a list of {len(ref[key])} entries for "
                f"the {p.m}x{p.n} pattern of the plan")
    for k, xyz in enumerate(got["vertices_coords"]):
        if (not isinstance(xyz, list) or len(xyz) not in (2, 3)
                or len(xyz) != len(got["vertices_coords"][0])
                or not all(map(_finite_number, xyz))):
            raise SerializationError(
                f"vertices_coords[{k}] is {xyz!r}; expected 2 or 3 finite "
                "numbers, as many as vertices_coords[0] holds")
    for key in ("quadfold:grid", "edges_vertices", "faces_vertices"):
        for k, (have, want) in enumerate(zip(got[key], ref[key])):
            if have != want:
                raise SerializationError(
                    f"{key}[{k}] is {have!r}; the {p.m}x{p.n} pattern of "
                    f"the plan has {want!r} there")
    for k, (letter, ang, want, edge) in enumerate(zip(
            got["edges_assignment"], got["edges_foldAngle"],
            ref["edges_assignment"], ref["edges_vertices"])):
        where, allowed = (("boundary edge", ("B",)) if want == "B"
                          else ("crease", _CREASE_LETTERS))
        if letter not in allowed:
            raise SerializationError(
                f"edges_assignment[{k}] is {letter!r} on {where} {edge}; "
                f"a {where} takes {'/'.join(allowed)}")
        if not _finite_number(ang):
            raise SerializationError(
                f"edges_foldAngle[{k}] is {ang!r} on {where} {edge}; "
                "expected a finite number of degrees")
        if want == "B" and ang != 0:
            raise SerializationError(
                f"edges_foldAngle[{k}] is {ang!r} on boundary edge {edge}; "
                "a boundary edge does not fold")
        if _contradicts(letter, ang):
            raise SerializationError(
                f"edges_assignment[{k}] {letter} on crease {edge} "
                f"contradicts edges_foldAngle[{k}] {ang!r}")
    return p


def export_obj(state: FoldedState, pattern: QuadPattern) -> str:
    """Wavefront OBJ with quad faces; vertex order is grid row-major.  A face
    of area at most TAU_DEGENERATE (longer diagonal)^2 is refused as zero
    area, and so is a state whose coordinates are not the pattern's grid.
    A vertex line is one format of three `_FLOAT_FMT` fields; the face lines
    are `point_index` arithmetic."""
    _check_frame_shape(state, pattern)
    xs = state.coords
    if not np.isfinite(xs).all():
        raise SerializationError("non-finite vertex coordinate in folded "
                                 "state; refusing to emit")
    # the diagonals (r, c)->(r+1, c+1) and (r+1, c)->(r, c+1) of every face
    d1, d2 = xs[1:, 1:] - xs[:-1, :-1], xs[:-1, 1:] - xs[1:, :-1]
    area = 0.5 * _norms(np.cross(d1, d2))
    size = np.fmax(np.vecdot(d1, d1), np.vecdot(d2, d2))
    flat = ~(area > TAU_DEGENERATE * size)
    if flat.any():
        r, c = np.argwhere(flat)[0].tolist()
        raise SerializationError(
            f"face ({r},{c}) has zero area; refusing to emit")
    lines = ["# quadfold folded state"]
    lines += [_OBJ_VERTEX.format(*xyz) for xyz in xs.reshape(-1, 3).tolist()]
    # OBJ counts from 1; a face's corners (`face_corners`) as point-index
    # offsets from its (r, c), row-major by face
    k0, k1, k2, k3 = (pattern.point_index(*q) + 1
                      for q in pattern.face_corners(0, 0))
    for r, c in pattern.faces():
        q = pattern.point_index(r, c)
        lines.append("f %d %d %d %d" % (q + k0, q + k1, q + k2, q + k3))
    return "\n".join(lines) + "\n"


_SVG_COLORS = {"M": "#d62728", "V": "#1f77b4", "F": "#999999", "B": "#000000"}


def export_svg(pattern: QuadPattern, mv: Optional[dict] = None) -> str:
    """Printable crease pattern: mountains red, valleys blue, flat grey,
    boundary black.  `mv` is refused as `export_fold` refuses it."""
    letters = _mv_letters(pattern, mv)
    pts = pattern.grid.reshape(-1, 2)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    pad = 0.05 * max(span[0], span[1], TAU_SVG_SPAN)
    view = (lo[0] - pad, -(hi[1] + pad), span[0] + 2 * pad, span[1] + 2 * pad)
    g = pattern.grid.tolist()
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{}">'.format(
            " ".join(_FLOAT_FMT.format(v) for v in view)
        ),
    ]
    for kind, a, b in pattern.edges():
        letter = "B" if kind == "boundary" else (letters.get((a, b)) or "F")
        xa, ya = g[a[0]][a[1]]
        xb, yb = g[b[0]][b[1]]
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
