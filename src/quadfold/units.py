"""Units: two degree-4 vertices sharing two panels, with matched transmissions.

A unit joins a top vertex and a bottom vertex along one connecting crease.
Both vertices are stored in the same grid orientation, with creases

    c1 = up, c2 = left, c3 = down, c4 = right,

so the connecting crease is the top vertex's c3 and the bottom vertex's c1.
The seven folding-angle slots are::

    rho1  connecting crease
    rho2  top-left     rho4  top-right     rho3  top outward (up)
    rho5  bottom-left  rho7  bottom-right  rho6  bottom outward (down)

A structurally valid unit keeps |rho2| = |rho5| and |rho4| = |rho7| along the
whole shared motion; `signs` = (s2, s4) records the sign relations
rho2 = s2*rho5 and rho4 = s4*rho7.

The "role" labelling of a vertex inside a unit puts its two sector angles
adjacent to the connecting crease at positions 3 and 4: for the top vertex
that is the stored labelling itself, for the bottom vertex it is the stored
labelling cyclically shifted by two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from numbers import Integral
from typing import Optional

from .config import (DEFAULT_SAMPLES, TAU_EMPTY, TAU_FLAT, TAU_POLE, TAU_UNIT,
                     UNIT_SAMPLES, check_count)
from .errors import (
    DegenerateVertex,
    EmptyInterval,
    InvalidAngle,
    OutOfDomain,
    ValidationFailed,
    WrongClass,
)
from .vertex import (
    CURVE_BRANCHES,
    BranchId,
    ClassTag,
    Vertex4,
    _branch_param,
    _drive,
    _FFCurve,
    _solved,
    _state,
    classify,
    normalize_angle,
    cyclic_shift,
    symmetric_grid,
)


def _tan_half(x: float) -> float:
    return math.tan(x / 2.0)


class FFUnitMode(Enum):
    """The four surviving sign choices when both vertices are flat-foldable.

    A modes pair the first curve branch on both vertices, C modes the second.
    `from_token` reads a mode from its value, case and surrounding space
    ignored, for the CLI's `--mode` and a unit document's or descriptor's
    `mode` alike.
    """

    A_PLUS = "10a-1"
    A_MINUS = "10a-2"
    C_PLUS = "10b-1"
    C_MINUS = "10b-2"

    @classmethod
    def from_token(cls, token: str) -> "FFUnitMode":
        try:
            return cls(str(token).strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown flat-foldable unit mode {token!r}") from None

    @property
    def branch(self) -> BranchId:
        return _FF_MODE_ROWS[self][0]

    @property
    def signs(self) -> tuple:
        return _FF_MODE_ROWS[self][1]

    def alpha4(self, a1: float, a2: float, a3: float) -> float:
        t4 = _FF_MODE_ROWS[self][2]
        return 2.0 * math.atan(t4(_tan_half(a1), _tan_half(a2), _tan_half(a3)))


# each mode's row: the curve branch of both vertices, the sign pair (s2, s4)
# and the tan-half identity t4(t1, t2, t3) that fixes alpha4
_FF_MODE_ROWS = {
    FFUnitMode.A_PLUS: (BranchId.BRANCH_1, (-1, -1),
                        lambda t1, t2, t3: t2 * t3 / t1),
    FFUnitMode.A_MINUS: (BranchId.BRANCH_1, (1, 1),
                         lambda t1, t2, t3: t1 * t3 / t2),
    FFUnitMode.C_PLUS: (BranchId.BRANCH_2, (1, 1),
                        lambda t1, t2, t3: t1 * t2 / t3),
    FFUnitMode.C_MINUS: (BranchId.BRANCH_2, (-1, -1),
                         lambda t1, t2, t3: 1.0 / (t1 * t2 * t3)),
}


@dataclass(frozen=True)
class UnitState:
    """Folding angles of the seven unit creases at one configuration."""

    rho: tuple  # (rho1 .. rho7)

    @property
    def degrees(self) -> tuple:
        return tuple(math.degrees(x) for x in self.rho)


@dataclass(frozen=True)
class UnitReport:
    max_residual_24: float  # max |rho2 - s2*rho5|
    max_residual_47: float  # max |rho4 - s4*rho7|
    n_samples: int
    interval: tuple
    degenerate_shared: bool

    @property
    def max_residual(self) -> float:
        return max(self.max_residual_24, self.max_residual_47)

    def valid(self) -> bool:
        """The sampled residuals stay below `TAU_UNIT`."""
        return self.max_residual < TAU_UNIT


_CREASE_LENGTHS = {"shared": 1.0}

# how a unit was designed, and its term in the independent-sector-angle
# count (`pattern.count_dof`): (first unit in a column, each additionally
# stitched unit).  Identical-vertex basic units add nothing once their shared
# vertex is fixed; a freshly designed flat-foldable unit keeps one free angle
# when stitched below an existing vertex.
DOF_TABLE = {
    "straight_line": (2, 0),
    "flat_foldable_basic": (2, 0),
    "flat_foldable": (3, 1),
    "double_collinear": (1, 0),
    "custom": (3, 0),
}
UNIT_KINDS = tuple(DOF_TABLE)
# what a kind needs of both vertex classes: (its description, the test);
# a custom unit takes any vertices
_KIND_NEEDS = {
    "straight_line": ("straight-line or double-collinear",
                      lambda c: c.tag in (ClassTag.STRAIGHT_LINE,
                                          ClassTag.DOUBLE_COLLINEAR)),
    "flat_foldable_basic": ("flat-foldable", lambda c: c.flat_foldable),
    "flat_foldable": ("flat-foldable", lambda c: c.flat_foldable),
    "double_collinear": ("double-collinear",
                         lambda c: c.tag is ClassTag.DOUBLE_COLLINEAR),
}


def _sign_pair(signs, refusal: str) -> tuple:
    """`signs`, a list or tuple of two integers each 1 or -1 (numpy's count,
    bools do not), as ints; else ValidationFailed(refusal.format(signs))."""
    if not (isinstance(signs, (list, tuple)) and len(signs) == 2 and all(
            isinstance(s, Integral) and not isinstance(s, bool)
            and s in (1, -1) for s in signs)):
        raise ValidationFailed(refusal.format(signs))
    return tuple(map(int, signs))


@dataclass(frozen=True)
class Unit:
    top: Vertex4
    bottom: Vertex4
    branch_top: BranchId
    branch_bottom: BranchId
    signs: tuple  # (s2, s4), each +1 or -1
    kind: str = "custom"
    mode: Optional[FFUnitMode] = None

    def __post_init__(self):
        object.__setattr__(self, "signs", _sign_pair(
            self.signs, "signs must be +/-1 pairs, got {}"))
        if self.kind not in UNIT_KINDS:
            raise ValidationFailed(
                f"kind must be one of {', '.join(UNIT_KINDS)}, "
                f"got {self.kind!r}")

    @property
    def sector(self) -> tuple:
        """The 8 sector angles in role labels: top a1..a4, bottom a1..a4."""
        return self.top.alpha + cyclic_shift(self.bottom.alpha, 2)

    @property
    def sector_degrees(self) -> tuple:
        return tuple(math.degrees(x) for x in self.sector)

    def solve(self, t: float) -> UnitState:
        """Configuration with the connecting crease folded by t."""
        (st, sb), = _drive_sides(self, 3, (t,), 1, (t,))
        return UnitState(rho=(t, st[1], st[0], st[3], sb[1], sb[2], sb[3]))

    def swapped(self) -> "Unit":
        """The same unit viewed upside down (paper rotated half a turn)."""
        return replace(
            self,
            top=self.bottom.shifted(2),
            bottom=self.top.shifted(2),
            branch_top=self.branch_bottom,
            branch_bottom=self.branch_top,
            signs=(self.signs[1], self.signs[0]),
        )

    def to_json(self) -> dict:
        doc = {
            "sector_deg": list(self.sector_degrees),
            "signs": list(self.signs),
            "branches": [self.branch_top.value, self.branch_bottom.value],
            "crease_lengths": dict(_CREASE_LENGTHS),
            "kind": self.kind,
        }
        if self.mode is not None:
            doc["mode"] = self.mode.value
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Unit":
        sector = [math.radians(float(x))
                  for x in json_numbers(doc, "sector_deg", 8)]
        json_keys(doc, ("sector_deg", "signs", "branches", "crease_lengths",
                        "kind", "mode"), "a unit document")
        top = Vertex4(sector[:4])
        bottom = Vertex4(sector[4:]).shifted(2)  # role -> stored labels
        signs = _sign_pair(doc.get("signs", (1, 1)), "signs must be two of "
                           "the integers 1 and -1, got {!r}")
        branches = doc.get("branches", ("1", "1"))
        if not isinstance(branches, (list, tuple)) or len(branches) != 2:
            raise ValidationFailed(
                f"branches must hold exactly two tokens, got {branches!r}")
        try:
            branch_top, branch_bottom = map(BranchId.from_token, branches)
        except ValueError as exc:
            raise ValidationFailed(f"branches: {exc}") from exc
        mode = (json_token(doc, "mode", FFUnitMode.from_token)
                if "mode" in doc else None)
        if mode is not None and ((branch_top, branch_bottom, signs)
                                 != (mode.branch, mode.branch, mode.signs)):
            raise ValidationFailed(
                f"mode: {mode.value} pairs branch {mode.branch.value} on both "
                f"vertices with signs {list(mode.signs)}, but the unit states "
                f"branches {list(branches)} and signs {list(signs)}")
        kind = doc.get("kind", "custom")
        if isinstance(kind, str) and kind in _KIND_NEEDS:
            what, admits = _KIND_NEEDS[kind]
            for name, v in (("top", top), ("bottom", bottom)):
                vc = classify(v)
                if not admits(vc):
                    raise ValidationFailed(
                        f"kind: {kind} needs {what} vertices, but the {name} "
                        f"vertex is {vc.tag.value}"
                        + (" and flat-foldable" if vc.flat_foldable else ""))
        lengths = doc.get("crease_lengths", _CREASE_LENGTHS)
        if lengths != _CREASE_LENGTHS:
            raise ValidationFailed(
                f"crease_lengths must be {_CREASE_LENGTHS!r}, got {lengths!r}; "
                "a plan's top_lengths, left_lengths and boundary_length set "
                "crease lengths"
            )
        return cls(
            top=top,
            bottom=bottom,
            branch_top=branch_top,
            branch_bottom=branch_bottom,
            signs=signs,
            kind=kind,
            mode=mode,
        )


# the keys of each constructor descriptor, by kind
_DESCRIPTOR_KEYS = {
    "straight_line": ("kind", "alphas_deg"),
    "flat_foldable_basic": ("kind", "alphas_deg"),
    "flat_foldable": ("kind", "alphas_deg", "mode"),
    "custom": ("kind", "mirror_of_deg", "branch"),
}


def unit_from_descriptor(d: dict) -> Unit:
    """Build a unit from a plan descriptor.

    Descriptors either carry the full 8-angle form (handled by
    :meth:`Unit.from_json`) or name a constructor:

    * ``{"kind": "straight_line", "alphas_deg": [a1, a2, a3, a4]}``
    * ``{"kind": "flat_foldable_basic", "alphas_deg": [a1, a2]}``
    * ``{"kind": "flat_foldable", "alphas_deg": [a1, a2, a3], "mode": "10a-2"}``
    * ``{"kind": "custom", "mirror_of_deg": [a1..a4], "branch": "1"}``

    Anything else, a missing or unknown key or a malformed value is refused
    with a ValidationFailed that names it.
    """
    if not isinstance(d, dict):
        raise ValidationFailed(f"a unit descriptor must be a JSON object, "
                               f"got {d!r}")
    if "sector_deg" in d:
        return Unit.from_json(d)
    kind = d.get("kind", "custom")
    if isinstance(kind, str) and kind in _DESCRIPTOR_KEYS:
        json_keys(d, _DESCRIPTOR_KEYS[kind], f"a {kind} unit descriptor")
    if kind == "straight_line":
        return make_straightline_unit(
            Vertex4.from_degrees(json_numbers(d, "alphas_deg", 4)))
    if kind == "flat_foldable_basic":
        a1, a2 = map(math.radians, json_numbers(d, "alphas_deg", 2))
        return make_flatfoldable_basic_unit(a1, a2)
    if kind == "flat_foldable":
        a1, a2, a3 = map(math.radians, json_numbers(d, "alphas_deg", 3))
        return solve_ff_unit(a1, a2, a3,
                             json_token(d, "mode", FFUnitMode.from_token))
    if kind == "custom" and "mirror_of_deg" in d:
        return identical_vertex_unit(
            Vertex4.from_degrees(json_numbers(d, "mirror_of_deg", 4)),
            json_token(d, "branch", BranchId.from_token, "1"),
        )
    raise ValidationFailed(f"cannot interpret unit descriptor {d!r}")


def json_keys(doc: dict, allowed: tuple, what: str):
    """ValidationFailed, naming the key, when the object `doc` holds a key
    outside `allowed`; `what` names the object in the message."""
    for key in doc:
        if key not in allowed:
            raise ValidationFailed(
                f"unknown key {key!r} in {what}; allowed keys are "
                + ", ".join(allowed))


def is_json_number(x) -> bool:
    """A JSON number: an int or float, not a boolean."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_numbers(doc: dict, key: str, count: Optional[int] = None) -> list:
    """`doc[key]` when it is a list of JSON numbers, `count` of them unless
    `count` is None; ValidationFailed, naming the key, otherwise."""
    xs = doc.get(key) if isinstance(doc, dict) else None
    if (not isinstance(xs, (list, tuple)) or not all(map(is_json_number, xs))
            or count is not None and len(xs) != count):
        raise ValidationFailed(
            f"{key} must be a list of {count or 'any number of'} numbers, "
            f"got {xs!r}")
    return xs


def json_token(doc: dict, key: str, parse, default: Optional[str] = None):
    """`parse(doc[key])`, or `parse(default)` when the key is absent;
    ValidationFailed, naming the key, when it is absent without a default
    or `parse` refuses the token."""
    if key not in doc and default is None:
        raise ValidationFailed(f"missing key {key!r}")
    try:
        return parse(doc.get(key, default))
    except ValueError as exc:
        raise ValidationFailed(f"{key}: {exc}") from exc


def _reach(v: Vertex4, branch: BranchId, comp: int) -> float:
    """|rho[comp]| at the end of the branch's parameter range, r_max; 0 when
    the branch cannot be evaluated there."""
    try:
        p = _branch_param(v.alpha, branch)
        return abs(_state(p, p.r_max)[comp])
    except OutOfDomain:
        return 0.0


def _drive_sides(u: Unit, crease_top: int, ts_top, crease_bottom: int,
                 ts_bottom):
    """(top, bottom) rho per sample: the top vertex driven at `crease_top`
    through `ts_top` and the bottom one at `crease_bottom` through
    `ts_bottom`.  When both refuse, the top vertex's refusal is raised."""
    return zip(_solved(_drive(u.top, crease_top, ts_top, u.branch_top)),
               _solved(_drive(u.bottom, crease_bottom, ts_bottom,
                              u.branch_bottom)))


def _shared_interval(u: Unit) -> float:
    """Largest |t| reachable by the connecting crease on both branches."""
    return min(_reach(u.top, u.branch_top, 2), _reach(u.bottom, u.branch_bottom, 0))


def validate_unit(u: Unit,
                  n_samples: int = DEFAULT_SAMPLES) -> UnitReport:
    """Numerically check the equal-magnitude transmission conditions.

    Sweeps the connecting crease over the common fold interval and compares
    rho2 against s2*rho5 and rho4 against s4*rho7 at every sample.  When the
    branch pair never folds the connecting crease (degenerate shared crease),
    the sweep drives the left-side pair instead and checks the right side
    plus the shared crease staying flat; EmptyInterval is raised when neither
    parametrization moves.

    This is the sampled report, sized by `n_samples`.  It does not decide
    whether a unit is accepted: `_acceptance_residual` does, for the unit
    constructors, `stitch`, `valid_branch_pairs` and `unit validate`.
    """
    check_count(n_samples, 2, "n_samples must be >= 2")
    s2, s4 = u.signs
    t_max = _shared_interval(u)
    shared = t_max > TAU_EMPTY
    if not shared:
        t_max = min(_reach(u.top, u.branch_top, 1),
                    _reach(u.bottom, u.branch_bottom, 1))
        if t_max <= TAU_EMPTY:
            raise EmptyInterval(
                "the unit's common fold interval on this branch pair is {0}"
            )
    ts = symmetric_grid(t_max, n_samples)
    if shared:
        sides = _drive_sides(u, 3, ts, 1, ts)
        i24, j24, s = 1, 1, s2
    else:
        sides = _drive_sides(u, 2, ts, 2, [s2 * t for t in ts])
        i24, j24, s = 2, 0, 1  # the shared crease, flat on both
    worst24 = worst47 = 0.0
    for st, sb in sides:
        worst24 = max(worst24, abs(normalize_angle(st[i24] - s * sb[j24])))
        worst47 = max(worst47, abs(normalize_angle(st[3] - s4 * sb[3])))
    return UnitReport(worst24, worst47, n_samples, (-t_max, t_max), not shared)


def _ff_slopes(p: _FFCurve, connecting: int) -> tuple:
    """(k2, k4): tan(rho/2) = k * tan(t/2) at creases c2 and c4 of a
    flat-foldable curve, t being the fold of crease `connecting` (0 or 2)."""
    s = p.signs
    return s[1] * p.K * s[connecting], s[3] * p.K * s[connecting]


def _sup_gap(k: float, k2: float) -> float:
    """sup over real x of |normalize(2*atan(k*x) - 2*atan(k2*x))|: 0 for
    equal slopes, pi when they differ in sign (or one is 0), otherwise
    |4*atan(sqrt(k/k2)) - pi|, reached at x = 1/sqrt(k*k2) and computed
    as 4*atan(|k - k2| / (sqrt|k| + sqrt|k2|)**2) to avoid cancellation."""
    if k == k2:
        return 0.0
    if k * k2 <= 0.0:
        return math.pi
    return 4.0 * math.atan(abs(k - k2)
                           / (math.sqrt(abs(k)) + math.sqrt(abs(k2))) ** 2)


def _exact_residual(u: Unit):
    """The supremum of `u`'s residual over the whole motion, from the
    transmission constants, when both vertices are flat-foldable curves
    (whose connecting crease then covers [-pi, pi]); None otherwise.  The
    branch refusals (top vertex first) are `validate_unit`'s."""
    top = _branch_param(u.top.alpha, u.branch_top)
    bottom = _branch_param(u.bottom.alpha, u.branch_bottom)
    if not (isinstance(top, _FFCurve) and isinstance(bottom, _FFCurve)):
        return None
    (t2, t4), (b2, b4) = _ff_slopes(top, 2), _ff_slopes(bottom, 0)
    s2, s4 = u.signs
    return max(_sup_gap(t2, s2 * b2), _sup_gap(t4, s4 * b4))


def _acceptance_residual(u: Unit) -> float:
    """The residual that accepts `u` (below TAU_UNIT) or refuses it, the one
    rule for every unit: `_exact_residual` where there is one, otherwise a
    `UNIT_SAMPLES`-sample `validate_unit` sweep's max residual."""
    exact = _exact_residual(u)
    return validate_unit(u, UNIT_SAMPLES).max_residual if exact is None \
        else exact


def _validated(u: Unit, refusal: str) -> Unit:
    """`u` if `_acceptance_residual` accepts it, else ValidationFailed
    with the message `refusal.format(residual)`."""
    residual = _acceptance_residual(u)
    if not residual < TAU_UNIT:
        raise ValidationFailed(refusal.format(residual))
    return u


def _with_signs(u: Unit, t_max: float) -> Unit:
    """`u` with the sign pair read off 9 samples of the connecting crease
    over (0, t_max], each sign 1 for a side that never folds there."""
    s2 = s4 = None
    if t_max > TAU_EMPTY:
        ts = [t_max * k / 10 for k in range(1, 10)]
        for st, sb in _drive_sides(u, 3, ts, 1, ts):
            if s2 is None and abs(sb[1]) > TAU_FLAT:
                s2 = 1 if st[1] * sb[1] > 0 else -1
            if s4 is None and abs(sb[3]) > TAU_FLAT:
                s4 = 1 if st[3] * sb[3] > 0 else -1
    return replace(u, signs=(s2 or 1, s4 or 1))


def identical_vertex_unit(v: Vertex4, branch: BranchId, *, mirrored: bool = True,
                          kind: str = "custom") -> Unit:
    """Unit whose bottom vertex is the same vertex, mirrored across the
    connecting crease (or the plain copy when `mirrored` is false).

    The mirrored copy transmits with signs (+1, +1) on every branch the
    vertex has.  The plain copy gives (+1, +1) on every line segment and on
    BRANCH_1 of a flat-foldable vertex, and (-1, -1) on BRANCH_2 of a
    flat-foldable vertex and on the curve of a straight-line vertex whose
    collinear pair is (c1, c3).  A plain copy of a generic curve, or of the
    curve of a straight-line vertex with pair (c2, c4), fails validation
    (ValidationFailed).

    `_acceptance_residual` decides: exactly for a flat-foldable vertex on a
    curve branch, by a `UNIT_SAMPLES`-sample sweep for any other vertex.
    """
    bottom = v.mirrored() if mirrored else v
    unit = Unit(top=v, bottom=bottom, branch_top=branch, branch_bottom=branch,
                signs=(1, 1), kind=kind)
    return _validated(_with_signs(unit, _shared_interval(unit)),
                      "unit validation failed: max residual {:.3e}")


def make_straightline_unit(v: Vertex4) -> Unit:
    """Identical-vertex unit over a straight-line vertex (curve branch).

    The bottom vertex is the mirror image of `v`, which keeps the shared-panel
    sector angles consistent.  Double-collinear vertices are accepted and get
    their line-segment motion instead of the curve.
    """
    tag = classify(v).tag
    if tag is ClassTag.DOUBLE_COLLINEAR:
        branch = BranchId.LINE_SEGMENT_1
    elif tag is ClassTag.STRAIGHT_LINE:
        branch = BranchId.BRANCH_2
    else:
        raise WrongClass("make_straightline_unit requires a straight-line vertex")
    return identical_vertex_unit(v, branch, kind="straight_line")


def _ff_sectors(a1: float, a2: float) -> tuple:
    return (a1, a2, math.pi - a1, math.pi - a2)  # the flat-foldable vertex


def make_flatfoldable_basic_unit(alpha1: float, alpha2: float) -> Unit:
    """Identical-vertex flat-foldable unit from its two free sector angles."""
    _check_open_intervals(alpha1, alpha2)
    return identical_vertex_unit(Vertex4(_ff_sectors(alpha1, alpha2)),
                                 BranchId.BRANCH_1, mirrored=False,
                                 kind="flat_foldable_basic")


def _check_open_intervals(*alphas: float):
    for k, x in enumerate(alphas, 1):
        if not (0.0 < x < math.pi):
            raise InvalidAngle(f"alpha{k} must lie in (0, pi), got {x!r}")


def solve_ff_unit(alpha1: float, alpha2: float, alpha3: float,
                  mode: FFUnitMode | str) -> Unit:
    """Design a flat-foldable unit from three free sector angles.

    The fourth angle follows from the selected mode's tan-half identity; the
    top vertex is built from (alpha1, alpha2), the bottom from
    (alpha3, alpha4), each completed with the supplements that make it
    flat-foldable.  The branch pair and transmission signs are fixed by the
    mode and accepted exactly by `_acceptance_residual`; a C-mode vertex
    with a1 + a2 = pi moves on a segment, not a curve, so a unit with one
    is swept at `UNIT_SAMPLES` samples instead.  A mode that is not an
    FFUnitMode is read by `FFUnitMode.from_token`.
    """
    _check_open_intervals(alpha1, alpha2, alpha3)
    if not isinstance(mode, FFUnitMode):
        mode = FFUnitMode.from_token(mode)
    alpha4 = mode.alpha4(alpha1, alpha2, alpha3)
    if not (0.0 < alpha4 < math.pi):
        raise InvalidAngle(f"mode {mode.value} yields alpha4 = {alpha4!r}")
    top = Vertex4(_ff_sectors(alpha1, alpha2))
    bottom = Vertex4(cyclic_shift(_ff_sectors(alpha3, alpha4), 2))
    unit = Unit(top=top, bottom=bottom, branch_top=mode.branch,
                branch_bottom=mode.branch, signs=mode.signs,
                kind="flat_foldable", mode=mode)
    return _validated(unit, f"mode {mode.value} unit failed validation: "
                            "max residual {:.3e}")


def valid_branch_pairs(u: Unit) -> list:
    """Branch pairs (over the curve branches available to each vertex) on
    which the unit's transmission conditions hold.

    A curve branch the vertex class lacks raises WrongClass or
    DegenerateVertex and is skipped.  The pairs whose connecting crease never
    folds are dropped; those motions do not couple a stitched column.  So
    are those `_acceptance_residual` refuses: exactly for a pair of
    flat-foldable curves, by a `UNIT_SAMPLES`-sample sweep otherwise.
    """
    pairs = []
    for bt in CURVE_BRANCHES:
        for bb in CURVE_BRANCHES:
            cand = replace(u, branch_top=bt, branch_bottom=bb)
            try:
                t_max = _shared_interval(cand)
                if t_max <= TAU_EMPTY:
                    continue
                cand = _validated(_with_signs(cand, t_max), "")
            except (EmptyInterval, OutOfDomain, DegenerateVertex, WrongClass,
                    ValidationFailed):
                continue
            pairs.append((bt, bb, cand.signs))
    return pairs


@dataclass(frozen=True)
class InfeasibilityReport:
    """Evaluation of the two transmission-matching equations that can never
    hold between a branch-1 and a branch-2 flat-foldable vertex.

    For each equation the bounded side has the form (t_a - t_b)/(t_a + t_b)
    and lies strictly inside (-1, 1); the unbounded side has the form
    (1 + t_a*t_b)/(1 - t_a*t_b) with absolute value strictly above 1 (or a
    pole).  `margin` is the gap min(|unbounded|) - max(|bounded|) > 0.
    """

    bounded_side: tuple      # values of the (t_a-t_b)/(t_a+t_b) sides
    unbounded_side: tuple    # values of the (1+t_a t_b)/(1-t_a t_b) sides
    poles: tuple             # pole flags for the unbounded sides
    margin: float


def infeasibility_witness(alpha1: float, alpha2: float, alpha3: float,
                          alpha4: float) -> InfeasibilityReport:
    """Show that the mixed branch pairings admit no sector-angle solution."""
    _check_open_intervals(alpha1, alpha2, alpha3, alpha4)
    t1, t2 = _tan_half(alpha1), _tan_half(alpha2)
    t3, t4 = _tan_half(alpha3), _tan_half(alpha4)

    bounded = ((t2 - t1) / (t2 + t1), (t4 - t3) / (t4 + t3))

    unbounded, poles = [], []
    for prod in (t4 * t3, t2 * t1):
        den = 1.0 - prod
        poles.append(abs(den) < TAU_POLE)
        unbounded.append(math.inf if poles[-1] else (1.0 + prod) / den)

    worst_bounded = max(abs(x) for x in bounded)
    best_unbounded = min(abs(x) for x in unbounded)
    return InfeasibilityReport(
        bounded_side=tuple(bounded),
        unbounded_side=tuple(unbounded),
        poles=tuple(poles),
        margin=best_unbounded - worst_bounded,
    )
