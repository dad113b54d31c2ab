"""Closed-form kinematics of a developable degree-4 single-vertex creased paper.

Conventions
-----------
Sector angles ``alpha[0..3]`` (written a1..a4) are listed counter-clockwise.
Crease ``c_i`` separates sectors ``a_i`` and ``a_{i+1}`` (indices mod 4), so the
counter-clockwise order around the vertex reads::

    a1, c1, a2, c2, a3, c3, a4, c4, (back to a1)

``rho_i`` is the folding angle of crease ``c_i``: pi minus the dihedral angle
between the two panels meeting there, positive for a valley fold as seen from
the side on which the labelling runs counter-clockwise.  The driving angle of
every curve branch is ``rho1``; the auxiliary angle ``xi`` is the spherical
distance between the tips of creases c2 and c4, i.e.

    cos(xi) = cos(a1) cos(a2) - sin(a1) sin(a2) cos(rho1)

Configuration-space classes
---------------------------
A vertex falls in exactly one class, decided purely by which sums of
consecutive sector angles equal pi:

* ``ADJACENT_COLLINEAR``  one sector equals pi (its two creases form a line);
  motion: that line folds, the other two creases stay flat.
* ``STRAIGHT_LINE``       one opposite pair of creases collinear; motion is a
  line segment (fold the line only) plus one smooth curve.
* ``DOUBLE_COLLINEAR``    both opposite pairs collinear; two line segments.
* ``GENERIC``             no collinear pair, all sectors < pi; two smooth
  curves through the flat state.
* ``TRIVIAL``             a reflex sector and no collinear pair; the flat
  state is isolated.

Flat-foldability (a1 + a3 = pi and a2 + a4 = pi) is reported as a flag on top
of the class; for flat-foldable vertices the two curves reduce to tan-half
transmissions and branch identifiers BRANCH_1 / BRANCH_2 refer to those.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Real
from functools import lru_cache
from enum import Enum
from typing import Callable, Sequence

from .config import (GUIDE_KAPPA, GUIDE_WIDTH, GUIDE_ZONE, TAU_ANGLE,
                     TAU_BRACKET, TAU_CLASS_BAND, TAU_DRIVE_FLAT,
                     TAU_DRIVE_LANDING, TAU_DRIVE_PARAM, TAU_END,
                     TAU_EVAL_CLAMP, TAU_MARGIN, TAU_ROOT, TAU_SECTOR_SUM,
                     TAU_TRANSMISSION, TAU_WRAP, check_count)
from .errors import (
    DegenerateVertex,
    InvalidSectorAngles,
    MonotonicityViolation,
    OutOfDomain,
    WrongClass,
)

TWO_PI = 2.0 * math.pi


def normalize_angle(x: float) -> float:
    """Reduce an angle to the representative in (-pi, pi]."""
    y = math.remainder(x, TWO_PI)
    if y <= -math.pi:
        y += TWO_PI
    return y


def clamped_acos(x: float, tol: float = TAU_END) -> float:
    """arccos with clamping only inside `tol` of the bounds; OutOfDomain beyond."""
    if x > 1.0:
        if x > 1.0 + tol:
            raise OutOfDomain(f"arccos argument {x!r} exceeds 1")
        x = 1.0
    elif x < -1.0:
        if x < -1.0 - tol:
            raise OutOfDomain(f"arccos argument {x!r} below -1")
        x = -1.0
    return math.acos(x)


def symmetric_grid(half: float, n: int) -> list:
    """`n` >= 2 evenly spaced points of [-half, half], both ends included."""
    return [half * (2.0 * k / (n - 1) - 1.0) for k in range(n)]


class ClassTag(Enum):
    ADJACENT_COLLINEAR = "adjacent_collinear"
    STRAIGHT_LINE = "straight_line"
    DOUBLE_COLLINEAR = "double_collinear"
    GENERIC = "generic"
    TRIVIAL = "trivial"


class BranchId(Enum):
    """Branch of the configuration space.

    BRANCH_1 / BRANCH_2 are the two smooth curves (for straight-line vertices
    only BRANCH_2, the curve, exists; BRANCH_1 is not defined there).
    LINE_SEGMENT_1 / LINE_SEGMENT_2 are the degenerate straight-line motions.
    """

    BRANCH_1 = "1"
    BRANCH_2 = "2"
    LINE_SEGMENT_1 = "line1"
    LINE_SEGMENT_2 = "line2"

    @classmethod
    def from_token(cls, token: str) -> "BranchId":
        """The branch of a value, or "line" (LINE_SEGMENT_1); case-blind."""
        token = str(token).strip().lower()
        try:
            return cls.LINE_SEGMENT_1 if token == "line" else cls(token)
        except ValueError:
            raise ValueError(f"unknown branch token {token!r}") from None


CURVE_BRANCHES = (BranchId.BRANCH_1, BranchId.BRANCH_2)


@dataclass(frozen=True)
class VertexClass:
    tag: ClassTag
    collinear_pairs: tuple = ()
    flat_foldable: bool = False
    warnings: tuple = ()


def _sector_float(x) -> float:
    """float(x) for a real number x (an int, a float or a numpy real);
    InvalidSectorAngles, naming x, for anything else: a str, a bool, None
    or a complex."""
    if isinstance(x, bool) or not isinstance(x, Real):
        raise InvalidSectorAngles(f"sector angle {x!r} is not a real number")
    return float(x)


def cyclic_shift(xs: tuple, k: int) -> tuple:
    """Cyclic relabelling of a vertex's four slots: new x_i = old x_{i+k}."""
    return xs[k % 4:] + xs[:k % 4]


@dataclass(frozen=True)
class Vertex4:
    """Four sector angles of a developable degree-4 vertex, in radians.

    Angles must be real numbers (a str, bool, None or complex is refused),
    positive and sum to 2*pi.  A single sector may equal or exceed pi:
    exactly pi makes the flanking creases collinear (class (a) motion),
    above pi the vertex cannot fold at all (trivial class).
    """

    alpha: tuple

    def __init__(self, alpha: Sequence[float]):
        a = tuple(x if type(x) is float else _sector_float(x) for x in alpha)
        if len(a) != 4:
            raise InvalidSectorAngles(f"expected 4 sector angles, got {len(a)}")
        for x in a:
            if not math.isfinite(x) or x <= 0.0 or x >= TWO_PI:
                raise InvalidSectorAngles(f"sector angle {x!r} outside (0, 2*pi)")
        if abs(sum(a) - TWO_PI) > TAU_SECTOR_SUM:
            raise InvalidSectorAngles(
                f"sector angles sum to {sum(a)!r}, expected 2*pi (not developable)"
            )
        object.__setattr__(self, "alpha", a)

    @classmethod
    def from_degrees(cls, alpha_deg: Sequence[float]) -> "Vertex4":
        return cls([math.radians(x) for x in alpha_deg])

    @property
    def degrees(self) -> tuple:
        return tuple(math.degrees(x) for x in self.alpha)

    def shifted(self, k: int) -> "Vertex4":
        """Cyclic relabelling: new a_i = old a_{i+k} (`cyclic_shift`)."""
        return Vertex4(cyclic_shift(self.alpha, k))

    def mirrored(self) -> "Vertex4":
        """Reflected copy: sector order reversed as (a4, a3, a2, a1)."""
        a = self.alpha
        return Vertex4((a[3], a[2], a[1], a[0]))

    def isclose(self, other: "Vertex4") -> bool:
        return all(abs(x - y) <= TAU_ANGLE for x, y in zip(self.alpha, other.alpha))

    def __repr__(self):
        return "Vertex4(deg=[{:.6g}, {:.6g}, {:.6g}, {:.6g}])".format(*self.degrees)


@dataclass(frozen=True)
class VertexSolution:
    """One configuration on one branch: four folding angles.

    `rho` is normalized to (-pi, pi].  The auxiliary angle is
    `xi_of(v, rho[0])`.
    """

    rho: tuple
    branch: BranchId

    @property
    def degrees(self) -> tuple:
        return tuple(math.degrees(x) for x in self.rho)


@dataclass(frozen=True)
class FoldInterval:
    lo: float
    hi: float
    branch: BranchId

    def __post_init__(self):
        if not (self.lo <= 0.0 <= self.hi):
            raise ValueError("fold interval must contain 0")


def classify(v: Vertex4) -> VertexClass:
    """Classify a vertex by its collinear crease pairs.

    Collinearity of two creases is decided by whether the sector angles
    strictly between them sum to pi (within TAU_ANGLE).  Sums that miss pi by
    less than TAU_CLASS_BAND are not treated as collinear but recorded in the
    result's `warnings`, so near-degenerate design inputs are reported instead
    of silently snapping: the CLI's `vertex solve` and `vertex interval`
    print each as a `warning:` line on stderr.
    """
    a = v.alpha
    warnings = []

    def coll(total: float, what: str) -> bool:
        if abs(total - math.pi) <= TAU_ANGLE:
            return True
        if abs(total - math.pi) <= TAU_CLASS_BAND:
            warnings.append(f"{what} misses pi by {total - math.pi:.3e}; "
                            "not snapped")
        return False

    flat = coll(a[0] + a[2], "a1+a3 (flat-foldability)")

    # one sector equal to pi: its flanking creases form a straight line
    for i in range(4):
        if coll(a[i], f"sector a{i + 1}"):
            pair = ((i - 1) % 4 + 1, i + 1)  # creases c_{i-1}, c_i (1-based)
            return VertexClass(ClassTag.ADJACENT_COLLINEAR, (pair,), flat,
                               tuple(warnings))

    if any(x > math.pi + TAU_ANGLE for x in a):
        return VertexClass(ClassTag.TRIVIAL, (), False, tuple(warnings))

    c13 = coll(a[1] + a[2], "a2+a3 (creases c1,c3)")
    c24 = coll(a[2] + a[3], "a3+a4 (creases c2,c4)")
    if c13 and c24:
        return VertexClass(ClassTag.DOUBLE_COLLINEAR, ((1, 3), (2, 4)), flat,
                           tuple(warnings))
    if c13:
        return VertexClass(ClassTag.STRAIGHT_LINE, ((1, 3),), flat, tuple(warnings))
    if c24:
        return VertexClass(ClassTag.STRAIGHT_LINE, ((2, 4),), flat, tuple(warnings))
    return VertexClass(ClassTag.GENERIC, (), flat, tuple(warnings))


def xi_of(v: Vertex4, rho1: float) -> float:
    """Auxiliary spherical angle xi for driving angle rho1; OutOfDomain
    outside [-pi, pi], NaN included."""
    if not abs(rho1) <= math.pi + TAU_END:
        raise OutOfDomain(f"rho1 {rho1!r} outside [-pi, pi]")
    a1, a2 = v.alpha[0], v.alpha[1]
    arg = math.cos(a1) * math.cos(a2) - math.sin(a1) * math.sin(a2) * math.cos(rho1)
    return clamped_acos(arg)


# ---------------------------------------------------------------------------
# branch parametrizations
#
# Every branch is represented by a map r -> (rho1..rho4) in stored labels,
# with r running over a symmetric parameter interval.  For curves r is the
# canonical driving angle; for line segments r is the fold angle of the
# moving line.
# ---------------------------------------------------------------------------


class _BranchParam:
    """Parametrized branch: rho(r) over a symmetric closed interval.

    Subclasses define `fn(r)`, the unnormalized (lifted) folding angles in
    stored labels; `base` holds the multiples of 2*pi they start from at the
    flat state.  Subclasses also define `invert(comp, angle)`: the r at
    which rho[comp] equals `angle`, in closed form where the branch has one
    and by bisection (`_ArccosCurve.bisect`) at the components `bisected`
    names.
    """

    __slots__ = ()
    base = (0.0, 0.0, 0.0, 0.0)
    r_max = math.pi
    bisected = ()

    def lift(self, r: float) -> tuple:
        """Folding angles as continuous, monotone functions of r: the
        normalized representatives wrap at +-pi, these do not."""
        x, b = self.fn(r), self.base
        if r >= 0:
            return (x[0] - b[0], x[1] - b[1], x[2] - b[2], x[3] - b[3])
        return (x[0] + b[0], x[1] + b[1], x[2] + b[2], x[3] + b[3])


class _Segment(_BranchParam):
    """Line-segment branch: the creases in `slots` (0-based) fold by r, the
    others stay flat."""

    __slots__ = ("slots",)

    def __init__(self, slots: tuple):
        self.slots = slots

    def fn(self, r: float) -> tuple:
        return tuple(r if k in self.slots else 0.0 for k in range(4))

    def invert(self, comp: int, angle: float) -> float:
        if comp not in self.slots:
            raise OutOfDomain(
                f"crease {comp + 1} does not fold on this segment; cannot drive"
            )
        return angle


class _FFCurve(_BranchParam):
    """Curve branch of a flat-foldable vertex: c1 and c3 fold by +-r, c2 and
    c4 by +-r2, where tan(r2 / 2) = K tan(r / 2) with K fixed by a1, a2 and
    the branch.  `signs` is the one table of those signs, read by `fn`,
    `invert` and the units' transmission slopes: rho3 = rho1 and
    rho4 = -rho2 on branch 1, rho3 = -rho1 and rho4 = rho2 on branch 2."""

    __slots__ = ("K", "signs")

    def __init__(self, alpha: tuple, branch: BranchId):
        a1, a2 = alpha[0], alpha[1]
        if branch is BranchId.BRANCH_1:
            self.K = math.sin((a2 - a1) / 2.0) / math.sin((a2 + a1) / 2.0)
            self.signs = (1, 1, 1, -1)
        else:  # a1 + a2 = pi is the pole, a segment in _branch_param
            self.K = -math.cos((a2 - a1) / 2.0) / math.cos((a2 + a1) / 2.0)
            self.signs = (1, 1, -1, 1)

    def fn(self, r: float) -> tuple:
        r2 = 2.0 * math.atan2(self.K * math.sin(r / 2.0), math.cos(r / 2.0))
        s1, s2, s3, s4 = self.signs
        return (s1 * r, s2 * r2, s3 * r, s4 * r2)

    def invert(self, comp: int, angle: float) -> float:
        if comp % 2 == 0:
            return self.signs[comp] * angle
        K = self.signs[comp] * self.K
        if abs(K) < TAU_TRANSMISSION:
            raise OutOfDomain(
                f"crease {comp + 1} never folds on this branch (zero "
                "transmission)"
            )
        return normalize_angle(
            2.0 * math.atan2(math.sin(angle / 2.0), K * math.cos(angle / 2.0))
        )


def _sector_trig(alpha: tuple, straight_line: bool) -> tuple:
    """The sector trig of the transmissions: (c1, s1, c2, s2, c1*c2, s1*s2)
    and (c3, s3, c4, s4, c3*c4, s3*s4) with ci = cos(ai), si = sin(ai).  The
    second is None for a straight-line vertex (canonical labels), whose
    transmissions read only a1 and a2."""
    a1, a2, a3, a4 = alpha
    c1, s1, c2, s2 = math.cos(a1), math.sin(a1), math.cos(a2), math.sin(a2)
    t12 = (c1, s1, c2, s2, c1 * c2, s1 * s2)
    if straight_line:
        return t12, None
    c3, s3, c4, s4 = math.cos(a3), math.sin(a3), math.cos(a4), math.sin(a4)
    return t12, (c3, s3, c4, s4, c3 * c4, s3 * s4)


def _arccos_args(trig: tuple, rr: float) -> tuple:
    """(A, B, C, D, E) of the generic closed forms at driving magnitude
    rr >= 0, or only (A, D) for a straight-line vertex; `trig` comes from
    `_sector_trig`.  OutOfDomain where xi hits 0 or pi."""
    (c1, s1, c2, s2, c12, s12), t34 = trig
    x = c12 - s12 * math.cos(rr)
    # max(-1.0, min(1.0, x)), NaN included, without two builtin calls
    x = x if x < 1.0 else 1.0
    xi = math.acos(x if x > -1.0 else -1.0)
    sx = math.sin(xi)
    if sx < TAU_TRANSMISSION:
        raise OutOfDomain("xi hit 0 or pi; transmission undefined here")
    cx = math.cos(xi)
    A = (c2 * cx - c1) / (s2 * sx)
    D = (c1 * cx - c2) / (s1 * sx)
    if t34 is None:
        return A, D
    c3, s3, c4, s4, c34, s34 = t34
    B = (c4 - c3 * cx) / (s3 * sx)
    C = (c34 - cx) / s34
    E = (c3 - c4 * cx) / (s4 * sx)
    return A, B, C, D, E


# Each folding angle as a function of the arccos arguments `g` (as returned
# by `_arccos_args`) and the driving magnitude rr >= 0.  A component applies
# arccos only to the arguments it reads.
_GENERIC_RHOS = {  # stored labels; g = (A, B, C, D, E)
    BranchId.BRANCH_1: (
        lambda g, rr: rr,
        lambda g, rr: (clamped_acos(g[0], TAU_EVAL_CLAMP)
                       - clamped_acos(g[1], TAU_EVAL_CLAMP)),
        lambda g, rr: clamped_acos(g[2], TAU_EVAL_CLAMP),
        lambda g, rr: (clamped_acos(g[3], TAU_EVAL_CLAMP)
                       - clamped_acos(g[4], TAU_EVAL_CLAMP)),
    ),
    BranchId.BRANCH_2: (
        lambda g, rr: rr,
        lambda g, rr: (clamped_acos(g[0], TAU_EVAL_CLAMP)
                       + clamped_acos(g[1], TAU_EVAL_CLAMP)),
        lambda g, rr: -clamped_acos(g[2], TAU_EVAL_CLAMP),
        lambda g, rr: (clamped_acos(g[3], TAU_EVAL_CLAMP)
                       + clamped_acos(g[4], TAU_EVAL_CLAMP)),
    ),
}
_STRAIGHT_LINE_RHOS = (  # canonical labels; g = (A, D)
    lambda g, rr: rr,
    lambda g, rr: 2.0 * clamped_acos(g[0], TAU_EVAL_CLAMP),
    lambda g, rr: -rr,
    lambda g, rr: 2.0 * clamped_acos(g[1], TAU_EVAL_CLAMP),
)
# the same in stored labels, for each relabelling shift: stored rho_i is
# canonical rho_{i - shift}
_SHIFTED_STRAIGHT_LINE_RHOS = {
    shift: cyclic_shift(_STRAIGHT_LINE_RHOS, -shift) for shift in (0, 1)}


_ULP = 2.0 ** -52
_EVERYWHERE = (-math.inf, math.inf)


def _tan_half_root(alpha: tuple, c4: bool, angle: float,
                   branch1: bool) -> float:
    """The driving angle r at which crease c2 (c4 when `c4`) folds by
    `angle`, from the degree-4 relation between adjacent fold angles
    (Izmestiev, IMRN 2017): with x = tan(r / 2) and y = tan(angle / 2),

        (k1 y^2 + k2) x^2 + b y x + (k3 y^2 + k0) = 0,

    k1 = cos(s - p - q) - cos o, k2 = cos(p - s - q) - cos o,
    k3 = cos(q - p - s) - cos o, k0 = cos(p + s + q) - cos o and
    b = 4 sin p sin q, where (p, s, q, o) is (a1, a2, a3, a4) at c2 and
    (a2, a1, a4, a3) at c4.  k0 is 0 on sectors that sum to 2*pi exactly;
    it is kept for the sectors Vertex4 accepts up to TAU_SECTOR_SUM off.
    With h = -(B + sign(B) sqrt(B^2 - 4 A C)) / 2 the roots are h / A,
    which generic branch 1 takes with the sign of -y k2 (its slope at the
    flat state), and C / h, which generic branch 2 and the straight-line
    curve take; the result is 0 where h is 0.  An estimate:
    `_ArccosCurve.bisect` uses it only to pick the midpoints it evaluates."""
    a1, a2, a3, a4 = alpha
    p, s, q, o = (a2, a1, a4, a3) if c4 else (a1, a2, a3, a4)
    co = math.cos(o)
    k2 = math.cos(p - s - q) - co
    y = math.tan(0.5 * angle)
    yy = y * y
    A = (math.cos(s - p - q) - co) * yy + k2
    B = 4.0 * math.sin(p) * math.sin(q) * y
    C = (math.cos(q - p - s) - co) * yy + math.cos(p + s + q) - co
    d = B * B - 4.0 * A * C
    h = -0.5 * (B + math.copysign(math.sqrt(d) if d > 0.0 else 0.0, B))
    if h == 0.0:
        return 0.0
    if branch1:
        x = abs(h / A) if A else math.inf
        return 2.0 * math.atan(math.copysign(x, -y * k2))
    return 2.0 * math.atan(C / h)


class _ArccosCurve(_BranchParam):
    """Curve branch given by arccos transmissions.

    `_arccos_args` gives the arccos arguments at driving magnitude rr >= 0,
    and `rhos` holds the four lifted folding angles there in stored labels,
    as functions of those arguments and rr; negative r mirrors every angle.
    The branch ends where an arccos argument leaves [-1, 1] or a folding
    angle passes +-pi (the crease lies completely flat there and its
    normalized representative wraps).  Each curve stores its constants once:
    the sector trig (`_sector_trig`) and the lifts at r_max and at 0 that
    every inversion starts from (`lift_max`, `lift_zero`; None where the
    evaluation raises), and the (sectors, c4 slot, branch-1 root) `guide`
    that `guess` hands `_tan_half_root`.  The closed forms' c2 and c4, in
    stored labels, are the components it bisects (`bisected`).

    `outer` names the stored slots of rho2 and rho4 where each adds two
    arccos terms: on generic branch 2, and on the straight-line curve, which
    doubles one.  At the flat state each term is pi when a3 + a4 > pi in the
    closed forms' labels (xi starts at a1 + a2, the arguments at -1) and 0
    otherwise, so those slots start from 2*pi exactly when a3 + a4 > pi;
    every other slot starts from 0.
    """

    __slots__ = ("alpha", "rhos", "base", "r_max", "trig", "lift_max",
                 "lift_zero", "guide", "bisected")
    straight_line = False

    def __init__(self, alpha: tuple, rhos: tuple, outer: tuple, guide: tuple):
        self.alpha = alpha
        self.rhos = rhos
        self.guide = guide
        # c4 is slot 3, or slot 0 on a relabelled straight-line vertex
        self.bisected = (1, 3) if guide[1] == 3 else (2, 0)
        turned = alpha[2] + alpha[3] > math.pi
        self.base = tuple(TWO_PI if turned and k in outer else 0.0
                          for k in range(4))
        self.trig = _sector_trig(alpha, self.straight_line)
        self.r_max = last_valid(
            lambda r: self.margin(r) >= -TAU_MARGIN, 64, TAU_ROOT)
        self.lift_max = self._lifts_or_none(self.r_max)
        self.lift_zero = self._lifts_or_none(0.0)

    def _lifts_or_none(self, r: float):
        """`self.lift(r)`, or None where it raises OutOfDomain."""
        try:
            return self.lift(r)
        except OutOfDomain:
            return None

    def _rhos_at(self, args, rr: float) -> tuple:
        f1, f2, f3, f4 = self.rhos
        return (f1(args, rr), f2(args, rr), f3(args, rr), f4(args, rr))

    def fn(self, r: float) -> tuple:
        rr = abs(r)
        raw = self._rhos_at(_arccos_args(self.trig, rr), rr)
        if r < 0:
            return (-raw[0], -raw[1], -raw[2], -raw[3])
        return raw

    def margin(self, r: float) -> float:
        """Validity margin at |r|; negative means the branch ended earlier."""
        rr = abs(r)
        try:
            args = _arccos_args(self.trig, rr)
        except OutOfDomain:
            return -1.0
        m = 1.0 - max(map(abs, args))
        if m < -TAU_MARGIN:
            return m
        worst = max(map(abs, map(operator.sub, self._rhos_at(args, rr),
                                 self.base)))
        return min(m, (math.pi + TAU_WRAP - worst) / math.pi)

    def guess(self, comp: int, angle: float) -> float:
        """The closed-form estimate of the r where rho[comp] (c2 or c4 in
        the closed forms' labels) folds by `angle`, that `bisect` evaluates
        around (`_tan_half_root` on the curve's `guide`)."""
        alpha, c4, branch1 = self.guide
        return _tan_half_root(alpha, comp == c4, angle, branch1)

    def bisect(self, comp: int, target: float) -> float:
        """The r where the lift of rho[comp], continuous and strictly
        monotone over [-r_max, r_max], equals `target` or target -/+ 2*pi:
        the plain bisection's result, repr for repr, and its refusal.  The
        plain bisection evaluates only that component, bit for bit
        `self.lift(r)[comp]` (every arccos argument range-checked), at both
        ends and at each midpoint; it returns an exact zero's point, else
        halves the bracket to TAU_BRACKET or 90 times and returns its
        midpoint.

        Its midpoints depend only on its decisions, so `_replay` walks them
        and evaluates only those whose decision is in doubt: the midpoints
        within GUIDE_WIDTH of the curve's closed-form `guess` of the root,
        and every midpoint within GUIDE_ZONE of r = 0 or of +-r_max, where
        the computed lift is not monotone at the scale of its rounding.  The
        others take their side unevaluated.  Then the nearest skipped
        midpoint on each side is evaluated and must clear the target by
        tol, GUIDE_KAPPA times the lift's rounding noise u / sqrt(1 - |arg|)
        from the largest arccos argument at the guess.  If one does not, or a
        guided evaluation raises, the same replay runs with every midpoint
        evaluated: the plain bisection.  So the guess picks only which
        midpoints are evaluated, never the result.  The lifts at the ends
        and at r = 0 are the curve's stored ones."""
        trig = self.trig
        fn = self.rhos[comp]
        base = self.base[comp]
        top, bottom = 1.0 + TAU_EVAL_CLAMP, -1.0 - TAU_EVAL_CLAMP

        def lift(r: float) -> float:
            rr = abs(r)
            g = _arccos_args(trig, rr)
            for x in g:  # every argument, as in the full evaluation
                if x > top or x < bottom:
                    clamped_acos(x, TAU_EVAL_CLAMP)  # raises OutOfDomain
            x = fn(g, rr)
            if r >= 0:
                return x - base
            return -x + base

        if self.lift_max is None:
            lift(-self.r_max)  # raises, as the plain bisection's first step
        # lift(-r) is -lift(r) bit for bit (rounding is symmetric)
        vhi = self.lift_max[comp]
        v0 = None if self.lift_zero is None else self.lift_zero[comp]
        for t in (target, target - TWO_PI, target + TWO_PI):
            fa, fb = -vhi - t, vhi - t
            if fa == 0.0:
                return -self.r_max
            if fb == 0.0:
                return self.r_max
            if fa * fb > 0.0:
                continue
            up = fb > 0.0

            try:
                g = self.guess(comp, t)
                x = max(map(abs, _arccos_args(trig, abs(g))))
                tol = GUIDE_KAPPA * _ULP / math.sqrt(max(1.0 - x, _ULP))
                r, left, right = self._replay(
                    lift, t, up, (g - GUIDE_WIDTH, g + GUIDE_WIDTH), v0)
                # lift - t has the sign of `up` on the upper side
                s = 1.0 if up else -1.0
                if ((left is None or s * (t - lift(left)) >= tol)
                        and (right is None or s * (lift(right) - t) >= tol)):
                    return r
            except OutOfDomain:
                pass
            return self._replay(lift, t, up, _EVERYWHERE, v0)[0]
        raise OutOfDomain(
            f"target angle {target!r} outside the image of rho{comp + 1} "
            "on this branch"
        )

    def _replay(self, lift, t: float, up: bool, window: tuple,
                v0: float) -> tuple:
        """The plain bisection of lift - t over [-r_max, r_max], positive at
        r_max when `up`, with v0 the lift at 0 (None: evaluate it there):
        halve to TAU_BRACKET or 90 times, return an exact zero's point, else
        the last bracket's midpoint.  Midpoints inside `window` or within
        GUIDE_ZONE of 0 or of +-r_max are evaluated; one below the window
        takes the lower side unevaluated, one above it the upper.  Returns
        (r, left, right), left and right the last midpoint skipped on each
        side (the nearest to the root) or None."""
        a, b = -self.r_max, self.r_max
        lo, hi = window
        z, edge = GUIDE_ZONE, self.r_max - GUIDE_ZONE
        bracket = TAU_BRACKET
        left = right = None
        for _ in range(90):
            mid = 0.5 * (a + b)
            if lo <= mid <= hi or -z < mid < z or mid > edge or mid < -edge:
                fm = (lift(mid) if mid or v0 is None else v0) - t
                if fm == 0.0:
                    return mid, left, right
                if (fm > 0.0) == up:
                    b = mid
                else:
                    a = mid
            elif mid > hi:
                b = right = mid
            else:
                a = left = mid
            if b - a < bracket:
                break
        return 0.5 * (a + b), left, right


class _GenericCurve(_ArccosCurve):
    """Curve branch 1 or 2 of a vertex through the general closed forms."""

    __slots__ = ("branch",)

    def __init__(self, alpha: tuple, branch: BranchId):
        self.branch = branch
        outer = (1, 3) if branch is BranchId.BRANCH_2 else ()
        super().__init__(alpha, _GENERIC_RHOS[branch], outer,
                         (alpha, 3, branch is BranchId.BRANCH_1))

    def invert(self, comp: int, angle: float) -> float:
        """Closed form at c1 and at c3, whose fold angle fixes xi through
        the sector pair (a3, a4); bisection at c2/c4."""
        if comp in self.bisected:
            return self.bisect(comp, angle)
        if comp == 0:
            return angle
        (_, _, _, _, c12, s12), (_, _, _, _, c34, s34) = self.trig
        cxi = c34 - s34 * math.cos(angle)
        mag = clamped_acos((c12 - cxi) / s12)
        same_sign = self.branch is BranchId.BRANCH_1
        return mag if (angle > 0) == same_sign else -mag


class _StraightLineCurve(_ArccosCurve):
    """Curve branch of a straight-line vertex.  In canonical labels
    (a1 + a4 = pi, a2 + a3 = pi) rho3 = -rho1 and rho2/rho4 are doubled
    arccos; `shift` relabels canonical to stored angles (stored rho_i is
    canonical rho_{i - shift}).  Its guess takes generic branch 2's root on
    the sectors (a1, a2, pi - a2, pi - a1) that the closed forms assume."""

    __slots__ = ("shift",)
    straight_line = True

    def __init__(self, canonical_alpha: tuple, shift: int):
        self.shift = shift
        a1, a2, c4 = canonical_alpha[0], canonical_alpha[1], (3 + shift) % 4
        super().__init__(canonical_alpha, _SHIFTED_STRAIGHT_LINE_RHOS[shift],
                         (1 + shift, c4),
                         ((a1, a2, math.pi - a2, math.pi - a1), c4, False))

    def invert(self, comp: int, angle: float) -> float:
        """Closed form on the collinear pair (rho3 = -rho1 in canonical
        labels); bisection off it."""
        if comp in self.bisected:
            return self.bisect(comp, angle)
        return angle if comp == self.shift else -angle


class _LimitSearch:
    """`last_valid`'s decision sequence, one decision at a time: pi when pi
    holds; otherwise a scan of `n_scan` equal steps up to the first failure,
    then bisection until the bracket is at most `tol`, the midpoint rounds
    onto an end, or 60 halvings have run.

    `point` is the next point to evaluate (None once the search has
    decided) and `decide(holds)` takes its outcome.  [good, bad] is the
    bracket and `good` the result so far; `step` is 0 while pi is next, k
    while scan step k is, and None once the search bisects.  A copy
    (`copy.copy`) decides on independently, so a caller can follow the
    path that outcomes it predicts would take.
    """

    __slots__ = ("n_scan", "tol", "step", "good", "bad", "halvings", "point")

    def __init__(self, n_scan: int, tol: float = 0.0):
        self.n_scan, self.tol = n_scan, tol
        self.step = 0
        self.good, self.bad, self.halvings = 0.0, math.pi, 0
        self.point = math.pi

    def decide(self, holds: bool) -> None:
        t, k = self.point, self.step
        if holds:
            self.good = t
        else:
            self.bad = t
        if k is None:
            self.halvings += 1
        else:  # pi holds, a scan step fails or the last one holds: bisect
            ends = holds if k == 0 else not holds or k == self.n_scan
            k = self.step = None if ends else k + 1
        if k is not None:
            self.point = math.pi * k / self.n_scan
            return
        good, bad = self.good, self.bad
        mid = 0.5 * (good + bad)
        self.point = None if (self.halvings == 60 or bad - good <= self.tol
                              or mid == good or mid == bad) else mid


def last_valid(ok: Callable[[float], bool], n_scan: int,
               tol: float = 0.0) -> float:
    """The result of `_LimitSearch(n_scan, tol)` asking `ok` at each point
    in turn.

    Where ok holds from 0 up to a threshold and fails above it, this is the
    largest passing r to within `tol`.  Elsewhere it is the passing point
    the decisions end on: a blanket's driving-limit probes can fail in a
    band below the result.  `certify`'s t_max is this result for the
    one-angle case of `foldability._probes`; `_driving_limit` there
    replays these decisions from batched walks.
    """
    search = _LimitSearch(n_scan, tol)
    while search.point is not None:
        search.decide(ok(search.point))
    return search.good


# The parametrization caches hold 4096 entries.  A cached arccos curve keeps
# its sector trig and its lifts at r_max and 0, about 0.9 kB more than the
# bare curve; at 8192 entries a stream of new vertices then raised the peak
# RSS by a tenth, at 4096 it stays where 8192 bare curves had it.
_CACHE_SIZE = 4096


@lru_cache(maxsize=_CACHE_SIZE)
def _branch_param(alpha: tuple, branch: BranchId) -> _BranchParam:
    """Resolve a branch of the vertex with sector angles `alpha` to an
    evaluable parametrization (cached).

    Raises WrongClass when the branch does not exist for the vertex class.
    """
    v = Vertex4(alpha)
    cls = classify(v)
    a = alpha

    if cls.tag is ClassTag.TRIVIAL:
        raise WrongClass("trivial configuration space: no branches exist")

    if cls.flat_foldable and branch in CURVE_BRANCHES:
        a1, a2 = a[0], a[1]
        if abs(a1 - math.pi / 2) <= TAU_ANGLE and abs(a2 - math.pi / 2) <= TAU_ANGLE:
            raise DegenerateVertex("flat-foldable vertex with a1 = a2 = pi/2")
        if branch is BranchId.BRANCH_2 and abs(a1 + a2 - math.pi) <= TAU_ANGLE:
            # pole of the tan-half coefficient: branch 2 is the segment
            # rho2 = rho4 free, rho1 = rho3 = 0
            return _Segment((1, 3))
        return _FFCurve(a, branch)

    if cls.tag is ClassTag.ADJACENT_COLLINEAR:
        if branch is not BranchId.LINE_SEGMENT_1:
            raise WrongClass(
                "adjacent-collinear vertex admits only its line-segment motion"
            )
        return _Segment(tuple(i - 1 for i in cls.collinear_pairs[0]))

    if cls.tag is ClassTag.DOUBLE_COLLINEAR:
        if branch is BranchId.LINE_SEGMENT_1:
            return _Segment((0, 2))
        if branch is BranchId.LINE_SEGMENT_2:
            return _Segment((1, 3))
        raise WrongClass("double-collinear vertex has only two line segments")

    if cls.tag is ClassTag.STRAIGHT_LINE:
        # canonical form puts the collinear pair on (c1, c3); a (c2, c4)
        # vertex is relabelled by a cyclic shift of 1
        shift = 0 if cls.collinear_pairs[0] == (1, 3) else 1
        if branch is BranchId.LINE_SEGMENT_1:
            return _Segment((shift, shift + 2))
        if branch is BranchId.BRANCH_2:
            return _StraightLineCurve(cyclic_shift(v.alpha, shift), shift)
        raise WrongClass(
            "straight-line vertex has only LINE_SEGMENT_1 and BRANCH_2"
        )

    # generic
    if branch not in CURVE_BRANCHES:
        raise WrongClass("generic vertex has only the two curve branches")
    return _GenericCurve(a, branch)


# the same cache under the name bench/run.py reads its hit counts from
_branch_param_cached = _branch_param


@lru_cache(maxsize=_CACHE_SIZE)
def _generic_param(a: tuple, branch: BranchId) -> _GenericCurve:
    """Curve parametrization of a generic vertex through the general closed
    forms, with no flat-foldable shortcut: solve_generic's own path, so the
    special and general transmissions stay independently testable.  The
    class check is cached with it, so it runs once per (alpha, branch)."""
    v = Vertex4(a)
    if classify(v).tag is not ClassTag.GENERIC:
        raise WrongClass(f"solve_generic requires a generic vertex, got {v!r}")
    return _GenericCurve(a, branch)


_FLAT = (0.0, 0.0, 0.0, 0.0)


def _state(p: _BranchParam, r: float) -> tuple:
    """rho at parameter r: the flat state exactly at r = 0 (all branches
    pass through it), else the branch's angles reduced to (-pi, pi]."""
    if r == 0.0:
        return _FLAT
    x1, x2, x3, x4 = p.fn(r)
    return (normalize_angle(x1), normalize_angle(x2), normalize_angle(x3),
            normalize_angle(x4))


def _eval_param(p: _BranchParam, r: float, branch: BranchId) -> VertexSolution:
    if not abs(r) <= p.r_max + TAU_END:  # NaN included
        raise OutOfDomain(
            f"parameter {r!r} outside fold interval [-{p.r_max!r}, {p.r_max!r}]"
        )
    return VertexSolution(_state(p, r), branch)


def solve_on_branch(v: Vertex4, r: float, branch: BranchId) -> VertexSolution:
    """Evaluate a branch at parameter r (class-dispatched).

    The flat state is returned exactly at r = 0 (all branches pass through
    it); elsewhere the branch's closed forms are evaluated.  Flat-foldable
    vertices use their specialized tan-half transmissions here; use
    solve_generic to evaluate the general equations on them instead.
    """
    return _eval_param(_branch_param(v.alpha, branch), r, branch)


def solve_generic(v: Vertex4, rho1: float, branch: BranchId) -> VertexSolution:
    """Solve a generic (no collinear creases) vertex at driving angle rho1.

    Always evaluates the general curve equations, also on vertices that
    happen to be flat-foldable, so the specialized transmissions can be
    checked against it.
    """
    if branch not in CURVE_BRANCHES:
        raise WrongClass("solve_generic takes BRANCH_1 or BRANCH_2")
    return _eval_param(_generic_param(v.alpha, branch), rho1, branch)


def solve_straightline(v: Vertex4, rho1: float, branch: BranchId) -> VertexSolution:
    """Solve a straight-line vertex.

    `rho1` is the fold angle on the collinear crease line (the canonical
    driving angle); the returned angles are in the vertex's own labels.
    Double-collinear vertices are accepted for their line-segment motions.
    """
    tag = classify(v).tag
    if tag is ClassTag.DOUBLE_COLLINEAR:
        if branch is BranchId.BRANCH_2:
            raise WrongClass(
                "double-collinear vertex has no curve branch; use its segments"
            )
        return solve_on_branch(v, rho1, branch)
    if tag is not ClassTag.STRAIGHT_LINE:
        raise WrongClass("solve_straightline requires a straight-line vertex")
    if branch not in (BranchId.LINE_SEGMENT_1, BranchId.BRANCH_2):
        raise WrongClass("straight-line branches are LINE_SEGMENT_1 and BRANCH_2")
    return solve_on_branch(v, rho1, branch)


def solve_flatfoldable(v: Vertex4, rho1: float, branch: BranchId) -> VertexSolution:
    """Solve a flat-foldable vertex with the tan-half-angle transmissions."""
    if branch not in CURVE_BRANCHES:
        raise WrongClass("solve_flatfoldable takes BRANCH_1 or BRANCH_2")
    if not classify(v).flat_foldable:
        raise WrongClass("vertex is not flat-foldable (a1+a3 != pi)")
    p = _branch_param(v.alpha, branch)
    if isinstance(p, _Segment):
        # branch 2 at the pole (a1 + a2 = pi): only the flat point can be
        # addressed through rho1
        if not abs(rho1) <= TAU_ANGLE:
            raise OutOfDomain(
                "branch 2 degenerates to a segment with rho1 = 0 here"
            )
        rho1 = 0.0
    return _eval_param(p, rho1, branch)


def fold_interval(v: Vertex4, branch: BranchId) -> FoldInterval:
    """Maximal closed driving-angle interval containing 0 for a branch.

    For segment branches the returned interval refers to rho1: it is
    [-pi, pi] when crease c1 lies on the moving line and degenerate [0, 0]
    when rho1 is identically zero on the segment.
    """
    p = _branch_param(v.alpha, branch)
    if isinstance(p, _Segment) and 0 not in p.slots:
        return FoldInterval(0.0, 0.0, branch)
    return FoldInterval(-p.r_max, p.r_max, branch)


@dataclass(frozen=True)
class MonotonicityReport:
    branch: BranchId
    n_samples: int
    min_abs_slope: tuple  # per component rho2, rho3, rho4
    passed: bool


def monotonicity_check(v: Vertex4, branch: BranchId,
                       n_samples: int = 1000) -> MonotonicityReport:
    """Scan a curve branch and assert rho2, rho3, rho4 strictly monotone in
    the driving angle; returns the smallest finite-difference slope seen."""
    cls = classify(v)
    if cls.tag not in (ClassTag.GENERIC, ClassTag.STRAIGHT_LINE):
        raise WrongClass("monotonicity scan applies to generic or straight-line "
                         "vertices")
    p = _branch_param(v.alpha, branch)
    if isinstance(p, _Segment):
        raise WrongClass("monotonicity scan applies to curve branches")
    check_count(n_samples, 3, "need at least 3 samples")
    # monotonicity is a statement about the continuous (unnormalized) lifts
    # of the folding angles; the normalized representatives wrap at +-pi
    lift = p.lift
    rs = symmetric_grid(p.r_max, n_samples)
    prev = lift(rs[0])
    min_slope = [math.inf] * 3
    direction = [0] * 3
    for idx in range(1, n_samples):
        cur = lift(rs[idx])
        dr = rs[idx] - rs[idx - 1]
        for comp in range(3):
            d = (cur[comp + 1] - prev[comp + 1]) / dr
            sgn = 1 if d > 0 else (-1 if d < 0 else 0)
            if direction[comp] == 0:
                direction[comp] = sgn
            if sgn == 0 or sgn != direction[comp]:
                raise MonotonicityViolation(
                    f"rho{comp + 2} not strictly monotone between driving "
                    f"angles {rs[idx - 1]:.9g} and {rs[idx]:.9g}",
                    component=comp + 2,
                    sample_pair=(rs[idx - 1], rs[idx]),
                )
            min_slope[comp] = min(min_slope[comp], abs(d))
        prev = cur
    return MonotonicityReport(branch, n_samples, tuple(min_slope), True)


# ---------------------------------------------------------------------------
# driving a vertex from an arbitrary crease
# ---------------------------------------------------------------------------


def _mirrors(p: _ArccosCurve, comp: int, angle: float) -> bool:
    """Whether the bisection of rho[comp] to -angle is the mirror image of
    its bisection to `angle`, so that `p.invert(comp, -angle)` is
    `-p.invert(comp, angle)` bit for bit, refusals alike.  Over
    [-r_max, r_max] the plain bisection's midpoints come in mirror pairs and
    lift(-m) is -lift(m) bit for bit, so every decision mirrors except the
    first, at r = 0, which reads the stored lift there: it mirrors exactly
    when |angle| is above that lift's magnitude.  Up to pi the wrapped
    targets angle -/+ 2*pi are then above it too.  The guided replay
    returns the plain result, so it mirrors with it."""
    zero = p.lift_zero
    return zero is not None and abs(zero[comp]) < abs(angle) <= math.pi


def _drive(v: Vertex4, crease: int, angles, branch: BranchId,
           inverted: dict = None) -> list:
    """`solve_at_crease` over a sequence of angles: one outcome per angle,
    either rho, bit for bit that call's solution, or the OutOfDomain,
    WrongClass or DegenerateVertex that call raises, with its type and
    message.  The branch is resolved at the first angle that is not flat,
    so a vertex that lacks it still drives flat at 0.

    Where the crease is bisected (`bisected`), `inverted` maps each angle
    already inverted, in this call or by the caller's earlier calls on the
    same sector angles, crease and branch, to its parameter r; without it
    the call keeps its own.  An angle whose negation is there, and that
    `_mirrors` accepts, takes -r without a bisection; the slack check, the
    clamp, `_state` and the landing check then run on it as on any other.
    Stitched blankets ask mirrored questions all over: a 200-sample
    certify of `herringbone_plan(8, 8)` bisects 450 times, 900 without the
    mirror.  Closed-form creases neither read nor fill `inverted`."""
    if crease not in (1, 2, 3, 4):
        raise ValueError("crease index must be 1..4")
    comp = crease - 1
    p = None
    out = []
    flat, landing = TAU_DRIVE_FLAT, TAU_DRIVE_LANDING
    for angle in angles:
        if abs(angle) < flat:
            out.append(_FLAT)
            continue
        try:
            if not math.isfinite(angle):
                raise OutOfDomain(f"crease {crease} cannot fold by {angle!r}")
            if p is None:
                p = _branch_param(v.alpha, branch)
                invert, r_max = p.invert, p.r_max
                lo, slack = -r_max, r_max + TAU_DRIVE_PARAM
                if comp not in p.bisected:
                    inverted = None
                elif inverted is None:
                    inverted = {}
            if inverted is None:
                r = invert(comp, angle)
            else:
                r = inverted.get(-angle)
                if r is None or not _mirrors(p, comp, angle):
                    r = invert(comp, angle)
                else:
                    r = -r
                inverted[angle] = r
            if abs(r) > slack:
                raise OutOfDomain(
                    f"driving crease {crease} to {angle!r} needs parameter "
                    f"{r!r} outside [-{r_max!r}, {r_max!r}]")
            # max(-r_max, min(r_max, r)), NaN included, without two builtins
            r = r if r < r_max else r_max
            state = _state(p, r if r > lo else lo)
            if abs(normalize_angle(state[comp] - angle)) > landing:
                raise OutOfDomain(f"crease {crease} cannot reach {angle!r} "
                                  f"on branch {branch.value}")
        except (OutOfDomain, WrongClass, DegenerateVertex) as exc:
            state = exc.with_traceback(None)
        out.append(state)
    return out


def _solved(outcomes) -> list:
    """`_drive`'s outcomes; the first refusal among them is raised."""
    for out in outcomes:
        if type(out) is not tuple:
            raise out
    return outcomes


def solve_at_crease(v: Vertex4, crease: int, angle: float,
                    branch: BranchId) -> VertexSolution:
    """Solve the vertex so that crease `crease` (1..4) folds by `angle`.

    Each branch parametrization inverts its own creases (`invert`): a
    segment branch is driven directly at any crease on its moving line; a
    curve branch gets the parameter in closed form at any crease of a
    flat-foldable vertex, at c1/c3 of a generic vertex and at the collinear
    pair of a straight-line vertex (c1/c3 for pair (1, 3), c2/c4 for pair
    (2, 4)), and by monotone bisection on the branch parameter at the rest:
    c2/c4 of a generic vertex and the two creases off the collinear pair of
    a straight-line vertex.  The bisection stops where the bracket is
    narrower than TAU_BRACKET or after 90 halvings.  It is guided
    (`_ArccosCurve.bisect`): it evaluates the lift only at the midpoints
    near the tan-half closed-form guess of the root (`guess`), near r = 0
    and near +-r_max, checks the sides it gave the others, and returns the
    plain bisection's parameter bit for bit.  That bisection is odd in its
    target: it inverts -angle to minus its parameter at `angle` wherever
    |angle| <= pi lies above the magnitude of the crease's stored lift at
    r = 0 (`_mirrors`), so a walk (`_drive`) that asks both bisects once,
    which halves the bisections of a herringbone `certify`.  A single call
    always bisects.  On every branch a parameter beyond the fold interval
    [-r_max, r_max] (by more than TAU_DRIVE_PARAM) is refused, never
    wrapped, and so is a non-finite angle.
    """
    rho, = _solved(_drive(v, crease, (angle,), branch))
    return VertexSolution(rho, branch)
