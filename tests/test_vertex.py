import copy
import dataclasses
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from quadfold import (
    BranchId,
    ClassTag,
    DegenerateVertex,
    FoldInterval,
    InvalidSectorAngles,
    MonotonicityViolation,
    OutOfDomain,
    QuadfoldError,
    Vertex4,
    VertexClass,
    VertexSolution,
    WrongClass,
    classify,
    fold_interval,
    loop_closure_residual,
    monotonicity_check,
    normalize_angle,
    solve_at_crease,
    solve_flatfoldable,
    solve_generic,
    solve_on_branch,
    solve_straightline,
    xi_of,
)
from quadfold import vertex as vertex_mod
from quadfold.config import TAU_ANGLE, TAU_CLASS_BAND, TAU_ROOT
from quadfold.vertex import (TWO_PI, _branch_param, _generic_param,
                             clamped_acos, cyclic_shift)
from conftest import (
    random_ff_vertex,
    random_generic_vertex,
    random_straightline_vertex,
)

deg = math.radians

GEN = Vertex4.from_degrees((80, 95, 75, 110))
SL = Vertex4.from_degrees((70, 80, 100, 110))
FF = Vertex4.from_degrees((60, 70, 120, 110))

NON_FINITE = (math.nan, math.inf, -math.inf)
# (vertex, branch) of every class's branches
NON_FINITE_CASES = [
    (GEN, BranchId.BRANCH_1), (GEN, BranchId.BRANCH_2),
    (FF, BranchId.BRANCH_1), (FF, BranchId.BRANCH_2),
    (SL, BranchId.BRANCH_2), (SL, BranchId.LINE_SEGMENT_1),
    (SL.shifted(1), BranchId.BRANCH_2),
    (Vertex4.from_degrees((90, 90, 90, 90)), BranchId.LINE_SEGMENT_1),
    (Vertex4.from_degrees((90, 90, 90, 90)), BranchId.LINE_SEGMENT_2),
    (Vertex4.from_degrees((180, 60, 80, 40)), BranchId.LINE_SEGMENT_1),
]


class TestVertex4:
    def test_rejects_wrong_count(self):
        with pytest.raises(InvalidSectorAngles):
            Vertex4((1.0, 1.0, 1.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSectorAngles):
            Vertex4((0.0, 2.0, 2.0, 2 * math.pi - 4.0))

    def test_rejects_nondevelopable(self):
        with pytest.raises(InvalidSectorAngles):
            Vertex4.from_degrees((90, 90, 90, 100))

    def test_reflex_sector_allowed(self):
        v = Vertex4.from_degrees((200, 50, 60, 50))
        assert classify(v).tag is ClassTag.TRIVIAL

    def test_shift_and_mirror(self):
        assert GEN.shifted(1).degrees == pytest.approx((95, 75, 110, 80))
        assert GEN.mirrored().degrees == pytest.approx((110, 75, 95, 80))


class TestClassify:
    def test_square_is_double_collinear(self):
        cls = classify(Vertex4.from_degrees((90, 90, 90, 90)))
        assert cls.tag is ClassTag.DOUBLE_COLLINEAR
        assert cls.collinear_pairs == ((1, 3), (2, 4))

    def test_straight_line_canonical(self):
        cls = classify(SL)
        assert cls.tag is ClassTag.STRAIGHT_LINE
        assert cls.collinear_pairs == ((1, 3),)
        assert not cls.flat_foldable

    def test_straight_line_other_pair(self):
        cls = classify(Vertex4.from_degrees((95, 85, 75, 105)))
        assert cls.tag is ClassTag.STRAIGHT_LINE
        assert cls.collinear_pairs == ((2, 4),)

    def test_generic_not_flat_foldable(self):
        cls = classify(GEN)
        assert cls.tag is ClassTag.GENERIC
        assert not cls.flat_foldable
        assert cls.collinear_pairs == ()

    def test_flat_foldable_flag_on_generic(self):
        cls = classify(FF)
        assert cls.tag is ClassTag.GENERIC
        assert cls.flat_foldable

    def test_adjacent_collinear(self):
        cls = classify(Vertex4.from_degrees((50, 180, 60, 70)))
        assert cls.tag is ClassTag.ADJACENT_COLLINEAR
        assert cls.collinear_pairs == ((1, 2),)

    def test_near_degenerate_warns_without_snap(self):
        v = Vertex4.from_degrees((70, 80.000001, 100, 109.999999))
        cls = classify(v)
        assert cls.tag is ClassTag.GENERIC
        assert cls.warnings


class TestXi:
    def test_worked_example(self):
        assert math.degrees(xi_of(GEN, deg(60))) == pytest.approx(120.3755, abs=5e-3)

    def test_flat_state(self):
        v = Vertex4.from_degrees((50, 60, 130, 120))
        assert xi_of(v, 0.0) == pytest.approx(deg(110), abs=1e-12)
        w = Vertex4.from_degrees((100, 120, 70, 70))
        # a1 + a2 > pi: xi folds back below pi
        assert xi_of(w, 0.0) == pytest.approx(2 * math.pi - deg(220), abs=1e-12)

    def test_square_at_right_angle(self):
        v = Vertex4.from_degrees((90, 90, 90, 90))
        assert xi_of(v, deg(90)) == pytest.approx(deg(90), abs=1e-12)

    def test_rho_out_of_range(self):
        with pytest.raises(OutOfDomain):
            xi_of(GEN, 4.0)


class TestSolveGeneric:
    def test_worked_example_branch1(self):
        s = solve_generic(GEN, deg(60), BranchId.BRANCH_1)
        assert s.degrees[1] == pytest.approx(-6.006, abs=0.05)
        assert s.degrees[2] == pytest.approx(62.640, abs=0.05)
        assert s.degrees[3] == pytest.approx(6.124, abs=0.05)
        assert loop_closure_residual(GEN, s) < 1e-12

    def test_branch2_closes(self):
        s = solve_generic(GEN, deg(40), BranchId.BRANCH_2)
        assert loop_closure_residual(GEN, s) < 1e-12
        assert s.rho[2] < 0  # opposite crease folds the other way

    def test_origin(self):
        for b in (BranchId.BRANCH_1, BranchId.BRANCH_2):
            s = solve_generic(GEN, 0.0, b)
            assert s.rho == (0.0, 0.0, 0.0, 0.0)

    def test_point_symmetry(self):
        sp = solve_generic(GEN, deg(60), BranchId.BRANCH_1)
        sn = solve_generic(GEN, -deg(60), BranchId.BRANCH_1)
        for a, b in zip(sp.rho, sn.rho):
            assert a == pytest.approx(-b, abs=1e-12)

    def test_wrong_class(self):
        with pytest.raises(WrongClass):
            solve_generic(SL, 0.3, BranchId.BRANCH_1)

    def test_out_of_domain(self):
        hi = fold_interval(GEN, BranchId.BRANCH_1).hi
        with pytest.raises(OutOfDomain):
            solve_generic(GEN, hi + 1e-3, BranchId.BRANCH_1)

    def test_xi_consistency_invariant(self):
        s = solve_generic(GEN, deg(45), BranchId.BRANCH_2)
        a1, a2 = GEN.alpha[0], GEN.alpha[1]
        lhs = math.cos(xi_of(GEN, s.rho[0]))
        rhs = (math.cos(a1) * math.cos(a2)
               - math.sin(a1) * math.sin(a2) * math.cos(s.rho[0]))
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSolveStraightline:
    def test_worked_example_curve(self):
        s = solve_straightline(SL, deg(30), BranchId.BRANCH_2)
        assert s.degrees[1] == pytest.approx(-88.998, abs=0.05)
        assert s.degrees[2] == pytest.approx(-30.0, abs=1e-9)
        assert s.degrees[3] == pytest.approx(-94.538, abs=0.05)
        assert loop_closure_residual(SL, s) < 1e-12

    def test_line_segment(self):
        s = solve_straightline(SL, deg(30), BranchId.LINE_SEGMENT_1)
        assert s.degrees == pytest.approx((30, 0, 30, 0), abs=1e-12)

    def test_origin_both_branches(self):
        for b in (BranchId.LINE_SEGMENT_1, BranchId.BRANCH_2):
            assert solve_straightline(SL, 0.0, b).rho == (0.0,) * 4

    def test_raw_values_recorded(self):
        s = solve_straightline(SL, deg(30), BranchId.BRANCH_2)
        # the unnormalized doubled-arccos value differs from rho2 by 2*pi
        assert s.raw_rho[1] - s.rho[1] == pytest.approx(2 * math.pi, abs=1e-9)

    def test_noncanonical_position(self):
        v = Vertex4.from_degrees((95, 85, 75, 105))  # line on creases c2, c4
        s = solve_straightline(v, deg(20), BranchId.BRANCH_2)
        assert loop_closure_residual(v, s) < 1e-12
        # the driving angle lands on the collinear crease c2
        assert s.rho[1] == pytest.approx(deg(20), abs=1e-12)
        seg = solve_straightline(v, deg(20), BranchId.LINE_SEGMENT_1)
        assert seg.rho[1] == pytest.approx(deg(20))
        assert seg.rho[3] == pytest.approx(deg(20))
        assert seg.rho[0] == seg.rho[2] == 0.0

    def test_wrong_class(self):
        with pytest.raises(WrongClass):
            solve_straightline(GEN, 0.3, BranchId.BRANCH_2)

    def test_double_collinear_segments(self):
        sq = Vertex4.from_degrees((90, 90, 90, 90))
        s1 = solve_straightline(sq, deg(40), BranchId.LINE_SEGMENT_1)
        assert s1.degrees == pytest.approx((40, 0, 40, 0), abs=1e-12)
        with pytest.raises(WrongClass):
            solve_straightline(sq, deg(40), BranchId.BRANCH_2)


class TestSolveFlatfoldable:
    def test_worked_example(self):
        s = solve_flatfoldable(FF, deg(90), BranchId.BRANCH_1)
        assert s.degrees[1] == pytest.approx(10.99, abs=0.01)
        assert s.degrees[2] == pytest.approx(90.0, abs=1e-9)
        assert s.degrees[3] == pytest.approx(-10.99, abs=0.01)
        assert loop_closure_residual(FF, s) < 1e-12

    def test_coefficient_value(self):
        # transmission coefficient sin(5 deg) / sin(65 deg)
        s = solve_flatfoldable(FF, deg(90), BranchId.BRANCH_1)
        K = math.tan(s.rho[1] / 2) / math.tan(s.rho[0] / 2)
        assert K == pytest.approx(math.sin(deg(5)) / math.sin(deg(65)), abs=1e-12)

    def test_symmetric_vertex_zero_transmission(self):
        v = Vertex4.from_degrees((65, 65, 115, 115))
        for r1 in (0.3, 1.2, -2.0):
            s = solve_flatfoldable(v, r1, BranchId.BRANCH_1)
            assert s.rho[1] == 0.0 and s.rho[3] == 0.0
            assert s.rho[2] == pytest.approx(r1)

    def test_origin(self):
        for b in (BranchId.BRANCH_1, BranchId.BRANCH_2):
            assert solve_flatfoldable(FF, 0.0, b).rho == (0.0,) * 4

    def test_degenerate_vertex(self):
        with pytest.raises(DegenerateVertex):
            solve_flatfoldable(Vertex4.from_degrees((90, 90, 90, 90)), 0.5,
                               BranchId.BRANCH_1)

    def test_not_flat_foldable(self):
        with pytest.raises(WrongClass):
            solve_flatfoldable(GEN, 0.5, BranchId.BRANCH_1)

    def test_agrees_with_generic_solver(self):
        for r1 in (0.4, 1.1, 2.2, -0.9):
            for b in (BranchId.BRANCH_1, BranchId.BRANCH_2):
                sf = solve_flatfoldable(FF, r1, b)
                sg = solve_generic(FF, r1, b)
                for x, y in zip(sf.rho, sg.rho):
                    assert abs(normalize_angle(x - y)) < 1e-9

    def test_pole_branch2_is_segment(self):
        v = Vertex4.from_degrees((80, 100, 100, 80))  # a1 + a2 = pi
        s = solve_flatfoldable(v, 0.0, BranchId.BRANCH_2)
        assert s.rho == (0.0,) * 4
        with pytest.raises(OutOfDomain):
            solve_flatfoldable(v, 0.5, BranchId.BRANCH_2)


class TestFoldInterval:
    def test_flat_foldable_full(self):
        for b in (BranchId.BRANCH_1, BranchId.BRANCH_2):
            iv = fold_interval(FF, b)
            assert iv.lo == pytest.approx(-math.pi)
            assert iv.hi == pytest.approx(math.pi)

    def test_double_collinear_segment(self):
        iv = fold_interval(Vertex4.from_degrees((90, 90, 90, 90)),
                           BranchId.LINE_SEGMENT_1)
        assert (iv.lo, iv.hi) == pytest.approx((-math.pi, math.pi))

    def test_generic_endpoint_is_argument_boundary(self):
        iv = fold_interval(GEN, BranchId.BRANCH_1)
        curve = _generic_param(GEN.alpha, BranchId.BRANCH_1)
        assert curve.margin(iv.hi) >= -1e-12
        assert curve.margin(iv.hi + 1e-7) < 0

    def test_interval_symmetric(self, rng):
        for _ in range(20):
            v = random_generic_vertex(rng)
            iv = fold_interval(v, BranchId.BRANCH_2)
            assert iv.lo == pytest.approx(-iv.hi)
            assert 0 < iv.hi <= math.pi

    def test_solution_valid_across_interval(self, rng):
        # at the exact interval endpoints some arccos argument sits at +-1,
        # where double precision fundamentally costs ~sqrt(eps) in angle
        for _ in range(10):
            v = random_generic_vertex(rng)
            for b in (BranchId.BRANCH_1, BranchId.BRANCH_2):
                iv = fold_interval(v, b)
                for k in range(11):
                    r = iv.lo + (iv.hi - iv.lo) * k / 10
                    s = solve_on_branch(v, r, b)
                    tol = 1e-9 if abs(r) < 0.999 * iv.hi else 1e-6
                    assert loop_closure_residual(v, s) < tol


class TestMonotonicity:
    def test_generic_branches(self):
        for b in (BranchId.BRANCH_1, BranchId.BRANCH_2):
            rep = monotonicity_check(GEN, b, 1000)
            assert rep.passed
            assert min(rep.min_abs_slope) > 0

    def test_flat_foldable(self):
        rep = monotonicity_check(FF, BranchId.BRANCH_1, 1000)
        assert rep.passed

    def test_straightline_curve(self):
        rep = monotonicity_check(SL, BranchId.BRANCH_2, 1000)
        assert rep.passed

    def test_trivial_class_has_no_branch(self):
        v = Vertex4.from_degrees((200, 50, 60, 50))
        with pytest.raises(WrongClass):
            monotonicity_check(v, BranchId.BRANCH_1, 100)

    def test_segment_rejected(self):
        with pytest.raises(WrongClass):
            monotonicity_check(SL, BranchId.LINE_SEGMENT_1, 100)

    @pytest.mark.parametrize("n", [3.5, 2, True, "10", None])
    def test_sample_count_must_be_an_integer_of_at_least_3(self, n):
        with pytest.raises(ValueError, match="need at least 3 samples"):
            monotonicity_check(GEN, BranchId.BRANCH_1, n)


class TestSolveAtCrease:
    @pytest.mark.parametrize("crease", [1, 2, 3, 4])
    def test_roundtrip_generic(self, crease):
        target = solve_generic(GEN, deg(50), BranchId.BRANCH_1)
        s = solve_at_crease(GEN, crease, target.rho[crease - 1],
                            BranchId.BRANCH_1)
        for a, b in zip(s.rho, target.rho):
            assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("crease", [1, 2, 3, 4])
    def test_roundtrip_flat_foldable(self, crease):
        target = solve_flatfoldable(FF, deg(70), BranchId.BRANCH_2)
        s = solve_at_crease(FF, crease, target.rho[crease - 1],
                            BranchId.BRANCH_2)
        for a, b in zip(s.rho, target.rho):
            assert a == pytest.approx(b, abs=1e-9)

    def test_zero_angle_gives_flat_state(self):
        s = solve_at_crease(GEN, 2, 0.0, BranchId.BRANCH_1)
        assert s.rho == (0.0,) * 4

    def test_zero_transmission_crease_refuses(self):
        v = Vertex4.from_degrees((65, 65, 115, 115))
        with pytest.raises(OutOfDomain):
            solve_at_crease(v, 2, 0.3, BranchId.BRANCH_1)

    def test_unreachable_angle(self):
        with pytest.raises(OutOfDomain):
            solve_at_crease(GEN, 2, math.pi * 0.999, BranchId.BRANCH_1)

    @pytest.mark.parametrize("v, branch", NON_FINITE_CASES)
    @pytest.mark.parametrize("angle", NON_FINITE)
    def test_non_finite_angle_is_refused(self, v, branch, angle):
        """NaN passes no comparison and inf no arccos: both are refused by
        name at every crease and on every branch, never clamped onto the
        end of the fold interval."""
        for crease in (1, 2, 3, 4):
            with pytest.raises(OutOfDomain, match=f"crease {crease}"):
                solve_at_crease(v, crease, angle, branch)
        with pytest.raises(OutOfDomain):
            solve_on_branch(v, angle, branch)


@pytest.mark.parametrize("angle", NON_FINITE)
def test_non_finite_driving_angle_is_refused(angle):
    """Each class solver and xi_of refuse a non-finite driving angle."""
    pole = Vertex4.from_degrees((80, 100, 100, 80))  # a1 + a2 = pi
    for solve, v, branch in (
            (solve_generic, GEN, BranchId.BRANCH_1),
            (solve_generic, FF, BranchId.BRANCH_2),
            (solve_flatfoldable, FF, BranchId.BRANCH_1),
            (solve_flatfoldable, pole, BranchId.BRANCH_2),
            (solve_straightline, SL, BranchId.BRANCH_2),
            (solve_straightline, SL, BranchId.LINE_SEGMENT_1)):
        with pytest.raises(OutOfDomain):
            solve(v, angle, branch)
    with pytest.raises(OutOfDomain):
        xi_of(GEN, angle)


def test_solution_carries_no_xi():
    """xi is a function of the vertex and rho1, so a solution does not
    store it; xi_of gives it."""
    assert "xi" not in {f.name for f in dataclasses.fields(VertexSolution)}
    s = solve_on_branch(GEN, deg(60), BranchId.BRANCH_1)
    assert not hasattr(s, "xi")
    assert math.degrees(xi_of(GEN, s.rho[0])) == pytest.approx(
        120.375477743, abs=1e-9)


def test_class_a_motion_only():
    """An adjacent-collinear vertex folds only along its straight line."""
    v = Vertex4.from_degrees((50, 180, 60, 70))
    s = solve_on_branch(v, deg(35), BranchId.LINE_SEGMENT_1)
    # collinear pair (c1, c2): those two creases fold together, others stay
    assert s.degrees == pytest.approx((35, 35, 0, 0), abs=1e-12)
    assert loop_closure_residual(v, s) < 1e-12
    for b in (BranchId.BRANCH_1, BranchId.BRANCH_2, BranchId.LINE_SEGMENT_2):
        with pytest.raises(WrongClass):
            solve_on_branch(v, 0.1, b)


# ---------------------------------------------------------------------------
# the crease-inversion kernel evaluates one component, bit for bit
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """repr of the result (so -0.0 differs from 0.0), or the exception type."""
    try:
        return repr(fn(*args))
    except QuadfoldError as exc:
        return type(exc)


_sector_deg = st.floats(min_value=20.0, max_value=160.0)


@st.composite
def _arccos_curves(draw):
    """A generic vertex's curve (either branch) or the curve of a
    straight-line vertex with collinear pair (1, 3) or (2, 4)."""
    kind = draw(st.sampled_from(("generic", "sl13", "sl24")))
    a1, a2 = draw(_sector_deg), draw(_sector_deg)
    if kind == "generic":
        a3 = draw(_sector_deg)
        assume(20.0 < 360.0 - a1 - a2 - a3 < 160.0)
        v = Vertex4.from_degrees((a1, a2, a3, 360.0 - a1 - a2 - a3))
        assume(classify(v).tag is ClassTag.GENERIC)
        return _generic_param(v.alpha, draw(st.sampled_from(
            (BranchId.BRANCH_1, BranchId.BRANCH_2))))
    if kind == "sl13":
        v = Vertex4.from_degrees((a1, a2, 180.0 - a2, 180.0 - a1))
    else:
        v = Vertex4.from_degrees((a1, 180.0 - a1, a2, 180.0 - a2))
    cls = classify(v)
    assume(cls.tag is ClassTag.STRAIGHT_LINE and not cls.flat_foldable)
    return _branch_param(v.alpha, BranchId.BRANCH_2)


def _bisected_comps(p) -> tuple:
    """The stored components a curve inverts by bisection: c2/c4 of a
    generic curve, the two creases off a straight-line curve's pair."""
    shift = getattr(p, "shift", 0)
    return ((1 + shift) % 4, (3 + shift) % 4)


@given(_arccos_curves(),
       st.lists(st.floats(min_value=-math.pi, max_value=math.pi),
                min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_invert_bisection_is_bit_identical_to_reference(p, xs):
    """Where a curve bisects, `p.invert` returns what the reference
    bisection over the full `p.lift` returns, repr for repr, and raises the
    same exception type: at angles the crease reaches (normalized, as
    solve_at_crease passes them) and at arbitrary angles, which it may not
    reach.  (Where several arccos arguments leave their range, the message
    may name another one: the full lift checks them in component order.)"""
    for comp in _bisected_comps(p):
        targets = list(xs)
        for r in [-p.r_max, p.r_max] + [x for x in xs if abs(x) <= p.r_max]:
            try:
                targets.append(normalize_angle(p.fn(r)[comp]))
            except OutOfDomain:
                pass
        for t in targets:
            if t == 0.0:  # solve_at_crease returns the flat state first
                continue
            assert (_outcome(p.invert, comp, t)
                    == _outcome(_reference_bisect_component, p, comp, t))


def _reference_bisect_component(p, comp: int, target: float) -> float:
    """Verbatim copy of the bisection as it stood before the one-component
    lift: every step evaluates the full `p.lift(r)`."""
    def lift(r):
        return p.lift(r)[comp]

    lo, hi = -p.r_max, p.r_max
    vlo, vhi = lift(lo), lift(hi)
    for t in (target, target - TWO_PI, target + TWO_PI):
        a, b, fa, fb = lo, hi, vlo - t, vhi - t
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if fa * fb > 0.0:
            continue
        for _ in range(90):
            mid = 0.5 * (a + b)
            fm = lift(mid) - t
            if fm == 0.0:
                return mid
            if (fm > 0.0) == (fb > 0.0):
                b, fb = mid, fm
            else:
                a, fa = mid, fm
            if b - a < 1e-15:
                break
        return 0.5 * (a + b)
    raise OutOfDomain(
        f"target angle {target!r} outside the image of rho{comp + 1} "
        "on this branch"
    )


def test_crease_inversion_matches_reference_bisection(rng, monkeypatch):
    """Every bisected inversion (generic c2/c4 on both branches, c1/c3 of a
    straight-line vertex whose collinear pair is (2, 4)) returns the same
    rho, repr for repr, as solve_at_crease over the reference bisection."""
    cases = []
    for _ in range(40):
        v = random_generic_vertex(rng)
        for branch in (BranchId.BRANCH_1, BranchId.BRANCH_2):
            cases += [(v, crease, branch) for crease in (2, 4)]
        v = random_straightline_vertex(rng).shifted(1)
        assert classify(v).collinear_pairs == ((2, 4),)
        cases += [(v, crease, BranchId.BRANCH_2) for crease in (1, 3)]
    calls = []
    for v, crease, branch in cases:
        hi = fold_interval(v, branch).hi
        for f in rng.uniform(-1.0, 1.0, size=9):
            target = solve_on_branch(v, f * hi, branch).rho[crease - 1]
            calls.append((v, crease, target, branch))
        # an angle the crease may not reach: both paths must refuse alike
        calls.append((v, crease, rng.uniform(-math.pi, math.pi), branch))
    assert len(calls) >= 2000

    def rhos():
        return [_outcome(lambda *a: solve_at_crease(*a).rho, *c)
                for c in calls]

    got = rhos()
    bisected = []

    def reference(p, comp, target):
        bisected.append(comp)
        return _reference_bisect_component(p, comp, target)

    monkeypatch.setattr(vertex_mod._ArccosCurve, "bisect", reference)
    assert got == rhos()
    assert len(bisected) == len(calls)


# ---------------------------------------------------------------------------
# the guided bisection returns the plain bisection's parameter
# ---------------------------------------------------------------------------


def _hard_sector(rng) -> float:
    """A sector angle in [20, 160] degrees, one in five exactly at an end."""
    u = rng.uniform()
    if u < 0.2:
        return 20.0 if u < 0.1 else 160.0
    return rng.uniform(20.0, 160.0)


def _hard_curves(rng):
    """(curve, bisected components): generic curves on either branch and
    straight-line curves with either collinear pair, endlessly."""
    while True:
        a1, a2 = _hard_sector(rng), _hard_sector(rng)
        if rng.uniform() < 0.5:
            a3 = _hard_sector(rng)
            a4 = 360.0 - a1 - a2 - a3
            if not 20.0 <= a4 <= 160.0:
                continue
            v = Vertex4.from_degrees((a1, a2, a3, a4))
            if classify(v).tag is not ClassTag.GENERIC:
                continue
            branch = (BranchId.BRANCH_1, BranchId.BRANCH_2)[rng.integers(2)]
            p = _generic_param(v.alpha, branch)
        else:
            v = Vertex4.from_degrees((a1, a2, 180.0 - a2, 180.0 - a1))
            if rng.uniform() < 0.5:
                v = v.shifted(1)
            cls = classify(v)
            if cls.tag is not ClassTag.STRAIGHT_LINE or cls.flat_foldable:
                continue
            p = _branch_param(v.alpha, BranchId.BRANCH_2)
        yield p, _bisected_comps(p)


def _hard_targets(p, comp: int, rng) -> list:
    """+-pi, a uniform angle, and the angles the component reaches at 0, at
    +-r_max, at r within 1e-12..1e-3 of 0 and of +-r_max, and at a uniform
    r (normalized, as solve_at_crease passes them)."""
    rs = [0.0, p.r_max, -p.r_max]
    for d in 10.0 ** rng.uniform(-12.0, -3.0, size=5):
        sign = (-1.0, 1.0)[rng.integers(2)]
        rs += [sign * d, sign * (p.r_max - d)]
    rs.append(rng.uniform(-p.r_max, p.r_max))
    targets = [math.pi, -math.pi, rng.uniform(-math.pi, math.pi)]
    for r in rs:
        try:
            targets.append(normalize_angle(p.fn(r)[comp]))
        except OutOfDomain:
            pass
    return targets


def test_guided_bisection_is_bit_identical_on_hard_targets(rng):
    """Over 40,000 seeded targets where the computed lift is least monotone
    (near r = 0, near +-r_max, sectors at 20 and 160 degrees), `bisect`
    returns the reference bisection's result repr for repr, or raises the
    same exception type."""
    n = 0
    for p, comps in _hard_curves(rng):
        for comp in comps:
            for t in _hard_targets(p, comp, rng):
                assert (_outcome(p.bisect, comp, t)
                        == _outcome(_reference_bisect_component, p, comp, t)
                        ), (p.alpha, comp, t)
                n += 1
        if n >= 40_000:
            break


def _sl_param(alpha):
    p = _branch_param(alpha, BranchId.BRANCH_2)
    assert classify(Vertex4(alpha)).tag is ClassTag.STRAIGHT_LINE
    return p


@pytest.mark.parametrize("make_param, comp, target, expected", [
    # the computed lift is not monotone near r = 0: the plain bisection's
    # first midpoint, r = 0, is an exact zero
    (lambda: _generic_param(
        Vertex4.from_degrees((20, 152.84536903823823, 90,
                              97.15463096176177)).alpha, BranchId.BRANCH_1),
     1, "fn0", "0.0"),
    (lambda: _sl_param((0.8262996464265412, 0.3490658503988659,
                        2.792526803190927, 2.3152930071632523)),
     3, -8.716708052247668e-06, "1.1759753484342764e-05"),
    # a target at -r_max, the plain bisection's own end
    (lambda: _generic_param(
        Vertex4.from_degrees((90, 105.7419361735471, 90,
                              74.25806382645288)).alpha, BranchId.BRANCH_2),
     3, "fn-rmax", "3.1415926101458163"),
    # lifts so flat that exact zeros lie 2e-10 apart: a secant slope over
    # a 1e-12 bracket overstates the local slope a thousandfold
    (lambda: _sl_param((0.3490658503988659, 2.4976922363240894,
                        0.6439004172657036, 2.792526803190927)),
     1, -1.2123552648644065, "1.0645561080539627"),
    (lambda: _generic_param((2.0676394487867347, 0.3490658503988659,
                             1.5933001213400684, 2.2731798866539177),
                            BranchId.BRANCH_2),
     3, 1.5899512841381478, "-2.2046541570424183"),
])
def test_guided_bisection_pinned_cases(make_param, comp, target, expected):
    """Targets where a guide that trusts a skipped midpoint too far returns
    another parameter than the plain bisection."""
    p = make_param()
    if target == "fn0":
        target = normalize_angle(p.fn(0.0)[comp])
    elif target == "fn-rmax":
        target = normalize_angle(p.fn(-p.r_max)[comp])
    assert repr(p.bisect(comp, target)) == expected
    assert repr(_reference_bisect_component(p, comp, target)) == expected


def _herringbone_inversions(monkeypatch) -> tuple:
    """(inversions, arccos-argument evaluations inside them) of a certify of
    fresh herringbone_plan(8, 8) and herringbone_plan(8, 8, 96.5, 73.5)
    stitches.  Each lift evaluation computes the arccos arguments once; the
    guide also reads them once at its bracket."""
    from quadfold import certify, stitch
    from quadfold.fixtures import herringbone_plan

    counts = [0, 0]
    inside = [False]
    args, bisect = vertex_mod._arccos_args, vertex_mod._ArccosCurve.bisect

    def counted_args(*a):
        counts[1] += inside[0]
        return args(*a)

    def counted_bisect(self, comp, target):
        counts[0] += 1
        inside[0] = True
        try:
            return bisect(self, comp, target)
        finally:
            inside[0] = False

    monkeypatch.setattr(vertex_mod, "_arccos_args", counted_args)
    monkeypatch.setattr(vertex_mod._ArccosCurve, "bisect", counted_bisect)
    for plan in (herringbone_plan(8, 8), herringbone_plan(8, 8, 96.5, 73.5)):
        certify(stitch(plan))
    return tuple(counts)


def test_guided_bisection_evaluation_count(monkeypatch):
    """Herringbone 8x8 certifies evaluate the lift at most 20 times per
    bisected inversion on average; the plain bisection, forced by a guide
    window that skips nothing, takes over 45 on top of the stored lifts at
    the ends and at 0 (51 when it evaluated those too)."""
    inversions, evaluations = _herringbone_inversions(monkeypatch)
    assert inversions > 1000
    assert evaluations / inversions <= 20.0

    monkeypatch.setattr(vertex_mod, "_GUIDE_WIDTH", math.inf)
    plain = _herringbone_inversions(monkeypatch)
    assert plain[0] == inversions
    assert plain[1] / inversions > 45.0


def test_failed_verification_returns_the_plain_result(rng, monkeypatch):
    """With the guess moved 0.05 off the root, the skipped midpoints
    between the root and the guess take the wrong side, the verification
    catches it and the plain replay's result is returned."""
    guess, replay = vertex_mod._GenericCurve.guess, \
        vertex_mod._ArccosCurve._replay
    plain_runs = []

    def moved_guess(self, comp, angle):
        return guess(self, comp, angle) + 0.05

    def recorded_replay(self, lift, t, up, w, v0):
        plain_runs.append(w == (-math.inf, math.inf))
        return replay(self, lift, t, up, w, v0)

    monkeypatch.setattr(vertex_mod._GenericCurve, "guess", moved_guess)
    monkeypatch.setattr(vertex_mod._ArccosCurve, "_replay", recorded_replay)
    n = 0
    for _ in range(40):
        v = random_generic_vertex(rng)
        p = _generic_param(v.alpha, BranchId.BRANCH_1)
        for r in rng.uniform(-0.9, 0.9, size=5) * p.r_max:
            t = normalize_angle(p.fn(r)[1])
            assert (repr(p.bisect(1, t))
                    == repr(_reference_bisect_component(p, 1, t)))
            n += 1
    assert sum(plain_runs) == n


def _guessed_curves(rng):
    """Generic curves on both branches, 4 and 0.5 degrees from any
    collinear sum, and straight-line curves with either collinear pair."""
    for margin in (4.0, 0.5):
        for _ in range(20):
            v = random_generic_vertex(rng, margin)
            for branch in (BranchId.BRANCH_1, BranchId.BRANCH_2):
                yield _generic_param(v.alpha, branch)
            v = random_straightline_vertex(rng, margin)
            for shift in (0, 1):
                yield _branch_param(v.shifted(shift).alpha, BranchId.BRANCH_2)


def test_guess_matches_the_reference_bisection(rng):
    """The closed-form `guess` lies within 1e-9 of the reference
    bisection's root at interior targets: c2 and c4 of both generic
    branches, and both creases off the pair of a straight-line curve
    whose collinear pair is (1, 3) or (2, 4)."""
    n = 0
    for p in _guessed_curves(rng):
        for comp in _bisected_comps(p):
            for f in rng.uniform(-0.99, 0.99, size=5):
                t = normalize_angle(p.fn(f * p.r_max)[comp])
                assert (abs(p.guess(comp, t)
                            - _reference_bisect_component(p, comp, t))
                        <= 1e-9), (p.alpha, comp, t)
                n += 1
    assert n == 1600


@pytest.mark.parametrize("target", [5e-324, -5e-324, 1e-300, -1e-300,
                                    math.pi, -math.pi])
def test_guess_at_tiny_and_extreme_targets(rng, target):
    """Where the quadratic degenerates (a target that rounds to a zero
    tangent, or one at +-pi) `guess` returns a finite number, and
    `bisect` still returns the reference result or raises its type."""
    for p in _guessed_curves(rng):
        for comp in _bisected_comps(p):
            assert math.isfinite(p.guess(comp, target))
            assert (_outcome(p.bisect, comp, target)
                    == _outcome(_reference_bisect_component, p, comp, target))


def test_bisection_on_sectors_that_miss_two_pi(rng):
    """Vertices whose sectors sum 1e-10 to 1e-9 away from 2*pi (which
    Vertex4 accepts) keep `bisect` repr-identical to the reference, or
    refusing alike; one such generic and one straight-line vertex per
    draw, both branches, c2 and c4 or the creases off the pair."""
    for _ in range(30):
        generic = list(random_generic_vertex(rng).alpha)
        straight = list(random_straightline_vertex(rng).alpha)
        for a in (generic, straight):
            a[rng.integers(4)] += (-1.0, 1.0)[rng.integers(2)] * 10.0 ** (
                rng.uniform(-10.0, -9.0))
        curves = [_generic_param(tuple(generic), b)
                  for b in (BranchId.BRANCH_1, BranchId.BRANCH_2)]
        v = Vertex4(straight)
        if classify(v).tag is ClassTag.STRAIGHT_LINE:
            curves.append(_branch_param(v.alpha, BranchId.BRANCH_2))
        for p in curves:
            for comp in _bisected_comps(p):
                for f in rng.uniform(-0.99, 0.99, size=4):
                    t = normalize_angle(p.fn(f * p.r_max)[comp])
                    assert (_outcome(p.bisect, comp, t)
                            == _outcome(_reference_bisect_component, p, comp,
                                        t)), (p.alpha, comp, t)


def _reference_curve_interval(margin) -> float:
    """Verbatim copy of the fold-interval search as it stood before
    `last_valid`: scan 64 steps, then bisect to a TAU_ROOT bracket."""
    hi = math.pi
    if margin(hi) >= -1e-13:
        return hi
    n = 64
    good = 0.0
    bad = hi
    for k in range(1, n + 1):
        r = hi * k / n
        if margin(r) >= -1e-13:
            good = r
        else:
            bad = r
            break
    while bad - good > TAU_ROOT:
        mid = 0.5 * (good + bad)
        if margin(mid) >= -1e-13:
            good = mid
        else:
            bad = mid
    return good


def test_fold_interval_end_matches_reference_search(rng):
    """r_max of generic curves (also on flat-foldable vertices, through the
    general closed forms) and of straight-line curves with either collinear
    pair equals, repr for repr, the reference search on the same margin."""
    params = []
    for k in range(350):
        margin_deg = (0.5, 4.0)[k % 2]
        for v in (random_generic_vertex(rng, margin_deg), random_ff_vertex(rng)):
            params += [_generic_param(v.alpha, b)
                       for b in (BranchId.BRANCH_1, BranchId.BRANCH_2)]
        v = random_straightline_vertex(rng, margin_deg)
        params += [_branch_param(w.alpha, BranchId.BRANCH_2) for w in (v, v.shifted(1))]
    assert len(params) >= 2000
    assert sum(p.r_max < math.pi for p in params) > len(params) // 2
    for p in params:
        ref = _reference_curve_interval(p.margin)
        assert repr(p.r_max) == repr(ref)


def _reference_last_valid(ok, n_scan: int, tol: float = 0.0) -> float:
    """Verbatim copy of `last_valid` as it stood before its decisions moved
    into `vertex._LimitSearch`."""
    if ok(math.pi):
        return math.pi
    good, bad = 0.0, math.pi
    for k in range(1, n_scan + 1):
        r = math.pi * k / n_scan
        if not ok(r):
            bad = r
            break
        good = r
    for _ in range(60):
        mid = 0.5 * (good + bad)
        if bad - good <= tol or mid == good or mid == bad:
            break
        if ok(mid):
            good = mid
        else:
            bad = mid
    return good


def test_last_valid_asks_what_the_reference_search_asks():
    """On seeded predicates - thresholds, thresholds with failures in no
    order below them, always and never - `last_valid` asks at the points
    the reference search asks at, in its order, and returns its result,
    for blanket and fold-interval scans and tolerances."""
    rng = random.Random(26)
    for _ in range(600):
        kind = rng.choice(("threshold", "holes", "always", "never"))
        cut, salt = rng.uniform(0.0, math.pi), rng.random()
        n_scan, tol = rng.choice((48, 64, 5, 1)), rng.choice((0.0, TAU_ROOT,
                                                             1e-3))

        def ok(r, asked):
            asked.append(r)
            if kind in ("always", "never"):
                return kind == "always"
            return r <= cut and (kind == "threshold" or
                                 random.Random(f"{r!r} {salt}").random() < 0.8)

        asked, ref_asked = [], []
        result = vertex_mod.last_valid(lambda r: ok(r, asked), n_scan, tol)
        ref = _reference_last_valid(lambda r: ok(r, ref_asked), n_scan, tol)
        assert repr(result) == repr(ref)
        assert asked == ref_asked


def _reference_base(p) -> tuple:
    """Verbatim copy of the 2*pi base as `_BranchParam.__init__` found it
    before the sector-angle rule: the multiples of 2*pi just off the flat
    state."""
    return tuple(TWO_PI * round(x / TWO_PI) for x in p.fn(1e-9))


def test_curve_base_matches_reference_probe(rng):
    """The 2*pi base of generic curves (both branches, also on flat-foldable
    vertices through the general closed forms) and of straight-line curves
    with either collinear pair equals the reference probe wherever the probe
    evaluates."""
    params = []
    for k in range(350):
        margin_deg = (0.5, 4.0)[k % 2]
        for v in (random_generic_vertex(rng, margin_deg), random_ff_vertex(rng)):
            params += [_generic_param(v.alpha, b)
                       for b in (BranchId.BRANCH_1, BranchId.BRANCH_2)]
        v = random_straightline_vertex(rng, margin_deg)
        params += [_branch_param(w.alpha, BranchId.BRANCH_2) for w in (v, v.shifted(1))]
    bases = []
    for p in params:
        try:
            ref = _reference_base(p)
        except OutOfDomain:
            continue
        assert p.base == ref, p.alpha
        bases.append(ref)
    assert len(bases) >= 2000
    assert {b[1] for b in bases} == {0.0, TWO_PI}
    assert {b[0] for b in bases} == {0.0, TWO_PI}  # shifted straight lines


def test_near_double_collinear_straight_line_has_an_interval():
    """A straight-line vertex 4.6e-5 rad from double-collinear: its curve's
    base comes from the sector angles, where a probe just off the flat
    state leaves the arccos domain, so the curve gets its short fold
    interval and closes across it."""
    v = Vertex4((1.2941388658195696, 1.8474537877702235, 1.2941851366110748,
                 1.8474075169787183))
    assert classify(v).tag is ClassTag.STRAIGHT_LINE
    iv = fold_interval(v, BranchId.BRANCH_2)
    assert iv.hi == pytest.approx(0.018767065152, rel=1e-9)
    assert iv.lo == -iv.hi
    for r in (1e-6, 0.5 * iv.hi, iv.hi, -iv.hi):
        sol = solve_on_branch(v, r, BranchId.BRANCH_2)
        assert loop_closure_residual(v, sol) < 1e-10


def _reference_ff_coefficient(alpha, branch: BranchId) -> float:
    a1, a2 = alpha[0], alpha[1]
    if branch is BranchId.BRANCH_1:
        return math.sin((a2 - a1) / 2.0) / math.sin((a2 + a1) / 2.0)
    den = math.cos((a2 + a1) / 2.0)
    if abs(den) < 1e-12:
        raise DegenerateVertex(
            "branch 2 of this flat-foldable vertex degenerates to a line "
            "segment (a1 + a2 = pi)"
        )
    return -math.cos((a2 - a1) / 2.0) / den


def _reference_solve_at_crease(v, crease: int, angle: float, branch):
    """solve_at_crease as it dispatched before the branch parametrizations
    owned their inversions: classify the vertex again and pick the closed
    form by class.  Verbatim but for the segment test, which read a string
    tag that no longer exists, for segment angles, which now go through
    the range check instead of wrapping, and for the bisection, which is
    this file's reference copy."""
    if crease not in (1, 2, 3, 4):
        raise ValueError("crease index must be 1..4")
    comp = crease - 1
    if abs(angle) < 1e-15:
        return VertexSolution((0.0,) * 4, branch, (0.0,) * 4)

    cls = classify(v)
    p = _branch_param(v.alpha, branch)

    if isinstance(p, vertex_mod._Segment):
        probe = p.fn(1.0)
        if probe[comp] == 0.0:
            raise OutOfDomain(
                f"crease {crease} does not fold on this segment; cannot drive"
            )

    # closed forms
    r = None
    if isinstance(p, vertex_mod._Segment):
        r = angle
    elif cls.flat_foldable:
        K = _reference_ff_coefficient(v.alpha, branch)
        sgn3 = 1.0 if branch is BranchId.BRANCH_1 else -1.0
        if comp == 0:
            r = angle
        elif comp == 2:
            r = sgn3 * angle
        else:
            Keff = K if comp == 1 else (-K if branch is BranchId.BRANCH_1 else K)
            if abs(Keff) < 1e-14:
                raise OutOfDomain(
                    f"crease {crease} never folds on this branch (zero "
                    "transmission)"
                )
            r = normalize_angle(
                2.0 * math.atan2(math.sin(angle / 2.0), Keff * math.cos(angle / 2.0))
            )
    elif cls.tag is ClassTag.GENERIC:
        if comp == 0:
            r = angle
        elif comp == 2:
            a1, a2, a3, a4 = v.alpha
            cxi = (math.cos(a3) * math.cos(a4)
                   - math.sin(a3) * math.sin(a4) * math.cos(angle))
            cr = (math.cos(a1) * math.cos(a2) - cxi) / (math.sin(a1) * math.sin(a2))
            mag = clamped_acos(cr)
            same_sign = branch is BranchId.BRANCH_1
            r = mag if (angle > 0) == same_sign else -mag
    elif cls.tag is ClassTag.STRAIGHT_LINE:
        shift = 0 if cls.collinear_pairs[0] == (1, 3) else 1
        comp_c = (comp - shift) % 4  # component in canonical labels
        if comp_c == 0:
            r = angle
        elif comp_c == 2:
            r = -angle

    if r is None:
        r = _reference_bisect_component(p, comp, angle)

    if abs(r) > p.r_max + 1e-9:
        raise OutOfDomain(
            f"driving crease {crease} to {angle!r} needs parameter {r!r} "
            f"outside [-{p.r_max!r}, {p.r_max!r}]"
        )
    r = max(-p.r_max, min(p.r_max, r))
    sol = solve_on_branch(v, r, branch)
    if abs(normalize_angle(sol.rho[comp] - angle)) > 1e-7:
        raise OutOfDomain(
            f"crease {crease} cannot reach {angle!r} on branch {branch.value}"
        )
    return sol


def _solution_or_error(fn, *args):
    """repr of the solution and of its raw angles, or the exception's type
    and message."""
    try:
        sol = fn(*args)
        return repr(sol) + repr(sol.raw_rho)
    except (QuadfoldError, ValueError) as exc:
        return type(exc), str(exc)


def test_segment_drive_beyond_pi_is_refused():
    """A segment branch refuses a driving angle outside its fold interval,
    as a curve branch does, instead of wrapping it."""
    v = Vertex4.from_degrees((70, 110, 70, 110))
    with pytest.raises(OutOfDomain, match="driving crease 1 to 4.0"):
        solve_at_crease(v, 1, 4.0, BranchId.LINE_SEGMENT_1)
    with pytest.raises(OutOfDomain, match="outside"):
        solve_at_crease(v, 3, -3.5, BranchId.LINE_SEGMENT_1)
    sol = solve_at_crease(v, 1, math.pi, BranchId.LINE_SEGMENT_1)
    assert sol.rho[0] == math.pi and sol.raw_rho[0] == math.pi


def _dispatch_calls(rng) -> list:
    """(v, crease, angle, branch) calls over every vertex class, branch and
    crease (0 and 5 included), at 0.0, -0.0, 5e-16, -3.5, 4.0, pi, a seeded
    angle and the angles seeded points of the branch reach."""
    vertices = [Vertex4.from_degrees(a) for a in (
        (80, 100, 100, 80),    # flat-foldable, branch 2 at its pole
        (65, 65, 115, 115),    # flat-foldable, zero transmission
        (90, 90, 90, 90),      # flat-foldable with a1 = a2 = pi/2
        (70, 110, 70, 110),    # double-collinear
        (50, 180, 60, 70),     # adjacent-collinear
    )]
    for _ in range(12):
        vertices += [random_ff_vertex(rng), random_generic_vertex(rng)]
        sl = random_straightline_vertex(rng)
        vertices += [sl, sl.shifted(1)]  # collinear pairs (1, 3), (2, 4)
    calls = []
    for v in vertices:
        for branch in BranchId:
            angles = [0.0, -0.0, 5e-16, -3.5, 4.0, math.pi,
                      rng.uniform(-math.pi, math.pi)]
            try:
                hi = _branch_param(v.alpha, branch).r_max
            except QuadfoldError:
                hi = None
            for f in ([] if hi is None else rng.uniform(-1.0, 1.0, size=3)):
                rho = solve_on_branch(v, f * hi, branch).rho
                angles += list(rho)
            for crease in range(6):
                calls += [(v, crease, a, branch) for a in angles]
    return calls


def test_crease_inversion_matches_reference_dispatch(rng):
    """solve_at_crease agrees with the class-dispatched reference on every
    vertex class, branch and crease, errors and their messages included."""
    calls = _dispatch_calls(rng)
    assert len(calls) > 5000
    got = [_solution_or_error(solve_at_crease, *c) for c in calls]
    want = [_solution_or_error(_reference_solve_at_crease, *c) for c in calls]
    assert got == want
    # every kind of outcome is exercised
    kinds = {w if isinstance(w, str) else w[0] for w in want}
    assert {ValueError, OutOfDomain, WrongClass, DegenerateVertex} <= kinds
    assert sum(isinstance(w, str) for w in want) > 2000


def _drive_or_error(v, crease, angles, branch):
    """The kernel's outcome per angle, the (rho, raw_rho) reprs or the
    refusal's type and message; or, where the call itself raises, the
    exception's type and message."""
    try:
        outcomes = vertex_mod._drive(v, crease, angles, branch)
    except (QuadfoldError, ValueError) as exc:
        return type(exc), str(exc)
    return [repr(o[0]) + repr(o[1]) if type(o) is tuple else (type(o), str(o))
            for o in outcomes]


def _each_or_error(v, crease, angles, branch) -> list:
    """solve_at_crease angle by angle: the reprs of each solution's rho and
    raw_rho, or the exception's type and message."""
    out = []
    for a in angles:
        try:
            sol = solve_at_crease(v, crease, a, branch)
            out.append(repr(sol.rho) + repr(sol.raw_rho))
        except (QuadfoldError, ValueError) as exc:
            out.append((type(exc), str(exc)))
    return out


def test_drive_matches_solve_at_crease(rng):
    """The crease-drive kernel over a list of angles returns, angle by
    angle, what solve_at_crease returns or the refusal it raises, with its
    type and message: over the whole list of each (vertex, crease, branch)
    of the dispatch calls, over the angles it accepts, and with a refused
    angle put in their middle.  Only a bad crease index refuses the whole
    call, as it refuses every angle."""
    groups = {}
    for v, crease, angle, branch in _dispatch_calls(rng):
        groups.setdefault((v, crease, branch), []).append(angle)
    n_accepted = n_refused_inside = 0
    for (v, crease, branch), angles in groups.items():
        each = _each_or_error(v, crease, angles, branch)
        got = _drive_or_error(v, crease, angles, branch)
        if isinstance(got, tuple):
            assert got[0] is ValueError and each == [got] * len(angles)
            continue
        assert got == each
        accepted = [a for a, w in zip(angles, each) if isinstance(w, str)]
        if not accepted:
            continue
        solved = [w for w in each if isinstance(w, str)]
        assert _drive_or_error(v, crease, accepted, branch) == solved
        n_accepted += len(accepted)
        k = len(accepted) // 2
        for a, w in zip(angles, each):
            if isinstance(w, tuple) and k:
                mixed = accepted[:k] + [a] + accepted[k:]
                assert (_drive_or_error(v, crease, mixed, branch)
                        == solved[:k] + [w] + solved[k:])
                n_refused_inside += 1
    assert n_accepted > 2000 and n_refused_inside > 500


def _mirror_cases(rng):
    """(vertex, branch, curve) of seeded generic vertices on both curve
    branches, 4 and 0.5 degrees from any collinear sum, and of seeded
    straight-line vertices with either collinear pair."""
    for margin in (4.0, 0.5):
        for _ in range(8):
            v = random_generic_vertex(rng, margin)
            for branch in (BranchId.BRANCH_1, BranchId.BRANCH_2):
                yield v, branch, _branch_param(v.alpha, branch)
            v = random_straightline_vertex(rng, margin)
            for shift in (0, 1):
                w = v.shifted(shift)
                yield w, BranchId.BRANCH_2, _branch_param(w.alpha,
                                                          BranchId.BRANCH_2)


def _mirror_targets(rng, p, comp) -> list:
    """Seeded targets of rho[comp], targets within 1e-12 of the angle it
    reaches at r_max and the floats next to |lift_zero[comp]|."""
    targets = [normalize_angle(p.fn(r)[comp])
               for r in rng.uniform(-1.0, 1.0, size=3) * p.r_max]
    targets += list(rng.uniform(-math.pi, math.pi, size=2))
    end = normalize_angle(p.fn(p.r_max)[comp])
    targets += [end + d for d in (-1e-12, -3e-13, 0.0, 3e-13, 1e-12)]
    zero = abs(p.lift_zero[comp])
    below, above = math.nextafter(zero, 0.0), math.nextafter(zero, 1.0)
    targets += [math.nextafter(below, 0.0), below, zero, above,
                math.nextafter(above, 1.0)]
    return targets


def _invert_or_type(p, comp, angle):
    try:
        return repr(p.invert(comp, angle))
    except QuadfoldError as exc:
        return type(exc)


def test_mirrored_inversion_is_exact(rng):
    """Wherever `_mirrors` holds, every bisected crease inverts -a to
    -(its parameter at a), repr for repr, and refuses -a exactly where it
    refuses a, with the same type: at seeded targets, at targets within
    1e-12 of the angles reached at +-r_max and at the floats next to
    |lift_zero|.  `_drive` over (a, -a), where the second takes the
    mirrored parameter, returns what each angle gets alone."""
    held = refused = next_to_zero = 0
    for v, branch, p in _mirror_cases(rng):
        assert len(p.bisected) == 2
        for comp in p.bisected:
            zero = abs(p.lift_zero[comp])
            for a in _mirror_targets(rng, p, comp):
                assert vertex_mod._mirrors(p, comp, a) == (zero < abs(a))
                if not vertex_mod._mirrors(p, comp, a):
                    continue
                held += 1
                next_to_zero += 0.0 < zero < abs(a) < 2.0 * zero
                plus, minus = (_invert_or_type(p, comp, a),
                               _invert_or_type(p, comp, -a))
                if isinstance(plus, str):
                    assert minus == repr(-p.invert(comp, a))
                else:
                    assert minus is plus
                    refused += 1
                assert (_drive_or_error(v, comp + 1, [a, -a], branch)
                        == _drive_or_error(v, comp + 1, [a], branch)
                        + _drive_or_error(v, comp + 1, [-a], branch))
    assert held > 1200 and refused > 100 and next_to_zero > 20


def test_mirror_guard_is_needed():
    """At a target equal to the stored lift at r = 0 the bisection stops at
    its first midpoint, r = 0, while the negated target bisects away from
    it: `_mirrors` refuses both, and `_drive` bisects each."""
    v = Vertex4((0.9473112183836143, 1.1173880097720161, 2.4183622088582677,
                 1.800123870165688))
    p = _branch_param(v.alpha, BranchId.BRANCH_1)
    zero = p.lift_zero[1]
    assert zero == 3.332000941824731e-08
    assert p.invert(1, zero) == 0.0
    assert p.invert(1, -zero) == -1.1590383321741577e-07
    assert not vertex_mod._mirrors(p, 1, zero)
    assert not vertex_mod._mirrors(p, 1, -zero)
    inverted = {}
    vertex_mod._drive(v, 2, [zero, -zero], BranchId.BRANCH_1, inverted)
    assert inverted == {zero: 0.0, -zero: -1.1590383321741577e-07}


def test_closed_form_creases_stay_out_of_the_memo(rng):
    """`_drive` keeps the parameters of bisected creases only: a
    flat-foldable curve, a segment, c1/c3 of a generic curve and the
    collinear pair of a straight-line curve neither read nor fill it."""
    sl = random_straightline_vertex(rng)
    gen = random_generic_vertex(rng)
    cases = [(random_ff_vertex(rng), BranchId.BRANCH_1, (1, 2, 3, 4)),
             (random_ff_vertex(rng), BranchId.BRANCH_2, (1, 2, 3, 4)),
             (sl, BranchId.LINE_SEGMENT_1, (1, 3)),
             (gen, BranchId.BRANCH_1, (1, 3)),
             (gen, BranchId.BRANCH_2, (1, 3)),
             (sl, BranchId.BRANCH_2, (1, 3)),
             (sl.shifted(1), BranchId.BRANCH_2, (2, 4))]
    angles = [deg(20), -deg(20), deg(5), -deg(5)]
    for v, branch, creases in cases:
        for crease in creases:
            # a stale entry that a read would turn into a wrong parameter
            inverted = {a: 0.5 for a in angles}
            got = vertex_mod._drive(v, crease, angles, branch, inverted)
            assert got == vertex_mod._drive(v, crease, angles, branch)
            assert inverted == {a: 0.5 for a in angles}
    inverted = {}
    vertex_mod._drive(gen, 2, angles, BranchId.BRANCH_1, inverted)
    assert list(inverted) == angles

def test_drive_trivial_vertex_flat_at_zero():
    """A trivial vertex, which has no branch, drives flat at 0 (the branch
    is looked up only at the first angle that is not flat), and refuses
    each angle that is not; `solve_at_crease` and the raise helper raise
    the first refusal."""
    v = Vertex4.from_degrees((200, 40, 80, 40))
    assert classify(v).tag is ClassTag.TRIVIAL
    flat = ((0.0,) * 4, (0.0,) * 4)
    for branch in BranchId:
        assert vertex_mod._drive(v, 1, [0.0, -0.0, 5e-16], branch) == [flat] * 3
        assert solve_at_crease(v, 1, 0.0, branch) == VertexSolution(
            (0.0,) * 4, branch, (0.0,) * 4)
        for angles, first in (([0.0, 0.2, math.nan], WrongClass),
                              ([0.0, math.nan, 0.2], OutOfDomain)):
            outcomes = vertex_mod._drive(v, 1, angles, branch)
            assert outcomes[0] == flat
            for angle, out in zip(angles[1:], outcomes[1:]):
                if math.isnan(angle):
                    assert type(out) is OutOfDomain
                    assert str(out) == "crease 1 cannot fold by nan"
                else:
                    assert type(out) is WrongClass
                    assert "trivial" in str(out)
            with pytest.raises(first) as exc:
                vertex_mod._solved(outcomes)
            assert exc.value is outcomes[1]


def _near(x: float, target: float, tol: float) -> bool:
    return abs(x - target) <= tol


def _reference_classify(a: tuple, snap: bool) -> VertexClass:
    """Verbatim copy of the body `classify` had while it took a `snap`
    keyword and cached per sector-angle tuple (the cache decorator is left
    off)."""
    warnings = []
    tol = TAU_ANGLE

    def coll(total: float, what: str) -> bool:
        if _near(total, math.pi, tol):
            return True
        if _near(total, math.pi, TAU_CLASS_BAND):
            warnings.append(
                f"{what} misses pi by {total - math.pi:.3e}; "
                + ("snapped" if snap else "not snapped")
            )
            return snap
        return False

    flat = coll(a[0] + a[2], "a1+a3 (flat-foldability)")

    # one sector equal to pi: its flanking creases form a straight line
    for i in range(4):
        if coll(a[i], f"sector a{i + 1}"):
            pair = ((i - 1) % 4 + 1, i + 1)  # creases c_{i-1}, c_i (1-based)
            return VertexClass(ClassTag.ADJACENT_COLLINEAR, (pair,), flat,
                               tuple(warnings))

    if any(x > math.pi + tol for x in a):
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


def test_classify_matches_reference(rng):
    """classify gives the reference's VertexClass, repr for repr, on seeded
    vertices of every class, with their collinear sums moved by amounts
    inside TAU_ANGLE (still collinear) and inside TAU_CLASS_BAND (warned,
    not snapped)."""
    rnd = random.Random(20261018)
    pi = math.pi
    bases = []
    for _ in range(40):
        sl = random_straightline_vertex(rng)
        bases += [random_generic_vertex(rng), random_ff_vertex(rng), sl,
                  sl.shifted(1)]
        a, b = rnd.uniform(0.3, 2.8), rnd.uniform(0.3, 1.4)
        bases += [
            Vertex4((a, pi - a, a, pi - a)),              # double-collinear
            Vertex4((pi, b, pi - b - 0.2, 0.2)).shifted(rnd.randrange(4)),
            Vertex4((pi + 0.3, b, 0.4, pi - 0.7 - b)),     # trivial
        ]
    vertices = list(bases)
    for v in bases:
        for size in (4e-10, 3e-9, 5e-8, 9e-7, 3e-6):
            i, j = rnd.sample(range(4), 2)
            d = rnd.choice((1.0, -1.0)) * size
            x = list(v.alpha)
            x[i] += d
            x[j] -= d
            vertices.append(Vertex4(x))
    tags = set()
    warned = 0
    for v in vertices:
        got, want = classify(v), _reference_classify(v.alpha, False)
        assert repr(got) == repr(want), v.alpha
        tags.add(want.tag)
        warned += bool(want.warnings)
    assert tags == set(ClassTag)
    assert warned > 200


def test_solve_generic_classifies_once_per_vertex_and_branch(monkeypatch):
    """solve_generic's class check is cached with the parametrization: 20
    calls on one vertex and branch classify it once."""
    calls = []

    def counted(v):
        calls.append(v)
        return classify(v)

    monkeypatch.setattr(vertex_mod, "classify", counted)
    _generic_param.cache_clear()
    v = Vertex4.from_degrees((81, 94, 76, 109))
    for k in range(20):
        solve_generic(v, deg(k), BranchId.BRANCH_1)
    assert len(calls) == 1


class TestBranchToken:
    @pytest.mark.parametrize("token, branch", [
        ("1", BranchId.BRANCH_1), ("2", BranchId.BRANCH_2),
        ("line1", BranchId.LINE_SEGMENT_1), ("line2", BranchId.LINE_SEGMENT_2),
        ("line", BranchId.LINE_SEGMENT_1), (" LINE2 ", BranchId.LINE_SEGMENT_2),
        ("Line", BranchId.LINE_SEGMENT_1), ("\t2\n", BranchId.BRANCH_2),
    ])
    def test_a_value_or_line_names_a_branch(self, token, branch):
        """A branch is named by its `BranchId` value or by `line`, short
        for LINE_SEGMENT_1, ignoring case and surrounding space."""
        assert BranchId.from_token(token) is branch

    @pytest.mark.parametrize("token", [
        "branch1", "b1", "branch2", "b2", "ls1", "ls2",
        "", "3", "line3", "l1", "branch", "1 1", "line 1"])
    def test_any_other_spelling_is_refused(self, token):
        with pytest.raises(ValueError, match="unknown branch token"):
            BranchId.from_token(token)


class TestRefusals:
    def test_fold_interval_must_contain_zero(self):
        with pytest.raises(ValueError, match="fold interval must contain 0"):
            FoldInterval(0.1, 0.2, BranchId.BRANCH_1)

    def test_class_solvers_refuse_a_branch_they_do_not_take(self):
        with pytest.raises(WrongClass, match="solve_generic takes"):
            solve_generic(GEN, 0.1, BranchId.LINE_SEGMENT_1)
        with pytest.raises(WrongClass, match="straight-line branches are"):
            solve_straightline(SL, 0.1, BranchId.BRANCH_1)
        with pytest.raises(WrongClass, match="solve_flatfoldable takes"):
            solve_flatfoldable(FF, 0.1, BranchId.LINE_SEGMENT_2)

    def test_monotonicity_violation_names_component_and_samples(
            self, monkeypatch):
        """A lift whose rho3 turns back (rho3 = r^2 on [-1, 1]) fails the
        scan at the first sample pair past the turn."""
        stub = SimpleNamespace(r_max=1.0, lift=lambda r: (r, r, r * r, r))
        monkeypatch.setattr(vertex_mod, "_branch_param", lambda a, b: stub)
        with pytest.raises(MonotonicityViolation,
                           match="rho3 not strictly monotone") as exc:
            monotonicity_check(GEN, BranchId.BRANCH_1, 5)
        assert exc.value.component == 3
        assert exc.value.sample_pair == (0.0, 0.5)


def test_bisect_without_a_lift_at_r_max_refuses_at_the_first_step():
    """A curve whose lift at r_max raises (`lift_max` None) refuses every
    bisection, as the plain bisection does at its first evaluation, the
    lift at -r_max.  No seeded vertex has been found whose curve refuses
    its own r_max, so the curve here reports an r_max past its branch's
    end (GEN's branch 1 ends at r = 2.5875; 1e-3 beyond, an arccos
    argument leaves its range)."""
    curve = _branch_param(GEN.alpha, BranchId.BRANCH_1)
    assert curve.lift_max is not None
    past = copy.copy(curve)
    past.r_max = curve.r_max + 1e-3
    past.lift_max = None
    with pytest.raises(OutOfDomain):
        past.lift(-past.r_max)
    for comp in _bisected_comps(curve):
        for target in (0.5, -0.5, curve.lift_max[comp]):
            with pytest.raises(OutOfDomain):
                past.bisect(comp, target)
            with pytest.raises(OutOfDomain):
                _reference_bisect_component(past, comp, target)


def test_one_cyclic_relabelling():
    """`Vertex4.shifted` and the straight-line curve's stored-label rho
    table are `cyclic_shift`: new x_i = old x_{i+k}."""
    for k in range(-5, 6):
        assert GEN.shifted(k).alpha == cyclic_shift(GEN.alpha, k)
        assert cyclic_shift(GEN.alpha, k) == tuple(
            GEN.alpha[(i + k) % 4] for i in range(4))
    table = vertex_mod._SHIFTED_STRAIGHT_LINE_RHOS
    for shift in (0, 1):
        assert table[shift] == tuple(
            vertex_mod._STRAIGHT_LINE_RHOS[(i - shift) % 4] for i in range(4))
    for v in (SL, SL.shifted(1)):
        curve = _branch_param(v.alpha, BranchId.BRANCH_2)
        assert curve.alpha == cyclic_shift(v.alpha, curve.shift)
