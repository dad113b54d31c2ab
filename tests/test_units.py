import copy
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quadfold import (
    BranchId,
    ClassTag,
    DegenerateVertex,
    EmptyInterval,
    FFUnitMode,
    InvalidAngle,
    OutOfDomain,
    QuadfoldError,
    Unit,
    UnitReport,
    ValidationFailed,
    Vertex4,
    WrongClass,
    classify,
    fold_interval,
    identical_vertex_unit,
    infeasibility_witness,
    make_flatfoldable_basic_unit,
    make_straightline_unit,
    normalize_angle,
    solve_at_crease,
    solve_ff_unit,
    solve_on_branch,
    unit_from_descriptor,
    valid_branch_pairs,
    validate_unit,
)
from quadfold import fixtures
from quadfold import units as units_mod
from quadfold.config import TAU_UNIT, UNIT_SAMPLES
from quadfold.fixtures import herringbone_plan, showcase_a_plan, showcase_b_plan
from quadfold.pattern import StitchPlan, stitch
from quadfold.units import UNIT_KINDS, _acceptance_residual
from quadfold.vertex import _branch_param, _FFCurve
from conftest import (
    random_ff_vertex,
    random_generic_vertex,
    random_straightline_vertex,
)

deg = math.radians
t_ = lambda x: math.tan(x / 2.0)


class TestSolveFFUnit:
    def test_a_plus_fixture(self):
        u = solve_ff_unit(deg(80), deg(100), deg(60), FFUnitMode.A_PLUS)
        alpha4 = u.sector[5]
        assert math.degrees(alpha4) == pytest.approx(78.7033, abs=1e-3)
        # substituting back into the mode identity leaves no residual
        lhs = t_(alpha4) * t_(deg(80))
        rhs = t_(deg(100)) * t_(deg(60))
        assert abs(lhs - rhs) < 1e-14

    def test_c_plus_exact_identity(self):
        # tan(40)tan(50) = 1, so alpha4 = 120 degrees exactly
        u = solve_ff_unit(deg(80), deg(100), deg(60), FFUnitMode.C_PLUS)
        assert math.degrees(u.sector[5]) == pytest.approx(120.0, abs=1e-12)

    def test_symmetric_input_passes_alpha3_through(self):
        u = solve_ff_unit(deg(75), deg(75), deg(55), FFUnitMode.A_PLUS)
        assert math.degrees(u.sector[5]) == pytest.approx(55.0, abs=1e-12)

    @pytest.mark.parametrize("mode", list(FFUnitMode))
    def test_every_mode_validates(self, mode):
        u = solve_ff_unit(deg(80), deg(95), deg(60), mode)
        rep = validate_unit(u, 200)
        assert rep.max_residual < 1e-8
        assert u.branch_top is mode.branch

    def test_mode_identity_residual(self):
        for mode in FFUnitMode:
            u = solve_ff_unit(deg(70), deg(95), deg(65), mode)
            a1, a2, a3, a4 = (u.sector[0], u.sector[1],
                              u.sector[4], u.sector[5])
            t1, t2, t3, t4 = t_(a1), t_(a2), t_(a3), t_(a4)
            residual = {
                FFUnitMode.A_PLUS: t1 * t4 - t2 * t3,
                FFUnitMode.A_MINUS: t2 * t4 - t1 * t3,
                FFUnitMode.C_PLUS: t3 * t4 - t1 * t2,
                FFUnitMode.C_MINUS: t1 * t2 * t3 * t4 - 1.0,
            }[mode]
            assert abs(residual) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateVertex):
            solve_ff_unit(deg(90), deg(90), deg(60), FFUnitMode.A_PLUS)

    def test_one_valid_branch_pair_per_mode(self):
        u = solve_ff_unit(deg(80), deg(95), deg(60), FFUnitMode.A_MINUS)
        pairs = {(bt, bb) for bt, bb, _ in valid_branch_pairs(u)}
        assert pairs == {(BranchId.BRANCH_1, BranchId.BRANCH_1)}
        uc = solve_ff_unit(deg(80), deg(95), deg(60), FFUnitMode.C_PLUS)
        pairs_c = {(bt, bb) for bt, bb, _ in valid_branch_pairs(uc)}
        assert pairs_c == {(BranchId.BRANCH_2, BranchId.BRANCH_2)}

    def test_sign_pairs_by_mode(self):
        assert solve_ff_unit(deg(80), deg(95), deg(60),
                             FFUnitMode.A_MINUS).signs == (1, 1)
        assert solve_ff_unit(deg(80), deg(95), deg(60),
                             FFUnitMode.A_PLUS).signs == (-1, -1)
        assert solve_ff_unit(deg(80), deg(95), deg(60),
                             FFUnitMode.C_PLUS).signs == (1, 1)
        assert solve_ff_unit(deg(80), deg(95), deg(60),
                             FFUnitMode.C_MINUS).signs == (-1, -1)


class TestValidateUnit:
    def test_valid_unit_sweep(self):
        u = solve_ff_unit(deg(80), deg(100), deg(60), FFUnitMode.A_PLUS)
        rep = validate_unit(u, 200)
        assert rep.max_residual < 1e-8
        assert rep.n_samples == 200

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-8, True])
    def test_valid_refuses_a_bound_that_is_not_positive_and_finite(self,
                                                                   tol):
        """inf would pass any unit, NaN none.  `valid` decides at the
        constant TAU_UNIT, positive and finite, the bound `stitch` and
        `unit validate` accept at, and refuses any other bound with
        TypeError."""
        assert 0.0 < TAU_UNIT < math.inf
        u = solve_ff_unit(deg(80), deg(100), deg(60), FFUnitMode.A_PLUS)
        report = validate_unit(u, 40)
        assert report.valid()
        for residual, valid in ((0.5 * TAU_UNIT, True), (TAU_UNIT, False)):
            assert replace(report, max_residual_24=residual,
                           max_residual_47=0.0).valid() is valid
        with pytest.raises(TypeError):
            report.valid(tol)

    def test_perturbed_unit_fails(self):
        u = solve_ff_unit(deg(80), deg(100), deg(60), FFUnitMode.A_PLUS)
        a3, a4 = u.sector[4], u.sector[5] + deg(1.0)
        bad = Unit(
            top=u.top,
            bottom=Vertex4((math.pi - a3, math.pi - a4, a3, a4)),
            branch_top=u.branch_top, branch_bottom=u.branch_bottom,
            signs=u.signs,
        )
        rep = validate_unit(bad, 100)
        assert rep.max_residual > 1e-3

    def test_wrong_branch_pair_fails(self):
        u = solve_ff_unit(deg(80), deg(95), deg(60), FFUnitMode.A_MINUS)
        mixed = Unit(top=u.top, bottom=u.bottom,
                     branch_top=BranchId.BRANCH_1,
                     branch_bottom=BranchId.BRANCH_2, signs=u.signs)
        rep = validate_unit(mixed, 60)
        assert rep.max_residual > 1e-3

    def test_degenerate_shared_crease_fallback(self):
        # the exact-identity design folds on branch pairs whose connecting
        # crease never moves; validation then drives the side creases
        u = solve_ff_unit(deg(80), deg(100), deg(60), FFUnitMode.C_PLUS)
        rep = validate_unit(u, 100)
        assert rep.degenerate_shared
        assert rep.max_residual < 1e-8

    def test_empty_interval(self):
        sq = Vertex4.from_degrees((90, 90, 90, 90))
        u = Unit(top=sq, bottom=sq,
                 branch_top=BranchId.LINE_SEGMENT_1,
                 branch_bottom=BranchId.LINE_SEGMENT_2, signs=(1, 1))
        with pytest.raises(EmptyInterval):
            validate_unit(u, 50)

    def test_adjacent_collinear_segments_fold_the_connecting_crease(self):
        # the top vertex's a3 = 180 makes c2, c3 its moving line, so c3, the
        # connecting crease, folds although rho1 stays flat on the segment
        top = Vertex4.from_degrees((100, 50, 180, 30))
        u = Unit(top=top, bottom=top.mirrored(),
                 branch_top=BranchId.LINE_SEGMENT_1,
                 branch_bottom=BranchId.LINE_SEGMENT_1, signs=(1, 1))
        assert u.solve(0.5).rho == (0.5, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0)
        rep = validate_unit(u, 50)
        assert rep.interval == (-math.pi, math.pi)
        assert not rep.degenerate_shared
        assert rep.max_residual == 0.0

    @pytest.mark.parametrize("n", [2.5, 200.0, True, "200", None])
    def test_sample_count_must_be_an_integer(self, n):
        u = solve_ff_unit(deg(80), deg(100), deg(60), FFUnitMode.A_PLUS)
        with pytest.raises(ValueError, match="n_samples must be >= 2"):
            validate_unit(u, n)

    def test_swap_invariance(self):
        u = solve_ff_unit(deg(80), deg(95), deg(60), FFUnitMode.A_MINUS)
        rep = validate_unit(u.swapped(), 100)
        assert rep.max_residual < 1e-8


def _ff_designs(rng, per_mode: int):
    """Seeded `solve_ff_unit` designs of every mode in the benchmark's
    ranges: free sectors in [50, 130] degrees, alpha4 in (20, 160), each
    vertex at least 6 degrees from a1 = a2 = 90."""
    for mode in FFUnitMode:
        made = 0
        while made < per_mode:
            a1, a2, a3 = rng.uniform(deg(50), deg(130), size=3)
            a4 = mode.alpha4(a1, a2, a3)
            if not deg(20) < a4 < deg(160):
                continue
            if min(abs(a1 - math.pi / 2) + abs(a2 - math.pi / 2),
                   abs(a3 - math.pi / 2) + abs(a4 - math.pi / 2)) < deg(6):
                continue
            made += 1
            yield solve_ff_unit(a1, a2, a3, mode)


def _between_samples_unit() -> Unit:
    """An A- unit whose bottom sectors moved by d = 1.386e-9, keeping it
    flat-foldable: its exact residual is 1.002e-8, just above TAU_UNIT,
    while 33 and 64 samples read below it."""
    u = solve_ff_unit(deg(80), deg(100), deg(60), FFUnitMode.A_MINUS)
    a1, a2, a3, a4 = u.bottom.alpha
    d = 1.386e-9
    return replace(u, bottom=Vertex4((a1 - d, a2 + d, a3 + d, a4 - d)))


class TestExactAcceptance:
    """A pair of flat-foldable curves is accepted or refused from its
    transmission constants; `validate_unit` stays the sampled report."""

    def test_exact_verdict_agrees_with_the_sampled_one(self, rng):
        checked = 0
        for u in _ff_designs(rng, 40):
            assert all(isinstance(_branch_param(v.alpha, b), _FFCurve)
                       for v, b in ((u.top, u.branch_top),
                                    (u.bottom, u.branch_bottom)))
            for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                w = replace(u, signs=signs)
                exact = _acceptance_residual(w)
                report = validate_unit(w, 200)
                assert (exact < TAU_UNIT) == report.valid(), w
                # the supremum bounds every sample, up to rounding
                assert exact >= report.max_residual - 4 * math.ulp(math.pi)
                checked += 1
        assert checked == 4 * 40 * 4

    def test_a_failure_between_samples_is_refused(self):
        u = _between_samples_unit()
        assert _acceptance_residual(u) == pytest.approx(1.002e-8, rel=1e-3)
        assert validate_unit(u, 33).valid()
        assert validate_unit(u, 64).valid()
        assert not validate_unit(u, 200).valid()
        with pytest.raises(ValidationFailed,
                           match="unit 0 of column 0 fails validation"):
            stitch(StitchPlan(columns=((u,),)))
        pair = (BranchId.BRANCH_1, BranchId.BRANCH_1, (1, 1))
        assert pair not in valid_branch_pairs(u)
        assert pair in valid_branch_pairs(replace(
            u, bottom=solve_ff_unit(deg(80), deg(100), deg(60),
                                    FFUnitMode.A_MINUS).bottom))

    def test_flat_foldable_designs_sweep_nothing(self, monkeypatch):
        """Flat-foldable designs are accepted without a sweep, and every
        other acceptance sweeps `UNIT_SAMPLES` samples."""
        asked = []
        sampled = units_mod.validate_unit

        def recording(u, n_samples):
            asked.append(n_samples)
            return sampled(u, n_samples)

        def counts(build):
            asked.clear()
            build()
            return asked[:]

        monkeypatch.setattr(units_mod, "validate_unit", recording)
        for mode in FFUnitMode:
            u = solve_ff_unit(deg(80), deg(95), deg(60), mode)
            assert counts(lambda: stitch(StitchPlan(columns=((u,),)))) == []
            assert counts(lambda: valid_branch_pairs(u)) == []
        assert counts(
            lambda: make_flatfoldable_basic_unit(deg(70), deg(80))) == []
        generic = Vertex4.from_degrees((80, 95, 75, 110))
        sl = make_straightline_unit(Vertex4.from_degrees((70, 80, 100, 110)))
        for build in (
                lambda: identical_vertex_unit(generic, BranchId.BRANCH_1),
                lambda: make_straightline_unit(sl.top),
                lambda: stitch(herringbone_plan(4, 3)),
                lambda: valid_branch_pairs(sl)):
            got = counts(build)
            assert got and set(got) == {UNIT_SAMPLES}


class TestStraightLineUnit:
    def test_canonical_vertex(self):
        u = make_straightline_unit(Vertex4.from_degrees((70, 80, 100, 110)))
        rep = validate_unit(u, 200)
        assert rep.max_residual < 1e-8
        assert u.signs == (1, 1)
        assert u.bottom.degrees == pytest.approx((110, 100, 80, 70))

    def test_square_vertex_miura_like(self):
        u = make_straightline_unit(Vertex4.from_degrees((90, 90, 90, 90)))
        rep = validate_unit(u, 50)
        assert rep.max_residual < 1e-12
        assert u.branch_top is BranchId.LINE_SEGMENT_1

    def test_generic_vertex_rejected(self):
        with pytest.raises(WrongClass):
            make_straightline_unit(Vertex4.from_degrees((80, 95, 75, 110)))

    def test_horizontal_line_vertex(self):
        u = make_straightline_unit(Vertex4.from_degrees((95, 85, 75, 105)))
        rep = validate_unit(u, 100)
        assert rep.max_residual < 1e-8


class TestFlatFoldableBasicUnit:
    def test_fixture_vertices(self):
        u = make_flatfoldable_basic_unit(deg(60), deg(70))
        assert u.top.degrees == pytest.approx((60, 70, 120, 110))
        assert u.bottom.degrees == pytest.approx((60, 70, 120, 110))
        rep = validate_unit(u, 200)
        assert rep.max_residual < 1e-8

    def test_symmetric_angles_trivially_valid(self):
        u = make_flatfoldable_basic_unit(deg(72), deg(72))
        state = u.solve(0.9)
        assert state.rho[1] == pytest.approx(0.0, abs=1e-12)
        assert state.rho[4] == pytest.approx(0.0, abs=1e-12)

    def test_right_angles_rejected(self):
        with pytest.raises(DegenerateVertex):
            make_flatfoldable_basic_unit(deg(90), deg(90))

    def test_two_branch_pairs(self):
        u = make_flatfoldable_basic_unit(deg(60), deg(70))
        pairs = {(bt, bb) for bt, bb, _ in valid_branch_pairs(u)}
        assert pairs == {(BranchId.BRANCH_1, BranchId.BRANCH_1),
                         (BranchId.BRANCH_2, BranchId.BRANCH_2)}


class TestIdenticalVertexUnit:
    def test_generic_mirrored_both_branches(self):
        v = Vertex4.from_degrees((77, 88, 112, 83))
        for b in (BranchId.BRANCH_1, BranchId.BRANCH_2):
            u = identical_vertex_unit(v, b)
            rep = validate_unit(u, 150)
            assert rep.max_residual < 1e-8
            assert u.signs == (1, 1)
        pairs = {(bt, bb) for bt, bb, _ in
                 valid_branch_pairs(identical_vertex_unit(v, BranchId.BRANCH_1))}
        assert pairs == {(BranchId.BRANCH_1, BranchId.BRANCH_1),
                         (BranchId.BRANCH_2, BranchId.BRANCH_2)}

    def test_identical_copy_flips_signs(self):
        v = Vertex4.from_degrees((70, 80, 100, 110))
        u = identical_vertex_unit(v, BranchId.BRANCH_2, mirrored=False)
        assert u.signs == (-1, -1)
        assert validate_unit(u, 100).max_residual < 1e-8


def _straightline_24(rng) -> Vertex4:
    v = random_straightline_vertex(rng).shifted(1)
    assert classify(v).collinear_pairs == ((2, 4),)
    return v


def _double_collinear(rng) -> Vertex4:
    a = rng.uniform(deg(25), deg(155))
    return Vertex4((a, math.pi - a, a, math.pi - a))


_B1, _B2 = BranchId.BRANCH_1, BranchId.BRANCH_2
_L1, _L2 = BranchId.LINE_SEGMENT_1, BranchId.LINE_SEGMENT_2


@pytest.mark.parametrize("make, branch, mirrored, signs", [
    (random_generic_vertex, _B1, True, (1, 1)),
    (random_generic_vertex, _B2, True, (1, 1)),
    (random_generic_vertex, _B1, False, ValidationFailed),
    (random_generic_vertex, _B2, False, ValidationFailed),
    (random_ff_vertex, _B1, True, (1, 1)),
    (random_ff_vertex, _B2, True, (1, 1)),
    (random_ff_vertex, _B1, False, (1, 1)),
    (random_ff_vertex, _B2, False, (-1, -1)),
    (random_straightline_vertex, _B2, True, (1, 1)),
    (random_straightline_vertex, _B2, False, (-1, -1)),
    (random_straightline_vertex, _L1, True, (1, 1)),
    (random_straightline_vertex, _L1, False, (1, 1)),
    (_straightline_24, _B2, True, (1, 1)),
    (_straightline_24, _B2, False, ValidationFailed),
    (_straightline_24, _L1, False, (1, 1)),
    (_double_collinear, _L1, False, (1, 1)),
    (_double_collinear, _L2, False, (1, 1)),
])
def test_identical_vertex_unit_signs(rng, make, branch, mirrored, signs):
    """The sign pair of a mirrored or plain copy, per vertex class and
    branch, as the docstring of identical_vertex_unit states it."""
    for _ in range(5):
        v = make(rng)
        if isinstance(signs, tuple):
            assert identical_vertex_unit(v, branch,
                                         mirrored=mirrored).signs == signs
        else:
            with pytest.raises(signs):
                identical_vertex_unit(v, branch, mirrored=mirrored)


class TestUnitJson:
    @pytest.mark.parametrize("kind", ["bogus", 7, None, "", []])
    def test_unknown_kind_is_refused(self, kind):
        u = solve_ff_unit(deg(80), deg(95), deg(60), FFUnitMode.A_MINUS)
        with pytest.raises(ValidationFailed, match="kind must be one of"):
            replace(u, kind=kind)
        with pytest.raises(ValidationFailed, match="kind"):
            Unit.from_json(dict(u.to_json(), kind=kind))

    def test_roundtrip(self):
        u = solve_ff_unit(deg(80), deg(95), deg(60), FFUnitMode.A_MINUS)
        doc = u.to_json()
        u2 = Unit.from_json(doc)
        for v2, v in ((u2.top, u.top), (u2.bottom, u.bottom)):
            assert all(abs(x - y) <= 1e-12 for x, y in zip(v2.alpha, v.alpha))
        assert u2.signs == u.signs
        assert u2.branch_top is u.branch_top
        assert u2.mode is u.mode

    def test_other_crease_lengths_refused(self):
        doc = make_straightline_unit(Vertex4.from_degrees((70, 80, 100, 110))
                                     ).to_json()
        assert doc["crease_lengths"] == {"shared": 1.0}
        Unit.from_json(doc)
        Unit.from_json({k: x for k, x in doc.items() if k != "crease_lengths"})
        for lengths in ({"shared": 2.0}, {}, {"shared": 1.0, "top": 1.0}):
            with pytest.raises(ValidationFailed, match="crease_lengths"):
                Unit.from_json(dict(doc, crease_lengths=lengths))

    def test_signs_must_be_integer_units(self):
        doc = solve_ff_unit(deg(80), deg(95), deg(60), FFUnitMode.A_MINUS
                            ).to_json()
        del doc["mode"]  # a mode fixes the signs
        assert Unit.from_json(dict(doc, signs=[1, -1])).signs == (1, -1)
        for signs in ([1.7, -1.2], [1.0, 1], [True, 1], [1, 2], [1],
                      [1, 1, 1], "11", None):
            with pytest.raises(ValidationFailed, match="signs"):
                Unit.from_json(dict(doc, signs=signs))

    def test_branches_must_be_two_known_tokens(self):
        doc = make_straightline_unit(Vertex4.from_degrees((70, 80, 100, 110))
                                     ).to_json()
        u = Unit.from_json(dict(doc, branches=["line1", "1"]))
        assert (u.branch_top, u.branch_bottom) == (BranchId.LINE_SEGMENT_1,
                                                   BranchId.BRANCH_1)
        for branches in (["line1", "line1", "2"], ["1"], [], "12"):
            with pytest.raises(ValidationFailed, match="branches"):
                Unit.from_json(dict(doc, branches=branches))
        with pytest.raises(ValidationFailed,
                           match="branches: unknown branch token 'x'"):
            Unit.from_json(dict(doc, branches=["1", "x"]))

    def test_unknown_mode_is_refused(self):
        doc = solve_ff_unit(deg(80), deg(95), deg(60), FFUnitMode.A_MINUS
                            ).to_json()
        with pytest.raises(ValidationFailed, match="mode: unknown"):
            Unit.from_json(dict(doc, mode="10c-1"))

    def test_mode_must_match_branches_and_signs(self):
        """The A_PLUS unit relabelled C_MINUS (branch 2) is refused, naming
        `mode`, and so is a mode whose signs the document contradicts."""
        doc = solve_ff_unit(deg(80), deg(100), deg(60), FFUnitMode.A_PLUS
                            ).to_json()
        assert Unit.from_json(doc).mode is FFUnitMode.A_PLUS
        with pytest.raises(ValidationFailed, match="mode: 10b-2 pairs branch 2"):
            Unit.from_json(dict(doc, mode="10b-2"))
        with pytest.raises(ValidationFailed, match="mode: 10a-2 .* signs"):
            Unit.from_json(dict(doc, mode="10a-2"))
        with pytest.raises(ValidationFailed, match="mode: 10a-1"):
            Unit.from_json(dict(doc, signs=[1, 1]))
        with pytest.raises(ValidationFailed, match="mode: 10a-1"):
            Unit.from_json(dict(doc, branches=["1", "2"]))

    @pytest.mark.parametrize("kind, ok", [
        ("flat_foldable", True), ("flat_foldable_basic", True),
        ("custom", True), ("straight_line", False),
        ("double_collinear", False)])
    def test_kind_must_match_the_vertex_classes(self, kind, ok):
        """A flat-foldable unit relabelled straight_line or double_collinear
        is refused, naming `kind`; before, its one-unit plan counted
        "2 = 2"."""
        doc = dict(solve_ff_unit(deg(80), deg(100), deg(60),
                                 FFUnitMode.A_PLUS).to_json(), kind=kind)
        if ok:
            assert Unit.from_json(doc).kind == kind
            return
        with pytest.raises(ValidationFailed, match=f"kind: {kind} needs"):
            Unit.from_json(doc)
        with pytest.raises(ValidationFailed, match="kind"):
            StitchPlan.from_json({"columns": [[doc]]})

    @pytest.mark.parametrize("make, kinds", [
        (lambda: make_straightline_unit(Vertex4.from_degrees((70, 80, 100, 110))),
         ("straight_line", "custom")),
        (lambda: make_straightline_unit(Vertex4.from_degrees((70, 110, 70, 110))),
         ("straight_line", "double_collinear", "custom")),
        (lambda: make_flatfoldable_basic_unit(deg(70), deg(95)),
         ("flat_foldable_basic", "flat_foldable", "custom"))])
    def test_kinds_each_unit_admits(self, make, kinds):
        doc = make().to_json()
        for kind in UNIT_KINDS:
            if kind in kinds:
                assert Unit.from_json(dict(doc, kind=kind)).kind == kind
            else:
                with pytest.raises(ValidationFailed, match="kind: "):
                    Unit.from_json(dict(doc, kind=kind))

    @pytest.mark.parametrize("name", [
        "showcase_a_plan", "showcase_b_plan", "herringbone_plan",
        "square_grid_plan", "single_ff_unit_plan"])
    def test_fixture_plans_round_trip(self, name):
        plan = getattr(fixtures, name)()
        back = StitchPlan.from_json(json.loads(json.dumps(plan.to_json())))
        assert ([u.kind for u in back.units()]
                == [u.kind for u in plan.units()])

    @pytest.mark.parametrize("name", ["showcase_a", "showcase_b"])
    def test_showcase_plan_files_load(self, name):
        path = Path(__file__).resolve().parents[1] / "demos" / "output"
        doc = json.loads((path / f"{name}_plan.json").read_text())
        assert StitchPlan.from_json(doc).n_cols >= 2

    def test_sector_view_is_role_labelled(self):
        u = solve_ff_unit(deg(80), deg(95), deg(60), FFUnitMode.A_MINUS)
        sd = u.sector_degrees
        assert sd[0] == pytest.approx(80)
        assert sd[1] == pytest.approx(95)
        assert sd[4] == pytest.approx(60)
        # each vertex's last two role angles supplement its first two
        assert sd[2] == pytest.approx(180 - sd[0])
        assert sd[6] == pytest.approx(180 - sd[4])


class TestInfeasibility:
    def test_worked_example(self):
        rep = infeasibility_witness(deg(80), deg(100), deg(60), deg(120))
        assert all(abs(x) < 1.0 for x in rep.bounded_side)
        assert all(p or abs(x) > 1.0
                   for x, p in zip(rep.unbounded_side, rep.poles))
        assert rep.margin > 0

    def test_pole_case(self):
        rep = infeasibility_witness(deg(90), deg(90), deg(90), deg(90))
        assert all(rep.poles)
        assert rep.margin == math.inf

    def test_random_quadruples(self, rng):
        for _ in range(2000):
            a = rng.uniform(deg(2), deg(178), size=4)
            rep = infeasibility_witness(*a)
            assert rep.margin > 0


# ---------------------------------------------------------------------------
# reference: the unit pipeline as it stood before `_reach` and `_validated`,
# copied verbatim but for the `_ref_` names it calls and its acceptance
# sweeps, each now of `UNIT_SAMPLES` samples
# ---------------------------------------------------------------------------


def _ref_shared_interval(u: Unit) -> float:
    """Largest |t| reachable by the connecting crease on both branches."""
    def reach(v, branch, comp):
        iv = fold_interval(v, branch)
        if iv.hi == 0.0:
            return 0.0
        return abs(solve_on_branch(v, iv.hi, branch).rho[comp])

    return min(reach(u.top, u.branch_top, 2), reach(u.bottom, u.branch_bottom, 0))


def _ref_validate_unit(u: Unit, n_samples: int = 200) -> UnitReport:
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    s2, s4 = u.signs
    t_max = _ref_shared_interval(u)

    if t_max > 1e-9:
        worst24 = worst47 = 0.0
        for k in range(n_samples):
            t = t_max * (2.0 * k / (n_samples - 1) - 1.0)
            st = u.solve(t)
            worst24 = max(worst24, abs(normalize_angle(st.rho[1] - s2 * st.rho[4])))
            worst47 = max(worst47, abs(normalize_angle(st.rho[3] - s4 * st.rho[6])))
        return UnitReport(worst24, worst47, n_samples, (-t_max, t_max), False)

    # shared crease never folds on this branch pair: drive the left pair
    def left_reach(v, branch):
        iv = fold_interval(v, branch)
        probe_r = iv.hi if iv.hi > 0 else math.pi
        try:
            return abs(solve_on_branch(v, probe_r, branch).rho[1])
        except OutOfDomain:
            return 0.0

    s_max = min(left_reach(u.top, u.branch_top),
                left_reach(u.bottom, u.branch_bottom))
    if s_max <= 1e-9:
        raise EmptyInterval(
            "the unit's common fold interval on this branch pair is {0}"
        )
    worst24 = worst47 = 0.0
    for k in range(n_samples):
        s = s_max * (2.0 * k / (n_samples - 1) - 1.0)
        if abs(s) < 1e-14:
            continue
        st_top = solve_at_crease(u.top, 2, s, u.branch_top)
        st_bot = solve_at_crease(u.bottom, 2, s2 * s, u.branch_bottom)
        # shared crease must agree (and stays flat on these branches)
        worst24 = max(worst24, abs(normalize_angle(st_top.rho[2] - st_bot.rho[0])))
        worst47 = max(worst47, abs(normalize_angle(st_top.rho[3] - s4 * st_bot.rho[3])))
    return UnitReport(worst24, worst47, n_samples, (-s_max, s_max), True)


def _ref_discover_signs(u: Unit):
    """Pick the sign pair from 9 samples; None when a side never folds."""
    t_max = _ref_shared_interval(u)
    s2 = s4 = None
    if t_max > 1e-9:
        for k in range(1, 10):
            st = u.solve(t_max * k / 10)
            if s2 is None and abs(st.rho[4]) > 1e-9:
                s2 = 1 if st.rho[1] * st.rho[4] > 0 else -1
            if s4 is None and abs(st.rho[6]) > 1e-9:
                s4 = 1 if st.rho[3] * st.rho[6] > 0 else -1
    return s2, s4


def _ref_finalize(u: Unit, n_samples: int) -> Unit:
    s2, s4 = _ref_discover_signs(u)
    u = replace(u, signs=(s2 if s2 else u.signs[0], s4 if s4 else u.signs[1]))
    report = _ref_validate_unit(u, n_samples)
    if not report.valid():
        raise ValidationFailed(
            f"unit validation failed: max residual {report.max_residual:.3e}"
        )
    return u


def _ref_identical_vertex_unit(v: Vertex4, branch: BranchId, *, mirrored: bool = True,
                               kind: str = "custom") -> Unit:
    bottom = v.mirrored() if mirrored else v
    unit = Unit(top=v, bottom=bottom, branch_top=branch, branch_bottom=branch,
                signs=(1, 1), kind=kind)
    return _ref_finalize(unit, UNIT_SAMPLES)


def _ref_make_straightline_unit(v: Vertex4) -> Unit:
    tag = classify(v).tag
    if tag is ClassTag.DOUBLE_COLLINEAR:
        bottom = v.mirrored()
        unit = Unit(top=v, bottom=bottom,
                    branch_top=BranchId.LINE_SEGMENT_1,
                    branch_bottom=BranchId.LINE_SEGMENT_1,
                    signs=(1, 1), kind="straight_line")
        report = _ref_validate_unit(unit, UNIT_SAMPLES)
        if not report.valid():
            raise ValidationFailed(
                f"unit validation failed: max residual {report.max_residual:.3e}"
            )
        return unit
    if tag is not ClassTag.STRAIGHT_LINE:
        raise WrongClass("make_straightline_unit requires a straight-line vertex")
    return _ref_identical_vertex_unit(v, BranchId.BRANCH_2, kind="straight_line")


def _ref_valid_branch_pairs(u: Unit) -> list:
    def curve_branches(v):
        tag = classify(v).tag
        if tag is ClassTag.STRAIGHT_LINE and not classify(v).flat_foldable:
            return (BranchId.BRANCH_2,)
        if tag in (ClassTag.DOUBLE_COLLINEAR, ClassTag.ADJACENT_COLLINEAR,
                   ClassTag.TRIVIAL):
            return ()
        return (BranchId.BRANCH_1, BranchId.BRANCH_2)

    pairs = []
    for bt in curve_branches(u.top):
        for bb in curve_branches(u.bottom):
            cand = replace(u, branch_top=bt, branch_bottom=bb)
            try:
                s2, s4 = _ref_discover_signs(cand)
                if s2 is None and s4 is None and _ref_shared_interval(cand) <= 1e-9:
                    continue
                cand = replace(cand, signs=(s2 or 1, s4 or 1))
                report = _ref_validate_unit(cand, UNIT_SAMPLES)
            except (EmptyInterval, OutOfDomain, DegenerateVertex, WrongClass):
                continue
            if report.degenerate_shared:
                continue
            if report.valid():
                pairs.append((bt, bb, cand.signs))
    return pairs


def _outcome(fn, *args):
    """repr of the result, or the exception's type and message."""
    try:
        return repr(fn(*args))
    except QuadfoldError as exc:
        return type(exc), str(exc)


def _vertices_of_every_class(rng) -> list:
    """Seeded vertices of every class, flat-foldable ones included, each
    also relabelled by one cyclic shift."""
    out = []
    for k in range(6):
        margin_deg = (0.5, 4.0)[k % 2]
        a, b = rng.uniform(math.radians(25), math.radians(155), size=2)
        c = rng.uniform(math.radians(10), math.pi - b - math.radians(10))
        out += [
            random_generic_vertex(rng, margin_deg),
            random_ff_vertex(rng, margin_deg),
            random_straightline_vertex(rng, margin_deg),
            Vertex4((a, a, math.pi - a, math.pi - a)),      # straight-line, FF
            Vertex4((a, math.pi - a, a, math.pi - a)),      # double-collinear
            Vertex4((math.pi, b, c, math.pi - b - c)),      # adjacent-collinear
            # trivial: one reflex sector
            Vertex4((math.pi + 0.2, b - 0.1, c - 0.05, math.pi - b - c - 0.05)),
        ]
    out.append(Vertex4.from_degrees((90, 90, 90, 90)))
    out += [v.shifted(1) for v in out]
    tags = {classify(v).tag for v in out}
    assert tags == set(ClassTag)
    return out


def test_make_straightline_unit_matches_reference(rng):
    for v in _vertices_of_every_class(rng):
        assert (_outcome(make_straightline_unit, v)
                == _outcome(_ref_make_straightline_unit, v))


def test_valid_branch_pairs_match_reference(rng):
    """Over mirrored, copied and mixed pairs of seeded vertices of every
    class, and over the showcase units upright and swapped."""
    vs = _vertices_of_every_class(rng)
    units = [u for plan in (showcase_a_plan(), showcase_b_plan())
             for u in plan.units()]
    units += [u.swapped() for u in units]
    for k, v in enumerate(vs):
        for bottom in (v.mirrored(), v, vs[(7 * k + 3) % len(vs)]):
            units.append(Unit(top=v, bottom=bottom,
                              branch_top=BranchId.BRANCH_1,
                              branch_bottom=BranchId.BRANCH_1, signs=(1, 1)))
    found = 0
    for u in units:
        got = _outcome(valid_branch_pairs, u)
        assert got == _outcome(_ref_valid_branch_pairs, u)
        found += got != "[]"
    assert found >= len(units) // 4


def _flat_interval_segment(u: Unit) -> bool:
    """Whether a vertex of `u` is adjacent-collinear on its line segment
    with fold interval [0, 0]: where the reference read "never folds" even
    when the segment folds the connecting crease (mended since)."""
    return any(classify(v).tag is ClassTag.ADJACENT_COLLINEAR
               and b is BranchId.LINE_SEGMENT_1
               and fold_interval(v, b).hi == 0.0
               for v, b in ((u.top, u.branch_top),
                            (u.bottom, u.branch_bottom)))


def test_validate_unit_matches_reference(rng):
    """validate_unit equals the reference, repr for repr, refusals and
    degenerate-shared reports included, over seeded vertices of every class
    with mirrored, plain and half-turned bottoms, on every branch pair and
    every sign pair.  The only units that differ are those of the mended
    "never folds" (`_flat_interval_segment`), where the reference refused
    or drove the side creases and validate_unit drives the shared crease."""
    outcomes = {}
    mended = 0
    for v in _vertices_of_every_class(rng):
        for bottom in (v.mirrored(), v, v.shifted(2)):
            for bt in BranchId:
                for bb in BranchId:
                    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                        u = Unit(top=v, bottom=bottom, branch_top=bt,
                                 branch_bottom=bb, signs=signs)
                        got = _outcome(validate_unit, u, 33)
                        want = _outcome(_ref_validate_unit, u, 33)
                        if got != want:
                            mended += 1
                            assert _flat_interval_segment(u), u
                            assert "degenerate_shared=False" in got
                            continue
                        kind = (got[0].__name__ if isinstance(got, tuple)
                                else "degenerate" if "shared=True" in got
                                else "report")
                        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert 0 < mended < 100
    assert set(outcomes) == {"report", "degenerate", "EmptyInterval",
                             "WrongClass", "DegenerateVertex"}
    assert min(outcomes.values()) > 100


def test_validate_unit_two_samples_matches_reference(rng):
    """validate_unit over two samples, the two ends of the common interval,
    equals the reference on every vertex class and branch pair, with
    mirrored, plain and half-turned bottoms (the mended "never folds" units
    aside), degenerate-shared reports included."""
    kinds = set()
    for v in _vertices_of_every_class(rng):
        for bottom in (v.mirrored(), v, v.shifted(2)):
            for bt in BranchId:
                for bb in BranchId:
                    for signs in ((1, -1), (-1, 1)):
                        u = Unit(top=v, bottom=bottom, branch_top=bt,
                                 branch_bottom=bb, signs=signs)
                        if _flat_interval_segment(u):
                            continue
                        got = _outcome(validate_unit, u, 2)
                        assert got == _outcome(_ref_validate_unit, u, 2)
                        kinds.add(got[0] if isinstance(got, tuple)
                                  else "shared=True" in got)
    assert {True, False, EmptyInterval, WrongClass} <= kinds


class TestRefusals:
    def test_signs_must_be_unit_pairs(self):
        u = make_straightline_unit(Vertex4.from_degrees((70, 80, 100, 110)))
        for signs in ((1, 0), (2, -1), (1, 1, 1), (1,)):
            with pytest.raises(ValidationFailed, match="signs must be"):
                replace(u, signs=signs)

    @pytest.mark.parametrize("d", [[80, 100, 60], "custom", None])
    def test_descriptor_must_be_an_object(self, d):
        with pytest.raises(ValidationFailed,
                           match="a unit descriptor must be a JSON object"):
            unit_from_descriptor(d)

    @pytest.mark.parametrize("d", [{"kind": "custom"}, {}])
    def test_custom_descriptor_needs_mirror_of_deg(self, d):
        with pytest.raises(ValidationFailed,
                           match="cannot interpret unit descriptor"):
            unit_from_descriptor(d)

    def test_free_angles_lie_in_the_open_interval(self):
        with pytest.raises(InvalidAngle, match=r"alpha1 must lie in \(0, pi\)"):
            solve_ff_unit(0.0, deg(95), deg(60), FFUnitMode.A_PLUS)
        with pytest.raises(InvalidAngle, match=r"alpha2 must lie in \(0, pi\)"):
            make_flatfoldable_basic_unit(deg(70), math.pi)

    def test_mode_yielding_alpha4_pi_is_refused(self):
        """Free angles inside (0, pi) whose mode identity yields
        alpha4 = pi exactly are refused, naming the mode."""
        with pytest.raises(InvalidAngle,
                           match="mode 10a-1 yields alpha4 = 3.14159"):
            solve_ff_unit(1e-8, math.pi - 1e-9, math.pi - 1e-9,
                          FFUnitMode.A_PLUS)


def _constructor_units(rng) -> list:
    """Seeded units of every constructor: `solve_ff_unit` in all four
    modes, `make_flatfoldable_basic_unit`, `make_straightline_unit` (both
    collinear pairs and double-collinear) and `identical_vertex_unit`
    (generic and flat-foldable, both curve branches, mirrored and plain);
    a design a constructor refuses is skipped."""
    makes = []
    for _ in range(4):
        a1, a2, a3 = rng.uniform(deg(25), deg(155), size=3)
        makes += [lambda m=m, a=(a1, a2, a3): solve_ff_unit(*a, m)
                  for m in FFUnitMode]
        makes.append(lambda a=(a1, a2): make_flatfoldable_basic_unit(*a))
        s = random_straightline_vertex(rng)
        makes += [lambda v=v: make_straightline_unit(v)
                  for v in (s, s.shifted(1),
                            Vertex4((a1, math.pi - a1, a1, math.pi - a1)))]
        for v in (random_generic_vertex(rng), random_ff_vertex(rng)):
            makes += [lambda v=v, b=b, m=m: identical_vertex_unit(
                          v, b, mirrored=m)
                      for b in (BranchId.BRANCH_1, BranchId.BRANCH_2)
                      for m in (True, False)]
    out = []
    for make in makes:
        try:
            out.append(make())
        except QuadfoldError:
            pass
    return out


def _fixture_units() -> list:
    return [u for plan in (showcase_a_plan(), showcase_b_plan())
            for u in plan.units()]


class TestOneDefinitionPerFact:
    """A unit's role labels, the flat-foldable vertex, mode tokens and the
    sign pair each have one definition."""

    def test_sector_is_the_bottom_vertex_shifted_by_two(self, rng):
        """`Unit.sector` is the top's sectors and the bottom's relabelled
        by `shifted(2)`, repr for repr, without building a vertex."""
        units = _fixture_units() + _constructor_units(rng)
        assert len(units) > 60
        for u in units:
            assert repr(u.sector) == repr(u.top.alpha
                                          + u.bottom.shifted(2).alpha)

    def test_flat_foldable_vertex_of_two_free_angles(self, rng):
        """Both flat-foldable constructors complete a1, a2 to
        (a1, a2, pi - a1, pi - a2); `solve_ff_unit`'s bottom vertex is that
        vertex of (alpha3, alpha4) relabelled by two."""
        for a1, a2, a3 in rng.uniform(deg(25), deg(155), size=(8, 3)):
            want = (a1, a2, math.pi - a1, math.pi - a2)
            basic = make_flatfoldable_basic_unit(a1, a2)
            assert basic.top.alpha == basic.bottom.alpha == want
            for mode in FFUnitMode:
                try:
                    u = solve_ff_unit(a1, a2, a3, mode)
                except QuadfoldError:
                    continue
                a4 = u.sector[5]
                assert u.top.alpha == want
                assert u.bottom.alpha == (math.pi - a3, math.pi - a4, a3, a4)

    def test_mode_tokens_are_case_blind(self):
        for mode in FFUnitMode:
            for token in (mode.value, mode.value.upper(),
                          f"  {mode.value.upper()}\n", f"\t{mode.value} "):
                assert FFUnitMode.from_token(token) is mode

    @pytest.mark.parametrize("token", ["10a", "10a-3", "A_PLUS", "a_plus",
                                       "", "FFUnitMode.A_PLUS"])
    def test_refused_mode_tokens(self, token):
        """A refused token is named as given, in the library, in a unit
        document's `mode` and in a flat-foldable descriptor."""
        message = f"unknown flat-foldable unit mode {token!r}"
        with pytest.raises(ValueError) as exc:
            FFUnitMode.from_token(token)
        assert str(exc.value) == message
        doc = solve_ff_unit(deg(80), deg(95), deg(60), FFUnitMode.A_MINUS
                            ).to_json()
        with pytest.raises(ValidationFailed) as exc:
            Unit.from_json(dict(doc, mode=token))
        assert str(exc.value) == f"mode: {message}"
        with pytest.raises(ValidationFailed) as exc:
            unit_from_descriptor({"kind": "flat_foldable",
                                  "alphas_deg": [80, 95, 60], "mode": token})
        assert str(exc.value) == f"mode: {message}"

    @pytest.mark.parametrize("signs", [(True, True), (1.0, -1.0),
                                       (True, -1), (1, 1.0)])
    def test_bool_and_float_signs_are_refused(self, signs):
        """Before, `Unit` took these pairs (True == 1, 1.0 == 1) and wrote
        documents that `Unit.from_json` then refused."""
        u = make_straightline_unit(Vertex4.from_degrees((70, 80, 100, 110)))
        with pytest.raises(ValidationFailed) as exc:
            replace(u, signs=signs)
        assert str(exc.value) == f"signs must be +/-1 pairs, got {signs}"
        with pytest.raises(ValidationFailed) as exc:
            Unit.from_json(dict(u.to_json(), signs=list(signs)))
        assert str(exc.value) == ("signs must be two of the integers 1 and "
                                  f"-1, got {list(signs)!r}")

    def test_sign_pairs_are_stored_as_int_tuples(self):
        """A list pair or numpy integers are stored as a tuple of int, so
        the unit hashes, stitches and reads back from its document."""
        plan = herringbone_plan(3, 3)
        listed = [[replace(u, signs=list(u.signs)) for u in col]
                  for col in plan.columns]
        for col in listed:
            for u in col:
                assert type(u.signs) is tuple
                assert all(type(s) is int for s in u.signs)
        p = stitch(StitchPlan(columns=tuple(map(tuple, listed)),
                              lengths=plan.lengths))
        assert p.m == 3 and p.n == 3
        u = next(plan.units())
        wide = replace(u, signs=(np.int64(u.signs[0]), np.int32(u.signs[1])))
        assert wide.signs == u.signs
        assert all(type(s) is int for s in wide.signs)
        assert wide == u and hash(wide) == hash(u)
        doc = json.loads(json.dumps(wide.to_json()))
        assert Unit.from_json(doc).signs == u.signs

    def test_open_interval_refusals_name_each_angle(self):
        with pytest.raises(InvalidAngle,
                           match=r"^alpha3 must lie in \(0, pi\), got 0\.0$"):
            solve_ff_unit(deg(80), deg(95), 0.0, FFUnitMode.A_PLUS)
        with pytest.raises(InvalidAngle,
                           match=r"^alpha4 must lie in \(0, pi\)"):
            infeasibility_witness(deg(80), deg(95), deg(60), math.pi)
        with pytest.raises(InvalidAngle,
                           match=r"^alpha1 must lie in \(0, pi\)"):
            infeasibility_witness(-1.0, math.pi, deg(60), math.pi)


def test_reach_is_zero_where_the_branch_ends_before_r_max(monkeypatch):
    """`_reach` reads 0 when the branch cannot be evaluated at the r_max
    its parametrization reports.  No seeded vertex has been found whose
    curve refuses its own r_max, so the parametrization here reports an
    r_max past where its branch ends."""
    v = Vertex4.from_degrees((80, 95, 75, 110))
    b = BranchId.BRANCH_1
    curve = _branch_param(v.alpha, b)
    assert units_mod._reach(v, b, 2) > 0.0
    past = copy.copy(curve)
    past.r_max = math.nextafter(curve.r_max + 1e-9, math.inf)
    with pytest.raises(OutOfDomain):
        solve_on_branch(v, past.r_max, b)
    monkeypatch.setattr(units_mod, "_branch_param", lambda alpha, br: past)
    assert units_mod._reach(v, b, 2) == 0.0
