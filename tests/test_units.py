import math

import pytest

from quadfold import (
    BranchId,
    DegenerateVertex,
    EmptyInterval,
    FFUnitMode,
    Unit,
    Vertex4,
    WrongClass,
    identical_vertex_unit,
    infeasibility_witness,
    make_flatfoldable_basic_unit,
    make_straightline_unit,
    solve_ff_unit,
    valid_branch_pairs,
    validate_unit,
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

    def test_swap_invariance(self):
        u = solve_ff_unit(deg(80), deg(95), deg(60), FFUnitMode.A_MINUS)
        rep = validate_unit(u.swapped(), 100)
        assert rep.max_residual < 1e-8


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


class TestUnitJson:
    def test_roundtrip(self):
        u = solve_ff_unit(deg(80), deg(95), deg(60), FFUnitMode.A_MINUS)
        doc = u.to_json()
        u2 = Unit.from_json(doc)
        for v2, v in ((u2.top, u.top), (u2.bottom, u.bottom)):
            assert all(abs(x - y) <= 1e-12 for x, y in zip(v2.alpha, v.alpha))
        assert u2.signs == u.signs
        assert u2.branch_top is u.branch_top
        assert u2.mode is u.mode

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
