import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from quadfold import (
    BranchId,
    FFUnitMode,
    IncompatibleUnits,
    LayoutFailure,
    NotABlanket,
    PlanLengths,
    StitchPlan,
    Unit,
    ValidationFailed,
    Vertex4,
    count_branches,
    count_dof,
    enumerate_branch_choices,
    identical_vertex_unit,
    make_flatfoldable_basic_unit,
    make_straightline_unit,
    stitch,
    unit_from_descriptor,
)
from quadfold import fixtures as fixtures_mod
from quadfold import pattern as pattern_mod
from quadfold import units as units_mod
from quadfold.units import _acceptance_residual
from quadfold.fixtures import (
    herringbone_plan,
    showcase_a_plan,
    showcase_b_plan,
    single_ff_unit_plan,
    square_grid_plan,
)

deg = math.radians


@pytest.fixture(scope="module")
def plan_a():
    return showcase_a_plan()


@pytest.fixture(scope="module")
def plan_b():
    return showcase_b_plan()


class TestStitch:
    def test_showcase_a_grid(self, plan_a):
        p = stitch(plan_a)
        assert (p.m, p.n) == (3, 3)
        # four straight-line units, one fresh flat-foldable unit, one basic
        kinds = [u.kind for u in plan_a.units()]
        assert kinds.count("straight_line") == 4
        assert kinds.count("flat_foldable") == 1
        assert kinds.count("flat_foldable_basic") == 1

    def test_showcase_b_grid(self, plan_b):
        p = stitch(plan_b)
        assert (p.m, p.n) == (3, 3)
        kinds = [u.kind for u in plan_b.units()]
        assert kinds.count("flat_foldable") == 2
        assert kinds.count("custom") == 4

    def test_single_unit_plan(self):
        p = stitch(single_ff_unit_plan())
        assert (p.m, p.n) == (2, 1)

    def test_panel_angle_sums(self, plan_a):
        p = stitch(plan_a)
        for i in range(p.m - 1):
            for j in range(p.n - 1):
                total = (p.vertex(i, j).alpha[3]
                         + p.vertex(i + 1, j).alpha[0]
                         + p.vertex(i + 1, j + 1).alpha[1]
                         + p.vertex(i, j + 1).alpha[2])
                assert total == pytest.approx(2 * math.pi, abs=1e-9)

    def test_mismatched_shared_vertex(self):
        u1 = make_straightline_unit(Vertex4.from_degrees((70, 80, 100, 110)))
        u2 = make_straightline_unit(Vertex4.from_degrees((75, 80, 100, 105)))
        with pytest.raises(IncompatibleUnits):
            stitch(StitchPlan(columns=((u1, u2),)))

    def test_mismatched_shared_branch(self):
        """Two stacked plain-copy units of one flat-foldable vertex, the
        upper on BRANCH_1 and the lower on BRANCH_2: each unit is valid
        and the shared vertex (1,0) is the same vertex, but the two units
        put it on different branches."""
        v = Vertex4.from_degrees((70, 95, 110, 85))
        upper, lower = (identical_vertex_unit(v, b, mirrored=False)
                        for b in (BranchId.BRANCH_1, BranchId.BRANCH_2))
        assert upper.bottom.isclose(lower.top)
        with pytest.raises(IncompatibleUnits, match=re.escape(
                "column 0: units 0 and 1 assign different branches to "
                "shared vertex (1,0)")):
            stitch(StitchPlan(columns=((upper, lower),)))
        stitch(StitchPlan(columns=((upper, upper),)))

    def test_mismatched_panel_between_columns(self):
        u1 = make_straightline_unit(Vertex4.from_degrees((70, 80, 100, 110)))
        u2 = make_straightline_unit(Vertex4.from_degrees((95, 85, 75, 105)))
        with pytest.raises(IncompatibleUnits):
            stitch(StitchPlan(columns=((u1,), (u2,))))

    def test_each_distinct_unit_validated_once(self, monkeypatch):
        plan = herringbone_plan(4, 3)
        seen = []

        def counting(u):
            seen.append(u)
            return _acceptance_residual(u)

        monkeypatch.setattr(units_mod, "_acceptance_residual", counting)
        stitch(plan)
        units = list(plan.units())
        assert len(units) == 9
        assert len(seen) == len(set(seen)) == len(set(units)) == 2

    def test_repeated_failing_unit_reports_first_position(self, monkeypatch):
        plan = herringbone_plan(4, 3)
        bad = plan.columns[0][1]
        assert bad != plan.columns[0][0] and plan.columns[1][1] == bad

        def failing(u):
            residual = _acceptance_residual(u)
            return 1.0 if u == bad else residual

        monkeypatch.setattr(units_mod, "_acceptance_residual", failing)
        with pytest.raises(ValidationFailed, match="unit 1 of column 0 "):
            stitch(plan)

    def test_ragged_columns_rejected(self):
        u = make_straightline_unit(Vertex4.from_degrees((70, 80, 100, 110)))
        u2 = make_straightline_unit(u.bottom)
        with pytest.raises(NotABlanket):
            StitchPlan(columns=((u, u2), (u,)))


class TestPanelClosure:
    """A panel whose four sector angles miss 2*pi by more than 1e-9 is one
    defect, refused with one error naming it, whatever its size and
    whichever way the pattern is built."""

    CLOSED = (0.0, 5e-10)
    OPEN = (2e-9, 1e-7, 1e-5, 4e-5, 1e-4)

    @staticmethod
    def _stitched(eps):
        """Two herringbone columns whose c angles differ by eps / 2, so
        that each inner panel sums to 2*pi + eps."""
        c = deg(75.0)
        cols = (herringbone_plan(3, 1, 95.0, math.degrees(c)).columns[0],
                herringbone_plan(3, 1, 95.0,
                                 math.degrees(c + eps / 2)).columns[0])
        return stitch(StitchPlan(columns=cols))

    @staticmethod
    def _moved(p, eps):
        """Vertex (1, 1) of `p` with a1 moved by +eps and a2 by -eps."""
        a = list(p.vertex(1, 1).alpha)
        a[0] += eps
        a[1] -= eps
        return Vertex4(a)

    def _from_vertices(self, p, eps):
        rows = [list(row) for row in p.vertices]
        rows[1][1] = self._moved(p, eps)
        return pattern_mod.QuadPattern.from_vertices(rows, p.branch_default)

    def _relayout(self, p, eps):
        return p.with_vertex(1, 1, self._moved(p, eps)).relayout(
            PlanLengths())

    @pytest.mark.parametrize("eps", CLOSED)
    def test_closed_panels_lay_out(self, plan_a, eps):
        p = stitch(plan_a)
        self._stitched(eps)
        self._from_vertices(p, eps)
        self._relayout(p, eps)

    @pytest.mark.parametrize("eps", OPEN)
    def test_open_panel_is_refused_on_every_path(self, plan_a, eps):
        p = stitch(plan_a)
        named = re.escape("inner panel (0,0)")
        for build in (lambda: self._stitched(eps),
                      lambda: self._from_vertices(p, eps),
                      lambda: self._relayout(p, eps)):
            with pytest.raises(IncompatibleUnits, match=named):
                build()


class TestLayout:
    def test_square_grid_coordinates(self):
        p = stitch(square_grid_plan(2, 2))
        # unit crease lengths: inner vertices at integer positions
        assert p.point(1, 1) == pytest.approx([0.0, 0.0])
        assert p.point(1, 2) == pytest.approx([1.0, 0.0])
        assert p.point(2, 1) == pytest.approx([0.0, -1.0])
        assert p.point(2, 2) == pytest.approx([1.0, -1.0])
        # boundary stubs one unit outward
        assert p.point(0, 1) == pytest.approx([0.0, 1.0])
        assert p.point(1, 0) == pytest.approx([-1.0, 0.0])

    def test_angles_reproduced(self, plan_a):
        p = stitch(plan_a)
        for i in range(p.m):
            for j in range(p.n):
                c = p.point(i + 1, j + 1)
                spokes = {
                    "U": p.point(i, j + 1) - c,
                    "L": p.point(i + 1, j) - c,
                    "D": p.point(i + 2, j + 1) - c,
                    "R": p.point(i + 1, j + 2) - c,
                }
                ang = {k: math.atan2(s[1], s[0]) for k, s in spokes.items()}
                order = ["R", "U", "L", "D"]
                for k in range(4):
                    got = (ang[order[(k + 1) % 4]] - ang[order[k]]) % (2 * math.pi)
                    assert got == pytest.approx(p.vertex(i, j).alpha[k],
                                                abs=1e-9)

    def test_custom_lengths(self, plan_a):
        lengths = PlanLengths(top=(2.0, 1.5), left=(1.0, 2.5), boundary=0.5)
        p = stitch(StitchPlan(columns=plan_a.columns, lengths=lengths))
        d01 = np.linalg.norm(p.point(1, 2) - p.point(1, 1))
        assert d01 == pytest.approx(2.0)
        d_left = np.linalg.norm(p.point(2, 1) - p.point(1, 1))
        assert d_left == pytest.approx(1.0)

    @pytest.mark.parametrize("lengths, named", [
        (PlanLengths(top=(2.0,)), "top_lengths must hold 2"),
        (PlanLengths(top=(2.0, 1.5, 1.0)), "top_lengths must hold 2"),
        (PlanLengths(left=()), "left_lengths must hold 2"),
        (PlanLengths(top=(1.0, math.inf)), "top_lengths"),
        (PlanLengths(left=(0.0, 1.0)), "left_lengths"),
        (PlanLengths(boundary=math.nan), "boundary_length"),
        (PlanLengths(boundary=-0.5), "boundary_length"),
    ])
    def test_lengths_must_fit_the_grid(self, plan_a, lengths, named):
        """One length per column gap and per row gap, each positive and
        finite, whichever way the pattern is built."""
        with pytest.raises(LayoutFailure, match=named):
            stitch(StitchPlan(columns=plan_a.columns, lengths=lengths))
        p = stitch(plan_a)
        with pytest.raises(LayoutFailure, match=named):
            pattern_mod.QuadPattern.from_vertices(p.vertices,
                                                  p.branch_default, lengths)

    def test_relayout_refuses_an_unclosed_panel(self):
        # two stacked square-vertex units next to each other cannot close a
        # panel if one column's angles are inconsistent; build an impossible
        # direction pair directly
        v_bad = Vertex4.from_degrees((90, 90, 90, 90))
        u = Unit(top=v_bad, bottom=v_bad,
                 branch_top=BranchId.LINE_SEGMENT_1,
                 branch_bottom=BranchId.LINE_SEGMENT_1, signs=(1, 1),
                 kind="double_collinear")
        # stitching is fine; force a failure through with_vertex + relayout
        p = stitch(StitchPlan(columns=((u,), (u,))))
        bad = p.with_vertex(0, 1, Vertex4.from_degrees((100, 80, 100, 80)))
        with pytest.raises(IncompatibleUnits):
            bad.relayout(PlanLengths())

    @pytest.mark.parametrize("build, face", [
        (lambda: stitch(herringbone_plan(8, 8, 95, 40)), "(1,0)"),
        (lambda: stitch(herringbone_plan(4, 4, 95, 75)).relayout(
            PlanLengths(boundary=2.5)), "(1,0)"),
        (lambda: stitch(showcase_b_plan()).relayout(PlanLengths(
            top=(0.5391394681290733, 2.046787463340262),
            left=(0.8747968197544411, 1.4055182136849949),
            boundary=2.689802470666429)), "(3,1)"),
    ])
    def test_crossing_face_is_refused(self, build, face):
        """Boundary or inner creases that cross make a self-intersecting
        (bow-tie) or inverted face; the layout refuses it by name instead
        of handing it to certify, realize and the exports."""
        with pytest.raises(LayoutFailure, match=re.escape(f"face {face}")):
            build()

    def test_crossing_face_is_refused_from_vertices(self):
        """from_vertices lays out through the same check: the 8x8
        herringbone at c = 40 deg lays out with short boundary stubs and is
        refused with the default ones."""
        plan = herringbone_plan(8, 8, 95, 40)
        p = stitch(replace(plan, lengths=PlanLengths(boundary=0.25)))
        with pytest.raises(LayoutFailure, match=re.escape("face (1,0)")):
            pattern_mod.QuadPattern.from_vertices(p.vertices,
                                                  p.branch_default)


class TestDerivedPatterns:
    def test_with_vertex_keeps_layout_and_drops_plan(self, plan_a):
        p = stitch(plan_a)
        a = list(p.vertex(1, 1).alpha)
        a[0] += deg(0.5)
        a[2] -= deg(0.5)
        bad = p.with_vertex(1, 1, Vertex4(a))
        assert bad.vertex(1, 1) == Vertex4(a)
        assert bad.vertex(0, 0) == p.vertex(0, 0)
        assert bad.plan is None
        assert bad.grid is p.grid and bad.directions == p.directions
        # no plan stitches the changed grid: only the default assignment
        assert list(enumerate_branch_choices(bad)) == [bad.branch_default]

    def test_equality_is_identity(self, plan_a):
        """The layout is an array, so patterns compare and hash by
        identity instead of raising."""
        p, q = stitch(plan_a), stitch(plan_a)
        assert p == p and p != q
        assert len({p, q, p}) == 2

    def test_relayout_records_its_lengths(self, plan_a):
        lengths = PlanLengths(top=(2.0, 0.5))
        q = stitch(plan_a).relayout(lengths)
        assert q.plan == replace(plan_a, lengths=lengths)
        assert np.array_equal(q.grid, stitch(q.plan).grid)

    def test_relayout_without_plan(self, plan_a):
        p = stitch(plan_a)
        q = pattern_mod.QuadPattern.from_vertices(p.vertices,
                                                  p.branch_default)
        lengths = PlanLengths(left=(2.0, 0.5))
        r = q.relayout(lengths)
        assert r.plan is None
        assert np.array_equal(
            r.grid, stitch(replace(plan_a, lengths=lengths)).grid)

    def test_herringbone_builds_each_unit_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return identical_vertex_unit(*args, **kwargs)

        monkeypatch.setattr(fixtures_mod, "identical_vertex_unit", counted)
        plan = herringbone_plan(8, 8)
        assert len(calls) <= 2
        for col in plan.columns:
            assert len(col) == 7
            assert all(u == col[k % 2] for k, u in enumerate(col))

    def test_from_vertices_refuses_malformed_grids(self, plan_a):
        p = stitch(plan_a)
        vs, bs = p.vertices, p.branch_default
        for vertices, branches in (
                ((), ()),
                (((),), ((),)),
                ((vs[0], vs[1][:2], vs[2]), bs),
                (vs, bs[:2]),
                (vs, (bs[0], bs[1], bs[2][:2])),
                (vs, bs + (bs[0],)),
        ):
            with pytest.raises(NotABlanket):
                pattern_mod.QuadPattern.from_vertices(vertices, branches)


class TestParallelRows:
    def test_showcase_a_has_one_parallel_row(self, plan_a):
        p = stitch(plan_a)
        assert p.parallel_rows() == (False, True)

    def test_showcase_b_has_none(self, plan_b):
        p = stitch(plan_b)
        assert p.parallel_rows() == (False, False)

    def test_square_grid_all_parallel(self):
        p = stitch(square_grid_plan(3, 3))
        assert p.parallel_rows() == (True, True)


class TestCountDof:
    def test_showcase_a_caption(self, plan_a):
        rep = count_dof(plan_a)
        assert rep.terms == (2, 3, 2)
        assert rep.deduction == 2
        assert rep.total == 5
        assert rep.caption() == "2 + 3 + 2 - 2 = 5"

    def test_showcase_b_caption(self, plan_b):
        rep = count_dof(plan_b)
        assert rep.terms == (3, 3, 1, 3)
        assert rep.deduction == 4
        assert rep.total == 6
        assert rep.caption() == "3 + 3 + 1 + 3 - 4 = 6"

    def test_single_ff_unit(self):
        rep = count_dof(single_ff_unit_plan())
        assert rep.terms == (3,)
        assert rep.total == 3

    def test_failing_unit_is_refused(self):
        u = make_straightline_unit(Vertex4.from_degrees((70, 80, 100, 110)))
        bad = replace(u, signs=(-1, -1))  # the mirrored pairing needs (1, 1)
        with pytest.raises(ValidationFailed, match="unit 0 of column 0 "):
            count_dof(StitchPlan(columns=((bad,),)))

    def test_negative_total_is_a_design_error(self, plan_b, monkeypatch):
        from quadfold import NegativeDof

        monkeypatch.setattr(pattern_mod, "DOF_TABLE", dict(
            pattern_mod.DOF_TABLE, custom=(0, 0), flat_foldable=(0, 0)))
        with pytest.raises(NegativeDof):
            count_dof(plan_b)


class TestCountBranches:
    def test_showcase_a(self, plan_a):
        assert count_branches(plan_a) == 1

    def test_showcase_b(self, plan_b):
        assert count_branches(plan_b) == 4

    def test_single_ff_unit(self):
        assert count_branches(single_ff_unit_plan()) == 1

    def test_multiplicative_under_concatenation(self, plan_a, plan_b):
        combined = StitchPlan(columns=plan_a.columns + plan_b.columns)
        assert (count_branches(combined)
                == count_branches(plan_a) * count_branches(plan_b))

    @pytest.mark.parametrize("make", [
        lambda: herringbone_plan(8, 8), showcase_a_plan, showcase_b_plan,
    ])
    def test_asks_once_per_distinct_unit(self, make, monkeypatch):
        """`branch_chains` calls valid_branch_pairs once per distinct unit
        and gives the chains of a unit-by-unit walk, in its order."""
        plan = make()
        walk = []
        for col in plan.columns:
            chains = [(bt, bb) for bt, bb, _ in
                      pattern_mod.valid_branch_pairs(col[0])]
            for u in col[1:]:
                chains = [c + (bb,) for c in chains for bt, bb, _ in
                          pattern_mod.valid_branch_pairs(u) if bt is c[-1]]
            walk.append(chains)
        asked = []
        real = pattern_mod.valid_branch_pairs
        monkeypatch.setattr(pattern_mod, "valid_branch_pairs",
                            lambda u: asked.append(u) or real(u))
        assert pattern_mod.branch_chains(plan) == walk
        assert len(asked) == len(set(asked)) == len(set(plan.units()))


class TestPlanJson:
    def test_roundtrip(self, plan_a):
        doc = plan_a.to_json()
        plan2 = StitchPlan.from_json(json.loads(json.dumps(doc)))
        p1 = stitch(plan_a)
        p2 = stitch(plan2)
        for i in range(p1.m):
            for j in range(p1.n):
                assert p1.vertex(i, j).isclose(p2.vertex(i, j))

    def test_constructor_descriptors(self):
        u = unit_from_descriptor(
            {"kind": "straight_line", "alphas_deg": [70, 80, 100, 110]}
        )
        assert u.kind == "straight_line"
        u = unit_from_descriptor(
            {"kind": "flat_foldable", "alphas_deg": [80, 100, 60],
             "mode": "10a-1"}
        )
        assert u.mode is FFUnitMode.A_PLUS
        u = unit_from_descriptor(
            {"kind": "custom", "mirror_of_deg": [77, 88, 112, 83],
             "branch": "2"}
        )
        assert u.branch_top is BranchId.BRANCH_2

    def test_flat_foldable_basic_descriptor(self):
        """The descriptor builds what its constructor builds, from the two
        free sector angles in degrees."""
        u = unit_from_descriptor(
            {"kind": "flat_foldable_basic", "alphas_deg": [70, 95]})
        assert u == make_flatfoldable_basic_unit(math.radians(70),
                                                 math.radians(95))
        assert u.kind == "flat_foldable_basic"

    def test_ff_descriptor_solves_alpha4(self):
        u = unit_from_descriptor(
            {"kind": "flat_foldable", "alphas_deg": [80, 100, 60],
             "mode": "10b-1"}
        )
        assert math.degrees(u.sector[5]) == pytest.approx(120.0, abs=1e-12)


class TestRefusals:
    @pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (3, 0), (-1, 2)])
    def test_a_pattern_has_inner_vertices(self, m, n, plan_a):
        """`QuadPattern` refuses m or n below 1 when it is built, directly
        or by `replace`, so no export, `realize`, `build_tree` or `certify`
        meets a pattern without inner vertices."""
        grid = np.zeros((max(m, 0) + 2, max(n, 0) + 2, 2))
        with pytest.raises(NotABlanket,
                           match="^pattern has no inner vertices$"):
            pattern_mod.QuadPattern(m, n, (), (), None, grid, ())
        with pytest.raises(NotABlanket,
                           match="^pattern has no inner vertices$"):
            replace(stitch(plan_a), m=m, n=n)

    def test_vertices_must_be_m_rows_of_n(self, plan_a):
        """After m and n, each field must fit them: NotABlanket names the
        field, its shape and the shape the pattern needs."""
        p = stitch(plan_a)
        for bad in (p.vertices[:2], p.vertices[:2] + (p.vertices[2][:2],)):
            with pytest.raises(NotABlanket, match=re.escape(
                    f"vertices has row lengths {[len(r) for r in bad]}; "
                    "the 3x3 pattern needs [3, 3, 3]")):
                replace(p, vertices=bad)

    def test_branch_default_must_be_m_rows_of_n(self, plan_a):
        p = stitch(plan_a)
        bad = p.branch_default + (p.branch_default[0],)
        with pytest.raises(NotABlanket, match=re.escape(
                "branch_default has row lengths [3, 3, 3, 3]; the 3x3 "
                "pattern needs [3, 3, 3]")):
            replace(p, branch_default=bad)

    def test_directions_must_be_m_by_n(self, plan_a):
        p = stitch(plan_a)
        bad = tuple(row[:1] for row in p.directions)
        with pytest.raises(NotABlanket, match=re.escape(
                "directions has row lengths [1, 1, 1]; the 3x3 pattern "
                "needs [3, 3, 3]")):
            replace(p, directions=bad)

    def test_grid_must_be_m_plus_2_by_n_plus_2_points(self, plan_a):
        """A 1x1 pattern over a 2x2 point grid (whose FOLD edges would name
        points 0..8 over 4 coordinates) and a grid of the right size
        without its last axis are refused."""
        with pytest.raises(NotABlanket, match=re.escape(
                "grid has shape (2, 2, 2); the 1x1 pattern needs (3, 3, 2)")):
            pattern_mod.QuadPattern(1, 1, ((None,),), ((None,),), None,
                                    np.zeros((2, 2, 2)), ((None,),))
        p = stitch(plan_a)
        with pytest.raises(NotABlanket, match=re.escape(
                "grid has shape (5, 5); the 3x3 pattern needs (5, 5, 2)")):
            replace(p, grid=p.grid[:, :, 0].copy())

    def test_vertices_entries_are_vertex4(self, plan_a):
        """After the shapes, each `vertices` entry must be a Vertex4:
        NotABlanket names the field and the entry, whether the pattern is
        built directly, by `replace`, by `with_vertex` (which skips only
        the geometric checks) or by `from_vertices`."""
        with pytest.raises(NotABlanket, match=re.escape(
                "vertices entry (0,0) is None, not a Vertex4")):
            pattern_mod.QuadPattern(1, 1, ((None,),), ((BranchId.BRANCH_1,),),
                                    None, np.zeros((3, 3, 2)), ((None,),))
        p = stitch(plan_a)
        rows = [list(row) for row in p.vertices]
        rows[2][1] = p.vertex(2, 1).alpha
        with pytest.raises(NotABlanket, match=re.escape(
                f"vertices entry (2,1) is {rows[2][1]!r}, not a Vertex4")):
            replace(p, vertices=tuple(map(tuple, rows)))
        with pytest.raises(NotABlanket, match=re.escape(
                "vertices entry (1,2) is 'x', not a Vertex4")):
            p.with_vertex(1, 2, "x")
        with pytest.raises(NotABlanket, match=re.escape(
                "vertices entry (0,0) is None, not a Vertex4")):
            pattern_mod.QuadPattern.from_vertices([[None]],
                                                  [[BranchId.BRANCH_1]])

    def test_branch_default_entries_are_branch_ids(self, plan_a):
        """Each `branch_default` entry must be a BranchId; a token is
        refused, naming the field and the entry."""
        p = stitch(plan_a)
        rows = [list(row) for row in p.branch_default]
        rows[0][1] = "1"
        with pytest.raises(NotABlanket, match=re.escape(
                "branch_default entry (0,1) is '1', not a BranchId")):
            replace(p, branch_default=tuple(map(tuple, rows)))
        with pytest.raises(NotABlanket, match=re.escape(
                "branch_default entry (0,0) is None, not a BranchId")):
            pattern_mod.QuadPattern.from_vertices([[p.vertex(0, 0)]],
                                                  [[None]])

    @pytest.mark.parametrize("plan, kind", [
        (5, "int"), (None, "NoneType"), ("plan", "str"), ((), "tuple")])
    def test_stitch_takes_a_plan(self, plan, kind, plan_a):
        """`stitch` refuses anything but a StitchPlan, its columns
        included, naming the type, and `count_dof` refuses it through
        `stitch`."""
        for bad, name in ((plan, kind), (plan_a.columns, "tuple")):
            for fn in (stitch, count_dof):
                with pytest.raises(NotABlanket, match=re.escape(
                        f"stitch takes a StitchPlan, not {name}")):
                    fn(bad)

    def test_plan_columns_hold_units(self):
        u = single_ff_unit_plan().columns[0][0]
        for columns in (((u,), ()), ((),), ()):
            with pytest.raises(NotABlanket,
                               match="at least one unit per column"):
                StitchPlan(columns=columns)

    def test_caption_without_deduction(self):
        """A herringbone's panel rows are all parallel, so its caption
        shows no deduction."""
        report = count_dof(herringbone_plan(3, 3))
        assert report.deduction == 0
        assert report.caption() == "2 + 2 + 2 = 6"
