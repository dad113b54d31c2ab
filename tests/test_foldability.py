import dataclasses
import importlib
import itertools
import json
import math
import random
from types import SimpleNamespace

import pytest

from quadfold import (
    BranchId,
    ClosureViolation,
    EmptyInterval,
    OutOfDomain,
    StitchPlan,
    Vertex4,
    build_tree,
    certify,
    count_branches,
    enumerate_branch_choices,
    mv_assignment,
    propagate,
    stitch,
    sweep,
    validate_unit,
)
from quadfold import foldability
from quadfold import vertex as vertex_mod
from quadfold.config import TAU_COMPAT, TAU_EMPTY, TAU_FLAT
from quadfold.errors import QuadfoldError, WrongClass
from quadfold.foldability import (
    BranchChoice,
    CompatibilityReport,
    Propagation,
    TreeStructure,
    _branch_grid,
    _passes,
    _probes,
    crease_slot,
    mv_letter,
)
from quadfold.vertex import (CURVE_BRANCHES, VertexSolution, normalize_angle,
                             solve_at_crease)
from quadfold.fixtures import (
    herringbone_plan,
    showcase_a_plan,
    showcase_b_plan,
    single_ff_unit_plan,
    square_grid_plan,
)

# the package binds the function `realize` over the module's name
realize_mod = importlib.import_module("quadfold.realize")
deg = math.radians


@pytest.fixture(scope="module")
def pat_a():
    return stitch(showcase_a_plan())


@pytest.fixture(scope="module")
def pat_b():
    return stitch(showcase_b_plan())


@pytest.fixture(scope="module")
def herringbone_32():
    return stitch(herringbone_plan(32, 32))


class TestBuildTree:
    def test_cut_counts(self, pat_a):
        assert build_tree(pat_a).n_cuts == 4  # (3-1)*(3-1)

    def test_two_by_two(self):
        p = stitch(square_grid_plan(2, 2))
        assert build_tree(p).n_cuts == 1

    def test_single_column_is_already_a_tree(self):
        p = stitch(single_ff_unit_plan())
        assert build_tree(p).n_cuts == 0

    def test_a_pattern_without_inner_vertices_is_not_a_blanket(self):
        """No pattern lacks inner vertices: `QuadPattern` refuses one when
        it is built, so `build_tree` and `certify` never see it."""
        import numpy as np
        from quadfold import NotABlanket, QuadPattern

        with pytest.raises(NotABlanket,
                           match="^pattern has no inner vertices$"):
            QuadPattern(0, 0, (), (), None, np.zeros((2, 2, 2)), ())


class TestPropagate:
    def test_trivial_state(self, pat_a):
        prop = propagate(build_tree(pat_a), 0.0, None)
        for row in prop.solutions:
            for sol in row:
                assert sol.rho == (0.0,) * 4
        assert prop.max_residual() == 0.0

    def test_one_column_blanket_has_no_residual(self):
        tree = build_tree(stitch(single_ff_unit_plan()))
        assert tree.n_cuts == 0
        assert propagate(tree, deg(30), None).max_residual() == 0.0

    def test_unit_pattern_compatible(self, pat_a):
        prop = propagate(build_tree(pat_a), deg(12), None)
        assert prop.max_residual() < 1e-10

    def test_theta_phi_are_independent_paths(self, pat_b):
        tree = build_tree(pat_b)
        prop = propagate(tree, deg(10), None)
        # every cut reports two values; they agree only because the pattern
        # is built from units
        assert len(prop.theta_phi) == 4
        for _, theta, phi in prop.theta_phi:
            assert theta == pytest.approx(phi, abs=1e-10)
            assert theta != 0.0

    def test_out_of_domain_names_vertex(self, pat_b):
        with pytest.raises(OutOfDomain, match=r"vertex"):
            propagate(build_tree(pat_b), deg(60), None)

    def test_degenerate_vertex_is_named(self):
        """A flat-foldable vertex with a1 = a2 = pi/2 has no curve branch:
        propagating on one names the vertex in an OutOfDomain, whose cause
        is the vertex's DegenerateVertex."""
        tree = build_tree(stitch(square_grid_plan(2, 2)))
        with pytest.raises(OutOfDomain) as exc:
            propagate(tree, 0.3, BranchId.BRANCH_1)
        assert str(exc.value) == ("top-row vertex (0,0): flat-foldable "
                                  "vertex with a1 = a2 = pi/2")
        assert type(exc.value.__cause__).__name__ == "DegenerateVertex"
        with pytest.raises(EmptyInterval):
            certify(tree.pattern, BranchId.BRANCH_1)

    @pytest.mark.parametrize("driving", [math.nan, math.inf, -math.inf])
    def test_non_finite_driving_angle_is_refused(self, driving):
        """A non-finite driving angle is refused at the first vertex, not
        clamped onto the end of its fold interval and folded."""
        tree = build_tree(stitch(herringbone_plan(4, 4)))
        with pytest.raises(OutOfDomain, match=r"top-row vertex \(0,0\)"):
            propagate(tree, driving)

    @pytest.mark.parametrize("plan", [showcase_a_plan(),
                                      herringbone_plan(3, 5),
                                      herringbone_plan(5, 3)],
                             ids=["showcase_a", "3x5", "5x3"])
    def test_edge_angle_reads_creases_only(self, plan):
        """Every crease of `QuadPattern.edges`, either end first, folds by
        a crease of an inner vertex at one of its ends pointing at the
        other: the lower end's U crease (the upper end's D at the bottom)
        and the left end's R crease (the right end's L at the left), each
        crease its own.  A boundary edge, under any kind, and an edge that
        is not one of the grid's (off it, spanning two edges, diagonal) are
        refused with ValueError."""
        p = stitch(plan)
        prop = propagate(build_tree(p), 0.2)
        refused = f"edge .* is not a crease of the {p.m}x{p.n} grid"
        toward = {0: (-1, 0), 1: (0, -1), 2: (1, 0), 3: (0, 1)}  # U L D R
        slots = set()
        for kind, a, b in p.edges():
            if kind == "boundary":
                for k in ("col", "row", "boundary"):
                    for ends in ((a, b), (b, a)):
                        with pytest.raises(ValueError, match=refused):
                            prop.edge_angle(k, *ends)
                continue
            (i, j, k), = {crease_slot(p.m, p.n, kind, *ends)
                          for ends in ((a, b), (b, a))}
            at = (i + 1, j + 1)
            if kind == "col":
                assert at == (b if b[0] <= p.m else a)
            else:
                assert at == (a if a[1] >= 1 else b)
            other, = {a, b} - {at}
            assert (other[0] - at[0], other[1] - at[1]) == toward[k]
            assert (i, j, k) not in slots
            slots.add((i, j, k))
            assert prop.edge_angle(kind, a, b) == prop.solutions[i][j].rho[k]
        for kind, a, b in [("col", (p.m + 2, 1), (p.m + 3, 1)),
                           ("col", (-1, 1), (0, 1)),
                           ("col", (0, 1), (2, 1)),
                           ("col", (1, 1), (1, 1)),
                           ("row", (1, 1), (2, 2)),
                           ("row", (1, p.n + 1), (1, p.n + 2)),
                           ("row", (1, -1), (1, 0)),
                           ("diag", (1, 1), (2, 1))]:
            with pytest.raises(ValueError, match=refused):
                prop.edge_angle(kind, a, b)

    def test_non_unit_pattern_incompatible(self, pat_b):
        # break one vertex: propagation still runs but theta != phi
        bad = pat_b.with_vertex(
            1, 1,
            Vertex4([x + d for x, d in zip(pat_b.vertex(1, 1).alpha,
                                           (deg(2), -deg(2), 0, 0))]),
        )
        prop = propagate(build_tree(bad), deg(10), None)
        assert prop.max_residual() > 1e-3


class TestCertify:
    def test_showcase_a(self, pat_a):
        rep = certify(pat_a, None, 200)
        assert rep.verdict
        assert rep.max_residual < 1e-8
        assert rep.interval[1] > deg(15)

    def test_showcase_b_all_four_choices(self, pat_b):
        choices = list(enumerate_branch_choices(pat_b))
        assert len(choices) == 4
        for ch in choices:
            rep = certify(pat_b, ch, 60)
            assert rep.verdict, rep.reason
            assert rep.max_residual < 1e-8

    def test_choices_match_branch_count(self, pat_a, pat_b):
        choices = {}
        for name, p in (("a", pat_a), ("b", pat_b)):
            choices[name] = list(enumerate_branch_choices(p))
            assert count_branches(p.plan) == len(choices[name])
            assert len(set(choices[name])) == len(choices[name])
        # the two showcases side by side do not stitch (their panels do not
        # close), but their branch chains combine column by column; the
        # enumeration reads only the plan and the grid size
        side_by_side = StitchPlan(columns=pat_a.plan.columns
                                  + pat_b.plan.columns)
        grid = SimpleNamespace(plan=side_by_side, m=pat_a.m,
                               n=pat_a.n + pat_b.n)
        got = list(enumerate_branch_choices(grid))
        assert count_branches(side_by_side) == len(got)
        assert got == [
            tuple(ra + rb for ra, rb in zip(ca, cb))
            for ca in choices["a"] for cb in choices["b"]
        ]

    def test_invalid_branch_choice_fails(self, pat_b):
        # outer column mixing branches between stacked units is inconsistent
        bad = [[pat_b.branch_default[i][j] for j in range(pat_b.n)]
               for i in range(pat_b.m)]
        bad[2][0] = BranchId.BRANCH_2
        rep = certify(pat_b, bad, 40)
        assert not rep.verdict

    def test_perturbation_flips_verdict(self, pat_a):
        v = pat_a.vertex(1, 1)
        alpha = list(v.alpha)
        alpha[0] += deg(0.5)
        alpha[2] -= deg(0.5)
        bad = pat_a.with_vertex(1, 1, Vertex4(alpha))
        rep = certify(bad, None, 60)
        assert not rep.verdict

    def test_perturbation_may_remove_the_branch_entirely(self, pat_a):
        # this perturbation keeps the vertex straight-line, which does not
        # carry the branch the plan assigned; certification refuses
        v = pat_a.vertex(1, 1)
        alpha = list(v.alpha)
        alpha[0] += deg(0.5)
        alpha[1] -= deg(0.5)
        bad = pat_a.with_vertex(1, 1, Vertex4(alpha))
        with pytest.raises(EmptyInterval):
            certify(bad, None, 60)

    def test_sign_flip_invariance(self, pat_a):
        rep = certify(pat_a, None, 50)
        assert rep.interval[0] == pytest.approx(-rep.interval[1])
        r_neg = rep.residuals[: len(rep.residuals) // 2]
        r_pos = rep.residuals[len(rep.residuals) // 2 + 1:]
        assert max(r_neg) == pytest.approx(max(r_pos), abs=1e-9)

    def test_report_json(self, pat_a):
        rep = certify(pat_a, None, 40)
        doc = rep.to_json()
        assert doc["verdict"] is True
        assert len(doc["samples_deg"]) == 40
        assert len(doc["per_cut"]) == 4
        # residual series per cut crease, one entry per sample
        for entry in doc["per_cut"]:
            assert len(entry["residuals"]) == 40
            assert entry["max_residual"] == max(entry["residuals"])
        assert "rigid-foldable: yes" in rep.summary()

    def test_report_json_with_failed_samples(self, pat_a):
        """A sample whose propagation fails has an infinite residual; the
        JSON text writes it as null, in the sample residuals and per cut,
        and is valid JSON for a parser that refuses Infinity and NaN."""
        alpha = list(pat_a.vertex(0, 2).alpha)
        alpha[0] += deg(0.5)
        alpha[2] -= deg(0.5)
        rep = certify(pat_a.with_vertex(0, 2, Vertex4(alpha)), None, 200)
        failed = [k for k, r in enumerate(rep.residuals)
                  if not math.isfinite(r)]
        assert failed and not rep.verdict

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(rep.dumps(), parse_constant=refuse)
        assert [doc["residuals"][k] for k in failed] == [None] * len(failed)
        for entry in doc["per_cut"]:
            assert entry["max_residual"] is None
            assert [entry["residuals"][k] for k in failed] == (
                [None] * len(failed))
        empty = dataclasses.replace(
            rep, residuals=(math.inf,) * len(rep.residuals),
            max_residual=math.inf)
        doc = json.loads(empty.dumps(), parse_constant=refuse)
        assert doc["max_residual"] is None
        assert doc["residuals"] == [None] * len(rep.residuals)

    def test_half_width_of_tau_empty_is_empty(self, monkeypatch):
        """A driving half-width of exactly TAU_EMPTY is empty, as a unit's
        is; the next float above it is swept."""
        p = stitch(showcase_a_plan())  # its own report memo
        monkeypatch.setattr(foldability, "_driving_limit",
                            lambda tree, branches: TAU_EMPTY)
        with pytest.raises(EmptyInterval):
            certify(p, None, 20)
        above = math.nextafter(TAU_EMPTY, 1.0)
        monkeypatch.setattr(foldability, "_driving_limit",
                            lambda tree, branches: above)
        assert certify(p, None, 20).interval == (-above, above)

    def test_zero_transmission_column_empty_interval(self):
        # symmetric flat-foldable vertices never fold their side creases on
        # branch 1, so the driving crease cannot move the pattern at all
        from quadfold import StitchPlan, make_flatfoldable_basic_unit

        u = make_flatfoldable_basic_unit(deg(70), deg(70))
        p = stitch(StitchPlan(columns=((u,),)))
        with pytest.raises(EmptyInterval):
            certify(p, None, 20)


def _probe(tree, t, branches) -> bool:
    """Whether the driving angle `t` passes as a driving-limit probe: the
    one-angle case of `_probes`."""
    return _passes(_probes(tree, (t,), branches)[0])


def _reference_driving_limit(tree, branches) -> float:
    """Verbatim copy of the driving-limit search as it stood before
    `last_valid`: scan 48 steps, then bisect until the midpoint rounds."""
    if _probe(tree, math.pi, branches):
        return math.pi
    good, bad = 0.0, math.pi
    for k in range(1, 49):
        t = math.pi * k / 48
        if _probe(tree, t, branches):
            good = t
        else:
            bad = t
            break
    for _ in range(60):
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        if _probe(tree, mid, branches):
            good = mid
        else:
            bad = mid
    return good


def test_driving_limit_matches_reference_search(pat_a, pat_b):
    """certify's interval equals, repr for repr, the reference search over
    every enumerated and every uniform branch choice of both showcases and
    two herringbones; where the reference finds no interval certify raises
    EmptyInterval."""
    patterns = (pat_a, pat_b, stitch(herringbone_plan(3, 3)),
                stitch(herringbone_plan(4, 5, 93.0, 72.0)))
    compared = 0
    for p in patterns:
        tree = build_tree(p)
        for choice in (*enumerate_branch_choices(p), BranchId.BRANCH_1,
                       BranchId.BRANCH_2):
            ref = _reference_driving_limit(tree, _branch_grid(p, choice))
            if ref < 1e-9:
                with pytest.raises(EmptyInterval):
                    certify(p, choice, 2)
                continue
            assert repr(certify(p, choice, 2).interval) == repr((-ref, ref))
            compared += 1
    assert compared == 11


def _reference_propagate(tree: TreeStructure, driving: float,
                         branch_choice: BranchChoice = None) -> Propagation:
    """Verbatim copy of `propagate` as it stood before it shared the
    solutions of repeated vertex inputs (every vertex is solved afresh),
    less the top-row-sequence input form it accepted then."""
    p = tree.pattern
    driving = float(driving)
    branches = _branch_grid(p, branch_choice)

    sols = [[None] * p.n for _ in range(p.m)]
    for j in range(p.n):
        v = p.vertex(0, j)
        angle = driving if j == 0 else sols[0][j - 1].rho[3]
        try:
            sols[0][j] = solve_at_crease(v, 2, angle, branches[0][j])
        except (OutOfDomain, WrongClass) as exc:
            raise OutOfDomain(f"top-row vertex (0,{j}): {exc}") from exc
    for i in range(1, p.m):
        for j in range(p.n):
            v = p.vertex(i, j)
            angle = sols[i - 1][j].rho[2]
            try:
                sols[i][j] = solve_at_crease(v, 1, angle, branches[i][j])
            except (OutOfDomain, WrongClass) as exc:
                raise OutOfDomain(f"vertex ({i},{j}): {exc}") from exc

    pairs = tuple(
        ((i, j), sols[i][j].rho[3], sols[i][j + 1].rho[1])
        for i, j in tree.cut_creases
    )
    return Propagation(driving=driving,
                       solutions=tuple(tuple(row) for row in sols),
                       theta_phi=pairs)


def _propagation_outcome(fn, *args):
    """repr of a propagation, or the exception's type and message."""
    try:
        return repr(fn(*args))
    except (QuadfoldError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def equivalence_patterns(pat_a, pat_b):
    return (pat_a, pat_b, stitch(herringbone_plan(4, 4)),
            stitch(herringbone_plan(8, 8, 95.5, 71.5)))


def test_propagate_matches_reference(equivalence_patterns):
    """Sharing repeated vertex inputs changes no result: every enumerated
    and uniform branch choice of both showcases and two herringbones, plus
    a checkerboard of the two curve branches (equal inputs on different
    branches), at seeded driving angles, the flat state (0.0 and -0.0), the
    interval ends and beyond them, gives the reference's propagation repr
    for repr, or its exception type and message."""
    rnd = random.Random(20261018)
    compared = refused = 0
    for p in equivalence_patterns:
        tree = build_tree(p)
        checkerboard = tuple(
            tuple(CURVE_BRANCHES[(i + j) % 2] for j in range(p.n))
            for i in range(p.m))
        for choice in (*enumerate_branch_choices(p), BranchId.BRANCH_1,
                       BranchId.BRANCH_2, checkerboard):
            try:
                t_max = certify(p, choice, 2).interval[1]
            except EmptyInterval:
                t_max = deg(20)
            angles = [0.0, -0.0, t_max, -t_max, 1e-16, -1e-16]
            angles += [rnd.uniform(-t_max, t_max) for _ in range(12)]
            angles += [s * rnd.uniform(t_max, math.pi) for s in (1, -1) * 3]
            angles += [s * math.nextafter(t_max, 4.0) for s in (1, -1)]
            for t in angles:
                got = _propagation_outcome(propagate, tree, t, choice)
                want = _propagation_outcome(_reference_propagate, tree, t,
                                            choice)
                assert got == want, (p.m, p.n, choice, t)
                compared += 1
                refused += want[0] is OutOfDomain
    assert compared == 19 * 26
    assert refused >= 50


def _reference_certify(p, branch_choice: BranchChoice = None,
                       n_samples: int = 200) -> CompatibilityReport:
    """Verbatim copy of `certify`'s sampling as it stood before the tree was
    walked once over all samples: the reference driving-limit search, then
    one reference propagation per sample."""
    branches = _branch_grid(p, branch_choice)
    tree = build_tree(p)
    t_max = _reference_driving_limit(tree, branches)
    if t_max < 1e-9:
        raise EmptyInterval(
            "no driving interval: the tree cannot move away from the "
            "trivial state on these branches"
        )

    grid = [t_max * (2.0 * k / (n_samples - 1) - 1.0) for k in range(n_samples)]
    residuals = []
    per_cut = {c: [] for c in tree.cut_creases}
    verdict = True
    reason = "ok"
    for t in grid:
        try:
            prop = _reference_propagate(tree, t, branches)
        except QuadfoldError as exc:
            residuals.append(math.inf)
            for c in tree.cut_creases:
                per_cut[c].append(math.inf)
            verdict = False
            reason = f"propagation failed at driving angle {t!r}: {exc}"
            continue
        worst = 0.0
        for cut, theta, phi in prop.theta_phi:
            r = abs(normalize_angle(theta - phi))
            per_cut[cut].append(r)
            worst = max(worst, r)
        residuals.append(worst)
    finite = [r for r in residuals if math.isfinite(r)]
    max_res = max(finite) if finite else math.inf
    if verdict and max_res >= TAU_COMPAT:
        verdict = False
        reason = (f"cut-crease residual {max_res:.3e} exceeds "
                  f"tolerance {TAU_COMPAT:.1e}")
    return CompatibilityReport(
        interval=(-t_max, t_max),
        samples=tuple(grid),
        residuals=tuple(residuals),
        per_cut=tuple(sorted(
            (cut, tuple(series)) for cut, series in per_cut.items()
        )),
        max_residual=max_res,
        verdict=verdict,
        reason=reason,
        branch_choice=branches,
    )


def test_certify_matches_reference_propagate():
    """A herringbone 8x8 certify report, from one walk over all samples,
    is repr-equal to the per-sample reference loop."""
    p = stitch(herringbone_plan(8, 8, 94.0, 73.0))
    report = certify(p)
    reference = _reference_certify(p)
    assert repr(report) == repr(reference)
    assert report.branch_choice == reference.branch_choice


@pytest.fixture
def walks(monkeypatch):
    """The driving-angle sequence of every walk of the tree."""
    calls = []

    def counting(p, branches, ts):
        calls.append(tuple(ts))
        return walk(p, branches, ts)

    walk = foldability._walk
    monkeypatch.setattr(foldability, "_walk", counting)
    return calls


@pytest.fixture
def driven(monkeypatch):
    """The number of vertex angles driven through `foldability._drive`."""
    count = [0]

    def counting(v, crease, angles, branch, inverted):
        count[0] += len(angles)
        return drive(v, crease, angles, branch, inverted)

    drive = foldability._drive
    monkeypatch.setattr(foldability, "_drive", counting)
    return count


def test_refused_samples_share_one_walk(pat_a, walks):
    """Where some samples are refused, certify still walks all samples
    once, after the driving-limit search, whose walks hold every angle the
    reference search probes, in its order: each failed sample keeps its
    own infinite residual and the report equals the per-sample reference,
    reason included."""
    alpha = list(pat_a.vertex(0, 2).alpha)
    alpha[0] += deg(0.5)
    alpha[2] -= deg(0.5)
    p = pat_a.with_vertex(0, 2, Vertex4(alpha))
    report = certify(p, None, 200)
    assert walks[-1] == report.samples
    _, probed = _reference_probes(p, None, walks)
    searched = iter([t for ts in walks[:-1] for t in ts])
    assert all(t in searched for t in probed)
    assert not report.verdict
    assert "propagation failed" in report.reason
    reference = _reference_certify(p, None, 200)
    assert repr(report) == repr(reference)
    assert report.reason == reference.reason


def test_walk_refuses_each_angle_as_its_own_walk(monkeypatch, pat_a):
    """With `_drive` stubbed to refuse chosen incoming angles at two
    vertices, a walk over many driving angles gives each angle the refusal
    (type and message) a walk of that angle alone raises, the first in the
    walk's order, and every other angle the solutions of its own walk."""
    drive = foldability._drive
    # inside the certified interval (about +-19.8 degrees) vertex (0,1)
    # refuses below -11 degrees; vertex (2,0), with another type, below -5
    # and above 9, so below -11 both refuse
    rules = {(pat_a.vertex(0, 1).alpha, 2): (lambda a: a > 0.2, OutOfDomain),
             (pat_a.vertex(2, 0).alpha, 1):
                 (lambda a: not -0.9 < a < 0.5, WrongClass)}
    assert [v.alpha for row in pat_a.vertices for v in row].count(
        pat_a.vertex(0, 1).alpha) == 1

    def stub(v, crease, angles, branch, inverted):
        out = drive(v, crease, angles, branch, inverted)
        refuses, kind = rules.get((v.alpha, crease), (None, None))
        return [kind(f"stub refuses {a!r}") if refuses and refuses(a) else o
                for a, o in zip(angles, out)]

    monkeypatch.setattr(foldability, "_drive", stub)
    branches = _branch_grid(pat_a, None)
    ts = [deg(x) for x in range(-19, 20)]
    sols, refused = foldability._walk(pat_a, branches, ts)
    alone = [foldability._walk(pat_a, branches, (t,)) for t in ts]
    where = []
    q = 0
    for k, (t, (one, one_refused)) in enumerate(zip(ts, alone)):
        if k in refused:
            assert list(one_refused) == [0]
            got, want = refused[k], one_refused[0]
            assert (type(got), str(got)) == (type(want), str(want))
            assert type(got) is OutOfDomain
            with pytest.raises(OutOfDomain) as exc:
                propagate(build_tree(pat_a), t)
            assert str(exc.value) == str(got)
            where.append(str(got).split(":")[0])
        else:
            assert one_refused == {}
            assert [[col[q] for col in row] for row in sols] == \
                [[col[0] for col in row] for row in one]
            q += 1
    assert q == len(sols[0][0]) == 39 - 8 - 16
    assert where == ["top-row vertex (0,1)"] * 8 + ["vertex (2,0)"] * 16


def test_certify_shares_drives_across_samples(driven):
    """A 200-sample certify of a herringbone, driving-limit search
    included, drives no more vertex angles than 200 separate propagations
    at its samples."""
    p = stitch(herringbone_plan(8, 8, 95.0, 72.0))
    report = certify(p, None, 200)
    by_certify, driven[0] = driven[0], 0
    tree = build_tree(p)
    for t in report.samples:
        propagate(tree, t)
    assert 0 < by_certify <= driven[0]


def _reference_walk(p, branches, ts) -> tuple:
    """Verbatim copy of `foldability._walk` as it stood before twin
    columns shared their solution lists: every column of every row is
    looked up in the memo or driven.  Only `_drive` is read through the
    module, so a test's stub drives both walks."""
    memo, refused, live = {}, {}, range(len(ts))
    # the driving angle folds the top-left vertex's left crease: the walk
    # reads it as the c4 angle of a vertex left of the blanket
    left = [VertexSolution((0.0, 0.0, 0.0, t), None) for t in ts]
    sols = [[None] * p.n for _ in range(p.m)]
    for i in range(p.m):
        for j in range(p.n):
            if i:
                crease, src, k = 1, sols[i - 1][j], 2
            else:
                crease, src, k = 2, sols[0][j - 1] if j else left, 3
            v, branch = p.vertices[i][j], branches[i][j]
            known, inverted = memo.setdefault((v.alpha, crease, branch),
                                              ({}, {}))
            col = sols[i][j] = []
            for s in src:
                sol = known.get(s.rho[k])
                if sol is None:
                    break
                col.append(sol)
            else:
                continue
            angles = [s.rho[k] for s in src]
            new = [a for a in dict.fromkeys(angles) if a not in known]
            bad = {}
            for a, out in zip(new, foldability._drive(v, crease, new, branch,
                                                      inverted)):
                if type(out) is tuple:
                    known[a] = VertexSolution(out, branch)
                else:
                    where = "top-row vertex" if i == 0 else "vertex"
                    bad[a] = OutOfDomain(f"{where} ({i},{j}): {out}")
                    bad[a].__cause__ = out
            if bad:  # refused angles leave the walk, here and upstream
                refused.update((at, bad[a]) for at, a in zip(live, angles)
                               if a in bad)
                keep = [a not in bad for a in angles]
                live = list(itertools.compress(live, keep))
                angles = list(itertools.compress(angles, keep))
                sols = [[c and list(itertools.compress(c, keep)) for c in row]
                        for row in sols]
            sols[i][j] = [known[a] for a in angles]
    return sols, refused


def _walk_outcome(walk, p, branches, ts) -> tuple:
    """Every solution of a walk (repr) and every refusal (index, type,
    message and the type and message of its cause)."""
    sols, refused = walk(p, branches, ts)
    return ([[[repr(s) for s in col] for col in row] for row in sols],
            sorted((k, type(e), str(e), type(e.__cause__), str(e.__cause__))
                   for k, e in refused.items()))


def _twin_patterns():
    """(name, pattern, branch grids): herringbones with twin columns on
    their defaults, uniformly on each curve branch and on a checkerboard of
    the two; the showcases on every enumerated choice; and herringbones
    whose twins stop part way: one vertex moved in a lower row (column 5),
    or in the top row (column 4), which changes every c3 angle it sends
    down from there on."""
    def grids(p):
        checker = tuple(tuple(CURVE_BRANCHES[(i + j) % 2] for j in range(p.n))
                        for i in range(p.m))
        return [_branch_grid(p, c) for c in
                (None, BranchId.BRANCH_1, BranchId.BRANCH_2, checker)]

    for m in (4, 8, 16):
        p = stitch(herringbone_plan(m, m))
        yield f"herringbone {m}x{m}", p, grids(p)
    for name, plan in (("A", showcase_a_plan()), ("B", showcase_b_plan())):
        p = stitch(plan)
        yield name, p, [_branch_grid(p, c)
                        for c in enumerate_branch_choices(p)]
    p = stitch(herringbone_plan(8, 8))
    for i, j in ((3, 5), (0, 4)):
        alpha = list(p.vertex(i, j).alpha)
        alpha[0] += deg(0.5)
        alpha[2] -= deg(0.5)
        moved = p.with_vertex(i, j, Vertex4(alpha))
        yield f"herringbone 8x8, ({i},{j}) moved", moved, grids(moved)


def test_walk_matches_reference_walk():
    """Twin columns change no walk: over 61 driving angles across
    [-pi, pi], the flat state (0.0, -0.0) and two small angles that the
    lower-row move leaves foldable, every pattern and branch
    grid of `_twin_patterns` gives the reference walk's solutions, repr
    for repr, and its refusals, index, type and message.  Twins do occur,
    stop where a column is moved and refusals occur."""
    ts = [math.pi * (k / 30 - 1) for k in range(61)] + [0.0, -0.0, 0.01,
                                                        -0.05]
    twinned = refusals = 0
    for name, p, branch_grids in _twin_patterns():
        for branches in branch_grids:
            got = _walk_outcome(foldability._walk, p, branches, ts)
            assert got == _walk_outcome(_reference_walk, p, branches, ts), \
                name
            refusals += len(got[1])
            sols, _ = foldability._walk(p, branches, ts)
            shared = {j for j in range(p.n) for r in range(j)
                      if p.m > 1 and sols[1][j] is sols[1][r]}
            twinned += len(shared)
            if name == "herringbone 8x8, (3,5) moved":
                assert 5 not in shared and 7 in shared, branches
            if name == "herringbone 8x8, (0,4) moved" and \
                    branches == p.branch_default:
                assert not shared & {4, 5, 6} and {2, 3, 7} <= shared
    assert twinned > 100 and refusals > 100


def test_refusal_in_twin_columns_names_the_first(monkeypatch):
    """With `_drive` stubbed to refuse incoming angles above 0.3 at the
    herringbone's lower vertex (rows 1, 3, 5, 7, where every column asks
    its question), each refused angle names the first column of its twins
    in the first such row, as the reference walk and a walk of that angle
    alone do, and the accepted angles keep their solutions."""
    p = stitch(herringbone_plan(8, 8))
    lower = p.vertex(1, 0).alpha
    assert {v.alpha for v in p.vertices[1]} == {lower}
    drive = foldability._drive

    def stub(v, crease, angles, branch, inverted):
        out = drive(v, crease, angles, branch, inverted)
        if (v.alpha, crease) != (lower, 1):
            return out
        return [OutOfDomain(f"stub refuses {a!r}") if a > 0.3 else o
                for a, o in zip(angles, out)]

    monkeypatch.setattr(foldability, "_drive", stub)
    branches = _branch_grid(p, None)
    ts = [deg(x) for x in range(-100, 101, 5)]
    got = _walk_outcome(foldability._walk, p, branches, ts)
    assert got == _walk_outcome(_reference_walk, p, branches, ts)
    sols, refused = foldability._walk(p, branches, ts)
    assert sols[1][2] is sols[1][0] and sols[1][3] is sols[1][1]
    where = {str(e).split(":")[0] for e in refused.values()}
    assert where == {"vertex (1,0)", "vertex (1,1)"}
    for k, t in enumerate(ts):
        alone = _walk_outcome(foldability._walk, p, branches, (t,))
        if k in refused:
            e = refused[k]
            assert alone[1] == [(0, type(e), str(e), type(e.__cause__),
                                 str(e.__cause__))]
        else:
            assert alone[1] == []
    assert 0 < len(refused) < len(ts)



def _mirror_outputs() -> list:
    """Texts of what the mirrored crease inversion feeds, from fresh
    stitches: the certify report (repr, dumps and summary) of every
    enumerated branch choice of showcases A and B, of showcase A with
    vertex (0,2)'s a1 up and a3 down by half a degree (it has failed
    samples) and of the 8x8 and 3x5 herringbones; the coordinates of
    12-frame sweeps of each of those that certifies on its defaults; and
    the validate_unit reports of the herringbone units."""
    def texts(report):
        return repr(report), report.dumps(), report.summary()

    out = []
    perturbed = stitch(showcase_a_plan())
    alpha = list(perturbed.vertex(0, 2).alpha)
    alpha[0] += deg(0.5)
    alpha[2] -= deg(0.5)
    perturbed = perturbed.with_vertex(0, 2, Vertex4(alpha))
    report = certify(perturbed, None, 200)
    assert "propagation failed" in report.reason
    out.append(texts(report))
    for plan in (showcase_a_plan(), showcase_b_plan(), herringbone_plan(8, 8),
                 herringbone_plan(3, 5)):
        p = stitch(plan)
        out += [texts(certify(p, c)) for c in enumerate_branch_choices(p)]
        if certify(p).verdict:
            out += [f.coords.tobytes() for f in sweep(p, n_frames=12).frames]
    for plan in (herringbone_plan(8, 8), herringbone_plan(3, 5)):
        out += [repr(validate_unit(u)) for u in plan.columns[0][:2]]
    return out


def test_mirrored_inversions_change_no_output(monkeypatch):
    """Every certify report, sweep frame and herringbone unit report is
    the same, repr for repr and byte for byte, when `_drive` bisects every
    negated angle itself."""
    mirrored = _mirror_outputs()
    monkeypatch.setattr(vertex_mod, "_mirrors", lambda p, comp, angle: False)
    assert _mirror_outputs() == mirrored


def test_mirror_halves_the_herringbone_bisections(monkeypatch):
    """A herringbone_plan(8, 8) certify bisects a crease 450 times, where
    it bisects 900 times when each negated angle is bisected anew."""
    count = [0]
    bisect = vertex_mod._ArccosCurve.bisect

    def counted(self, comp, target):
        count[0] += 1
        return bisect(self, comp, target)

    monkeypatch.setattr(vertex_mod._ArccosCurve, "bisect", counted)
    for expected in (450, 900):
        p = stitch(herringbone_plan(8, 8))
        count[0] = 0
        certify(p)
        assert count[0] == expected
        monkeypatch.setattr(vertex_mod, "_mirrors",
                            lambda p, comp, angle: False)


def _guided_last_valid(ok, n_scan: int, guide: float, width: float) -> tuple:
    """`last_valid(ok, n_scan)` with its bisection replayed around `guide`:
    a midpoint within `width` of it is probed, one below takes the good
    side unprobed, one above the bad side.  Returns the result and the
    nearest midpoint skipped on each side (None where none was)."""
    assert not ok(math.pi)
    good, bad = 0.0, math.pi
    for k in range(1, n_scan + 1):
        t = math.pi * k / n_scan
        if not ok(t):
            bad = t
            break
        good = t
    left = right = None
    for _ in range(60):
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        if abs(mid - guide) <= width:
            good, bad = (mid, bad) if ok(mid) else (good, mid)
        elif mid < guide:
            good = left = mid
        else:
            bad = right = mid
    return good, left, right


def test_driving_limit_search_meets_a_non_monotone_band():
    """Below t_max of herringbone_plan(8, 8, 96.5, 73.5) lies a band about
    1.2e-10 wide where probes fail and pass in no order.  A guided limit
    search whose window (1e-12 * t) fits inside the band can end in it:
    both of its nearest skipped midpoints verify, and it returns another
    t_max.  A window of 1e-8 * t, wider than the band, returns t_max."""
    p = stitch(herringbone_plan(8, 8, 96.5, 73.5))
    t_max = certify(p).interval[1]
    assert t_max == 1.9656141180453335
    tree, branches = build_tree(p), _branch_grid(p, None)

    def ok(t):
        return _probe(tree, t, branches)

    assert not ok(1.9656141179296962)
    lo = 1.965614117929696
    assert "".join("1" if ok(lo + (t_max - lo) * k / 60) else "0"
                   for k in range(61)) == (
        "1100110110111101111111111100111111011011010011111111100110111")
    moved, left, right = _guided_last_valid(ok, 48, lo, 1e-12 * lo)
    assert moved == lo and ok(left) and not ok(right)
    assert _guided_last_valid(ok, 48, lo, 1e-8 * lo)[0] == t_max


def _reference_probes(p, choice, walks) -> tuple:
    """`_reference_driving_limit` on p and the angles it probes, in its
    order, read from the `walks` fixture: each of its probes walks one
    angle."""
    n = len(walks)
    ref = _reference_driving_limit(build_tree(p), _branch_grid(p, choice))
    probed = [t for (t,) in walks[n:]]
    del walks[n:]
    return ref, probed


def _perturbed(p, *at):
    """p with the sector angles of each vertex in `at` moved, one
    perturbation at a time, by +0.5 degree at k and -0.5 at k + 2."""
    for i, j in at:
        for k in range(4):
            alpha = list(p.vertex(i, j).alpha)
            alpha[k] += deg(0.5)
            alpha[(k + 2) % 4] -= deg(0.5)
            yield p.with_vertex(i, j, Vertex4(alpha))


def _limit_cases():
    """Blankets whose driving limit the batched search must meet: seeded
    8x8 herringbones over the bench's (a, c) ranges, one whose limit ends
    in a non-monotone band, showcase A with two vertices perturbed (some
    probes fail below t_max) and every enumerated branch grid of showcase
    B (the interval ends at a refusal)."""
    rng = random.Random(26)
    for _ in range(12):
        plan = herringbone_plan(8, 8, rng.uniform(93.0, 97.0),
                                rng.uniform(70.0, 74.0))
        yield stitch(plan), None
    yield stitch(herringbone_plan(8, 8, 96.5, 73.5)), None
    for p in _perturbed(stitch(showcase_a_plan()), (1, 2), (0, 2)):
        yield p, None
    p = stitch(showcase_b_plan())
    for choice in enumerate_branch_choices(p):
        yield p, choice


def test_batched_driving_limit_equals_reference_search():
    """certify's interval equals, repr for repr, the reference search's on
    every `_limit_cases` blanket; where the reference finds no interval
    certify raises EmptyInterval."""
    compared = 0
    for p, choice in _limit_cases():
        ref = _reference_driving_limit(build_tree(p), _branch_grid(p, choice))
        if ref < 1e-9:
            with pytest.raises(EmptyInterval):
                certify(p, choice, 2)
            continue
        assert repr(certify(p, choice, 2).interval) == repr((-ref, ref))
        compared += 1
    assert compared == 25


def _bisection_angles(ts) -> int:
    scan = {math.pi * k / 48 for k in range(1, 49)}
    return sum(t not in scan for t in ts)


@pytest.mark.parametrize("guide", [0.0, math.pi, 1.965614117929696])
def test_useless_guide_keeps_the_driving_limit(monkeypatch, walks, guide):
    """With the guide stuck at 0, at pi or inside the non-monotone band of
    herringbone_plan(8, 8, 96.5, 73.5), certify still meets the reference
    search on that herringbone, showcase B and a perturbed showcase A.
    Its search walks no more often than the reference probes, and
    evaluates at most twice the reference's bisection angles."""
    monkeypatch.setattr(foldability, "_guide",
                        lambda good, bad, tops: guide)
    pat_a = stitch(showcase_a_plan())
    for p in (stitch(herringbone_plan(8, 8, 96.5, 73.5)),
              stitch(showcase_b_plan()),
              next(_perturbed(pat_a, (0, 2)))):
        walks.clear()
        report = certify(p, None, 2)
        searched = walks[:-1]
        ref, probed = _reference_probes(p, None, walks)
        assert repr(report.interval) == repr((-ref, ref))
        assert len(searched) <= len(probed)
        assert _bisection_angles(t for ts in searched for t in ts) <= \
            2 * _bisection_angles(probed)


def test_driving_limit_walks(walks):
    """A herringbone_plan(8, 8) certify walks at most 26 times, where the
    reference search alone walks 79 times, and a showcase B certify walks
    no more often than the reference search's probes and one sample walk."""
    certify(stitch(herringbone_plan(8, 8)))
    assert len(walks) <= 26
    walks.clear()
    p = stitch(showcase_b_plan())
    certify(p)
    n = len(walks)
    assert n <= len(_reference_probes(p, None, walks)[1]) + 1
    p = stitch(herringbone_plan(8, 8))
    assert len(_reference_probes(p, None, walks)[1]) == 79


class TestCertifyMemo:
    """`certify` keeps its reports on the pattern, keyed by its arguments."""

    @pytest.fixture
    def counted(self, walks):
        """Every walk of the tree: `certify` and each `propagate`, also
        the ones `sweep` makes, walk through `foldability._walk`."""
        return walks

    def test_same_arguments_same_report(self):
        p = stitch(showcase_b_plan())
        assert certify(p) is certify(p)
        # the branch grid is normalised before it is looked up
        assert certify(p, p.branch_default) is certify(p)
        assert certify(p, [list(row) for row in p.branch_default]) is \
            certify(p)

    @pytest.mark.parametrize("args, kwargs", [
        ((None, 50), {}),
        ((None,), {"n_samples": 3}),
        ((BranchId.BRANCH_2,), {}),
    ])
    def test_other_arguments_recompute(self, counted, args, kwargs):
        p = stitch(showcase_b_plan())
        first = certify(p)
        counted.clear()
        other = certify(p, *args, **kwargs)
        assert other is not first
        assert len(counted) > 0
        counted.clear()
        assert certify(p, *args, **kwargs) is other
        assert counted == []
        fresh = certify(stitch(showcase_b_plan()), *args, **kwargs)
        assert repr(other) == repr(fresh)

    def test_sweep_reuses_the_report(self, monkeypatch, counted):
        # `sweep` calls the walk it imported: route it through the count
        monkeypatch.setattr(realize_mod, "_walk", foldability._walk)
        p = stitch(herringbone_plan(8, 8, 95.0, 72.0))
        certify(p)
        counted.clear()
        res = sweep(p, n_frames=12)
        assert counted == [res.driving_angles]

    def test_uncertified_pattern_still_refused(self, pat_b):
        bad = [list(row) for row in pat_b.branch_default]
        bad[2][0] = BranchId.BRANCH_2
        p = stitch(showcase_b_plan())
        assert not certify(p, bad, 40).verdict
        for _ in range(2):
            with pytest.raises(ClosureViolation, match="uncertified"):
                sweep(p, bad, 4, n_samples=40)

    def test_refusals_are_not_memoised(self):
        p = stitch(showcase_a_plan())
        for _ in range(2):
            with pytest.raises(ValueError, match="n_samples"):
                certify(p, None, 1)
        with pytest.raises(ValueError, match="3x3 grid"):
            certify(p, [[BranchId.BRANCH_1]])
        assert p.certified == {}

    def test_n_samples_is_checked_before_any_propagation(self, counted):
        """A bad sample count is refused before the driving-limit search
        runs, also on a pattern whose interval is empty."""
        from quadfold import make_flatfoldable_basic_unit

        empty = stitch(StitchPlan(columns=(
            (make_flatfoldable_basic_unit(deg(70), deg(70)),),)))
        for p in (stitch(showcase_a_plan()), empty):
            with pytest.raises(ValueError, match="n_samples"):
                certify(p, None, 1)
        assert counted == []

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8, True,
                                     "1e-8", None,
                                     pytest.param(10 ** 400, id="1e400")])
    def test_compat_tol_must_be_positive_and_finite(self, counted, pat_b,
                                                     tol):
        """The compatibility bound is the constant TAU_COMPAT, positive
        and finite, and no call replaces it by a bound that is not (NaN
        would certify any residual): `certify` and `sweep` take no
        `compat_tol` and refuse one with TypeError before any walk.
        Showcase B with vertex (2,0) on BRANCH_2 is refused at
        TAU_COMPAT."""
        assert 0.0 < TAU_COMPAT < math.inf
        bad = [list(row) for row in pat_b.branch_default]
        bad[2][0] = BranchId.BRANCH_2
        report = certify(pat_b, bad, 40)
        assert report.max_residual > 3.0 and not report.verdict
        assert report.reason.endswith("exceeds tolerance 1.0e-08")
        counted.clear()
        for call in (lambda: certify(pat_b, bad, 40, compat_tol=tol),
                     lambda: sweep(pat_b, bad, 4, n_samples=40,
                                   compat_tol=tol)):
            with pytest.raises(TypeError, match="compat_tol"):
                call()
        assert counted == []

    @pytest.mark.parametrize("n", [2.5, 200.0, True, False, "200", None])
    def test_counts_must_be_integers(self, pat_a, n):
        """A sample or frame count that is not an integer, or is a bool,
        gets the ValueError of a count that is too small."""
        with pytest.raises(ValueError, match="n_samples must be >= 2"):
            certify(pat_a, None, n)
        with pytest.raises(ValueError, match="n_samples must be >= 2"):
            sweep(pat_a, None, 4, n_samples=n)
        with pytest.raises(ValueError, match="need at least one frame"):
            sweep(pat_a, None, n)

    def test_numpy_integer_counts_are_counts(self, pat_a):
        import numpy as np

        assert certify(pat_a, None, np.int64(40)) is certify(pat_a, None, 40)
        assert len(sweep(pat_a, None, np.int32(3), n_samples=40)) == 3

    def test_copies_start_without_reports(self, pat_a):
        report = certify(pat_a, None, 60)
        alpha = list(pat_a.vertex(1, 1).alpha)
        alpha[0] += deg(0.5)
        alpha[2] -= deg(0.5)
        bad = pat_a.with_vertex(1, 1, Vertex4(alpha))
        assert bad.certified == {}
        assert not certify(bad, None, 60).verdict
        assert report.verdict and certify(pat_a, None, 60) is report
        assert pat_a.relayout(pat_a.plan.lengths).certified == {}


class TestLargerBlankets:
    def test_herringbone_scales(self):
        p = stitch(herringbone_plan(4, 5))
        assert (p.m, p.n) == (4, 5)
        assert build_tree(p).n_cuts == 12
        rep = certify(p, None, 80)
        assert rep.verdict
        assert rep.max_residual < 1e-8

    def test_herringbone_32x32(self, herringbone_32):
        rep = certify(herringbone_32, None, 50)
        assert rep.verdict, rep.reason
        assert rep.max_residual < 1e-8
        small = certify(stitch(herringbone_plan(8, 8)), None, 50)
        assert repr(rep.interval) == repr(small.interval)

    def test_propagation_solves_each_distinct_input_once(self, driven,
                                                         herringbone_32):
        """A herringbone asks a handful of distinct vertex questions per
        propagation, whatever its size."""
        for p in (stitch(herringbone_plan(4, 4)),
                  stitch(herringbone_plan(8, 8)), herringbone_32):
            tree = build_tree(p)
            for t in (deg(15), -deg(40), deg(109)):
                driven[0] = 0
                propagate(tree, t)
                assert 0 < driven[0] <= 8, (p.m, t, driven[0])

    def test_herringbone_sweep_rigid(self):
        from quadfold import sweep

        p = stitch(herringbone_plan(3, 3))
        res = sweep(p, None, 8, n_samples=60)
        assert res.max_rigidity_residual < 1e-9
        assert res.max_closure_residual < 1e-9


class TestNonUnitBlankets:
    def test_random_non_unit_pattern_is_incompatible(self, rng):
        """Generic vertex grids satisfy the panel sums but almost never the
        crease-angle compatibility."""
        from quadfold import PlanLengths, QuadPattern
        from conftest import random_generic_vertex

        hits = 0
        for _ in range(5):
            v00 = random_generic_vertex(rng)
            v10 = random_generic_vertex(rng)
            v01 = random_generic_vertex(rng)
            a2 = (2 * math.pi - v00.alpha[3] - v10.alpha[0] - v01.alpha[2])
            if not 0.3 < a2 < math.pi - 0.3:
                continue
            rest = 2 * math.pi - a2
            a1 = 0.40 * rest
            a3 = 0.27 * rest
            v11 = Vertex4((a1, a2, a3, rest - a1 - a3))
            from quadfold import ClassTag, classify
            if classify(v11).tag is not ClassTag.GENERIC:
                continue
            grid = ((v00, v01), (v10, v11))
            branches = ((BranchId.BRANCH_1,) * 2,) * 2
            # short boundary stubs: the default ones cross on these grids
            p = QuadPattern.from_vertices(grid, branches,
                                          PlanLengths(boundary=0.25))
            prop = propagate(build_tree(p), deg(5), None)
            if prop.max_residual() > 1e-4:
                hits += 1
        assert hits >= 3

    def test_certifiable_with_flat_trivial_vertex(self):
        """A blanket can certify even when one vertex is not rigid-foldable
        by itself, as long as its creases never fold: the generic corner
        drives, a vertical and a horizontal line fold pass the motion around
        the reflex vertex, whose creases all stay flat."""
        from quadfold import QuadPattern

        v00 = Vertex4.from_degrees((80, 97, 93, 90))       # generic, drives
        v01 = Vertex4.from_degrees((70, 110, 150, 30))     # horizontal line
        v10 = Vertex4.from_degrees((80, 95, 85, 100))      # vertical line
        v11 = Vertex4.from_degrees((200, 40, 80, 40))      # reflex: trivial
        from quadfold import ClassTag, classify
        assert classify(v11).tag is ClassTag.TRIVIAL
        grid = ((v00, v01), (v10, v11))
        branches = (
            (BranchId.BRANCH_1, BranchId.LINE_SEGMENT_1),
            (BranchId.LINE_SEGMENT_1, BranchId.BRANCH_1),
        )
        p = QuadPattern.from_vertices(grid, branches)
        rep = certify(p, None, 80)
        assert rep.verdict, rep.reason
        # every crease incident to the trivial vertex stays flat
        labels = mv_assignment(p, None, rep.interval[1] / 2)
        for edge in (((1, 2), (2, 2)), ((2, 1), (2, 2)),
                     ((2, 2), (3, 2)), ((2, 2), (2, 3))):
            assert labels[edge] == "F"
        # but the pattern genuinely folds elsewhere
        assert "M" in labels.values() or "V" in labels.values()


class TestMvAssignment:
    def test_trivial_state_all_flat(self, pat_a):
        labels = mv_assignment(pat_a, None, 0.0)
        inner = [v for k, v in labels.items() if v != "B"]
        assert set(inner) == {"F"}

    def test_folded_state_signs(self, pat_a):
        labels = mv_assignment(pat_a, None, deg(12))
        assert "M" in labels.values() and "V" in labels.values()

    def test_flat_foldable_unit_opposite_sides(self):
        from quadfold import FFUnitMode

        p = stitch(single_ff_unit_plan(80, 100, 60, FFUnitMode.A_MINUS))
        labels = mv_assignment(p, None, deg(40))
        # branch-1 transmission flips sign between the two side creases of
        # the top vertex: rho4 = -rho2
        left = labels[((1, 0), (1, 1))]
        right = labels[((1, 1), (1, 2))]
        assert {left, right} == {"M", "V"}

    def test_requires_sample(self, pat_a):
        with pytest.raises(ValueError):
            mv_assignment(pat_a, None, None)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf, True,
                                     "1e-9"])
    def test_flat_tol_must_be_positive_and_finite(self, pat_a, tol):
        """NaN or a negative bound would label no crease F, inf every
        crease.  The flat bound is the constant TAU_FLAT, positive and
        finite: `mv_assignment` and `mv_letter` take no bound and refuse
        one with TypeError, and label a crease F exactly when its angle's
        magnitude is below TAU_FLAT."""
        assert 0.0 < TAU_FLAT < math.inf
        with pytest.raises(TypeError, match="flat_tol"):
            mv_assignment(pat_a, None, deg(12), flat_tol=tol)
        with pytest.raises(TypeError):
            mv_letter(deg(12), tol)
        assert [mv_letter(x) for x in (
            0.0, -0.0, 0.5 * TAU_FLAT, -0.5 * TAU_FLAT, TAU_FLAT,
            -TAU_FLAT)] == ["F", "F", "F", "F", "V", "M"]
