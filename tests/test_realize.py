import importlib
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from quadfold import (
    ClosureViolation,
    LayoutFailure,
    OutOfDomain,
    QuadfoldError,
    RigidityViolation,
    Vertex4,
    build_tree,
    certify,
    enumerate_branch_choices,
    loop_closure_residual,
    propagate,
    realize,
    stitch,
    sweep,
)
from quadfold.pattern import check_layout_angles
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


class TestRealize:
    def test_trivial_state_is_the_layout(self, pat_a):
        prop = propagate(build_tree(pat_a), 0.0, None)
        state = realize(pat_a, prop)
        for r in range(pat_a.m + 2):
            for c in range(pat_a.n + 2):
                assert state.coords[r, c, 2] == pytest.approx(0.0, abs=1e-12)
                assert state.coords[r, c, :2] == pytest.approx(
                    pat_a.grid[r, c], abs=1e-12
                )

    def test_mid_fold_residuals(self, pat_a):
        prop = propagate(build_tree(pat_a), deg(12), None)
        state = realize(pat_a, prop)
        assert state.rigidity_residual < 1e-9
        assert state.closure_residual < 1e-9
        # actually folded: some point must leave the plane
        assert np.abs(state.coords[:, :, 2]).max() > 0.01

    def test_rigidity_preserves_lengths_and_diagonals(self, pat_b):
        prop = propagate(build_tree(pat_b), deg(10), None)
        state = realize(pat_b, prop)
        for r, c in pat_b.faces():
            corners = pat_b.face_corners(r, c)
            for k in range(4):
                a, b = corners[k], corners[(k + 1) % 4]
                d2 = np.linalg.norm(pat_b.grid[a] - pat_b.grid[b])
                d3 = np.linalg.norm(state.coords[a] - state.coords[b])
                assert abs(d3 - d2) / d2 < 1e-9

    def test_inconsistent_angles_rejected(self, pat_a):
        prop = propagate(build_tree(pat_a), deg(12), None)
        sols = [list(row) for row in prop.solutions]
        rho = sols[1][1].rho
        # the U crease of vertex (1, 1), grid edge (1, 2)-(2, 2)
        sols[1][1] = replace(sols[1][1], rho=(rho[0] + 0.2,) + rho[1:])
        bad = replace(prop, solutions=tuple(tuple(row) for row in sols))
        assert bad.edge_angle("col", (1, 2), (2, 2)) == rho[0] + 0.2
        with pytest.raises(ClosureViolation):
            realize(pat_a, bad)

    @pytest.mark.parametrize("i, j", [(i, j) for i in range(3)
                                      for j in range(3)])
    def test_with_vertex_copy_is_refused(self, pat_a, i, j):
        """A with_vertex copy keeps its parent's layout, which no longer
        realizes the changed vertex, so no perturbation is folded."""
        for k in range(4):
            a = list(pat_a.vertex(i, j).alpha)
            a[k] += deg(0.5)
            a[(k + 2) % 4] -= deg(0.5)
            bad = pat_a.with_vertex(i, j, Vertex4(a))
            try:
                prop = propagate(build_tree(bad), 0.05, None)
            except OutOfDomain:
                continue
            with pytest.raises(LayoutFailure, match=f"vertex \\({i},{j}\\)"):
                realize(bad, prop)

    def test_oracle_checks_each_distinct_state_once(self, monkeypatch,
                                                    pat_a):
        """Per frame, the rotation oracle runs once for each distinct
        (sector angles, rho) of the grid, whichever column holds it: on a
        herringbone sweep, whose twin columns share their solutions, and on
        showcase A with column 1 given column 0's solution objects, which
        its own sector angles do not close."""
        checked = []

        def recording(v, sol):
            checked.append((v.alpha, sol.rho))
            return oracle(v, sol)

        oracle = realize_mod.loop_closure_residual
        monkeypatch.setattr(realize_mod, "loop_closure_residual", recording)

        def states(p, prop):
            return {(v.alpha, s.rho)
                    for vs, sols in zip(p.vertices, prop.solutions)
                    for v, s in zip(vs, sols)}

        p = stitch(herringbone_plan(8, 8))
        frames = sweep(p, n_frames=5).frames
        for state in frames:
            want = states(p, state.angles)
            got, checked[:len(want)] = checked[:len(want)], []
            assert len(set(got)) == len(got) and set(got) == want
        assert checked == [] and len(want) < p.m * p.n
        prop = propagate(build_tree(pat_a), deg(12), None)
        bad = replace(prop, solutions=tuple(
            (row[0], row[0], *row[2:]) for row in prop.solutions))
        with pytest.raises(ClosureViolation):
            realize(pat_a, bad)
        assert len(set(checked)) == len(checked)
        assert set(checked) == states(pat_a, bad)

    def test_determinism(self, pat_a):
        prop = propagate(build_tree(pat_a), deg(9), None)
        s1 = realize(pat_a, prop)
        s2 = realize(pat_a, prop)
        assert np.array_equal(s1.coords, s2.coords)

    def test_state_keeps_its_propagation(self, pat_a):
        prop = propagate(build_tree(pat_a), deg(9), None)
        assert realize(pat_a, prop).angles is prop

    def test_states_and_sweeps_compare_by_identity(self, pat_a):
        """A folded state and a sweep hold arrays: they compare and hash
        by identity instead of raising."""
        prop = propagate(build_tree(pat_a), deg(9), None)
        s1, s2 = realize(pat_a, prop), realize(pat_a, prop)
        r1, r2 = (sweep(pat_a, None, 3, n_samples=40) for _ in range(2))
        for x, y in ((s1, s2), (r1, r2)):
            assert x == x and x != y and not x == y
            assert hash(x) == hash(x) and len({x, y, x}) == 2


class TestSweep:
    def test_frames_from_trivial_to_final(self, pat_a):
        res = sweep(pat_a, None, 12, n_samples=80)
        assert len(res) == 12
        assert res.driving_angles[0] == 0.0
        assert all(b > a for a, b in zip(res.driving_angles,
                                         res.driving_angles[1:]))
        assert res.max_rigidity_residual < 1e-9
        assert res.max_closure_residual < 1e-9

    def test_single_frame(self, pat_a):
        res = sweep(pat_a, None, 1, n_samples=40)
        assert len(res) == 1
        assert res.driving_angles == (0.0,)

    def test_coincident_corners_are_planar(self):
        """At c = 60 deg the boundary stubs of faces (5, 0) and (7, 0) land
        on one point; the planarity check must not read the rounding noise
        of that degenerate face as a deformation."""
        p = stitch(herringbone_plan(8, 8, 95.0, 60.0))
        res = sweep(p, None, 4, n_samples=5)
        assert len(res) == 4
        assert res.max_rigidity_residual < 1e-9

    def test_square_grid_line_fold(self):
        p = stitch(square_grid_plan(2, 2))
        res = sweep(p, None, 5, n_samples=30)
        assert res.max_rigidity_residual < 1e-12

    @pytest.mark.parametrize("plan", [herringbone_plan(8, 8),
                                      showcase_b_plan()],
                             ids=["herringbone_8x8", "showcase_b"])
    def test_frame_angles_are_propagate(self, plan):
        """Each frame carries the propagation `propagate` gives at its
        driving angle, on every enumerated branch grid."""
        p = stitch(plan)
        tree = build_tree(p)
        for choice in enumerate_branch_choices(p):
            res = sweep(p, choice, 7, n_samples=40)
            for t, state in zip(res.driving_angles, res.frames, strict=True):
                assert state.angles.driving == t
                assert repr(state.angles) == repr(propagate(tree, t, choice))


# ---------------------------------------------------------------------------
# reference: the frame-by-frame fold
# ---------------------------------------------------------------------------


def _reference_rot_about_line(point, direction, angle):
    ux, uy, uz = direction
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    R = np.array((
        (c + ux * ux * C, ux * uy * C - uz * s, ux * uz * C + uy * s),
        (uy * ux * C + uz * s, c + uy * uy * C, uy * uz * C - ux * s),
        (uz * ux * C - uy * s, uz * uy * C + ux * s, c + uz * uz * C),
    ))
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = point - R @ point
    return T


def _reference_realize(p, prop):
    """`realize` as it stood before all frames were folded in one walk: one
    frame, one face at a time, on 3- and 4-vectors."""
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
            if c > 0:
                parent, kind, a_pt, b_pt = (r, c - 1), "col", (r, c), (r + 1, c)
                sign = 1.0
            else:
                parent, kind, a_pt, b_pt = (r - 1, c), "row", (r, c), (r, c + 1)
                sign = -1.0
            pa = np.array([*grid2[a_pt], 0.0])
            pb = np.array([*grid2[b_pt], 0.0])
            d = pb - pa
            d /= np.linalg.norm(d)
            T = transforms[parent] @ _reference_rot_about_line(
                pa, d, sign * prop.edge_angle(kind, a_pt, b_pt)
            )
        transforms[(r, c)] = T
        corners = p.face_corners(r, c)
        flat = [grid2[q] for q in corners]
        own = [(T @ np.array([*q2, 0.0, 1.0]))[:3] for q2 in flat]
        for (qr, qc), x in zip(corners, own):
            if (qr > r or r == 0) and (qc > c or c == 0):
                coords[qr, qc] = x
        folded = [coords[q] for q in corners]
        for x, q3 in zip(own, folded):
            closure = max(closure, float(np.linalg.norm(x - q3)))
        idx = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3))
        for a_i, b_i in idx:
            d2 = np.linalg.norm(flat[a_i] - flat[b_i])
            d3 = np.linalg.norm(folded[a_i] - folded[b_i])
            rigidity = max(rigidity, abs(d3 - d2) / max(d2, 1.0))
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

    # the bounds are read where `realize` reads them, so a test may move both
    tau_closure, tau_rigid = realize_mod.TAU_CLOSURE, realize_mod.TAU_RIGID
    if closure > tau_closure:
        raise ClosureViolation(
            f"fold angles are inconsistent: closure residual "
            f"{closure:.3e} exceeds {tau_closure:.1e}"
        )
    if rigidity > tau_rigid:
        raise RigidityViolation(
            f"panel deformation {rigidity:.3e} exceeds {tau_rigid:.1e}"
        )
    return coords, rigidity, closure


def _reference_sweep(p, n_frames, n_samples, propagate_fn=propagate):
    """`sweep`'s frame loop as it stood: propagate, then fold, frame by
    frame; a frame's error ends the loop."""
    t_end = certify(p, None, n_samples).interval[1]
    tree = build_tree(p)
    frames = []
    for k in range(n_frames):
        t = 0.0 if n_frames == 1 else t_end * k / (n_frames - 1)
        frames.append(_reference_realize(p, propagate_fn(tree, t, None)))
    return frames


def _outcome(fn):
    """Each frame's coordinate bytes and residual reprs, or the exception's
    type and message.  A residual is compared as a float: the reference
    mixes numpy and Python scalars, `realize` reports floats."""
    try:
        frames = fn()
    except QuadfoldError as exc:
        return type(exc), str(exc)
    return [(coords.tobytes(), repr(float(rigidity)), repr(float(closure)))
            for coords, rigidity, closure in frames]


def _state_outcome(states):
    for s in states:
        assert type(s.rigidity_residual) is float
        assert type(s.closure_residual) is float
    return [(s.coords.tobytes(), repr(s.rigidity_residual),
             repr(s.closure_residual)) for s in states]


def _bench_herringbones():
    """Five seeded 8x8 herringbones from the benchmark's (a, c) range."""
    rng = random.Random(12)
    return [herringbone_plan(8, 8, rng.uniform(93.0, 97.0),
                             rng.uniform(70.0, 74.0)) for _ in range(5)]


_FOLD_CASES = ([("showcase_a", showcase_a_plan(), 240),
                ("showcase_b", showcase_b_plan(), 240)]
               + [(f"herringbone_8x8_{k}", plan, 12)
                  for k, plan in enumerate(_bench_herringbones())]
               + [("herringbone_32x32", herringbone_plan(32, 32), 3)]
               # non-square: a fold that swaps rows and columns fails these
               + [("herringbone_3x5", herringbone_plan(3, 5), 12),
                  ("herringbone_5x3", herringbone_plan(5, 3), 12),
                  ("single_ff_unit_2x1", single_ff_unit_plan(), 12)])


@pytest.mark.parametrize("name, plan, n_frames", _FOLD_CASES,
                         ids=[case[0] for case in _FOLD_CASES])
def test_one_walk_fold_matches_reference(name, plan, n_frames):
    """Folding every frame in one walk changes no bit: each frame's
    coordinates and residuals from `sweep`, and from `realize` of the same
    propagation, equal the frame-by-frame reference's."""
    p = stitch(plan)
    n_samples = 40
    ref = _reference_sweep(p, n_frames, n_samples)
    want = _outcome(lambda: ref)
    res = sweep(p, None, n_frames, n_samples=n_samples)
    assert _state_outcome(res.frames) == want
    assert repr(res.max_rigidity_residual) == repr(
        max(float(r) for _, r, _ in ref))
    assert repr(res.max_closure_residual) == repr(
        max(float(c) for _, _, c in ref))
    tree = build_tree(p)
    for k in (1, n_frames // 2, n_frames - 1):
        prop = propagate(tree, res.driving_angles[k], None)
        assert _state_outcome([realize(p, prop)]) == [want[k]]


def _tampered(bad=(), fail_at=None, at=(1, 1)):
    """`propagate` with the U crease of vertex `at` moved by 0.2 rad at
    the frames in `bad`, refusing with OutOfDomain from frame `fail_at`."""
    count = itertools.count()
    i, j = at

    def tampered(tree, t, choice=None):
        k = next(count)
        if fail_at is not None and k >= fail_at:
            raise OutOfDomain(f"frame {k} refused")
        prop = propagate(tree, t, choice)
        if k in bad:
            sols = [list(row) for row in prop.solutions]
            rho = sols[i][j].rho
            sols[i][j] = replace(sols[i][j], rho=(rho[0] + 0.2,) + rho[1:])
            prop = replace(prop, solutions=tuple(tuple(r) for r in sols))
        return prop

    return tampered


def _tampered_walk(tampered):
    """`foldability._walk` built frame by frame from a tampered
    `propagate`: each vertex's own list of its solutions at the frames
    that propagate, and the OutOfDomain of each frame that does not."""
    def walk(p, branches, ts):
        tree, refused = build_tree(p), {}
        sols = [[[] for _ in range(p.n)] for _ in range(p.m)]
        for k, t in enumerate(ts):
            try:
                prop = tampered(tree, t, branches)
            except OutOfDomain as exc:
                refused[k] = exc
                continue
            for row, got in zip(sols, prop.solutions):
                for col, sol in zip(row, got):
                    col.append(sol)
        return sols, refused

    return walk


@pytest.mark.parametrize("bad, fail_at, tau_closure, raised", [
    ((3,), None, None, ClosureViolation),
    ((5, 2), None, None, ClosureViolation),
    ((0,), None, None, ClosureViolation),
    ((2,), 5, None, ClosureViolation),
    ((), 4, None, OutOfDomain),
    ((), 0, None, OutOfDomain),
    # with the closure bound out of the way the same frames fail rigidity
    ((3,), None, 10.0, RigidityViolation),
    ((6,), 4, 10.0, OutOfDomain),
])
def test_sweep_raises_as_frame_by_frame(monkeypatch, pat_a, bad, fail_at,
                                        tau_closure, raised):
    """`sweep` raises what the frame-by-frame loop raised, type and
    message: the first failing frame's ClosureViolation before its
    RigidityViolation, and a violation in the frames before a failed
    propagation before that failure."""
    if tau_closure is not None:
        monkeypatch.setattr(realize_mod, "TAU_CLOSURE", tau_closure)
    want = _outcome(lambda: _reference_sweep(pat_a, 8, 40,
                                             _tampered(bad, fail_at)))
    monkeypatch.setattr(realize_mod, "_walk",
                        _tampered_walk(_tampered(bad, fail_at)))
    with pytest.raises(raised) as exc:
        sweep(pat_a, None, 8, n_samples=40)
    assert (type(exc.value), str(exc.value)) == want


@pytest.mark.parametrize("bad, fail_at, tau_closure, raised", [
    ((3,), None, None, ClosureViolation),
    ((2,), 5, None, ClosureViolation),
    ((3,), None, 10.0, RigidityViolation),
])
def test_sweep_raises_as_frame_by_frame_on_3x5(monkeypatch, bad, fail_at,
                                               tau_closure, raised):
    """The raise order holds on a non-square blanket, with the crease moved
    at vertex (2, 3), which a 5x3 blanket does not have."""
    p = stitch(herringbone_plan(3, 5))
    if tau_closure is not None:
        monkeypatch.setattr(realize_mod, "TAU_CLOSURE", tau_closure)
    want = _outcome(lambda: _reference_sweep(
        p, 8, 40, _tampered(bad, fail_at, at=(2, 3))))
    monkeypatch.setattr(realize_mod, "_walk",
                        _tampered_walk(_tampered(bad, fail_at, at=(2, 3))))
    with pytest.raises(raised) as exc:
        sweep(p, None, 8, n_samples=40)
    assert (type(exc.value), str(exc.value)) == want


def test_realize_refuses_as_frame_by_frame(pat_a):
    """An inconsistent propagation is refused with the reference's
    exception, type and message."""
    tree = build_tree(pat_a)
    bad = _tampered(bad=(0,))(tree, deg(12))
    want = _outcome(lambda: [_reference_realize(pat_a, bad)])
    assert want[0] is ClosureViolation
    with pytest.raises(ClosureViolation) as exc:
        realize(pat_a, bad)
    assert (type(exc.value), str(exc.value)) == want


def test_realize_refuses_a_propagation_of_another_pattern():
    """A propagation of a larger or a smaller blanket is refused with
    ValueError naming both shapes, as a branch grid of the wrong shape
    is."""
    small = stitch(herringbone_plan(4, 4))
    large = stitch(herringbone_plan(8, 8))
    for p, q in ((small, large), (large, small)):
        other = propagate(build_tree(q), 0.3)
        with pytest.raises(ValueError, match=(
                f"propagation's grid is {q.m}x{q.n}; the pattern is "
                f"{p.m}x{p.n}")):
            realize(p, other)


def test_valley_sign_is_toward_the_viewer():
    """Positive folding angles are valleys: the moving panels rotate toward
    +z, the side from which the labelling runs counter-clockwise."""
    from quadfold import mv_assignment

    p = stitch(square_grid_plan(2, 2))
    tree = build_tree(p)
    for sign in (1.0, -1.0):
        t = sign * deg(40)
        state = realize(p, propagate(tree, t, None))
        mv = mv_assignment(p, None, t)
        row1 = [mv[(a, b)] for kind, a, b in p.edges()
                if kind == "row" and a[0] == 1]
        z_moving = state.coords[2:, :, 2]
        if sign > 0:
            assert set(row1) == {"V"}
            assert z_moving.max() > 0.1 and z_moving.min() >= -1e-12
        else:
            assert set(row1) == {"M"}
            assert z_moving.min() < -0.1 and z_moving.max() <= 1e-12
