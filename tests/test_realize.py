import math
from dataclasses import replace

import numpy as np
import pytest

from quadfold import (
    ClosureViolation,
    LayoutFailure,
    OutOfDomain,
    Vertex4,
    build_tree,
    propagate,
    realize,
    stitch,
    sweep,
)
from quadfold.fixtures import (
    herringbone_plan,
    showcase_a_plan,
    showcase_b_plan,
    square_grid_plan,
)

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

    def test_determinism(self, pat_a):
        prop = propagate(build_tree(pat_a), deg(9), None)
        s1 = realize(pat_a, prop)
        s2 = realize(pat_a, prop)
        assert np.array_equal(s1.coords, s2.coords)


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
