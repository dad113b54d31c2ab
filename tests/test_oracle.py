"""The rotation-composition oracle must stand on its own: it never uses the
transmission formulas, so agreement with them is meaningful evidence."""

import math
import random

import pytest

from quadfold import (BranchId, ClassTag, QuadfoldError, Vertex4, classify,
                      fold_interval, loop_closure_residual, solve_generic,
                      solve_on_branch)

deg = math.radians


def test_identity_at_flat_state():
    v = Vertex4.from_degrees((80, 95, 75, 110))
    assert loop_closure_residual(v, (0.0, 0.0, 0.0, 0.0)) == 0.0


def test_square_line_fold_by_hand():
    # folding the square vertex along its vertical line: rotations about
    # +y and -y by the same angle cancel exactly
    v = Vertex4.from_degrees((90, 90, 90, 90))
    for t in (0.3, 1.0, -2.5, math.pi):
        assert loop_closure_residual(v, (t, 0.0, t, 0.0)) < 1e-14


def test_arbitrary_line_fold_closes():
    # any straight-line fold: the collinear pair folds equally, rest flat
    v = Vertex4.from_degrees((50, 180, 60, 70))
    assert loop_closure_residual(v, (0.7, 0.7, 0.0, 0.0)) < 1e-14


def test_random_angles_do_not_close():
    v = Vertex4.from_degrees((80, 95, 75, 110))
    assert loop_closure_residual(v, (0.5, 0.4, 0.3, 0.2)) > 1e-2


def test_sign_flip_is_detected():
    v = Vertex4.from_degrees((80, 95, 75, 110))
    s = solve_generic(v, deg(60), BranchId.BRANCH_1)
    assert loop_closure_residual(v, s) < 1e-12
    flipped = (s.rho[0], -s.rho[1], s.rho[2], s.rho[3])
    assert loop_closure_residual(v, flipped) > 1e-3


def test_mirror_configuration_also_closes():
    # global sign flip is the reflected folding; it must close too
    v = Vertex4.from_degrees((80, 95, 75, 110))
    s = solve_generic(v, deg(40), BranchId.BRANCH_2)
    assert loop_closure_residual(v, tuple(-x for x in s.rho)) < 1e-12


def test_requires_four_angles():
    v = Vertex4.from_degrees((90, 90, 90, 90))
    with pytest.raises(ValueError):
        loop_closure_residual(v, (0.1, 0.2, 0.3))


# ---------------------------------------------------------------------------
# reference: the oracle with generator-built 3x3 products
# ---------------------------------------------------------------------------


def _reference_rot(ux, uy, c, s):
    """Rotation about the in-plane unit axis (ux, uy, 0)."""
    uz, C = 0.0, 1.0 - c
    return (
        (c + ux * ux * C, ux * uy * C - uz * s, ux * uz * C + uy * s),
        (uy * ux * C + uz * s, c + uy * uy * C, uy * uz * C - ux * s),
        (uz * ux * C - uy * s, uz * uy * C + ux * s, c + uz * uz * C),
    )


def _reference_mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3))
                       for j in range(3)) for i in range(3))


def _reference_residual(v, rho):
    a = v.alpha
    angles = (0.0, a[1], a[1] + a[2], a[1] + a[2] + a[3])
    R = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    for phi, r in zip(angles, rho):
        if r == 0.0:
            continue
        R = _reference_mat_mul(R, _reference_rot(
            math.cos(phi), math.sin(phi), math.cos(r), math.sin(r)))
    s = 0.0
    for i in range(3):
        for j in range(3):
            d = R[i][j] - (1.0 if i == j else 0.0)
            s += d * d
    return math.sqrt(s)


# one vertex of each class, a generic one with and without flat-foldability
_CLASS_VERTICES = [
    ("generic", (80, 95, 75, 110), ClassTag.GENERIC),
    ("flat_foldable", (80, 95, 100, 85), ClassTag.GENERIC),
    ("straight_line", (50, 100, 80, 130), ClassTag.STRAIGHT_LINE),
    ("double_collinear", (60, 120, 60, 120), ClassTag.DOUBLE_COLLINEAR),
    ("adjacent_collinear", (180, 60, 50, 70), ClassTag.ADJACENT_COLLINEAR),
    ("trivial", (200, 60, 50, 50), ClassTag.TRIVIAL),
]


def _seeded_states(v, rng, count):
    """Branch states of v where it has any, and arbitrary angles; in every
    third state each angle may become 0.0 or -0.0."""
    params = []
    for branch in BranchId:
        try:
            interval = fold_interval(v, branch)
        except QuadfoldError:
            continue
        if interval.hi > interval.lo:
            params.append((branch, interval))
    states = []
    for k in range(count):
        if params and k % 2:
            branch, interval = params[k // 2 % len(params)]
            r = rng.uniform(interval.lo, interval.hi)
            rho = list(solve_on_branch(v, r, branch).rho)
        else:
            rho = [rng.uniform(-math.pi, math.pi) for _ in range(4)]
        if k % 3 == 0:
            rho = [rng.choice((x, 0.0, -0.0)) for x in rho]
        states.append(tuple(rho))
    return states


@pytest.mark.parametrize("name, degrees, tag", _CLASS_VERTICES,
                         ids=[case[0] for case in _CLASS_VERTICES])
def test_oracle_matches_reference_bit_for_bit(name, degrees, tag):
    """The straight-line oracle gives the reference's float, repr for repr,
    on 1,000 seeded states of each vertex class, exact zero folds and -0.0
    entries among them."""
    v = Vertex4.from_degrees(degrees)
    got = classify(v)
    assert got.tag is tag and got.flat_foldable == (name == "flat_foldable")
    states = _seeded_states(v, random.Random(name), 1000)
    zeros = [math.copysign(1.0, x) for s in states for x in s if x == 0.0]
    assert 1.0 in zeros and -1.0 in zeros
    for rho in states:
        assert (repr(loop_closure_residual(v, rho))
                == repr(_reference_residual(v, rho))), rho
