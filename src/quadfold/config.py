"""Numerical tolerances and default counts.

The module-level tolerances are constants: the library and the CLI decide
with them, and no argument or setting overrides one.  The default sample
and frame counts are the library's defaults and the CLI flags' defaults.
"""

from __future__ import annotations

from numbers import Integral

# classification sums (radians)
TAU_ANGLE = 1e-9
# arccos arguments are clamped into [-1, 1] only when this close to the bound
TAU_CLAMP = 1e-12
# bracket at which vertex.last_valid stops bisecting for a fold-interval end
# (crease-driven inversion in vertex.solve_at_crease bisects to a 1e-15
# bracket, at most 90 halvings, evaluating only the midpoints near a
# closed-form guess of the root and near the ends and the flat state)
TAU_ROOT = 1e-10
# near-degenerate classification warning band
TAU_CLASS_BAND = 1e-6
# unit validation residual bound
TAU_UNIT = 1e-8
# samples of the sweep that accepts a unit without an exact residual
UNIT_SAMPLES = 33
# theta/phi compatibility bound for rigid-foldability certification
TAU_COMPAT = 1e-8
# crease direction-vector equality for parallel-row detection
TAU_DIR = 1e-9
# layout angle-reproduction bound
TAU_LAYOUT = 1e-9
# relative edge-length / diagonal / planarity bound for realized states
TAU_RIGID = 1e-9
# rotation-composition distance from identity
TAU_CLOSURE = 1e-9
# |folding angle| below this counts as an unfolded (flat) crease
TAU_FLAT = 1e-9
# a driving interval of half-width t_max <= this is empty
TAU_EMPTY = 1e-9
# a cross product at most this times its vectors' squared size is degenerate
# (parallel lines, a face with no area or plane): 1e4 times its rounding error
TAU_DEGENERATE = 1e-12

DEFAULT_SAMPLES = 200
DEFAULT_FRAMES = 30


def check_count(x, least: int, message: str) -> None:
    """ValueError(message) unless x is an integer, not a bool, >= least."""
    if isinstance(x, bool) or not isinstance(x, Integral) or x < least:
        raise ValueError(message)

