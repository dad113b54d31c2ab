"""Numerical tolerances and default counts.

Every numeric bound of the library is a constant here, with one line on
what it decides; README's "Numerical contract" tabulates them.  The library
and the CLI decide with them, and no argument or setting overrides one.
The default sample and frame counts are the library's defaults and the CLI
flags' defaults.
"""

from __future__ import annotations

import math
from numbers import Integral

# classification sums (radians)
TAU_ANGLE = 1e-9
# Vertex4 refuses sector angles whose sum misses 2*pi by more than this
TAU_SECTOR_SUM = 1e-9
# rounding by which a value passes a closed interval's end and still counts
# as inside: an arccos argument +-1, a driving angle +-pi, a parameter +-r_max
TAU_END = 1e-12
# arccos overshoot past +-1 that a branch's closed forms clamp away
TAU_EVAL_CLAMP = 1e-9
# an arccos curve's validity margin this far below 0 still counts as valid
TAU_MARGIN = 1e-13
# a curve's lifted folding angle may pass +-pi by this inside its interval
TAU_WRAP = 1e-9
# sin(xi) or a flat-foldable |K| below this: zero transmission, refused
TAU_TRANSMISSION = 1e-14
# bracket at which vertex.last_valid stops bisecting for a fold-interval end
TAU_ROOT = 1e-10
# bracket (or 90 halvings) at which a crease-driven inversion stops bisecting
TAU_BRACKET = 1e-15
# the guided bisection evaluates the midpoints this near its guess of the root
GUIDE_WIDTH = 1e-11
# a skipped midpoint must clear the target by this times the lift's rounding
GUIDE_KAPPA = 1e3
# the guided bisection evaluates every midpoint this near r = 0 or +-r_max
GUIDE_ZONE = 1e-6
# solve_at_crease drives a crease by |angle| below this to the flat state
TAU_DRIVE_FLAT = 1e-15
# an inverted parameter this far past +-r_max is clamped; further, refused
TAU_DRIVE_PARAM = 1e-9
# the driven crease must land this near its angle, else OutOfDomain
TAU_DRIVE_LANDING = 1e-7
# near-degenerate classification warning band
TAU_CLASS_BAND = 1e-6
# unit validation residual bound
TAU_UNIT = 1e-8
# samples of the sweep that accepts a unit without an exact residual
UNIT_SAMPLES = 33
# |1 - t_a*t_b| below this is the pole of an infeasibility witness's side
TAU_POLE = 1e-12
# theta/phi compatibility bound for rigid-foldability certification
TAU_COMPAT = 1e-8
# certify's driving limit stops this short of a crease folding flat at +-pi
PI_MARGIN = 1e-7
# the largest |rho| with which a driving-limit probe passes
PROBE_LIMIT = math.pi - PI_MARGIN
# crease direction-vector equality for parallel-row detection
TAU_DIR = 1e-9
# layout angle-reproduction bound
TAU_LAYOUT = 1e-9
# a placed layout's measured sector angle may miss its vertex's by this
TAU_LAYOUT_MEASURED = 10 * TAU_LAYOUT
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
# export_svg pads its view box by 5% of the larger span, or of this if larger
TAU_SVG_SPAN = 1e-9

DEFAULT_SAMPLES = 200
DEFAULT_FRAMES = 30


def check_count(x, least: int, message: str) -> None:
    """ValueError(message) unless x is an integer, not a bool, >= least."""
    if isinstance(x, bool) or not isinstance(x, Integral) or x < least:
        raise ValueError(message)
