"""Numerical tolerances and run configuration.

The module-level constants are the library defaults.  The CLI lets a JSON
file named by the QUADFOLD_CONFIG environment variable override exactly the
values it passes on, the fields of `CliConfig`: three tolerances and two
counts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from numbers import Integral, Real

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
# an interval of half-width t_max <= this (certify's: < this) is empty
TAU_EMPTY = 1e-9

DEFAULT_SAMPLES = 200


def check_tolerance(name: str, x) -> float:
    """x as a float; ValueError naming `name` unless x is a real number,
    not a bool, that is a positive finite float."""
    real = isinstance(x, Real) and not isinstance(x, bool)
    try:
        f = float(x) if real else math.nan
    except OverflowError:  # a number beyond the float range
        f = math.inf
    if not (math.isfinite(f) and f > 0):
        raise ValueError(f"{name} must be a positive finite number, got {x!r}")
    return f


def check_count(x, least: int, message: str) -> None:
    """ValueError(message) unless x is an integer, not a bool, >= least."""
    if isinstance(x, bool) or not isinstance(x, Integral) or x < least:
        raise ValueError(message)


@dataclass
class CliConfig:
    """Runtime configuration for the command-line interface: the tolerances
    it passes on (unit validation, cut-crease compatibility and the
    flat-crease threshold of mountain/valley labels) and the sample and
    frame counts.  Each field is named as its $QUADFOLD_CONFIG key.

    All angle I/O at the CLI boundary is in degrees; internals are radians.
    """

    tau_unit: float = TAU_UNIT
    tau_compat: float = TAU_COMPAT
    tau_flat: float = TAU_FLAT
    samples: int = DEFAULT_SAMPLES
    frames: int = 30

    def __post_init__(self):
        for name in ("tau_unit", "tau_compat", "tau_flat"):
            check_tolerance(name, getattr(self, name))
        for name, least in (("samples", 2), ("frames", 1)):
            x = getattr(self, name)
            check_count(x, least,
                        f"{name} must be an integer >= {least}, got {x!r}")

    @classmethod
    def from_env(cls) -> "CliConfig":
        """Build a config, applying overrides from $QUADFOLD_CONFIG if set.

        Raises ValueError for anything but a JSON object whose keys are among
        CONFIG_KEYS and whose values are in range.
        """
        path = os.environ.get("QUADFOLD_CONFIG")
        if not path:
            return cls()
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(
                f"expected a JSON object, got {type(raw).__name__}"
            )
        unknown = sorted(set(raw) - set(CONFIG_KEYS))
        if unknown:
            raise ValueError(
                "unknown key " + ", ".join(map(repr, unknown))
                + "; allowed keys are " + ", ".join(CONFIG_KEYS)
            )
        return cls(**raw)


# every key $QUADFOLD_CONFIG may set
CONFIG_KEYS = tuple(f.name for f in fields(CliConfig))
