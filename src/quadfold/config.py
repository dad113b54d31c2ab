"""Numerical tolerances and run configuration.

The module-level tolerances are constants: the library and the CLI decide
with them, and no argument or setting overrides one.  The CLI lets a JSON
file named by the QUADFOLD_CONFIG environment variable set the two counts
it passes on, the fields of `CliConfig`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
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
# an interval of half-width t_max <= this (certify's: < this) is empty
TAU_EMPTY = 1e-9

DEFAULT_SAMPLES = 200


def check_count(x, least: int, message: str) -> None:
    """ValueError(message) unless x is an integer, not a bool, >= least."""
    if isinstance(x, bool) or not isinstance(x, Integral) or x < least:
        raise ValueError(message)


@dataclass
class CliConfig:
    """Runtime configuration for the command-line interface: the sample
    and frame counts.  Each field is named as its $QUADFOLD_CONFIG key.

    All angle I/O at the CLI boundary is in degrees; internals are radians.
    """

    samples: int = DEFAULT_SAMPLES
    frames: int = 30

    def __post_init__(self):
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
