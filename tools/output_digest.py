#!/usr/bin/env python3
"""One sha256 over the certify reports and sweep exports of a fixed input set.

    python3 tools/output_digest.py                        # this checkout's src/
    PYTHONPATH=/other/checkout/src python3 tools/output_digest.py

A change that should leave every computed float alone prints the same hash
before and after.  The hash covers the repr of the `certify` report (or the
exception type and message) for every enumerated branch choice and both
uniform curve-branch choices of showcases A and B, four seeded 8x8
herringbones and a 4x4 herringbone, and the text of the FOLD and OBJ exports
of a 6-frame `sweep` of each of those blankets that certifies on its default
branches.  One line per text gives that text's own hash, so a diff of two
outputs names the texts that moved; the last line is the total.  It is a
comparison tool, not a golden: the hash is compared between two source
trees, never stored.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

# PYTHONPATH comes first on sys.path, so it picks the source tree to digest.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import quadfold  # noqa: E402
from quadfold import (  # noqa: E402
    BranchId,
    QuadfoldError,
    certify,
    enumerate_branch_choices,
    export_fold,
    export_obj,
    fold_dumps,
    stitch,
    sweep,
)
from quadfold.fixtures import (  # noqa: E402
    herringbone_plan,
    showcase_a_plan,
    showcase_b_plan,
)

SEED = 7
N_HERRINGBONES = 4
N_FRAMES = 6
# The bench's herringbone range: every blanket in it stitches, certifies
# and sweeps at 8x8.
A_DEG = (93.0, 97.0)
C_DEG = (70.0, 74.0)


def blankets():
    """(name, plan) pairs of the fixed input set."""
    yield "showcase_a", showcase_a_plan()
    yield "showcase_b", showcase_b_plan()
    rng = random.Random(SEED)
    for k in range(N_HERRINGBONES):
        a, c = rng.uniform(*A_DEG), rng.uniform(*C_DEG)
        yield f"herringbone_8x8_{k}", herringbone_plan(8, 8, a, c)
    yield "herringbone_4x4", herringbone_plan(4, 4)


def _outcome(fn):
    try:
        return repr(fn())
    except QuadfoldError as exc:
        return f"{type(exc).__name__}: {exc}"


def texts():
    """Every text the digest covers, labelled, in a fixed order."""
    for name, plan in blankets():
        p = stitch(plan)
        choices = (*enumerate_branch_choices(p), BranchId.BRANCH_1,
                   BranchId.BRANCH_2)
        for k, choice in enumerate(choices):
            yield f"{name} certify {k}", _outcome(lambda: certify(p, choice))
        try:
            motion = sweep(p, n_frames=N_FRAMES)
        except QuadfoldError as exc:
            yield f"{name} sweep", f"{type(exc).__name__}: {exc}"
            continue
        for k, state in enumerate(motion.frames):
            yield f"{name} frame {k} fold", fold_dumps(export_fold(state, pattern=p))
            yield f"{name} frame {k} obj", export_obj(state, p)


def main() -> int:
    print(f"quadfold from {Path(quadfold.__file__).parent}", file=sys.stderr)
    total = hashlib.sha256()
    n = 0
    for label, text in texts():
        data = f"{label}\n{text}\n".encode()
        total.update(data)
        n += 1
        print(f"{hashlib.sha256(data).hexdigest()[:16]}  {label}")
    print(f"{total.hexdigest()}  ({n} texts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
