"""
Realizing and exporting the folding motion
==========================================

A certified blanket folds rigidly: every panel moves as a rigid body.  This
script sweeps both showcase patterns from flat to their final state, verifies
panel congruence frame by frame, and writes OBJ meshes plus FOLD frames that
any origami viewer can load.
"""

import math
import os

from quadfold import export_fold, export_obj, fold_dumps, stitch, sweep
from quadfold.fixtures import showcase_a_plan, showcase_b_plan

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

for name, plan in (("showcase_a", showcase_a_plan()),
                   ("showcase_b", showcase_b_plan())):
    pattern = stitch(plan)
    motion = sweep(pattern, None, 12)
    print(f"{name}: {len(motion)} frames, driving angle up to "
          f"{math.degrees(motion.driving_angles[-1]):.2f} deg")
    print(f"  worst rigidity residual {motion.max_rigidity_residual:.2e}, "
          f"worst closure residual {motion.max_closure_residual:.2e}")

    frame_dir = os.path.join(OUT, f"{name}_frames")
    os.makedirs(frame_dir, exist_ok=True)
    for k, state in enumerate(motion.frames):
        with open(os.path.join(frame_dir, f"frame_{k:03d}.obj"), "w",
                  encoding="utf-8") as fh:
            fh.write(export_obj(state, pattern))
    # also a mid-fold FOLD frame with fold angles and M/V letters
    doc = export_fold(motion.frames[len(motion.frames) // 2], pattern=pattern)
    with open(os.path.join(OUT, f"{name}_midfold.fold"), "w",
              encoding="utf-8") as fh:
        fh.write(fold_dumps(doc))
    print(f"  wrote {len(motion)} OBJ frames to {frame_dir} "
          f"and {name}_midfold.fold")

    # how far off the plane does the final state reach?
    final = motion.frames[-1]
    z = abs(final.coords[:, :, 2]).max()
    print(f"  final state height: {z:.3f} (crease lengths are 1)")
