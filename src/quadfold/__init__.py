"""quadfold: kinematics and design of rigid-foldable quadrilateral crease
patterns built from degree-4 vertices.

The public surface mirrors the pipeline: solve single vertices, design and
validate transmission units, stitch them into blankets, certify the result
rigid-foldable, realize the folding motion in 3D and export it.
"""

from .errors import (
    ClosureViolation,
    DegenerateVertex,
    EmptyInterval,
    IncompatibleUnits,
    InvalidAngle,
    InvalidSectorAngles,
    LayoutFailure,
    MonotonicityViolation,
    NegativeDof,
    NotABlanket,
    OutOfDomain,
    QuadfoldError,
    RigidityViolation,
    SerializationError,
    ValidationFailed,
    WrongClass,
)
from .foldability import (
    CompatibilityReport,
    TreeStructure,
    build_tree,
    certify,
    enumerate_branch_choices,
    mv_assignment,
    propagate,
)
from .foldio import export_fold, export_obj, export_svg, fold_dumps, import_fold
from .pattern import (
    DofReport,
    PlanLengths,
    QuadPattern,
    StitchPlan,
    count_branches,
    count_dof,
    stitch,
)
from .realize import (
    FoldedState,
    SweepResult,
    loop_closure_residual,
    realize,
    sweep,
)
from .units import (
    FFUnitMode,
    InfeasibilityReport,
    Unit,
    UnitReport,
    identical_vertex_unit,
    infeasibility_witness,
    make_flatfoldable_basic_unit,
    make_straightline_unit,
    solve_ff_unit,
    unit_from_descriptor,
    valid_branch_pairs,
    validate_unit,
)
from .vertex import (
    BranchId,
    ClassTag,
    FoldInterval,
    MonotonicityReport,
    Vertex4,
    VertexClass,
    VertexSolution,
    classify,
    fold_interval,
    monotonicity_check,
    normalize_angle,
    solve_at_crease,
    solve_flatfoldable,
    solve_generic,
    solve_on_branch,
    solve_straightline,
    xi_of,
)

__version__ = "0.1.0"
