"""Adaptive-stencil reconstruction and interpolation with verified traces.

The package builds piecewise polynomials from cell averages or point values
on arbitrary increasing meshes, picks each stencil by smallest divided
difference, and checks the one-sided traces it produces: the jump between
the two traces at every interface keeps the sign of the underlying data
jump and is bounded by a mesh-dependent constant times its size. Exact
rational and binary64 backends share one code path.
"""

from .eno_interpolation import (
    PointSignature,
    interpolant_at_node,
    midpoint_traces,
    select_signature_pointwise,
)
from .eno_reconstruction import (
    CellPolynomial,
    NewtonPolynomial,
    StencilSignature,
    cell_mean,
    interface_traces,
    newton_interpolant,
    reconstruct_cell,
    select_signature,
)
from .errors import InvalidMesh, NonFiniteValue, ShapeError, StencilOutOfRange
from .grid import (
    CellAverageField,
    Mesh,
    PointValueField,
    primitive_from_averages,
    uniform_mesh,
)
from .harness import (
    FuzzConfig,
    FuzzReport,
    RateTable,
    convergence_study,
    fuzz_sign_property,
    worst_case_averages,
    worst_case_ratio,
)
from .numerics import (
    EXACT,
    FLOAT,
    DividedDifferenceTable,
    divided_difference_table,
    get_backend,
)
from .stability import (
    InterfaceTrace,
    SignReport,
    TraceBatch,
    bound_Cp,
    bound_cp,
    position_bounds,
    relative_jump,
    sign_report,
    telescoped_jump_interpolation,
    telescoped_jump_reconstruction,
    trace_columns,
    uniform_bound_Cp,
    uniform_bound_cp,
)

__version__ = "0.1.0"

__all__ = [
    "PointSignature",
    "interpolant_at_node",
    "midpoint_traces",
    "select_signature_pointwise",
    "CellPolynomial",
    "NewtonPolynomial",
    "StencilSignature",
    "cell_mean",
    "interface_traces",
    "newton_interpolant",
    "reconstruct_cell",
    "select_signature",
    "InvalidMesh",
    "NonFiniteValue",
    "ShapeError",
    "StencilOutOfRange",
    "CellAverageField",
    "Mesh",
    "PointValueField",
    "primitive_from_averages",
    "uniform_mesh",
    "FuzzConfig",
    "FuzzReport",
    "RateTable",
    "convergence_study",
    "fuzz_sign_property",
    "worst_case_averages",
    "worst_case_ratio",
    "EXACT",
    "FLOAT",
    "DividedDifferenceTable",
    "divided_difference_table",
    "get_backend",
    "InterfaceTrace",
    "SignReport",
    "TraceBatch",
    "bound_Cp",
    "bound_cp",
    "position_bounds",
    "relative_jump",
    "sign_report",
    "telescoped_jump_interpolation",
    "telescoped_jump_reconstruction",
    "trace_columns",
    "uniform_bound_Cp",
    "uniform_bound_cp",
    "__version__",
]
