"""Zero-mean-curvature surface toolkit for Lorentz-Minkowski 3-space.

Split-complex (paracomplex) arithmetic, para-holomorphic function calculus,
Weierstrass-type surface generation (time-like and space-like), pointwise
umbilic/quasi-umbilic classification, and curvature-line flow indices.
"""

from .paracomplex import (
    EPS1,
    EPSM1,
    J,
    IdempotentPair,
    ParaComplex,
    decompose,
    from_projections,
    n2,
    recompose,
)
from .poly import Poly
from .parafunc import (
    Branch,
    BranchOrder,
    NormalForm,
    ParaFunction,
    SplitOrders,
    UnsupportedBranch,
    para_cr_residual,
)
from .geometry import (
    GridSpec,
    PointClass,
    SurfaceChart,
    ChartClassification,
    chart_from_arrays,
    classify_chart,
    classify_node,
    quasi_umbilic_direction_check,
    weingarten,
)
from .weierstrass import (
    DegenerateDataError,
    ImmersionPatch,
    NullData,
    WeierstrassData,
    generate_ko,
    generate_null,
    hopf_differential,
    minkowski_cross,
    minkowski_dot,
)
from .umbilic import (
    IndexReport,
    NoSmoothFlowError,
    analyze_point,
    eigenfield_check,
    eigenfields,
    measure_indices,
)
from .flow import (
    LINE_FIELD,
    VECTOR_FIELD,
    FlowField,
    WindingError,
    WindingResult,
    from_null_components,
    perpendicular,
    streamlines,
    winding_index,
)
from .spacelike import (
    ComplexWeierstrassData,
    SpacelikePatch,
    generate_kobayashi,
    monomial_hopf_data,
    spacelike_index,
)

__version__ = "0.1.0"
