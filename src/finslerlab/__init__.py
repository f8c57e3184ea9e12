"""finslerlab: numerical Finsler geometry at desk scale.

Sprays, curvature tensors, projective invariants, and metric
classification for user-defined Finsler metrics.  Every derivative is
read from one truncated Taylor series ring, exact to rounding: the
curvature pipeline, the sampler's fundamental-tensor check and the
point tensors all evaluate the metric once per state in it.
"""

__version__ = "0.1.0"

from .catalog import get_example, list_examples
from .classify import (
    SamplePlan,
    Tolerances,
    classify_metric,
    sample_states,
)
from .curvature import (
    GeometryState,
    berwald_curvature,
    connections,
    distortion,
    douglas_tensor,
    mean_berwald,
    riemann,
    riemann_full,
    s_curvature,
    spray,
)
from .metrics import cartan_torsion, construct_metric
from .projective import (
    identity_residual,
    pr_quadratic_residual,
    pr_riemann,
    projective_ricci,
    projective_spray,
)
from .volume import (
    bh_quadrature_volume,
    bh_randers_volume,
    constant_volume,
    dsl_volume,
)
