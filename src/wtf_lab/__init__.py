"""wtf-lab: dimensions of Weierstrass-type graphs over cookie-cutter maps,
predicted by thermodynamic formalism and measured directly."""

from .dynamics import (
    BIRKHOFF_FIELDS,
    CookieCutterSystem,
    birkhoff_sum,
    code_of,
    cylinder_budget,
    torus_distance,
    validate_system,
)
from .errors import *  # noqa: F401,F403 -- the taxonomy is the public surface
from .graph import eval_W_many, oscillation_over
from .metrics import (
    BoxCountResult,
    CloudProvenance,
    CorrelationResult,
    DegeneracyVerdict,
    GraphCloud,
    box_dimension,
    correlation_dimension,
    detect_degenerate,
    empirical_spectrum,
    holder_birkhoff,
    holder_birkhoff_many,
    holder_oscillation,
    holder_oscillation_many,
    read_cloud_csv,
    sample_graph,
    write_cloud_csv,
)
from .models import MODELS, model_spec
from .theta import ThetaSequence
from .thermo import (
    DimensionPrediction,
    MeasureStats,
    PotentialSpec,
    PressureEstimate,
    SpectrumCurve,
    A_of_q,
    aq_family,
    bowen_root,
    gibbs_sample,
    graph_dimension_prediction,
    jin_upper,
    lifted_dim_prediction,
    measure_stats,
    moran_oracle,
    pressure,
    s1_family,
    s2_family,
    spectrum,
)

__version__ = "0.1.0"
