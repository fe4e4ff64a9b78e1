"""explab: a desk-scale laboratory for expanding polynomials on
discretized fractal sets.

Exact sparse polynomials with a special-form / expander classifier,
dyadic grid sets with covering and collision-energy measurements,
planar geometric decompositions, and reproducible multi-scale
experiment scenarios.
"""

from .polyexpr import (
    Classification,
    ExpressionError,
    Interval,
    Poly,
    Rect,
    Reason,
    Verdict,
    classify_special_form,
    hf_general,
    hf_poly,
    interval_range,
    mp_numerator,
    parse_poly,
)
from .gridset import (
    ExponentFit,
    GridSet1D,
    GridSet2D,
    Scale,
    box_dim_fit,
    covering_number,
    cs_growth_bound,
    energy_count,
    fit_exponent,
    gen_ap,
    gen_cantor,
    image_set,
    load_gridset,
    nonconcentration_exponent,
    product_set,
    save_gridset,
    sum_set,
)
from .geomdecomp import (
    CubeDecomposition,
    LinearProjection,
    PinnedDistance,
    PolynomialMap,
    SmoothMap2,
    band_partition,
    blaschke_curvature,
    extract_product,
    select_level,
    whitney_decompose,
    zero_nbhd_covering,
)
from .expharness import (
    Report,
    Scenario,
    builtin_scenario,
    builtin_scenarios,
    run_scenario,
)

__version__ = "0.1.0"
