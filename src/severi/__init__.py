"""Exact combinatorics of plane-curve singularities.

Two independent computations and their cross-check: multiplicities of
the genus strata in deformation spaces, obtained from Euler numbers of
Hilbert schemes of points by an integer triangular transform, and the
lowest framing-degree part of the HOMFLY polynomial of singularity
links, obtained from a circuit-partition state sum over braid words.
All arithmetic is exact.
"""

__version__ = "0.1.0"

from .braid import (
    BraidWord,
    CircuitPartition,
    EnumerationBudgetError,
    HomflyValue,
    MilnorData,
    PinfPositive,
    closure_components,
    is_admissible,
    iter_admissible,
    jaeger_homfly,
    markov_checks,
    milnor_from_braid,
    parse_braid,
    pinf_positive,
    trace_encounters,
)
from .dynkin import SimpleGraph, dynkin_diagram, dynkin_nh, independence_counts, independent_set_count, path_graph
from .genus_transform import (
    GlobalCurveData,
    LocalGermData,
    NhVector,
    check_low_vanishing,
    combine_local,
    hilb_from_locals,
    identity_checks,
    local_degree_bound_ok,
    nh_from_series,
    nh_from_series_global,
    nh_from_series_local,
    nh_from_series_local_raw,
    series_from_nh,
)
from .laurent import (
    LaurentPoly1,
    LaurentPoly2,
    TruncatedSeries,
    expand_rational,
    lowest_a_part,
    one_minus_q_power,
    unknot_value,
)
from .models import ConjectureReport, SingularityModel, catalog, conjecture_check, predicted_pinf, torus_model
from .staircase import (
    ADEType,
    BoxConstraint,
    ade_closed_formula,
    ade_closed_vector,
    ade_nh,
    all_types,
    count_staircases,
    germ_data,
    model_series,
)

__all__ = [name for name in dir() if not name.startswith("_")]
