"""Exact computer algebra for affine modification surface rings."""

from .scalars import QQ, PrimeField, RationalField, field_from_spec
from .poly import (
    GREVLEX,
    LEX,
    MonomialOrder,
    MultiPoly,
    Ring,
    distinct_root_count,
    divide_multi,
    exact_div,
    gcd_univariate,
    linear_decompose,
    ring,
    squarefree_part,
)
from .parse import ParseError, format_poly, parse_fraction, parse_poly
from .ideals import (
    INFINITE,
    Ideal,
    buchberger_gb,
    colength,
    ideals_equal,
    is_point_ideal,
    normal_form,
)
from .rings import (
    PresentedRing,
    SamuelReport,
    build_Bn,
    build_C1,
    build_C2,
    samuel_check,
    verify_ring_map,
)
from .fibers import (
    AFFINE_LINE,
    EMPTY,
    CurveClass,
    classify_curve,
    expected_fiber_class,
    fiber_poly,
    fiber_table,
    punctured_line,
    union,
)
from .degrees import (
    fraction,
    probe_nonnegativity,
    valuation_degree,
)
from .report import VerificationReport

__version__ = "0.1.0"
