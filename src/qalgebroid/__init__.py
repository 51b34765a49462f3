"""Exact graded-algebra engine for homological vector fields.

Builds the higher Schouten and higher Poisson structures generated by a
homological vector field on an anti-vector-bundle chart, together with their
derived bracket towers, and verifies the defining identities exactly over
the rationals.
"""

__version__ = "0.1.0"

from .charts import (
    BundlePresentation,
    Chart,
    all_charts,
    chart_e_star,
    chart_even_cotangent,
    chart_odd_cotangent,
    chart_pi_e,
    chart_pi_e_star,
    describe_chart,
    lift_to_phase,
    restrict_to_zero_section,
)
from .construction import (
    FibreChange,
    HigherStructure,
    MorphismR,
    build_poisson,
    build_schouten,
    chart_change_naturality,
    even_dual_exchange,
    is_strict,
    odd_dual_exchange,
    total_weight_audit,
)
from .fields import (
    NotHomological,
    VectorField,
    canonical_poisson,
    canonical_schouten,
    commutator,
    even_symbol,
    is_homological,
    odd_symbol,
)
from .gradedpoly import (
    EVEN,
    ODD,
    ChartMismatch,
    GradedAlgebraError,
    GradedPoly,
    Generator,
    ParityMismatch,
    UnknownGenerator,
)
from .homotopy import (
    BracketTable,
    DerivedBracketEngine,
    FieldEngine,
    PhaseEngine,
    higher_anchor,
    higher_bracket,
    jacobiator,
    leibniz_check,
    poisson_bracket_table,
    poisson_engine,
    schouten_bracket_table,
    schouten_engine,
    skew_bracket_table,
    symmetric_field_table,
    weight_one_restriction_check,
)
from .specdoc import AlgebroidSpec, SpecError, assemble_field, parse_spec, render_spec

__all__ = [name for name in dir() if not name.startswith("_")]
