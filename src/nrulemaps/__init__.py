"""Cycling compositions of oriented angle projections over line arrangements.

Two families of dynamics share one geometric core: symbolic rules target
lines by label and compose into contractive (or expansive) 1D affine
cycles with periodic orbits and closed-curve synthesis; piecewise rules
target lines by distance rank, giving discontinuous dynamics whose orbits
settle onto periodic cycles under an average contraction condition.
"""

from .config import (
    LineSpec,
    PiecewiseRuleSpec,
    SymbolicRuleSpec,
    SystemConfig,
    config_to_dict,
    dump_config,
    load_config,
    parse_config,
)
from .curves import (
    AbsorbedRun,
    ClosedCurve,
    build_closed_curve,
    deabsorb,
    find_absorbed_runs,
    verify_incidence,
)
from .errors import (
    ConfigError,
    DegenerateHit,
    DegenerateLine,
    InvalidAngle,
    InvalidSpec,
    NeutralCycle,
    NonFinitePoint,
    NotInvertible,
    NRuleMapError,
    ParallelLines,
    ParseError,
    PointOffArrangement,
    RepairExhausted,
    ValidationError,
)
from .geometry import (
    Arrangement,
    ArrangementMode,
    Line,
    Point,
    acute_angle,
    canonicalize_line,
    distance_to_line,
    intersect,
    parallel,
    project,
)
from .piecewise import (
    AccReport,
    DistanceProfile,
    InvariantKind,
    InvariantPoint,
    PeriodicCycle,
    PiecewiseNRuleMap,
    PiecewiseOrbit,
    PiecewiseRule,
    StepRecord,
    TieHit,
    acc_check,
    apply_piecewise,
    cycle_map,
    detect_periodic,
    distance_profile,
    invariant_points,
    iterate,
    iterate_piecewise,
    separation_factor,
    separation_product,
)
from .symbolic import (
    AffineMap1D,
    SymbolicNRuleMap,
    SymbolicRule,
    apply_cycle,
    apply_rule,
    cycle_affine,
    cycle_coefficient,
    induced_fixed_point,
    invert_cycle,
    is_collapsing,
    periodic_orbit,
    projection_affine,
    similarity_coefficient,
    step,
)

__version__ = "0.1.0"
