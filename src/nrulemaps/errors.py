"""Exception types shared across the package."""


class NRuleMapError(Exception):
    """Base class for every error raised by this package."""


class DegenerateLine(NRuleMapError):
    """Two coincident points cannot define a line."""


class ParallelLines(NRuleMapError):
    """An operation needing an intersection was given a parallel pair."""


class InvalidAngle(NRuleMapError):
    """Projection angle outside (0, pi/2]."""


class PointOffArrangement(NRuleMapError):
    """A point expected to sit on the arrangement does not."""


class NeutralCycle(NRuleMapError):
    """The cycle's affine action has scale 1: no unique fixed parameter."""


class NotInvertible(NRuleMapError):
    """A collapsing cycle loses a dimension and cannot be inverted."""


class InvalidSpec(NRuleMapError):
    """A closed-curve request violates the builder's hypotheses."""


class RepairExhausted(NRuleMapError):
    """Orientation-flip repair revisited a configuration or hit its cap."""


class DegenerateHit(NRuleMapError):
    """A distance tie interrupted an operation that assumed none."""


class NonFinitePoint(NRuleMapError, ValueError):
    """A computed point left the floating-point range (an escaping orbit)."""


class ConfigError(NRuleMapError):
    """Base for configuration-file problems."""


class ParseError(ConfigError):
    """The config file is unreadable or not valid JSON."""


class ValidationError(ConfigError):
    """The config parsed but describes an invalid system."""
