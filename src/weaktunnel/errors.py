"""Exception types shared across the package.

Configuration problems and numerical-guard violations are kept in separate
branches of the hierarchy because the command line maps them to different
exit codes.
"""


class WeakTunnelError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(WeakTunnelError):
    """A parameter combination that is rejected before any computation runs."""


class NumericalGuardError(WeakTunnelError):
    """A runtime numerical safeguard tripped (the result would be untrustworthy)."""


class EdgeDensityError(NumericalGuardError):
    """Probability density reached the edge of the periodic domain."""


class SchemeInstabilityError(NumericalGuardError):
    """The propagation scheme lost unitarity beyond the allowed drift."""


class OverlapFloorError(NumericalGuardError):
    """A post-selection probability fell below weakval.OVERLAP_FLOOR."""
