"""Hull operators on Poisson point processes and their unbiased estimators."""

from .core import (
    AxiomReport,
    ConfigurationError,
    DomainError,
    EuclidPoint,
    HullGenerator,
    LinePoint,
    ParamPoint,
    PointPattern,
    SpaceMismatchError,
    check_axioms,
    euclid,
    h_indicator,
    line,
    param,
)
from .estimators import HullEstimate, hull_estimate, hull_estimate_k, ks_error
from .generators import (
    ConvexHullGen,
    CoordMinGen,
    DiskHullGen,
    EnvelopeGen,
    HalfPlaneGen,
    ParetoGen,
    hull_mass,
)
from .sampling import RngStream, sample_poisson, trimmed_resample

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "ConfigurationError",
    "ConvexHullGen",
    "CoordMinGen",
    "DiskHullGen",
    "DomainError",
    "EnvelopeGen",
    "EuclidPoint",
    "HalfPlaneGen",
    "HullEstimate",
    "HullGenerator",
    "LinePoint",
    "ParamPoint",
    "ParetoGen",
    "PointPattern",
    "RngStream",
    "SpaceMismatchError",
    "check_axioms",
    "euclid",
    "h_indicator",
    "hull_estimate",
    "hull_estimate_k",
    "hull_mass",
    "ks_error",
    "line",
    "param",
    "sample_poisson",
    "trimmed_resample",
]
