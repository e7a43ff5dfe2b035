"""The Poisson hull estimator, its error representation, and higher moments.

The estimator of an intensity integral F = int f d(lambda) from one observed
pattern is the hull integral of f plus the f-sum over the boundary atoms.
Its error admits a pathwise representation as an anticipating stochastic
integral, evaluated here as

    sum_z f(z) H_z(mu - d_z)  -  (F - hull integral),

which must agree with (estimate - F) to float precision on every pattern.
The boundary f^2-sum is an unbiased estimator of the estimator's variance.

Statistical guarantees are almost-sure statements under diffuse sampling;
crafted degenerate patterns (exact duplicates under a diffuse model) evaluate
the same formulas but sit outside the almost-sure event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import generators, sampling
from .core import (
    ConfigurationError,
    HullGenerator,
    PointPattern,
    SpacePoint,
)


# ---------------------------------------------------------------------------
# integrands


class Integrand:
    """A function on the ground space, with the array primitives its pairings need.

    ``value`` evaluates f at a point; the ``integrate`` of a pairing's
    geometry pass in ``generators`` calls the three primitives on numpy arrays.
    """

    def value(self, p: SpacePoint) -> float:
        raise NotImplementedError

    def depth_primitive(self, v: np.ndarray) -> np.ndarray:
        """int_0^v f(t) dt, elementwise, for level-only integrands on param space."""
        raise ConfigurationError(f"{type(self).__name__} has no depth primitive")

    def radial_primitive(self, a: np.ndarray, b: float) -> np.ndarray:
        """int_a^b f(u) du, elementwise, for offset-only integrands on line space."""
        raise ConfigurationError(f"{type(self).__name__} has no radial primitive")

    def tail_integral(self, z: float) -> float:
        """int_z^inf f(x) dx for integrands on a half line."""
        raise ConfigurationError(f"{type(self).__name__} has no tail integral")


@dataclass(frozen=True)
class Constant(Integrand):
    c: float = 1.0

    def value(self, p):
        return self.c

    def depth_primitive(self, v):
        return self.c * np.clip(v, 0.0, None)

    def radial_primitive(self, a, b):
        return self.c * np.clip(b - a, 0.0, None)


@dataclass(frozen=True)
class PowerTail(Integrand):
    """f(x) = (p - 1) x^(-p) on a half line, integrating to z^(1-p) beyond z."""

    p: float = 2.0

    def __post_init__(self):
        if self.p <= 1:
            raise ConfigurationError("power tail needs p > 1")

    def value(self, pt):
        x = pt.coords[0]
        return (self.p - 1.0) * x ** (-self.p)

    def tail_integral(self, z: float) -> float:
        return z ** (1.0 - self.p)


@dataclass(frozen=True)
class Indicator(Integrand):
    """f(s, u) = 1{u >= 0} on param space."""

    def value(self, pt):
        return 1.0 if pt.level >= 0.0 else 0.0

    def depth_primitive(self, v):
        return np.clip(v, 0.0, None)


@dataclass(frozen=True)
class PowerDepth(Integrand):
    """f(s, u) = p u_+^(p-1); its primitive in u is u_+^p."""

    p: float = 2.0

    def __post_init__(self):
        if self.p <= 0:
            raise ConfigurationError("power depth needs p > 0")

    def value(self, pt):
        u = pt.level
        return self.p * u ** (self.p - 1.0) if u > 0.0 else 0.0

    def depth_primitive(self, v):
        return np.clip(v, 0.0, None) ** self.p


@dataclass(frozen=True)
class RadialPower(Integrand):
    """f(theta, u) = w * beta * u^(beta-1) on line space."""

    beta: float = 1.0
    weight: float = 1.0

    def __post_init__(self):
        if self.beta == 0:
            raise ConfigurationError("radial power needs beta != 0")

    def value(self, pt):
        return self.weight * self.beta * pt.offset ** (self.beta - 1.0)

    def radial_primitive(self, a, b):
        return np.where(b <= a, 0.0, self.weight * (b**self.beta - a**self.beta))


@dataclass(frozen=True)
class CustomIntegrand(Integrand):
    name: str
    fn: Callable[[SpacePoint], float]

    def value(self, p):
        return self.fn(p)


# ---------------------------------------------------------------------------
# hull integrals


def _evaluate(
    gen: HullGenerator, model, f: Integrand, mu: PointPattern
) -> tuple[tuple[bool, ...], float, float]:
    """(boundary mask, hull mass, hull integral of f): where an integrand becomes a hull term.

    ``generators.evaluate`` gives the mask, the mass and the ``integrate`` of
    one geometry pass.  A constant c gives c times the mass, and raises on the
    half line, whose hull has no finite mass; any other integrand gives
    ``integrate(f)``, and raises where the pairing integrates constants only.
    """
    mask, mass, integrate = generators.evaluate(gen, model, mu)
    if isinstance(f, Constant):
        if math.isnan(mass):
            raise ConfigurationError(
                "half-line hull mass is infinite; integrate a tail function instead")
        return mask, mass, f.c * mass
    if integrate is None:
        raise ConfigurationError(
            f"{type(gen).__name__} hull integrals support constant integrands only")
    return mask, mass, integrate(f)


def hull_integral(
    gen: HullGenerator, model, f: Integrand, mu: PointPattern
) -> float:
    """int f d(lambda restricted to the hull of mu): the hull term of ``_evaluate``."""
    return _evaluate(gen, model, f, mu)[2]


def envelope_grid_error(gen, model, f: Integrand, mu: PointPattern) -> float:
    """Quadrature error indicator: |I(grid) - I(doubled grid)| for band integrals."""
    if not isinstance(model, sampling.HoelderBand):
        raise ConfigurationError("grid-error diagnostic applies to band models")
    coarse = hull_integral(gen, model, f, mu)
    import dataclasses

    fine_model = dataclasses.replace(model, resolution=2 * model.resolution)
    fine = hull_integral(gen, fine_model, f, mu)
    return abs(coarse - fine)


# ---------------------------------------------------------------------------
# the estimator


@dataclass(frozen=True)
class HullEstimate:
    """Estimator value with its two-term decomposition, variance estimate and hull mass.

    ``hull_mass`` is nan where the pairing has no finite mass (the half line).
    """

    value: float
    hull_term: float
    hull_mass: float
    boundary_term: float
    variance_estimate: float
    boundary_count: int


def hull_estimate(
    gen: HullGenerator, model, f: Integrand, mu: PointPattern
) -> HullEstimate:
    """Unbiased estimate of int f d(lambda): hull integral + boundary f-sum."""
    mask, mass, h_term = _evaluate(gen, model, f, mu)
    bd = mu.entries_where(mask)
    b_term = 0.0
    var_est = 0.0
    for p, m in bd:
        fv = f.value(p)
        b_term += m * fv
        var_est += m * fv * fv
    return HullEstimate(
        value=h_term + b_term,
        hull_term=h_term,
        hull_mass=mass,
        boundary_term=b_term,
        variance_estimate=var_est,
        boundary_count=sum(m for _, m in bd),
    )


def ks_error(
    gen: HullGenerator,
    model,
    f: Integrand,
    mu: PointPattern,
    f_true: float,
    hull_term: float | None = None,
) -> float:
    """Estimation error via the anticipating-integral form.

    The atom sum takes H_z(mu - d_z), one copy of z removed, from
    ``gen.survival_mask``: a generator's own leave-one-out kernel (angular
    gaps for planar convex hulls, a domination matrix for Pareto, the two
    lexicographic minima for coordmin, the support function with one line
    left out for half-planes, a dual angular test for the disk hull), which
    do not call the boundary mask, or the definitional membership loop for
    3-D convex hulls.  Agreement with ``hull_estimate - f_true`` therefore
    cross-checks two kernels; only the envelope generator reuses its
    boundary mask.  The lambda integral of f off the hull is evaluated as
    f_true minus the hull integral, which pins the identity to float
    precision and isolates Monte Carlo error to sampling.
    """
    gen.check_pattern(mu)
    atom_sum = 0.0
    for p, m in mu.entries_where(gen.survival_mask(mu)):
        atom_sum += m * f.value(p)
    h_term = hull_integral(gen, model, f, mu) if hull_term is None else hull_term
    return atom_sum - (f_true - h_term)


# ---------------------------------------------------------------------------
# higher-order conditional statistics


def hull_estimate_k(
    gen: HullGenerator,
    model,
    k: int,
    mu: PointPattern,
    pair_factor: Integrand | None = None,
) -> float:
    """k-th order conditional moment estimator.

    With ``pair_factor`` omitted this is the f == 1 case: the estimator is
    sum_i C(k, i) * hull_mass^i * (falling factorial of the boundary count),
    valid for any k >= 1.  With ``pair_factor`` g it is the k = 2 estimator of
    (int g dlambda)^2 for the product kernel g(x) g(y); the subtraction of the
    diagonal realises the factorial measure over boundary atoms.
    """
    if k < 1:
        raise ConfigurationError("order k must be >= 1")
    if pair_factor is not None and k != 2:
        raise ConfigurationError("product-form estimators support k = 2 only")
    est = hull_estimate(gen, model, pair_factor or Constant(1.0), mu)
    if pair_factor is not None:
        a, b = est.hull_term, est.boundary_term
        return a * a + 2.0 * a * b + (b * b - est.variance_estimate)
    total = 0.0
    for i in range(k + 1):
        falling = 1.0
        for j in range(k - i):
            falling *= est.boundary_count - j
            if falling == 0.0:
                break
        total += math.comb(k, i) * est.hull_mass**i * falling
    return total
