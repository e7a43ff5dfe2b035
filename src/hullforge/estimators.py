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
    EuclidPoint,
    HullGenerator,
    PointPattern,
    SpacePoint,
)


# ---------------------------------------------------------------------------
# integrands


class Integrand:
    """A function on the ground space, with band antiderivatives where needed."""

    def value(self, p: SpacePoint) -> float:
        raise NotImplementedError

    def depth_primitive(self, v: float) -> float:
        """int_0^v f(t) dt for level-only integrands on param space."""
        raise ConfigurationError(f"{type(self).__name__} has no depth primitive")

    def depth_primitive_grid(self, v: np.ndarray) -> np.ndarray:
        return np.array([self.depth_primitive(x) for x in v])

    def radial_primitive(self, a: float, b: float) -> float:
        """int_a^b f(u) du for offset-only integrands on line space."""
        raise ConfigurationError(f"{type(self).__name__} has no radial primitive")


@dataclass(frozen=True)
class Constant(Integrand):
    c: float = 1.0

    def value(self, p):
        return self.c

    def depth_primitive(self, v):
        return self.c * max(v, 0.0)

    def depth_primitive_grid(self, v):
        return self.c * np.clip(v, 0.0, None)

    def radial_primitive(self, a, b):
        return self.c * max(b - a, 0.0)


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
        return max(v, 0.0)

    def depth_primitive_grid(self, v):
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
        return max(v, 0.0) ** self.p

    def depth_primitive_grid(self, v):
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
        if b <= a:
            return 0.0
        return self.weight * (b**self.beta - a**self.beta)


@dataclass(frozen=True)
class CustomIntegrand(Integrand):
    name: str
    fn: Callable[[SpacePoint], float]
    depth_fn: Callable[[float], float] | None = None

    def value(self, p):
        return self.fn(p)

    def depth_primitive(self, v):
        if self.depth_fn is None:
            raise ConfigurationError(f"custom integrand {self.name} has no primitive")
        return self.depth_fn(v)


# ---------------------------------------------------------------------------
# hull integrals: the f-weighted variant of the exact hull-mass routines


# Gauss degree-5 rule on the reference triangle (weights sum to 1).
_TRI_W = np.array(
    [0.225]
    + [0.13239415278850618] * 3
    + [0.12593918054482715] * 3
)
_A1, _B1 = 0.059715871789769820, 0.47014206410511508
_A2, _B2 = 0.79742698535308731, 0.10128650732345633
_TRI_P = np.array(
    [
        [1 / 3, 1 / 3],
        [_A1, _B1],
        [_B1, _A1],
        [_B1, _B1],
        [_A2, _B2],
        [_B2, _A2],
        [_B2, _B2],
    ]
)


def _triangle_quad(f, a, b, c, subdiv: int = 4) -> float:
    """Integral of f over triangle abc, degree-5 rule on a subdivided mesh."""
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    total = 0.0
    for i in range(subdiv):
        for j in range(subdiv - i):
            corners = []
            p00 = a + (b - a) * (i / subdiv) + (c - a) * (j / subdiv)
            p10 = a + (b - a) * ((i + 1) / subdiv) + (c - a) * (j / subdiv)
            p01 = a + (b - a) * (i / subdiv) + (c - a) * ((j + 1) / subdiv)
            corners.append((p00, p10, p01))
            if j < subdiv - i - 1:
                p11 = a + (b - a) * ((i + 1) / subdiv) + (c - a) * ((j + 1) / subdiv)
                corners.append((p10, p11, p01))
            for u, v, w in corners:
                area = 0.5 * abs(
                    (v[0] - u[0]) * (w[1] - u[1]) - (w[0] - u[0]) * (v[1] - u[1])
                )
                pts = u + _TRI_P[:, :1] * (v - u) + _TRI_P[:, 1:] * (w - u)
                vals = np.array([f(p) for p in pts])
                total += area * float(_TRI_W @ vals)
    return total


def hull_integral(
    gen: HullGenerator, model, f: Integrand, mu: PointPattern
) -> float:
    """int f d(lambda restricted to the hull of mu), exact per pairing."""
    gen.check_pattern(mu)
    if mu.is_empty:
        return 0.0

    if isinstance(f, Constant):
        return f.c * generators.hull_mass(gen, mu, model)

    if isinstance(gen, generators.ConvexHullGen) and isinstance(
        model, (sampling.UniformBox, sampling.UniformDisk, sampling.UniformPolygon)
    ):
        if gen.dim != 2:
            raise ConfigurationError("weighted convex hull integrals support d = 2 only")
        distinct = list(dict.fromkeys(p.coords for p in mu.support()))
        poly = generators._extreme_2d(distinct)
        if len(poly) < 3:
            return 0.0
        total = 0.0
        anchor = poly[0]
        for i in range(1, len(poly) - 1):
            total += _triangle_quad(
                lambda q: f.value(EuclidPoint((float(q[0]), float(q[1])))),
                anchor,
                poly[i],
                poly[i + 1],
            )
        return model.rate * total

    if isinstance(gen, generators.ParetoGen) and isinstance(model, sampling.HalfLine):
        if gen.dim != 1 or not isinstance(f, PowerTail):
            raise ConfigurationError("half-line hull integrals support the power-tail integrand")
        zeta = min(p.coords[0] for p in mu.support())
        return model.rate * f.tail_integral(zeta)

    if isinstance(gen, generators.EnvelopeGen) and isinstance(model, sampling.HoelderBand):
        sites, cell = model.grid_sites()
        env = gen.envelope_at(mu, sites)
        phi = model.phi_at(sites)
        depth = np.clip(env, 0.0, phi)
        return model.rate * float(f.depth_primitive_grid(depth).sum()) * cell

    if isinstance(gen, generators.HalfPlaneGen) and isinstance(model, sampling.LinesBand):
        angles = generators._theta_grid()
        h = gen.hull_support(mu, angles)
        lo = np.minimum(np.maximum(model.h_inner, h), model.h_outer)
        vals = np.array([f.radial_primitive(a, model.h_outer) for a in lo])
        return model.rate * float(vals.sum()) * (2.0 * math.pi / len(angles))

    raise ConfigurationError(
        f"unsupported hull-integral pairing: {type(gen).__name__} / "
        f"{type(model).__name__} / {type(f).__name__}"
    )


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
    """Estimator value with its two-term decomposition and variance estimate."""

    value: float
    hull_term: float
    boundary_term: float
    variance_estimate: float
    boundary_count: int


def hull_estimate(
    gen: HullGenerator, model, f: Integrand, mu: PointPattern
) -> HullEstimate:
    """Unbiased estimate of int f d(lambda): hull integral + boundary f-sum."""
    gen.check_pattern(mu)
    bd = gen.boundary(mu)
    b_term = 0.0
    var_est = 0.0
    for p, m in bd.entries:
        fv = f.value(p)
        b_term += m * fv
        var_est += m * fv * fv
    h_term = hull_integral(gen, model, f, mu)
    return HullEstimate(
        value=h_term + b_term,
        hull_term=h_term,
        boundary_term=b_term,
        variance_estimate=var_est,
        boundary_count=bd.total_mass,
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
    ``gen.survival_mask``: the definitional membership loop by default, or a
    generator's own leave-one-out kernel (angular gaps for planar convex
    hulls, a domination matrix for Pareto), which do not call the boundary
    map.  Agreement with ``hull_estimate - f_true`` therefore cross-checks
    two kernels; only the envelope generator reuses its boundary's
    contribution mask.  The lambda integral of f off the hull is
    evaluated as f_true minus the hull integral, which pins the identity to
    float precision and isolates Monte Carlo error to sampling.
    """
    gen.check_pattern(mu)
    atom_sum = 0.0
    for (p, m), h in zip(mu.entries, gen.survival_mask(mu)):
        if h:
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
    gen.check_pattern(mu)
    bd = gen.boundary(mu)

    if pair_factor is None:
        lam = generators.hull_mass(gen, mu, model) if not mu.is_empty else 0.0
        m_count = bd.total_mass
        total = 0.0
        for i in range(k + 1):
            falling = 1.0
            for j in range(k - i):
                falling *= m_count - j
                if falling == 0.0:
                    break
            total += math.comb(k, i) * lam**i * falling
        return total

    if k != 2:
        raise ConfigurationError("product-form estimators support k = 2 only")
    g = pair_factor
    a = hull_integral(gen, model, g, mu)
    b = 0.0
    diag = 0.0
    for p, m in bd.entries:
        gv = g.value(p)
        b += m * gv
        diag += m * gv * gv
    return a * a + 2.0 * a * b + (b * b - diag)
