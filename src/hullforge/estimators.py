"""The Poisson hull estimator, its error representation, and higher moments.

The estimator of an intensity integral F = int f d(lambda) from one observed
pattern is the hull integral of f plus the f-sum over the boundary atoms.
Its error admits a pathwise representation as an anticipating stochastic
integral, evaluated here as

    sum_z f(z) H_z(mu - d_z)  -  (F - hull integral),

which must agree with (estimate - F) to float precision on every pattern.
The boundary f^2-sum is an unbiased estimator of the estimator's variance.
For a product kernel g(x_1)...g(x_k) of any order k, ``hull_estimate_k``
estimates (int g d(lambda))^k from the hull integral of g and the g-products
over ordered tuples of distinct boundary copies.

Each integrand states its formula once, as ``values`` on an array of
coordinate rows; ``value`` of a point is ``values`` of its one row, so the
estimator, the error representation and a caller's point agree bit for bit.

Statistical guarantees are almost-sure statements under diffuse sampling;
crafted degenerate patterns (exact duplicates under a diffuse model) evaluate
the same formulas but sit outside the almost-sure event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Callable, Sequence

import numpy as np

from . import generators
from .core import (
    ConfigurationError,
    HullGenerator,
    PointPattern,
    SpacePoint,
    ordered_sum,
    point_from_row,
)


# ---------------------------------------------------------------------------
# integrands


class Integrand:
    """A function on the ground space, with the array primitives its pairings need.

    ``values`` evaluates f at each row of a coordinate array; it is each
    integrand's one formula, and ``value`` of a point is ``values`` of its
    one row.  The ``integrate`` of a pairing's geometry pass in
    ``generators`` calls the three primitives on numpy arrays.  ``space`` is
    the kind of ground space (the first entry of a space tag) whose rows
    ``values`` reads, or None where it reads any.
    """

    space: str | None = None

    def values(self, coords: np.ndarray, space_tag: tuple) -> np.ndarray:
        """f at each row of an (n, k) array of checked rows of ``space_tag``.

        Python's ``**`` is kept where an integrand raises to a power, over the
        rows' ``tolist()`` floats, since numpy's ``power`` may round otherwise.
        """
        raise NotImplementedError

    def value(self, p: SpacePoint) -> float:
        """f at one point: ``values`` of its row."""
        return float(self.values(np.array((p.row,)), p.space_tag)[0])

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
    """f = c; ``_evaluate`` turns it into c times the hull mass, so it needs no primitive."""

    c: float = 1.0

    def values(self, coords, space_tag):
        return np.array([self.c] * len(coords), dtype=float)


@dataclass(frozen=True)
class PowerTail(Integrand):
    """f(x) = (p - 1) x^(-p) on a half line, integrating to z^(1-p) beyond z."""

    p: float = 2.0
    space = "euclid"

    def __post_init__(self):
        if self.p <= 1:
            raise ConfigurationError("power tail needs p > 1")

    def values(self, coords, space_tag):
        return np.array([(self.p - 1.0) * x ** (-self.p) for x in coords[:, 0].tolist()])

    def tail_integral(self, z: float) -> float:
        return z ** (1.0 - self.p)


@dataclass(frozen=True)
class Indicator(Integrand):
    """f(s, u) = 1{u >= 0} on param space."""

    space = "param"

    def values(self, coords, space_tag):
        return (coords[:, -1] >= 0.0).astype(float)

    def depth_primitive(self, v):
        return np.clip(v, 0.0, None)


@dataclass(frozen=True)
class PowerDepth(Integrand):
    """f(s, u) = p u_+^(p-1); its primitive in u is u_+^p."""

    p: float = 2.0
    space = "param"

    def __post_init__(self):
        if self.p <= 0:
            raise ConfigurationError("power depth needs p > 0")

    def values(self, coords, space_tag):
        return np.array([self.p * u ** (self.p - 1.0) if u > 0.0 else 0.0
                         for u in coords[:, -1].tolist()])

    def depth_primitive(self, v):
        return np.clip(v, 0.0, None) ** self.p


@dataclass(frozen=True)
class RadialPower(Integrand):
    """f(theta, u) = w * beta * u^(beta-1) on line space."""

    beta: float = 1.0
    weight: float = 1.0
    space = "line"

    def __post_init__(self):
        if self.beta == 0:
            raise ConfigurationError("radial power needs beta != 0")

    def values(self, coords, space_tag):
        return np.array([self.weight * self.beta * u ** (self.beta - 1.0)
                         for u in coords[:, 1].tolist()])

    def radial_primitive(self, a, b):
        return np.where(b <= a, 0.0, self.weight * (b**self.beta - a**self.beta))


@dataclass(frozen=True)
class CustomIntegrand(Integrand):
    """f given as a function of a point object, called on the point of each row."""

    name: str
    fn: Callable[[SpacePoint], float]

    def values(self, coords, space_tag):
        return np.array([self.fn(point_from_row(space_tag, r))
                         for r in map(tuple, coords.tolist())], dtype=float)


# ---------------------------------------------------------------------------
# hull integrals


def _check_space(gen: HullGenerator, f: Integrand) -> None:
    if f.space is not None and f.space != gen.space_tag[0]:
        raise ConfigurationError(f"{type(f).__name__} integrates on {f.space} space, "
                                 f"not on the {gen.space_tag} space of {type(gen).__name__}")


def _evaluate(
    gen: HullGenerator, model, f: Integrand, mu: PointPattern
) -> tuple[tuple[bool, ...], float, float]:
    """(boundary mask, hull mass, hull integral of f): where an integrand becomes a hull term.

    An integrand on another space than the generator's raises, whatever the
    pattern.  ``generators.evaluate`` gives the mask, the mass and the
    ``integrate`` of one geometry pass.  A constant c gives c times the mass,
    and raises on the half line, whose hull has no finite mass; any other
    integrand gives ``integrate(f)``, and raises where the pairing integrates
    constants only.
    """
    mask, mass, integrate = generators.evaluate(gen, model, mu)
    _check_space(gen, f)
    if isinstance(f, Constant):
        return mask, mass, f.c * generators.finite_mass(mass)
    if integrate is None:
        raise ConfigurationError(
            f"{type(gen).__name__} hull integrals support constant integrands only")
    return mask, mass, integrate(f)


def hull_integral(
    gen: HullGenerator, model, f: Integrand, mu: PointPattern
) -> float:
    """int f d(lambda restricted to the hull of mu): the hull term of ``_evaluate``."""
    return _evaluate(gen, model, f, mu)[2]


# ---------------------------------------------------------------------------
# the estimator


def atom_values(f: Integrand, mu: PointPattern, mask: Sequence[bool]) -> tuple[list, list]:
    """(f at each atom where ``mask`` is true, its multiplicity), as lists in row order.

    f comes from ``f.values`` on the selected rows of ``mu.coords``, so no
    point object is built.  The callers sum the products of these Python
    floats by ``core.ordered_sum``, as a loop over point objects did.
    """
    if not any(mask):
        return [], []
    if all(mask):  # as on most patterns of a few atoms: no copy
        coords, mults = mu.coords, list(mu.mults)
    else:
        coords, mults = mu.coords.compress(mask, axis=0), list(compress(mu.mults, mask))
    return f.values(coords, mu.space_tag).tolist(), mults


def weighted_sum(fvs: list, mults: list) -> float:
    """sum m f over the lists of ``atom_values``, by ``core.ordered_sum``."""
    return ordered_sum(map(mul, mults, fvs))


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
    fvs, mults = atom_values(f, mu, mask)
    terms = list(map(mul, mults, fvs))
    b_term, var_est = ordered_sum(terms), ordered_sum(map(mul, terms, fvs))
    return HullEstimate(
        value=h_term + b_term,
        hull_term=h_term,
        hull_mass=mass,
        boundary_term=b_term,
        variance_estimate=var_est,
        boundary_count=sum(mults),
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
    ``gen.survival_mask``.  Agreement with ``hull_estimate - f_true``
    cross-checks two kernels wherever the generator's leave-one-out kernel is
    independent of its boundary mask; ``core.HullGenerator`` states that
    contract and names the generators whose identity compares the boundary
    mask with itself.  The lambda integral of f off the hull is evaluated as
    f_true minus the hull integral, which pins the identity to float
    precision and isolates Monte Carlo error to sampling.
    """
    gen.check_pattern(mu)
    _check_space(gen, f)
    atom_sum = weighted_sum(*atom_values(f, mu, gen.survival_mask(mu)))
    h_term = hull_integral(gen, model, f, mu) if hull_term is None else hull_term
    return atom_sum - (f_true - h_term)


# ---------------------------------------------------------------------------
# higher-order symmetric statistics


def hull_estimate_k(
    gen: HullGenerator,
    model,
    k: int,
    mu: PointPattern,
    pair_factor: Integrand | None = None,
) -> float:
    """Unbiased estimate of (int g dlambda)^k for the product kernel g(x_1)...g(x_k).

    g is ``pair_factor``, or 1 where it is omitted.  With a the hull integral
    of g and S_j the sum of g(z_1)...g(z_j) over ordered j-tuples of distinct
    boundary copies, the estimate is sum_i C(k, i) a^i S_(k-i), added left to
    right in i; S grows one copy of value v at a time, by S_j += j v S_(j-1).
    For g == 1, S_j is the falling factorial (n)_j of the boundary count n.
    """
    if k < 1:
        raise ConfigurationError("order k must be >= 1")
    g = pair_factor or Constant(1.0)
    mask, _, a = _evaluate(gen, model, g, mu)
    sums = [1.0] + [0.0] * k
    for v, m in zip(*atom_values(g, mu, mask)):
        for _ in range(m):
            for j in range(k, 0, -1):
                sums[j] += j * v * sums[j - 1]
    return ordered_sum(math.comb(k, i) * a**i * sums[k - i] for i in range(k + 1))
