"""Closed forms and theoretical bounds the Monte Carlo output is checked against.

Covers the planar coordinate-minimum boundary-size formula, void-probability
bounds for the Hoelder envelope model, the induced variance bracket and its
growth rate, the normal-approximation bound terms for prime generators, and
the mean-width target for concentric disks.

Where a bound replaces an exact expectation (the normal-approximation terms),
the result is an upper bound and is meant to be compared one-sidedly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DomainError

#: unit-ball volumes for d <= 3
KAPPA = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def coordmin_expected_card(t: float) -> float:
    """Expected boundary cardinality of the planar coordinate-minimum model.

    Equals 2 P(N >= 1) - E[1/N; N >= 1] for a Poisson(t) point count N:
    the two argmin atoms collide with probability 1/n given n points.  The
    same value arises from the void-probability route, where the region
    left-of-or-below a probe has area z_x + z_y - z_x z_y; dropping the
    overlap term gives the often-quoted 2(1-e^-t) - (1-e^-t)^2/t, which is
    refuted by simulation (see the decision record and the analytics tests).
    """
    if t <= 0:
        raise DomainError("intensity multiplier must be positive")
    # E[1/N; N>=1] = exp(-t) * sum_k t^k / (k * k!)
    p = math.exp(-t)  # running Poisson pmf p_k
    tail = 0.0
    k = 0
    while True:
        k += 1
        p *= t / k
        term = p / k
        tail += term
        if k > t and term < 1e-17:
            break
    return 2.0 * (1.0 - math.exp(-t)) - tail


@dataclass(frozen=True)
class HoelderScenarioParams:
    """Inputs for the envelope-model bounds.

    ``f_profiles[i]`` is the depth profile u -> int |f(s, phi(s) - u)|^i ds
    for i in {1, 2, 3, 4}; ``f_sup`` bounds |f| on the band (the cone bounds
    on the local mass functions scale with it).
    """

    dim: int
    beta: float
    env_const: float
    holder_const: float
    rate: float
    f_profiles: dict[int, Callable[[float], float]]
    f_sup: float = 1.0

    def __post_init__(self):
        if not 0 <= self.holder_const <= self.env_const:
            raise DomainError("need 0 <= holder_const <= env_const")
        if not 0 < self.beta <= 1:
            raise DomainError("need beta in (0, 1]")
        if self.dim not in KAPPA:
            raise DomainError("dimension must be 1, 2 or 3")

    @property
    def depth_exponent(self) -> float:
        return (self.dim + self.beta) / self.beta

    @property
    def decay_sharp(self) -> float:
        """Exponent coefficient from the widest-cone comparison (upper H bound)."""
        d, b = self.dim, self.beta
        return b * KAPPA[d] / (d + b) * (2.0 * self.env_const) ** (-d / b)

    @property
    def decay_conservative(self) -> float:
        """Exponent coefficient from the narrow-cone comparison; inf if R' = R."""
        d, b = self.dim, self.beta
        gap = self.env_const - self.holder_const
        if gap <= 0.0:
            return math.inf
        return b * KAPPA[d] / (d + b) * gap ** (-d / b)

    def cone_mass(self, v: float) -> float:
        """Volume of the domination cone of depth v (local mass bound at f == 1)."""
        d, b = self.dim, self.beta
        gap = self.env_const - self.holder_const
        if gap <= 0.0:
            return math.inf
        return KAPPA[d] * b / (d + b) * gap ** (-d / b) * v**self.depth_exponent


def hoelder_h_bounds(params: HoelderScenarioParams, u: float) -> tuple[float, float]:
    """Bracket for the void probability E H at depth u below the boundary.

    Returns (lower, upper); the lower bound is 0 when the Hoelder constant
    equals the envelope constant.  Both bounds scale the exponent linearly in
    the intensity multiplier.
    """
    if u < 0:
        raise DomainError("depth must be nonnegative")
    q = params.depth_exponent
    t = params.rate
    a = params.decay_conservative
    b = params.decay_sharp
    lower = 0.0 if (math.isinf(a) and u > 0) else math.exp(-a * t * u**q) if u > 0 else 1.0
    upper = math.exp(-b * t * u**q)
    return lower, upper


def hoelder_pair_bound(params: HoelderScenarioParams, u: float, v: float) -> float:
    """Upper bound on E[H H'] for two probes at depths u and v.

    Uses the widest-cone coefficient on max(u, v); since both indicators are
    {0,1}-valued this dominates the joint expectation.
    """
    if u < 0 or v < 0:
        raise DomainError("depths must be nonnegative")
    q = params.depth_exponent
    return math.exp(-params.decay_sharp * params.rate * max(u, v) ** q)


def _profile(params: HoelderScenarioParams, i: int) -> Callable[[float], float]:
    try:
        return params.f_profiles[i]
    except KeyError as exc:
        raise DomainError(f"scenario params lack the order-{i} depth profile") from exc


def _quad_to_inf(fn: Callable[[float], float]) -> float:
    """int_0^inf fn(u) du by ``scipy.integrate.quad`` (epsrel 1e-6, 200 subintervals).

    ``scipy.integrate`` is imported on the first call, not with hullforge.
    """
    from scipy.integrate import quad

    val, _ = quad(fn, 0.0, np.inf, epsrel=1e-6, limit=200)
    return val


def hoelder_variance_bounds(params: HoelderScenarioParams) -> tuple[float, float]:
    """Two-sided bracket for the variance of the band estimator at rate t.

    Evaluated in depth coordinates: t * int f_2(u) exp(-c t u^q) du with the
    conservative (lower) and sharp (upper) decay coefficients.
    """
    f2 = _profile(params, 2)
    t = params.rate
    q = params.depth_exponent

    def bound(coef: float) -> float:
        if math.isinf(coef):
            return 0.0
        return t * _quad_to_inf(lambda u: f2(u) * math.exp(-coef * t * u**q))

    return bound(params.decay_conservative), bound(params.decay_sharp)


def clt_bound_terms(
    params: HoelderScenarioParams,
) -> tuple[float, float, float, float]:
    """Normal-approximation bound terms (T1, T3, T4, T5) for prime envelopes.

    Every void probability is replaced by its sharp upper bound, the joint
    expectation by the pair bound, and the local mass functions by the
    closed-form cone volume, so the sum upper-bounds the distributional
    distance.  The variance proxy is the conservative lower bound, which
    keeps the final bound one-sided; it must be positive.
    """
    sigma2, _ = hoelder_variance_bounds(params)
    if sigma2 <= 0.0:
        raise DomainError("variance lower bound is zero; bound terms undefined")
    sigma = math.sqrt(sigma2)
    t = params.rate
    q = params.depth_exponent
    b = params.decay_sharp
    f1 = _profile(params, 1)
    f2 = _profile(params, 2)
    f3 = _profile(params, 3)

    def cone1(v: float) -> float:
        return params.f_sup * params.cone_mass(v)

    def cone2(v: float) -> float:
        return params.f_sup**2 * params.cone_mass(v)

    def decayed(fn) -> float:
        return _quad_to_inf(lambda u: fn(u) * math.exp(-b * t * u**q))

    t3 = t / sigma**3 * decayed(f3)
    t4 = t**2 / sigma**3 * decayed(lambda v: 3.0 * cone1(v) * f2(v) + 2.0 * cone2(v) * f1(v))
    t5 = 8.0 * t**3 / sigma**3 * decayed(lambda w: f1(w) * cone1(w) ** 2)

    # T1 couples the two probes through the shared dominating atom: splitting
    # the site integral by Cauchy-Schwarz leaves sqrt(f4) profiles and one
    # cone-section factor per probe, joined over the common depth w.
    f4 = _profile(params, 4)
    d_over_b = params.dim / params.beta
    gap = params.env_const - params.holder_const
    cone_coef = KAPPA[params.dim] * gap ** (-d_over_b)
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(32)

    def joint_cone(u: float, v: float) -> float:
        m = min(u, v)
        if m <= 0.0:
            return 0.0
        w = 0.5 * m * (gauss_x + 1.0)
        vals = (u - w) ** d_over_b * (v - w) ** d_over_b
        return cone_coef**2 * 0.5 * m * float((gauss_w * vals).sum())

    in_x, in_w = np.polynomial.legendre.leggauss(64)

    def outer_integrand(v: float) -> float:
        if v <= 0.0:
            return 0.0
        fv = math.sqrt(f4(v))
        if fv == 0.0:
            return 0.0
        u = 0.5 * v * (in_x + 1.0)
        vals = np.array([math.sqrt(f4(ui)) * joint_cone(ui, v) for ui in u])
        inner = 0.5 * v * float((in_w * vals).sum())
        return fv * math.exp(-b * t * v**q) * inner

    outer = _quad_to_inf(outer_integrand)
    t1 = t**1.5 / sigma**2 * math.sqrt(max(2.0 * outer, 0.0))
    return t1, t3, t4, t5


def meanwidth_target(k_radius: float, l_radius: float) -> float:
    """Support-gap integral between concentric disks: 2 pi (L - K)."""
    if k_radius <= 0 or l_radius < k_radius:
        raise DomainError("need 0 < K radius <= L radius")
    return 2.0 * math.pi * (l_radius - k_radius)

