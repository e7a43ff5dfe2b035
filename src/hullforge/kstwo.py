"""Two-sided two-sample Kolmogorov-Smirnov test with the asymptotic p-value.

``ks_2samp(a, b)`` returns what ``scipy.stats.ks_2samp(a, b, method="asymp")``
returns as statistic and p-value, bit for bit, without loading
``scipy.stats`` (0.55-0.72 s and about 45 MB on a 2-CPU Linux VM).  Only
``smirnov`` is scipy's, and ``scipy.special`` is imported on its first
call, in the branches that need it: x >= 0.5, Miller's approximation
(n <= 140, n x^2 > 4) and n x^2 >= 2.2 for n > 140.  The p-value is
``kstwo.sf(d, round(n1 n2 / (n1 + n2)))``, the two-sided one-sample
distribution computed by the rules of Simard & L'Ecuyer, "Computing the
Two-Sided Kolmogorov-Smirnov Distribution", J. Stat. Softw. 39(11), 2011:
Ruben-Gambino at both ends, ``2 * smirnov`` above x = 0.5 and for large
n x^2, the Durbin matrix (Marsaglia-Tsang-Wang), Pomeranz's recursion and
the Pelz-Good series below.

Only the survival-function path is here, ported from scipy 1.17.1
``scipy/stats/_ksstats.py`` and ``rv_continuous.sf``.  Each expression is
scipy's, on scipy's types: x is the 0-d float64 array scipy's ``nditer``
hands over, so the scalar ``**`` and ufunc paths, the ``np.longdouble``
2^128 rescaling, ``np.matmul``, ``np.convolve`` and ``np.polyval`` round as
they do there.  ``tests/test_kstwo.py`` checks equality against scipy.

The ported code is under scipy's licence:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# B_{2j}/(2j)/(2j-1) for j = 8, ..., 1, with B_m the Bernoulli numbers
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


class KSResult(NamedTuple):
    statistic: np.float64
    pvalue: np.float64


def ks_2samp(data1, data2) -> KSResult:
    """Two-sided two-sample KS statistic and its asymptotic p-value.

    The statistic is sup |F1 - F2| over the pooled points, with each
    empirical CDF read by ``searchsorted(side="right")`` so tied values
    step together; the p-value is ``kstwo_sf(d, round(n1 n2 / (n1 + n2)))``
    with the size rounded half to even.  Inputs are finite and non-empty.
    """
    data1 = np.sort(data1)
    data2 = np.sort(data2)
    n1 = data1.shape[0]
    n2 = data2.shape[0]
    data_all = np.concatenate([data1, data2])
    cdf1 = np.searchsorted(data1, data_all, side='right') / n1
    cdf2 = np.searchsorted(data2, data_all, side='right') / n2
    cddiffs = cdf1 - cdf2
    minS = np.clip(-cddiffs[np.argmin(cddiffs)], 0, 1)
    maxS = cddiffs[np.argmax(cddiffs)]
    d = minS if minS > maxS else maxS
    m, n = sorted([float(n1), float(n2)], reverse=True)
    en = m * n / (m + n)
    return KSResult(np.float64(d), kstwo_sf(d, np.round(en)))


def kstwo_sf(x, n) -> np.float64:
    """``scipy.stats.kstwo.sf(x, n)``: P(D_n > x) for the one-sample statistic D_n.

    nan for a nan x and unless n is an integer >= 1; 1 for x <= 0.5/n and
    0 for x >= 1; clipped to [0, 1].
    """
    n = np.asarray(n)
    x = np.asarray(x, dtype=np.float64)
    if not ((n >= 1) & (n == np.round(n))) or np.isnan(x):
        return np.float64(np.nan)
    if x <= 0.5 / n:
        return np.float64(1.0)
    if x >= 1.0:
        return np.float64(0.0)
    return np.float64(np.clip(_kolmogn_sf(int(n), x), 0.0, 1.0))


def smirnov(n, x):
    """``scipy.special.smirnov(n, x)``, P(D_n^+ > x); ``scipy.special`` loads on the first call."""
    from scipy.special import smirnov as scipy_smirnov
    return scipy_smirnov(n, x)


def _kolmogn_sf(n, x):
    """P(D_n > x) for 0.5/n < x < 1, unclipped; x is a 0-d float64 array."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n+1) * (1.0/n) * (2*t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t-1))
        return 1.0 - prob
    if t >= n - 1:  # Ruben-Gambino
        return 2 * (1.0 - x)**n
    if x >= 0.5:  # exact: 2 * smirnov
        return 2 * smirnov(n, x)

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return 1.0 - _kolmogn_DMTW(n, x)
        if nxsquared <= 4:
            return 1.0 - _kolmogn_Pomeranz(n, x)
        return 2 * smirnov(n, x)  # Miller's approximation
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return 2 * smirnov(n, x)
    if n <= 100000 and n * x**1.5 <= 1.4:
        return 1.0 - _kolmogn_DMTW(n, x)
    return 1.0 - _kolmogn_PelzGood(n, x)


def _log_nfactorial_div_n_pow_n(n):
    # log(n!/n^n) by Stirling's series, with n log(n) removed up front to
    # avoid subtractive cancellation:
    #    = log(n)/2 - n + log(sqrt(2pi)) + sum B_{2j}/(2j)/(2j-1)/n**(2j-1)
    rn = 1.0/n
    return np.log(n)/2 - n + _LOG_2PI/2 + rn * np.polyval(_STIRLING_COEFFS, rn/n)


def _kolmogn_DMTW(n, d):
    """P(D_n <= d), unclipped, by the Durbin matrix: the MTW form.

    Write d = (k-h)/n with k a positive integer and 0 <= h < 1; the answer is
    the (k, k) entry of (n!/n^n) H^n for an m x m matrix H, m = 2k-1, the
    powers rescaled by 2^128 as they grow.  Memory O(m^2), time O(m^3 log n)
    plus a Python loop over n.
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and the reversed last row) of H:
    #  v[j] = (1-h^(j+1))/(j+1)!  (except for v[-1]);  w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # This might underflow.  Isn't a problem.
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # Holds intermediate powers of H
    nn = n
    expnt = 0  # Scaling of Hpwr
    Hexpnt = 0  # Scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        # Scale as needed.
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # Multiply by n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    # unscale
    if expnt != 0:
        p = np.ldexp(p, expnt)

    return p


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """The endpoints of the interval for row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        # i + 1 = 2*ip1div2 + ip1mod2
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1

    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_Pomeranz(n, x):
    """P(D_n <= x), unclipped, by Pomeranz's recursion.

    Row i of the n x (2n+2) matrix V is the convolution of row i-1 with one
    of three near-Poisson weight vectors, and the answer is n! times the last
    entry.  Only two rows are kept, each as its few non-zero entries from
    start index V0s / V1s, rescaled by 2^128 when they would underflow.
    """
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)    # Maximum number of powers needed in convolutions
    gpower = np.empty(npwrs)  # gpower = (g/n)^m/m!
    twogpower = np.empty(npwrs)  # twogpower = (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # onem2gpower = ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g/n, 2*g/n, (1 - 2*g)/n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # first row
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        # Preserve j1, V1, V1s, V0s from last iteration
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1  # First index to use from conv
            conv_len = j2 - j1 + 1  # Number of entries to use from conv
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            # Scale to avoid underflow.
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # multiply by n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m

    # Undo any intermediate scaling
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return ans


def _kolmogn_PelzGood(n, x):
    """Pelz-Good approximation to P(D_n <= x), unclipped, for 0 < x < 1.

    The Li-Chien/Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n^1.5 at z = x sqrt(n), each K_i rewritten by the Jacobi theta
    functional equation into a series that converges for small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # Coefficients of terms in the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2), a sum over odd integers
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # The sums over all integers k of the other terms:
    # K_2:  (pi^2 k^2) q^(k^2),
    # K_3:  (3pi^2 k^2 z^2 - pi^4 k^4)*q^(k^2)
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    return sum(K0to3)
