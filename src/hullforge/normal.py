"""The standard normal CDF and quantile: ``scipy.special.ndtr`` and ``ndtri``, bit for bit.

``montecarlo.normality_diagnostics`` reads both to measure the W1 and KS
distances of a replication row to N(0, 1), at 100 or more replications.
With them here, ``estimate`` loads no scipy module; importing
``scipy.special`` for them, even on first use, takes about 150 ms and
17 MB of a cold run on a 2-CPU Linux VM, more than the port adds to a
run of under a thousand t points (0.1 ms per call at 2400 replications).

Both are ported from the Cephes routines scipy 1.17.1 compiles (``ndtr``,
``erf``, ``erfc`` and ``ndtri``; S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989), over float64 arrays: each branch takes its
elements by a mask and runs Cephes's expressions on them in Cephes's order.
``_polevl`` and ``_p1evl`` are Horner loops with one numpy multiply and one
add per step, so nothing is fused or reordered; log and exp are libm's,
through ``math``, on just the elements whose branch calls them, since
numpy's SIMD ``log`` and ``exp`` may round otherwise; ``np.sqrt`` and the
arithmetic ufuncs round correctly.  ``tests/test_normal.py`` checks
equality against scipy.

The ported code is under scipy's licence:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Cephes Math Library Release 2.x: Copyright 1984, 1987, 1989, 2000 by
    Stephen L. Moshier, distributed with scipy under the same licence.

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

import math

import numpy as np

_SQRTH = 7.07106781186547524401E-1  # 1/sqrt(2)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8, exp(-x^2) R(x)/S(x) for x >= 8
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
# erf(x) = x T(x^2)/U(x^2) for |x| <= 1
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)

# ndtri for |y - 1/2| <= 1/2 - exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# ndtri in the tails, z = sqrt(-2 log y) in [2, 8), i.e. y down to exp(-32)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# ... and z in [8, 64)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def ndtr(a) -> np.ndarray:
    """P(N(0, 1) <= a) elementwise, for a float64 array; nan for nan."""
    a = np.asarray(a, dtype=np.float64)
    x = a * _SQRTH
    z = np.abs(x)
    y = np.full(a.shape, np.nan)
    mid = z < _SQRTH
    y[mid] = 0.5 + 0.5 * _erf(x[mid])
    tail = z >= _SQRTH  # a nan is in neither
    half = 0.5 * _erfc(z[tail])
    y[tail] = np.where(x[tail] > 0, 1.0 - half, half)
    return y


def ndtri(y0) -> np.ndarray:
    """The x with ndtr(x) = y0, elementwise: -inf at 0, inf at 1, nan off [0, 1] and for nan."""
    y0 = np.asarray(y0, dtype=np.float64)
    x = np.full(y0.shape, np.nan)
    x[y0 == 0.0] = -np.inf
    x[y0 == 1.0] = np.inf
    live = ~((y0 <= 0.0) | (y0 >= 1.0))  # and a nan, which Cephes carries to its tail branch
    y = y0[live]
    upper = y > (1.0 - _EXP_M2)  # Cephes's code = 0: solved at 1 - y0, sign kept
    y = np.where(upper, 1.0 - y, y)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    v = y[mid] - 0.5
    v2 = v * v
    out[mid] = (v + v * (v2 * _polevl(v2, _P0) / _p1evl(v2, _Q0))) * _S2PI
    tail = ~mid
    s = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    s0 = s - _libm(math.log, s) / s
    z = 1.0 / s
    s1 = _ratio(z, z, s < 8.0, (_P1, _Q1), (_P2, _Q2))
    out[tail] = np.where(upper[tail], s0 - s1, -(s0 - s1))
    x[live] = out
    return x


def _erf(x):
    """Cephes ``erf`` for |x| <= 1: x T(x^2)/U(x^2), with erf(x) = -erf(-x) below 0."""
    ax = np.abs(x)
    z = ax * ax
    return np.copysign(ax * _polevl(z, _T) / _p1evl(z, _U), x)  # also erf(-0.0) = -0.0


def _erfc(a):
    """Cephes ``erfc`` for a >= 1/sqrt(2), all ``ndtr`` asks of it; 0 once exp(-a^2) underflows."""
    y = np.zeros_like(a)
    small = a < 1.0
    y[small] = 1.0 - _erf(a[small])
    with np.errstate(over="ignore"):  # -inf past a = 1.3e154, as in C
        z = -a * a
    far = ~small & ~(z < -_MAXLOG)
    x = a[far]
    y[far] = _ratio(_libm(math.exp, z[far]), x, x < 8.0, (_P, _Q), (_R, _S))
    return y


def _ratio(w, x, cond, pair, other):
    """(w P(x)) / Q(x), with (P, Q) = ``pair`` where ``cond`` holds and ``other`` elsewhere.

    Each pair runs only on its own elements, and not at all on none.
    """
    out = np.empty_like(x)
    for mask, (p, q) in ((cond, pair), (~cond, other)):
        if mask.any():
            xm = x[mask]
            out[mask] = w[mask] * _polevl(xm, p) / _p1evl(xm, q)
    return out


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule, one rounding per multiply and per add."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """``_polevl`` with a leading coefficient 1 left out of ``coef``."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm(fn, x):
    """``fn`` (``math.log`` or ``math.exp``, libm's) at each element of a 1-d float64 array."""
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)
