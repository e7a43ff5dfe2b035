"""QUADPACK's QAGI on [bound, inf): ``scipy.integrate.quad`` bit for bit.

``qagi(f, bound, epsabs, epsrel, limit)`` returns what ``quad(f, bound,
np.inf, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)``
returns, without loading ``scipy.integrate``: that import pulls in 355
scipy modules (integrate, optimize, sparse, linalg, spatial, special,
fft), which cost perfbench's rates-grid workload 0.41 s of set-up and
43 MB of peak RSS on a 2-CPU Linux VM.  The port is slower than scipy's
compiled routine: 1.7-2.8 ms against 1.1 ms for the 14 variance-bound
integrals of a seven-point ``rates`` grid, on a job of about 170 ms.

Only the path ``analytics`` uses is here: ``dqagie`` for inf = 1, with
``dqk15i`` (the 7-point Gauss and 15-point Kronrod rules on (0, 1], mapped
to the half line by x = bound + (1 - s)/s), ``dqpsrt`` (the ordered list
of error estimates) and ``dqelg`` (Wynn's epsilon algorithm, "On a device
for computing the e_m(S_n) transformation", MTAC 10, 1956).  They are
ported from the public-domain Fortran of R. Piessens, E. de Doncker-
Kapenga, C. W. Ueberhuber and D. K. Kahaner, *QUADPACK: A Subroutine
Package for Automatic Integration* (Springer, 1983), as distributed by
netlib, which scipy 1.17.1 compiles in a C translation.  Each expression
is QUADPACK's, in its order of evaluation, on Python floats (IEEE doubles,
each operation rounded once); arrays are 1-based, as in the Fortran, with
a dummy slot 0.  d1mach(1), (2) and (4) are the smallest normal double,
the largest double and 2^-52.  ``tests/test_quadpack.py`` checks equality
against scipy.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Callable, NamedTuple

from .core import ordered_sum

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_LIMEXP = 50  # dqelg's epsilon-table length

# dqk15i: Kronrod abscissae xgk(1..7) on [-1, 1] with their weights wgk and the
# Gauss weights wg (0 at the Kronrod-only abscissae); the centre's weights apart
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0)
_WGK_CENTRE = 0.209482141084727828012999174891714
_WG_CENTRE = 0.417959183673469387755102040816327
_RULE = tuple(zip(_XGK, _WGK, _WG))

#: ier after dqagie's final renumbering -> the warning ``qagi`` gives
_MESSAGES = {
    1: "the maximum number of subintervals ({limit}) was reached",
    2: "roundoff error prevents the requested tolerance from being reached",
    3: "the integrand behaves extremely badly at some points of the range",
    4: "the extrapolation table does not converge; roundoff error prevents "
       "the requested tolerance from being reached",
    5: "the integral is probably divergent, or slowly convergent",
}


class IntegrationWarning(UserWarning):
    """``qagi`` returned a result with a non-zero error flag, as ``quad`` warns."""


class QagiResult(NamedTuple):
    """dqagie's outputs, as ``quad``'s ``full_output`` reports them.

    ``alist``, ``blist``, ``rlist`` and ``elist`` hold each of the ``last``
    subintervals of (0, 1], its integral and its error estimate.  ``iord``
    holds the positions in them, from 0, of the k largest error estimates in
    descending order: k = last while ``last <= limit // 2 + 2``, else
    ``limit + 1 - last``.
    """

    value: float
    abserr: float
    ier: int
    last: int
    neval: int
    alist: list
    blist: list
    rlist: list
    elist: list
    iord: list


def _dqk15i(f: Callable[[float], float], boun: float, a: float, b: float):
    """(result, abserr, resabs, resasc) of the 15-point rule on the mapped [a, b] in (0, 1]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = float(f(boun + (1.0 - centr) / centr))
    fc = (fc / centr) / centr
    resg = _WG_CENTRE * fc
    resk = _WGK_CENTRE * fc
    resabs = abs(resk)
    fv1, fv2 = [], []
    for xgk, wgk, wg in _RULE:
        absc = hlgth * xgk
        absc1 = centr - absc
        absc2 = centr + absc
        fval1 = float(f(boun + (1.0 - absc1) / absc1))
        fval2 = float(f(boun + (1.0 - absc2) / absc2))
        fval1 = (fval1 / absc1) / absc1
        fval2 = (fval2 / absc2) / absc2
        fv1.append(fval1)
        fv2.append(fval2)
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for wgk, fval1, fval2 in zip(_WGK, fv1, fv2):
        resasc = resasc + wgk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result = resk * hlgth
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r^1.5), with the power taken only where it is below 1: equal, and no
        # OverflowError where Fortran's would be inf
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if ratio >= 1.0 else ratio**1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """Keep ``iord`` ordered by descending error; (maxerr, errmax, nrmax) to bisect next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # subdivision increased the error estimate: insert above the nrmax-th
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the first jupbn entries are kept in order: as many as bisections remain
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax top-down, then errmin bottom-up
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab: list, res3la: list, nres: int):
    """Wynn's epsilon algorithm on ``epstab[1..n]``: (n, result, abserr, nres).

    ``epstab`` (52 entries) and ``res3la`` (the last 3 results) are updated in place.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two elements very close, or irregular behaviour: drop part of the table
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _ieee_div(a: float, b: float) -> float:
    """a / b as IEEE division, which Python refuses for b == 0."""
    if b != 0.0 or a != a:
        return a / b
    return math.nan if a == 0.0 else math.copysign(math.inf, a) * math.copysign(1.0, b)


def qagi(f: Callable[[float], float], bound: float = 0.0, epsabs: float = 1.49e-8,
         epsrel: float = 1.49e-8, limit: int = 50) -> QagiResult:
    """int_bound^inf f(x) dx by QUADPACK's dqagie, as ``scipy.integrate.quad`` computes it.

    The defaults are ``quad``'s.  A non-zero flag ``ier`` (1-5, numbered as
    ``quad`` numbers them) gives an ``IntegrationWarning``; invalid input, a
    ``limit`` below 1 or a relative tolerance too small with ``epsabs <= 0``,
    raises ``ValueError``.
    """
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29)):
        raise ValueError(f"invalid input: limit={limit}, epsabs={epsabs}, epsrel={epsrel}")
    res = _dqagie(f, float(bound), epsabs, epsrel, limit)
    if res.ier:
        warnings.warn(_MESSAGES[res.ier].format(limit=limit), IntegrationWarning, stacklevel=2)
    return res


def _dqagie(f, boun: float, epsabs: float, epsrel: float, limit: int) -> QagiResult:
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    lists = alist, blist, rlist, elist, iord
    blist[1] = 1.0
    ier = 0

    # first approximation, on all of (0, 1]
    result, abserr, defabs, resabs = _dqk15i(f, boun, 0.0, 1.0)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return _done(result, abserr, ier, last, lists)

    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    ktmin = 0
    numrl2 = 2
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1
    small = erlarg = ertest = correc = 0.0

    # the loop ends at last == limit at the latest, where ier = 1
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _dqk15i(f, boun, a1, b1)
        area2, error2, _, defab2 = _dqk15i(f, boun, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _summed(errsum, ier, last, lists)
        if ier != 0:
            break
        if last == 2:
            small = 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the larger
            # intervals first, while they lead the list
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # the final result: extrapolated, or the sum of the subintervals
    if abserr == _OFLOW:
        return _summed(errsum, ier, last, lists)
    if ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _summed(errsum, ier, last, lists)
        elif abserr > errsum:
            return _summed(errsum, ier, last, lists)
        elif area == 0.0:
            return _done(result, abserr, ier, last, lists)
    # test on divergence
    if ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01:
        return _done(result, abserr, ier, last, lists)
    ratio = _ieee_div(result, area)
    if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
        ier = 6
    return _done(result, abserr, ier, last, lists)


def _summed(errsum: float, ier: int, last: int, lists: tuple) -> QagiResult:
    """The result as the left-to-right sum of the subintervals' integrals."""
    return _done(ordered_sum(lists[2][1:last + 1]), errsum, ier, last, lists)


def _done(result: float, abserr: float, ier: int, last: int, lists: tuple) -> QagiResult:
    # dqagie renumbers its ier 3-6 as 2-5
    alist, blist, rlist, elist, iord = lists
    limit = len(iord) - 1
    k = last if last <= limit // 2 + 2 else limit + 1 - last
    return QagiResult(result, abserr, ier - 1 if ier > 2 else ier, last, 30 * last - 15,
                      alist[1:last + 1], blist[1:last + 1], rlist[1:last + 1],
                      elist[1:last + 1], [i - 1 for i in iord[1:k + 1]])
