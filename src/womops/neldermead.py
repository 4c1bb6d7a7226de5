"""Bounded Nelder-Mead simplex search in three coordinates on Python floats.

:func:`minimize` takes the steps of SciPy 1.17's
``minimize(method="Nelder-Mead", bounds=...)`` with its default,
non-adaptive coefficients one for one: the same initial simplex, the
same centroid summation order, the same trial points clipped to the box
the way ``np.clip`` clips them, the same acceptance and convergence tests
and the same evaluation and iteration accounting.  Its ``x``, ``fun``,
``nfev``, ``nit`` and ``status`` therefore have the same bits as SciPy's.

The equilibrium polish is its one caller and searches (t1, t2, t3), so
the search is written for exactly three coordinates: each vertex is a
3-tuple, the simplex is unpacked into scalars once per iteration, and the
centroid, trial points, clipping and convergence tests are spelled out
coordinate by coordinate.  After a step the new vertex is inserted among
the three kept ones when all four values are distinct; on tied or NaN
values ``np.argsort`` orders them, as in SciPy, and after a shrink the
four are sorted again by :func:`_order`.  The bookkeeping then costs
about 1 µs per evaluation, against some twenty NumPy calls on tiny
arrays per iteration in SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NONZDELT = 0.05    # relative step of the initial simplex
_ZDELT = 0.00025    # its step along a zero coordinate


@dataclass(frozen=True)
class PolishResult:
    """Outcome of one :func:`minimize` run.

    ``status`` is 0 when the simplex converged and 1 when the evaluation
    budget ran out.
    """

    x: tuple[float, ...]
    fun: float
    nfev: int
    nit: int
    status: int

    @property
    def success(self) -> bool:
        return self.status == 0


def _order(sim, fsim):
    """The four vertices and values in the order ``np.argsort(fsim)`` puts
    them.

    With distinct values that is the one sorted order.  NumPy's sort is
    not stable (its SIMD kernels can permute equal keys), so when values
    tie, as they do where the objective ignores a coordinate, or one is
    NaN, the permutation is taken from :func:`_argsort_order`.
    """
    idx = sorted(range(4), key=fsim.__getitem__)
    f = [fsim[i] for i in idx]
    if f[0] < f[1] < f[2] < f[3]:
        return [sim[i] for i in idx], f
    return _argsort_order(sim, fsim)


def _argsort_order(sim, fsim):
    """Vertices and values permuted by ``np.argsort(fsim)`` itself."""
    idx = np.argsort(np.array(fsim, dtype=float)).tolist()
    return [sim[i] for i in idx], [fsim[i] for i in idx]


def minimize(fun, x0, bounds, *, xatol: float, fatol: float,
             maxfev: int) -> PolishResult:
    """Minimize ``fun(x1, x2, x3)`` over the box ``bounds`` from ``x0``.

    ``x0`` holds three coordinates and ``bounds`` one finite
    ``(low, high)`` pair for each; any other length raises ``ValueError``.
    The search stops when every vertex lies within ``xatol`` of the best
    one in every coordinate and within ``fatol`` of it in value, or after
    ``maxfev`` evaluations, whichever comes first.  SciPy's ``maxiter``
    is left out: every iteration spends an evaluation, so an iteration
    budget no smaller than ``maxfev`` never runs out first.
    """
    if len(x0) != 3 or len(bounds) != 3:
        raise ValueError("the simplex search takes three coordinates, got "
                         f"a seed of {len(x0)} and {len(bounds)} bounds")
    (la, ha), (lb, hb), (lc, hc) = bounds

    def clip(a, b, c):
        # np.clip: a coordinate is kept only when strictly inside its
        # bound (or NaN), so -0.0 clips to a 0.0 lower bound.
        if a <= la:
            a = la
        if a >= ha:
            a = ha
        if b <= lb:
            b = lb
        if b >= hb:
            b = hb
        if c <= lc:
            c = lc
        if c >= hc:
            c = hc
        return a, b, c

    a, b, c = clip(*x0)
    # A step past an upper bound is reflected back into the box, so that
    # clipping cannot collapse the simplex onto the bound.
    sim = []
    for ya, yb, yc in ((a, b, c),
                       ((1 + _NONZDELT) * a if a != 0 else _ZDELT, b, c),
                       (a, (1 + _NONZDELT) * b if b != 0 else _ZDELT, c),
                       (a, b, (1 + _NONZDELT) * c if c != 0 else _ZDELT)):
        sim.append(clip(2 * ha - ya if ya > ha else ya,
                        2 * hb - yb if yb > hb else yb,
                        2 * hc - yc if yc > hc else yc))
    fsim = [math.inf] * 4
    nfev = 0
    for y in sim:
        if nfev >= maxfev:
            break
        fsim[nfev] = fun(*y)
        nfev += 1
    # SciPy sorts twice before the first iteration; with ties the second
    # np.argsort may permute the vertices again.
    sim, fsim = _order(sim, fsim)
    (v0, v1, v2, v3), (f0, f1, f2, f3) = _order(sim, fsim)

    nit = 1
    while nfev < maxfev:
        a0, b0, c0 = v0
        a1, b1, c1 = v1
        a2, b2, c2 = v2
        a3, b3, c3 = v3
        if (abs(a1 - a0) <= xatol and abs(b1 - b0) <= xatol
                and abs(c1 - c0) <= xatol and abs(a2 - a0) <= xatol
                and abs(b2 - b0) <= xatol and abs(c2 - c0) <= xatol
                and abs(a3 - a0) <= xatol and abs(b3 - b0) <= xatol
                and abs(c3 - c0) <= xatol and abs(f0 - f1) <= fatol
                and abs(f0 - f2) <= fatol and abs(f0 - f3) <= fatol):
            break
        # Centroid of all vertices but the worst, summed in vertex order.
        ma = (a0 + a1 + a2) / 3
        mb = (b0 + b1 + b2) / 3
        mc = (c0 + c1 + c2) / 3
        xr = clip(2 * ma - a3, 2 * mb - b3, 2 * mc - c3)
        nfev += 1
        fr = fun(*xr)
        # The vertex that replaces the worst one; None when the step shrinks
        # the simplex or the budget runs out before the step is complete.
        new = None
        shrink = False
        if fr < f0:
            if nfev < maxfev:
                xe = clip(3 * ma - 2 * a3, 3 * mb - 2 * b3, 3 * mc - 2 * c3)
                nfev += 1
                fe = fun(*xe)
                new, fnew = (xe, fe) if fe < fr else (xr, fr)
        elif fr < f2:
            new, fnew = xr, fr
        elif nfev < maxfev:
            if fr < f3:
                xc = clip(1.5 * ma - 0.5 * a3, 1.5 * mb - 0.5 * b3,
                          1.5 * mc - 0.5 * c3)
                nfev += 1
                fc = fun(*xc)
                shrink = not fc <= fr
            else:
                xc = clip(0.5 * ma + 0.5 * a3, 0.5 * mb + 0.5 * b3,
                          0.5 * mc + 0.5 * c3)
                nfev += 1
                fc = fun(*xc)
                shrink = not fc < f3
            if not shrink:
                new, fnew = xc, fc

        if new is not None:
            nit += 1
            # With four distinct values the sorted order is the only one
            # np.argsort can give, and the kept vertices are in it already.
            if f0 < f1 < f2:
                if fnew < f0:
                    v0, v1, v2, v3 = new, v0, v1, v2
                    f0, f1, f2, f3 = fnew, f0, f1, f2
                    continue
                if f0 < fnew < f1:
                    v1, v2, v3 = new, v1, v2
                    f1, f2, f3 = fnew, f1, f2
                    continue
                if f1 < fnew < f2:
                    v2, v3 = new, v2
                    f2, f3 = fnew, f2
                    continue
                if f2 < fnew:
                    v3, f3 = new, fnew
                    continue
            # A tie or a NaN: np.argsort decides.
            (v0, v1, v2, v3), (f0, f1, f2, f3) = _argsort_order(
                [v0, v1, v2, new], [f0, f1, f2, fnew])
            continue
        sim, fsim = [v0, v1, v2, v3], [f0, f1, f2, f3]
        if shrink:
            # Each vertex moves before it is evaluated: a budget spent
            # mid-shrink leaves it moved with its old value.
            for j in 1, 2, 3:
                a, b, c = sim[j]
                sim[j] = clip(a0 + 0.5 * (a - a0), b0 + 0.5 * (b - b0),
                              c0 + 0.5 * (c - c0))
                if nfev >= maxfev:
                    break
                nfev += 1
                fsim[j] = fun(*sim[j])
            else:
                nit += 1
        (v0, v1, v2, v3), (f0, f1, f2, f3) = _order(sim, fsim)

    status = 1 if nfev >= maxfev else 0
    return PolishResult(v0, float(np.min([f0, f1, f2, f3])), nfev, nit, status)
