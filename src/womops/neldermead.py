"""Bounded Nelder-Mead simplex search in two coordinates on Python floats.

:func:`minimize` takes the steps of SciPy 1.17's
``minimize(method="Nelder-Mead", bounds=...)`` with its default,
non-adaptive coefficients one for one: the same initial simplex, the
same centroid summation order, the same trial points clipped to the box
the way ``np.clip`` clips them, the same acceptance and convergence tests
and the same evaluation and iteration accounting.  Its ``x``, ``fun``,
``nfev``, ``nit`` and ``status`` therefore have the same bits as SciPy's.

The equilibrium polish is its one caller and searches (t1, s), the fast
phase and the slack s = T - t1, so the search is written for exactly two
coordinates: each vertex is a pair, the simplex is unpacked into scalars
once per iteration, and the centroid, trial points, clipping and
convergence tests are spelled out coordinate by coordinate.  After a step
the new vertex is inserted among the two kept ones when all three values
are distinct; on tied or NaN values, and after a shrink, :func:`_order`
sorts the three by one stable rule with NaN last.  That is the
permutation SciPy's ``np.argsort`` gives on three values, tested on every
pattern of signed zeros, infinities and NaN, without depending on which
of NumPy's sort kernels the CPU runs.  The bookkeeping then costs under
1 µs per evaluation, against some twenty NumPy calls on tiny arrays per
iteration in SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """The three vertices and values sorted by value, NaN last, stably:
    tied values keep their vertices' order."""
    idx = sorted(range(3), key=lambda i: (fsim[i] != fsim[i], fsim[i]))
    return [sim[i] for i in idx], [fsim[i] for i in idx]


def minimize(fun, x0, bounds, *, xatol: float, fatol: float,
             maxfev: int) -> PolishResult:
    """Minimize ``fun(x1, x2)`` over the box ``bounds`` from ``x0``.

    ``x0`` holds two coordinates and ``bounds`` one finite ``(low, high)``
    pair for each; any other length raises ``ValueError``.  The search
    stops when every vertex lies within ``xatol`` of the best one in every
    coordinate and within ``fatol`` of it in value, or after ``maxfev``
    evaluations, whichever comes first.  SciPy's ``maxiter`` is left out:
    every iteration spends an evaluation, so an iteration budget no
    smaller than ``maxfev`` never runs out first.
    """
    if len(x0) != 2 or len(bounds) != 2:
        raise ValueError("the simplex search takes two coordinates, got "
                         f"a seed of {len(x0)} and {len(bounds)} bounds")
    (la, ha), (lb, hb) = bounds

    def clip(a, b):
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
        return a, b

    a, b = clip(*x0)
    # A step past an upper bound is reflected back into the box, so that
    # clipping cannot collapse the simplex onto the bound.
    sim = []
    for ya, yb in ((a, b),
                   ((1 + _NONZDELT) * a if a != 0 else _ZDELT, b),
                   (a, (1 + _NONZDELT) * b if b != 0 else _ZDELT)):
        sim.append(clip(2 * ha - ya if ya > ha else ya,
                        2 * hb - yb if yb > hb else yb))
    fsim = [math.inf] * 3
    nfev = 0
    for y in sim:
        if nfev >= maxfev:
            break
        fsim[nfev] = fun(*y)
        nfev += 1
    # SciPy sorts twice before the first iteration; a stable sort leaves
    # sorted vertices where they are, so one is enough.
    (v0, v1, v2), (f0, f1, f2) = _order(sim, fsim)

    nit = 1
    while nfev < maxfev:
        a0, b0 = v0
        a1, b1 = v1
        a2, b2 = v2
        if (abs(a1 - a0) <= xatol and abs(b1 - b0) <= xatol
                and abs(a2 - a0) <= xatol and abs(b2 - b0) <= xatol
                and abs(f0 - f1) <= fatol and abs(f0 - f2) <= fatol):
            break
        # Centroid of both vertices but the worst, summed in vertex order.
        ma = (a0 + a1) / 2
        mb = (b0 + b1) / 2
        xr = clip(2 * ma - a2, 2 * mb - b2)
        nfev += 1
        fr = fun(*xr)
        # The vertex that replaces the worst one; None when the step shrinks
        # the simplex or the budget runs out before the step is complete.
        new = None
        shrink = False
        if fr < f0:
            if nfev < maxfev:
                xe = clip(3 * ma - 2 * a2, 3 * mb - 2 * b2)
                nfev += 1
                fe = fun(*xe)
                new, fnew = (xe, fe) if fe < fr else (xr, fr)
        elif fr < f1:
            new, fnew = xr, fr
        elif nfev < maxfev:
            if fr < f2:
                xc = clip(1.5 * ma - 0.5 * a2, 1.5 * mb - 0.5 * b2)
                nfev += 1
                fc = fun(*xc)
                shrink = not fc <= fr
            else:
                xc = clip(0.5 * ma + 0.5 * a2, 0.5 * mb + 0.5 * b2)
                nfev += 1
                fc = fun(*xc)
                shrink = not fc < f2
            if not shrink:
                new, fnew = xc, fc

        if new is not None:
            nit += 1
            # With three distinct values the kept vertices are in the
            # sorted order already, and the new one goes into its place.
            if f0 < f1:
                if fnew < f0:
                    v0, v1, v2 = new, v0, v1
                    f0, f1, f2 = fnew, f0, f1
                    continue
                if f0 < fnew < f1:
                    v1, v2 = new, v1
                    f1, f2 = fnew, f1
                    continue
                if f1 < fnew:
                    v2, f2 = new, fnew
                    continue
            # A tie or a NaN: the stable order decides.
            (v0, v1, v2), (f0, f1, f2) = _order(
                [v0, v1, new], [f0, f1, fnew])
            continue
        sim, fsim = [v0, v1, v2], [f0, f1, f2]
        if shrink:
            # Each vertex moves before it is evaluated: a budget spent
            # mid-shrink leaves it moved with its old value.
            for j in 1, 2:
                a, b = sim[j]
                sim[j] = clip(a0 + 0.5 * (a - a0), b0 + 0.5 * (b - b0))
                if nfev >= maxfev:
                    break
                nfev += 1
                fsim[j] = fun(*sim[j])
            else:
                nit += 1
        (v0, v1, v2), (f0, f1, f2) = _order(sim, fsim)

    status = 1 if nfev >= maxfev else 0
    # np.min's value: a NaN wins, and of equal values (0.0 and -0.0) the
    # later one.
    best = f0
    for y in (f1, f2):
        if best == best and not y > best:
            best = y
    return PolishResult(v0, float(best), nfev, nit, status)
