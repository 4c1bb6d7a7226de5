"""Bounded Nelder-Mead simplex search on Python floats.

:func:`minimize` takes the steps of SciPy 1.17's
``minimize(method="Nelder-Mead", bounds=...)`` with its default,
non-adaptive coefficients one for one: the same initial simplex, the
same centroid summation order, the same trial points clipped to the box
the way ``np.clip`` clips them, the same acceptance and convergence tests
and the same evaluation and iteration accounting.  Its ``x``, ``fun``,
``nfev``, ``nit`` and ``status`` therefore have the same bits as SciPy's,
while an iteration costs a few list operations instead of some twenty
NumPy calls on tiny arrays.  The equilibrium polish runs in three
dimensions, where that per-call overhead was nearly all of its cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, lt

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


class _BudgetSpent(Exception):
    """The evaluation budget ran out in the middle of a step."""


def _clip(x, lo, hi) -> list[float]:
    """``np.clip`` of one point: a coordinate is kept only when strictly
    inside its bound (or NaN), so -0.0 clips to a 0.0 lower bound."""
    out = []
    for v, low, high in zip(x, lo, hi):
        if not (v > low or v != v):
            v = low
        if not (v < high or v != v):
            v = high
        out.append(v)
    return out


def _order(sim, fsim):
    """Vertices and values in the order ``np.argsort(fsim)`` puts them.

    With distinct values that is the one sorted order.  NumPy's sort is
    not stable (its SIMD kernels can permute equal keys), so when values
    tie, as they do where the objective ignores a coordinate, or one is
    NaN, the permutation is taken from ``np.argsort`` itself.
    """
    idx = sorted(range(len(fsim)), key=fsim.__getitem__)
    f = [fsim[i] for i in idx]
    if not all(map(lt, f, f[1:])):
        idx = np.argsort(np.array(fsim, dtype=float)).tolist()
        f = [fsim[i] for i in idx]
    return [sim[i] for i in idx], f


def minimize(fun, x0, bounds, *, xatol: float, fatol: float,
             maxfev: int) -> PolishResult:
    """Minimize ``fun(*x)`` over the box ``bounds`` from ``x0``.

    ``bounds`` holds one finite ``(low, high)`` pair per coordinate.  The
    search stops when every vertex lies within ``xatol`` of the best one
    in every coordinate and within ``fatol`` of it in value, or after
    ``maxfev`` evaluations, whichever comes first.  SciPy's ``maxiter``
    is left out: every iteration spends an evaluation, so an iteration
    budget no smaller than ``maxfev`` never runs out first.
    """
    n = len(x0)
    lo = [low for low, _ in bounds]
    hi = [high for _, high in bounds]
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fun(*x)

    x0 = _clip(x0, lo, hi)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(y)
    # A step past an upper bound is reflected back into the box, so that
    # clipping cannot collapse the simplex onto the bound.
    sim = [_clip([2 * high - v if v > high else v for v, high in zip(y, hi)],
                 lo, hi) for y in sim]

    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # SciPy sorts twice before the first iteration; with ties the second
    # np.argsort may permute the vertices again.
    sim, fsim = _order(sim, fsim)
    sim, fsim = _order(sim, fsim)

    nit = 1
    while nfev < maxfev:
        try:
            best, fbest = sim[0], fsim[0]
            if (all(abs(v - b) <= xatol for y in sim[1:] for v, b in zip(y, best))
                    and all(abs(fbest - g) <= fatol for g in fsim[1:])):
                break
            # Centroid of all vertices but the worst, summed in vertex order.
            xbar = [reduce(add, col) / n for col in zip(*sim[:-1])]
            worst = sim[-1]
            xr = _clip([2 * c - w for c, w in zip(xbar, worst)], lo, hi)
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = _clip([3 * c - 2 * w for c, w in zip(xbar, worst)], lo, hi)
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = _clip([1.5 * c - 0.5 * w for c, w in zip(xbar, worst)],
                           lo, hi)
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = _clip([0.5 * c + 0.5 * w for c, w in zip(xbar, worst)],
                            lo, hi)
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                # Each vertex moves before it is evaluated: a budget spent
                # mid-shrink leaves it moved with its old value.
                for j in range(1, n + 1):
                    sim[j] = _clip([b + 0.5 * (v - b)
                                    for v, b in zip(sim[j], best)], lo, hi)
                    fsim[j] = f(sim[j])
            nit += 1
        except _BudgetSpent:
            pass
        sim, fsim = _order(sim, fsim)

    status = 1 if nfev >= maxfev else 0
    return PolishResult(tuple(sim[0]), float(np.min(fsim)), nfev, nit, status)
