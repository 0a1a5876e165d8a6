"""Test-side reference for fixed-beta MaxEnt: the nested alpha solve.

``gentropy.thermo._solve_fixed_beta`` finds alpha and the levels as one
Newton iteration on the joint system.  This reference reaches the same levels
another way: alpha by safeguarded Newton on -ln sum p, in the bracket where
the levels clamp, with every level solved to 4 ulp by ``thermo._invert_h`` at
each alpha.  Both work from the ground level E_0, the level of least
beta E.  It takes the same arguments, so a test can put it in
``_solve_fixed_beta``'s place.
"""

from __future__ import annotations

import math

import numpy as np

from gentropy.catalog import Entropy, SpecError, _newton
from gentropy.thermo import _Levels, _invert_h, _stationarity


def solve_fixed_beta_nested(spec: Entropy, E: np.ndarray, beta: float, ends: tuple) -> _Levels:
    """alpha' = alpha + beta E_0, by Newton on -ln sum p, and the levels it normalizes at beta.

    The slope of -ln sum p in alpha' is sum w / sum p.  The returned levels
    carry alpha = alpha' - beta E_0.
    """
    h_lo, h_hi = ends[:2]
    ground = int(np.argmin(E) if beta >= 0 else np.argmax(E))
    bx = beta * (E - E[ground])  # every b x_i >= 0
    # t of the Gibbs weights, and the alpha' that fits the ground level to it, or frees that level
    # from _P_HI: -ln sum p has a kink where the level clamps
    t = bx + math.log(np.exp(-bx).sum())
    alpha = max(float(_stationarity(spec, t[ground:ground + 1])[0]), math.nextafter(h_hi, math.inf))

    def sums(a: float, t_start):
        p, t, w = _invert_h(spec, a + bx, ends, t_start)
        s = p.sum()
        return -math.log(s), float(w.sum()) / s, (p, t, w)

    # at h_hi the ground level is clamped at _P_HI, and at h_lo every level is clamped at _P_LO
    (f_lo, d_lo, _), (f_hi, d_hi, _) = sums(h_hi, t), sums(h_lo, t)
    if not f_lo <= 0 <= f_hi:
        raise SpecError(f"no alpha normalizes the clamped levels at beta = {beta!r}")
    last = None  # alpha' and the levels of the last evaluation

    def fdf(a, _):
        nonlocal last
        f, d, levels = sums(float(a[0]), t if last is None else last[1][1])
        last = float(a[0]), levels
        return np.array([f]), np.array([d])

    (alpha,), _ = _newton(fdf, np.array([[[h_hi], [h_lo]], [[f_lo], [f_hi]], [[d_lo], [d_hi]]]), [alpha])
    a_last, (p, t, w) = last
    p = p - (alpha - a_last) * w  # the last step, taken in p to first order
    return _Levels(float(alpha) - beta * E[ground], beta, p / p.sum(), t, w)
