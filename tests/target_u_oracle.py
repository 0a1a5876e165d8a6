"""Test-side reference for target-U MaxEnt: the nested bracketed beta solve.

``gentropy.thermo._solve_target_U`` finds alpha, beta and the levels' t as
one Newton iteration on the joint system, which evaluates h once per step
and falls back to solving the levels and damping the step on the convex
MaxEnt dual.  This reference reaches the same levels another way: beta by
safeguarded Newton on the shortfall target - U(beta), in a bracket grown
from [0, 1] or [-1, 0], with alpha solved at each beta by
``thermo._solve_fixed_beta``.  It takes the same arguments, so a test can
put it in ``_solve_target_U``'s place.

``_bracket`` grows brackets element by element.  This reference grows
beta's bracket with it, and the catalog tests check the numeric inverse's
shared doubling ladder (``catalog._ladder``) against it.
"""

from __future__ import annotations

import numpy as np

from gentropy.catalog import Entropy, SpecError, _newton
from gentropy.thermo import _Levels, _solve_fixed_beta


def _bracket(fdf, bracket):
    """Grow brackets of increasing functions until each function changes sign across its own.

    ``fdf`` and ``bracket`` are ``_newton``'s, both ends filled in.  A high end
    with f < 0 (or nan) doubles, the low end taking its old place; a low end
    with f > 0, the reverse.  An element stops where f at that end is not finite,
    where its slope there is negative (its function has turned), or after 200
    doublings.  Returns the mask of the elements with no sign change.
    """
    live = np.arange(bracket.shape[2])  # the elements that grew last
    for _ in range(200):
        _, (f_a, f_b), (d_a, d_b) = bracket[:, :, live]
        up = ~(f_b >= 0)  # the high end is wrong-signed; else the low end may be
        grow = (up | (f_a > 0)) & np.isfinite(np.where(up, f_b, f_a)) & ~(np.where(up, d_b, d_a) < 0)
        live, side = live[grow], up[grow].astype(int)
        if not live.size:
            break
        moved = bracket[:, side, live]
        bracket[:, 1 - side, live] = moved
        x = 2 * moved[0]
        bracket[:, side, live] = x, *fdf(x, live)
    _, (f_a, f_b) = bracket[:2]
    return ~((f_a <= 0) & (f_b >= 0))


def solve_target_U_bracketed(spec: Entropy, E: np.ndarray, target: float, ends: tuple) -> _Levels:
    """The levels whose mean energy is target, by Newton on the shortfall target - U(beta).

    Newton runs on b = beta (E_max - E_min), so that its 4-ulp stop is
    relative to the spectrum's scale.  The shortfall's slope in beta is
    -dU/dbeta = sum w E^2 - (sum w E)^2 / sum w, a variance, kept at 0 or
    above where rounding would take it below.  U(0) is the mean level; the
    sign of target - U(0) as solved (the mean may round to the other side)
    picks the bracket [0, 1] or [-1, 0] of b, and ``_bracket`` grows it.
    Each fixed-beta solve starts from the Gibbs weights at its beta.
    """
    last = None
    span = float(E.max() - E.min())

    def fdf(b, _):
        nonlocal last
        last = _solve_fixed_beta(spec, E, float(b[0]) / span, ends)
        w = last.w
        slope = max(0.0, float(w @ E ** 2 - (w @ E) ** 2 / w.sum())) if w.sum() > 0 else 0.0
        return np.array([target - float(last.p @ E)]), np.array([slope / span])

    bracket = np.zeros((3, 2, 1))
    bracket[1:, 0] = fdf(bracket[0, 0], None)
    up = int(bracket[1, 0, 0] < 0)  # U(0) lies above the target: beta > 0, and 0 stays the low end
    bracket[:, 1 - up], bracket[0, up] = bracket[:, 0], 2 * up - 1
    bracket[1:, up] = fdf(bracket[0, up], None)
    if _bracket(fdf, bracket)[0]:
        raise SpecError(f"no beta reaches the target energy {target!r} on the clamped levels")
    _newton(fdf, bracket)
    return last  # beta's last step, within 4 ulp, is not solved again
