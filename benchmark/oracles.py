"""Reference computations made apart from gentropy.

Nothing here imports gentropy.  The exact half works on plain lists and dicts
of ``Fraction`` and uses different algorithms from the program: Lagrange
inversion instead of the triangular reversion recursion, a univariate power
table instead of bivariate substitution, and a hand-rolled trivariate
expansion for the associativity defect.  The float half is numpy closed forms
of each entropy kind; numpy is imported on first use so that the set-up
probe can time gentropy's own numpy import.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial


class Mismatch(AssertionError):
    """An output of the program disagrees with its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# -- exact: truncated univariate series as coefficient lists -------------------


def mul(a: list, b: list, n: int) -> list:
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j in range(n + 1 - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def compose(outer: list, inner: list, n: int) -> list:
    """outer(inner(t)) with inner(0) = 0, by Horner's rule."""
    acc = [Fraction(0)] * (n + 1)
    for c in reversed(outer[: n + 1]):
        acc = mul(acc, inner, n)
        acc[0] += c
    return acc


def reciprocal(a: list, n: int) -> list:
    """1 / a for a(0) != 0."""
    out = [Fraction(0)] * (n + 1)
    out[0] = 1 / Fraction(a[0])
    for m in range(1, n + 1):
        out[m] = -sum(a[k] * out[m - k] for k in range(1, m + 1)) * out[0]
    return out


def revert(g: list, n: int) -> list:
    """Compositional inverse by Lagrange: [t^m] f = [t^(m-1)] (t / g)^m / m."""
    h = reciprocal(g[1:] + [Fraction(0)], n)  # t / g(t)
    f = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        power = mul(power, h, n)
        f[m] = power[m - 1] / m
    return f


def exp_coefficients(kind: str, p: dict, n: int) -> list:
    """[t^m] G for m = 0..n from each kind's closed form."""
    out = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        if kind == "bg":
            c = Fraction(int(m == 1))
        elif kind == "tsallis":
            c = (1 - p["q"]) ** (m - 1) / factorial(m)
        elif kind == "kaniadakis":
            c = p["kappa"] ** (m - 1) / factorial(m) if m % 2 else Fraction(0)
        elif kind in ("borges_roditi", "abel_exponential"):
            a, b = p["a"], p["b"]
            c = (a ** m - b ** m) / ((a - b) * factorial(m))
        elif kind in GROUP_LOG_KINDS:
            s = 1 - p["q"]
            moment = sum(k * Fraction(i) ** m for i, k in group_log_coeffs(kind, p).items())
            c = s ** (m - 1) * moment / factorial(m)
        elif kind == "generic":
            a = p["a"]
            c = Fraction(a[m - 1]) / m if m - 1 < len(a) else Fraction(0)
        else:
            raise KeyError(kind)
        out[m] = c
    return out


GROUP_LOG_KINDS = ("s_iii", "s_iv", "s_alpha_beta_q")


def group_log_coeffs(kind: str, p: dict) -> dict:
    """k_n of Log(x) = (1/sigma) sum k_n x^(sigma n), from the paper's tables."""
    if kind == "s_iii":
        return {1: Fraction(1), -1: Fraction(-2), -2: Fraction(1)}
    if kind == "s_iv":
        return {2: Fraction(1), 1: Fraction(-3, 2), -1: Fraction(3, 2), -2: Fraction(-1)}
    al, be = Fraction(p["alpha"]), Fraction(p["beta"])
    return {2: al, 1: (1 - 3 * al + be) / 2, -1: (al - 1 - 3 * be) / 2, -2: be}


def law_terms(g: list, n: int) -> dict:
    """Phi(x, y) = G(F(x) + F(y)) as {(a, b): c}, from the power table of F.

    c_ab = sum_k g_k sum_j C(k, j) [x^a] F^j [y^b] F^(k - j).
    """
    f = revert(g, n)
    powers = [[Fraction(1)] + [Fraction(0)] * n]
    for _ in range(n):
        powers.append(mul(powers[-1], f, n))
    terms = {}
    for a in range(n + 1):
        for b in range(n + 1 - a):
            c = Fraction(0)
            for k in range(1, a + b + 1):
                if not g[k]:
                    continue
                inner = sum(
                    comb(k, j) * powers[j][a] * powers[k - j][b]
                    for j in range(max(0, k - b), min(a, k) + 1)
                )
                c += g[k] * inner
            if c:
                terms[(a, b)] = c
    return terms


def kaniadakis_law(kappa: Fraction, n: int) -> dict:
    """x sqrt(1 + k^2 y^2) + y sqrt(1 + k^2 x^2) by the binomial series."""
    terms = {}
    binom = Fraction(1)  # C(1/2, i)
    for i in range(n):
        if 1 + 2 * i > n:
            break
        c = binom * kappa ** (2 * i)
        if c:
            for mono in ((1, 2 * i), (2 * i, 1)):
                terms[mono] = terms.get(mono, Fraction(0)) + c
        binom = binom * (Fraction(1, 2) - i) / (i + 1)
    return {m: c for m, c in terms.items() if c}


def _tri_mul(a: dict, b: dict, n: int) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        d1 = sum(m1)
        for m2, c2 in b.items():
            if d1 + sum(m2) <= n:
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _tri_subst(table: dict, u: dict, v: dict, n: int) -> dict:
    """sum c_ab u^a v^b, truncated at total degree n."""
    one = {(0, 0, 0): Fraction(1)}
    pu, pv = [one], [one]
    for _ in range(n):
        pu.append(_tri_mul(pu[-1], u, n))
        pv.append(_tri_mul(pv[-1], v, n))
    out: dict = {}
    for (a, b), c in table.items():
        if a + b <= n:
            for mono, coeff in _tri_mul(pu[a], pv[b], n).items():
                out[mono] = out.get(mono, 0) + c * coeff
    return {m: c for m, c in out.items() if c}


def associativity_defect(table: dict, n: int = 4) -> dict:
    """Phi(x, Phi(y, z)) - Phi(Phi(x, y), z) up to total degree n."""
    table = {m: c for m, c in table.items() if sum(m) <= n}
    x, y, z = ({(1, 0, 0): Fraction(1)}, {(0, 1, 0): Fraction(1)}, {(0, 0, 1): Fraction(1)})
    left = _tri_subst(table, x, _tri_subst(table, y, z, n), n)
    right = _tri_subst(table, _tri_subst(table, x, y, n), z, n)
    out = dict(left)
    for m, c in right.items():
        out[m] = out.get(m, 0) - c
    return {m: c for m, c in out.items() if c}


# -- float: closed forms with numpy ---------------------------------------------


def _np():
    import numpy

    return numpy


def _horner(coeffs, t):
    acc = 0.0 * t
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def G_dG(kind: str, p: dict, t):
    """G(t) and G'(t) in closed form, vectorized over t."""
    np = _np()
    t = np.asarray(t, dtype=float)
    if kind == "bg":
        return t, np.ones_like(t)
    if kind == "tsallis":
        s = float(1 - p["q"])
        return np.expm1(s * t) / s, np.exp(s * t)
    if kind == "kaniadakis":
        k = float(p["kappa"])
        return np.sinh(k * t) / k, np.cosh(k * t)
    if kind == "borges_roditi":
        a, b = float(p["a"]), float(p["b"])
        ea, eb = np.exp(a * t), np.exp(b * t)
        return (ea - eb) / (a - b), (a * ea - b * eb) / (a - b)
    if kind in GROUP_LOG_KINDS:
        s = float(1 - p["q"])
        g = dg = 0.0
        for i, k in group_log_coeffs(kind, p).items():
            e = float(k) * np.exp(i * s * t)
            g, dg = g + e / s, dg + i * e
        return g, dg
    if kind == "generic":
        a = [float(Fraction(x)) for x in p["a"]]
        order = p.get("order", 12)
        gc = [0.0] + [a[m - 1] / m if m - 1 < len(a) else 0.0 for m in range(1, order + 1)]
        dgc = [m * gc[m] for m in range(1, order + 1)]
        return _horner(gc, t), _horner(dgc, t)
    raise KeyError(kind)


def entropy(kind: str, p: dict, prob) -> float:
    """S(prob) from each kind's defining sum."""
    np = _np()
    x = np.asarray(prob, dtype=float)
    x = x[x > 0]
    if kind == "bg":
        return float(-np.sum(x * np.log(x)))
    if kind == "tsallis":
        q = float(p["q"])
        return float((np.sum(x ** q) - 1.0) / (1.0 - q))
    if kind == "kaniadakis":
        k = float(p["kappa"])
        return float(np.sum(x * (x ** -k - x ** k)) / (2 * k))
    if kind == "s_delta":
        return float(np.sum(x * (-np.log(x)) ** float(p["delta"])))
    if kind == "s_cd":
        # e Gamma(1 + d, 1 - c ln p) = d! p^c sum_{n <= d} (1 - c ln p)^n / n!
        c, d = float(p["c"]), int(p["d"])
        u = 1.0 - c * np.log(x)
        tail = sum(u ** k / factorial(k) for k in range(d + 1))
        return float((factorial(d) * np.sum(x ** c * tail) - c) / (1 - c + c * d))
    g, _ = G_dG(kind, p, -np.log(x))
    return float(np.sum(x * g))


def compose_values(kind: str, p: dict, a: float, b: float) -> float:
    """The composition rule Phi(S_A, S_B) in closed form."""
    if kind == "bg":
        return a + b
    if kind == "tsallis":
        return a + b + float(1 - p["q"]) * a * b
    if kind == "kaniadakis":
        k = float(p["kappa"])
        return a * math.sqrt(1 + k * k * b * b) + b * math.sqrt(1 + k * k * a * a)
    if kind == "s_delta":
        d = float(p["delta"])
        return (a ** (1 / d) + b ** (1 / d)) ** d
    raise KeyError(kind)


def log_inverse_F(kind: str, p: dict, s):
    """F = G^-1 in closed form where one exists."""
    np = _np()
    s = np.asarray(s, dtype=float)
    if kind == "bg":
        return s
    if kind == "tsallis":
        sig = float(1 - p["q"])
        return np.log1p(sig * s) / sig
    if kind == "kaniadakis":
        k = float(p["kappa"])
        return np.arcsinh(k * s) / k
    return None


def microcanonical(kind: str, p: dict, W):
    """S on the uniform distribution over W states, W real."""
    np = _np()
    W = np.asarray(W, dtype=float)
    if kind == "s_delta":
        return np.log(W) ** float(p["delta"])
    if kind == "s_cd":
        c, d = float(p["c"]), int(p["d"])
        u = 1.0 + c * np.log(W)
        tail = sum(u ** k / factorial(k) for k in range(d + 1))
        return (factorial(d) * W ** (1 - c) * tail - c) / (1 - c + c * d)
    return G_dG(kind, p, np.log(W))[0]


def growth_fit(kind: str, p: dict, W_max: float = 1e12, points: int = 13):
    """Family and exponent of S(W) fitted on the top half of a log grid."""
    np = _np()
    Ws = np.geomspace(10.0, W_max, points)
    top = slice(points // 2, None)
    y = np.log(microcanonical(kind, p, Ws)[top])
    fits = []
    for x in (np.log(np.log(Ws[top])), np.log(Ws[top])):
        coeffs, res, *_ = np.polyfit(x, y, 1, full=True)
        fits.append((float(coeffs[0]), float(res[0]) if len(res) else 0.0))
    (a, res_a), (b, res_b) = fits
    return ("(ln W)^a", a) if res_a <= res_b else ("W^b", b)


def tsallis_maxent_p(q, alpha: float, beta: float, energies):
    """Closed-form Tsallis MaxEnt weights [(1 - sigma)/(1 + sigma x)]^(1/sigma)."""
    np = _np()
    s = float(1 - q)
    x = alpha + beta * np.asarray(energies, dtype=float)
    base = 1.0 + s * x
    with np.errstate(divide="ignore", invalid="ignore"):
        pw = np.where(base > 0, ((1.0 - s) / np.where(base > 0, base, 1.0)) ** (1.0 / s), 0.0)
    return pw
