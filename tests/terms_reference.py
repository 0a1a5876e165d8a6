"""Test-side reference for an exponential sum's term tables: every weight rounded from an exact ``Fraction``.

``gentropy.catalog.ExponentialSum._terms`` rounds each float weight of G,
G', G'' and h' as one integer true division of products of the integer parts
of the rates, weights, sigma and the scale constant.  This reference builds
the same tables in ``Fraction`` arithmetic and rounds each entry once with
``float``, so a test can compare the two bit for bit.
"""

from __future__ import annotations

from fractions import Fraction


def fraction_terms(spec) -> dict:
    """The tables of ``spec._terms``, from ``spec._exact`` in ``Fraction`` arithmetic."""
    exact, s, c = spec._exact
    # rates r, r' with weights k, -k and 0 < |r - r'| < max(|r|, |r'|) / 2 are summed as one pair
    single, pairs = dict(exact), []
    for r, k in exact.items():
        mate = next((q for q, v in single.items() if v == -k and 0 < 2 * abs(r - q) < max(abs(r), abs(q))), None)
        if r in single and mate is not None:
            pairs.append((r, mate))
            del single[r], single[mate]

    def terms(weight, to=float):
        """(r, k w(r)) of each single rate, (r', r - r', k w(r), k w(r) - k w(r')) of each pair."""
        return (tuple((to(r), to(k * weight(r))) for r, k in single.items())
                + tuple((to(q), to(r - q), to(exact[r] * weight(r)), to(exact[r] * (weight(r) - weight(q))))
                        for r, q in pairs))

    return {"G": terms(lambda r: 1), "dG": terms(lambda r: r / s), "d2G": terms(lambda r: r * r / s),
            "G_exact": terms(lambda r: 1 / s, Fraction), "dh": terms(lambda r: -c * r * (c * r - 1) / s)}
