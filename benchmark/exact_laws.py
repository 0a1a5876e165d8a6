"""exact-laws: one exact group-law task at total degree 12 per job.

Each job builds the exponential of one spec, the law Phi = G(F(x) + F(y)),
its axiom verdicts, formal inverse and Lie bracket, and the axiom verdicts of
a perturbed table.  Everything runs in ``Fraction`` arithmetic in
``gentropy.series`` and ``gentropy.groups``; nothing touches thermo or scipy.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import Job, Op, Stratified, no_error

IMPORTS = ("gentropy",)
ORDER = 12  # the CLI's default --order
# one job of each kind per round, so every seed runs the same mix
KINDS = (
    "tsallis",
    "kaniadakis",
    "borges_roditi",
    "s_iii",
    "s_iv",
    "s_alpha_beta_q",
    "abel_exponential",
    "generic",
)
JOBS_PER_ROUND = len(KINDS)
DENS = (2, 3, 4, 5)


def params(kind: str, st: Stratified) -> dict:
    F = Fraction
    if kind in ("tsallis", "s_iii", "s_iv"):
        return {"q": st.rational(kind + ".q", F(1, 4), F(7, 4), DENS, avoid=(1,))}
    if kind == "kaniadakis":
        return {"kappa": st.rational(kind, F(-4, 5), F(4, 5), DENS, avoid=(0,))}
    if kind in ("borges_roditi", "abel_exponential"):
        # a or b = 0 is Tsallis and a = -b Kaniadakis: sparse laws of other kinds
        a = st.rational(kind + ".a", F(-1), F(1), DENS, avoid=(0,))
        return {"a": a, "b": st.rational(kind + ".b", F(-1), F(1), DENS, avoid=(0, a, -a))}
    if kind == "s_alpha_beta_q":
        return {
            "alpha": st.rational(kind + ".alpha", F(1, 2), F(3, 2), DENS),
            "beta": st.rational(kind + ".beta", F(1, 8), F(1, 4), (8, 16)),
            "q": st.rational(kind + ".q", F(3, 4), F(5, 4), (4, 5, 8), avoid=(1,)),
        }
    if kind == "generic":
        n = st.choice(kind + ".len", (3, 4, 5))
        return {"a": [F(1)] + [st.rational(f"{kind}.a{i}", F(-1), F(1), DENS, avoid=(0,)) for i in range(n)]}
    raise KeyError(kind)


def exponential(kind: str, p: dict):
    import gentropy as g

    if kind == "abel_exponential":
        return g.abel_exponential(p["a"], p["b"], ORDER)
    spec = {
        "tsallis": lambda: g.Tsallis(p["q"]),
        "kaniadakis": lambda: g.Kaniadakis(p["kappa"]),
        "borges_roditi": lambda: g.BorgesRoditi(p["a"], p["b"]),
        "s_iii": lambda: g.SThird(p["q"]),
        "s_iv": lambda: g.SFourth(p["q"]),
        "s_alpha_beta_q": lambda: g.SAlphaBetaQ(p["alpha"], p["beta"], p["q"]),
        "generic": lambda: g.GenericEntropy(p["a"], order=ORDER),
    }[kind]()
    return spec.exp_series(ORDER)


def perturbed_table(c_table: dict, where: str, delta: Fraction) -> dict:
    """Add a symmetric degree-4 term that is not a multiple of (x+y)^4 - x^4 - y^4.

    No such term is a cocycle, so the perturbed law fails associativity at
    total degree 4 whatever the rest of the table is.
    """
    table = dict(c_table)
    monos = ((2, 2),) if where == "x2y2" else ((3, 1), (1, 3))
    for m in monos:
        table[m] = table.get(m, Fraction(0)) + delta
    return table


def make_job(kind: str, st: Stratified) -> Job:
    import oracles as o

    p = params(kind, st)
    where = st.choice(kind + ".where", ("x2y2", "x3y+xy3"))
    delta = st.rational(kind + ".delta", Fraction(-2), Fraction(2), DENS, avoid=(0,))
    job = Job(kind, [])
    ctx = job.ctx
    ref: dict = {}  # reference results, filled by the checks in op order

    def call_exp():
        ctx["G"] = exponential(kind, p)
        return ctx["G"]

    def check_exp(G):
        no_error(G)
        ref["g"] = o.exp_coefficients(kind, p, ORDER)
        o.expect(G.order == ORDER and list(G.coeffs) == ref["g"], "exponential coefficients")

    def call_law():
        import gentropy as g

        ctx["law"] = g.group_law_from_exponential(ctx["G"])
        return ctx["law"]

    def check_law(law):
        no_error(law)
        ref["f"] = o.revert(ref["g"], ORDER)
        ref["phi"] = o.law_terms(ref["g"], ORDER)
        o.expect(list(law.log.coeffs) == ref["f"], "logarithm F = revert(G)")
        o.expect(law.phi.terms == ref["phi"], "law coefficients against the power table")
        if kind == "tsallis":
            o.expect(law.c_table() == {(1, 1): 1 - p["q"]}, "Tsallis table {(1,1): 1-q}")
        if kind == "kaniadakis":
            o.expect(law.phi.terms == o.kaniadakis_law(p["kappa"], ORDER), "Kaniadakis closed form")

    def call_axioms():
        import gentropy as g

        return g.check_axioms(ctx["law"].phi)

    def check_axioms(chk):
        no_error(chk)
        o.expect(chk.all_pass and chk.first_violation is None, "law from an exponential passes")

    def call_inverse():
        import gentropy as g

        return g.formal_inverse(ctx["law"])

    def check_inverse(inv):
        no_error(inv)
        expected = o.compose(ref["g"], [-c for c in ref["f"]], ORDER)
        o.expect(list(inv.coeffs) == expected, "formal inverse equals G(-F(x))")

    def call_bracket():
        import gentropy as g

        return g.lie_bracket(ctx["law"].phi)

    def check_bracket(br):
        no_error(br)
        phi = ref["phi"]
        expected = {
            (a, 2 - a): phi.get((a, 2 - a), 0) - phi.get((2 - a, a), 0) for a in range(3)
        }
        o.expect(br.terms == {m: c for m, c in expected.items() if c}, "Lie bracket")

    def call_perturbed():
        import gentropy as g

        ctx["table"] = perturbed_table(ctx["law"].c_table(), where, delta)
        return g.check_axioms(g.law_from_table(ctx["table"], ORDER))

    def check_perturbed(chk):
        no_error(chk)
        table = {(1, 0): Fraction(1), (0, 1): Fraction(1), **ctx["table"]}
        defect = o.associativity_defect(table, 4)
        o.expect(bool(defect), "reference expansion finds the degree-4 defect")
        o.expect(chk.symmetric and chk.null_composable, "perturbed table keeps symmetry")
        o.expect(not chk.associative, "perturbed table fails associativity")
        kind_, mono, coeff = chk.first_violation
        o.expect(
            (kind_, mono, coeff) == ("associativity", (1, 1, 2), defect[(1, 1, 2)]),
            f"first violation {chk.first_violation} against the degree-4 defect",
        )

    job.ops = [
        Op("exp_series", call_exp, check_exp),
        Op("group_law", call_law, check_law),
        Op("check_axioms", call_axioms, check_axioms),
        Op("formal_inverse", call_inverse, check_inverse),
        Op("lie_bracket", call_bracket, check_bracket),
        Op("perturbed_axioms", call_perturbed, check_perturbed),
    ]
    return job


def make_jobs(seed: int, rounds: int, workdir) -> list[Job]:
    st = Stratified(random.Random(f"exact-laws:{seed}"), rounds)
    return [make_job(kind, st) for _ in range(rounds) for kind in KINDS]


def prepare(job: Job) -> None:
    """Inputs live in the job itself; there are no files."""


def release(job: Job) -> None:
    pass
