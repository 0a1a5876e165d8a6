"""maxent-thermo: canonical MaxEnt and extensivity on one float spec per job.

Each job runs a fixed-beta ``maxent_solve`` on L_FIXED levels, a target-U
``maxent_solve`` on L_TARGET levels and ``occupation_law`` plus
``extensivity_check`` at N_MAX.  The time goes into thermo's nested scalar
``brentq`` loops and catalog's scalar G, F and ``_numeric_inverse``; the exact
layer is never called.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import Job, Op, Stratified, no_error

IMPORTS = ("gentropy",)
L_FIXED = 20
L_TARGET = 3
N_MAX = 300
EXTENSIVITY_TOL = 1e-8  # max |S(W(N)) - N| over N <= N_MAX
P_TOL = 1e-11  # max |p_i - reference p_i| of a MaxEnt solution
KINDS = ("bg", "tsallis", "tsallis_q_above_1", "kaniadakis", "borges_roditi", "s_iii", "generic")
JOBS_PER_ROUND = len(KINDS)
SPECTRA = ("equally-spaced", "uniform", "degenerate")
# F6: s_iii's fixed-beta solve on a seed-independent spectrum where
# log_inverse(-beta E) has no root for E > 0.7
F6_Q, F6_BETA, F6_E_MAX = Fraction(4, 5), 1.0, 5.0
# 1/|1 - q| is kept an even integer: for other q, Tsallis.log_inverse turns
# complex past the missing cut-off and the partition value raises, on some
# seeds only (see the FOUND line on it in CHANGES.md)
TSALLIS_EVEN = (2, 4, 6, 8)
# target-U solves left out, both for faults in the program (see CHANGES.md):
# s_iii fails every time for F6's cause, and for Tsallis q > 1 the inner
# alpha solve exhausts brentq's iterations on some seeds only
NO_TARGET_U = ("s_iii", "tsallis_q_above_1")
DENS = (4, 5, 8, 10)


def params(kind: str, st: Stratified) -> dict:
    F = Fraction
    if kind == "bg":
        return {}
    if kind == "tsallis":
        return {"q": 1 - 1 / F(st.choice(kind, TSALLIS_EVEN))}
    if kind == "tsallis_q_above_1":
        return {"q": 1 + 1 / F(st.choice(kind, TSALLIS_EVEN))}
    if kind == "kaniadakis":
        return {"kappa": st.rational(kind, F(-4, 5), F(4, 5), DENS, avoid=(-F(1, 10), 0, F(1, 10)))}
    if kind == "borges_roditi":
        return {"a": st.rational(kind + ".a", F(1, 10), F(3, 5), DENS),
                "b": -st.rational(kind + ".b", F(1, 10), F(3, 5), DENS)}
    if kind == "s_iii":
        return {"q": st.rational(kind, F(7, 10), F(19, 20), (20,))}
    if kind == "generic":
        return {"a": [F(1), st.rational(kind + ".a1", F(-1, 4), F(1, 4), DENS),
                      st.rational(kind + ".a2", F(1, 20), F(1, 5), (20,))]}
    raise KeyError(kind)


def build_spec(kind: str, p: dict):
    import gentropy as g

    if kind == "bg":
        return g.BoltzmannGibbs()
    if kind.startswith("tsallis"):
        return g.Tsallis(p["q"])
    if kind == "kaniadakis":
        return g.Kaniadakis(p["kappa"])
    if kind == "borges_roditi":
        return g.BorgesRoditi(p["a"], p["b"])
    if kind == "s_iii":
        return g.SThird(p["q"])
    return g.GenericEntropy(p["a"], order=12)


def spectrum(rng: random.Random, e_max: float, shape: str, L: int) -> tuple:
    if shape == "equally-spaced":
        levels = [e_max * i / (L - 1) for i in range(L)]
    elif shape == "uniform":
        levels = sorted(rng.uniform(0.0, e_max) for _ in range(L))
    else:  # a few levels, each repeated
        distinct = sorted(rng.uniform(0.0, e_max) for _ in range(max(2, L // 3)))
        levels = sorted(distinct + [rng.choice(distinct) for _ in range(L - len(distinct))])
    return tuple(levels)


def check_solution(kind: str, p: dict, E: tuple, sol) -> None:
    """Normalization, stationarity from closed-form G - G', exact forms where known."""
    import numpy as np

    import oracles as o

    no_error(sol)
    pr = np.asarray(sol.distribution.p)
    E = np.asarray(E)
    o.expect(abs(pr.sum() - 1.0) <= 1e-12, "normalization")
    o.expect(abs(sol.U - float(pr @ E)) <= 1e-12 * (1 + abs(sol.U)), "U = sum p E")
    S = o.entropy("tsallis" if kind.startswith("tsallis") else kind, p, pr)
    o.expect(abs(sol.S - S) <= 1e-10 * (1 + abs(S)), f"S {sol.S!r} against {S!r}")
    # stationarity: invert h(t) = G(t) - G'(t), t = ln 1/p, by bisection on t
    gkind = "tsallis" if kind.startswith("tsallis") else kind
    target = sol.alpha + sol.beta * E
    t_lo = np.full(E.shape, -np.log1p(-1e-15))
    t_hi = np.full(E.shape, -np.log(1e-15))
    for _ in range(200):
        mid = 0.5 * (t_lo + t_hi)
        g, dg = o.G_dG(gkind, p, mid)
        up = (g - dg) < target
        t_lo, t_hi = np.where(up, mid, t_lo), np.where(up, t_hi, mid)
    ref = np.exp(-0.5 * (t_lo + t_hi))
    ref = ref / ref.sum()
    err = np.max(np.abs(ref - pr))
    o.expect(err <= P_TOL, f"stationarity: max |dp| = {err:.3g}")
    if kind == "bg":
        w = np.exp(-sol.beta * (E - E.min()))
        err = np.max(np.abs(w / w.sum() - pr))
        o.expect(err <= P_TOL, f"Gibbs weights: max |dp| = {err:.3g}")
    if kind.startswith("tsallis"):
        w = o.tsallis_maxent_p(p["q"], sol.alpha, sol.beta, E)
        err = np.max(np.abs(w / w.sum() - pr))
        o.expect(err <= P_TOL, f"closed-form Tsallis weights: max |dp| = {err:.3g}")


def make_job(kind: str, st: Stratified, rng: random.Random) -> Job:
    import oracles as o

    p = params(kind, st)
    beta = st.uniform(kind + ".beta", 0.3, 2.0)
    shape = st.choice(kind + ".shape", SPECTRA)
    E_fixed = spectrum(rng, st.uniform(kind + ".e_max", 2.0, 6.0), shape, L_FIXED)
    if kind not in NO_TARGET_U:
        E_target = spectrum(rng, st.uniform(kind + ".e_max_u", 2.0, 6.0), shape, L_TARGET)
        lo, mean = min(E_target), sum(E_target) / L_TARGET
        U_target = lo + st.uniform(kind + ".u", 0.25, 0.9) * (mean - lo)
    job = Job(kind, [])

    def fixed():
        import gentropy as g

        return g.maxent_solve(g.MaxEntProblem(build_spec(kind, p), E_fixed, beta=beta))

    def target():
        import gentropy as g

        return g.maxent_solve(g.MaxEntProblem(build_spec(kind, p), E_target, target_U=U_target))

    def check_target(sol):
        check_solution(kind, p, E_target, sol)
        o.expect(abs(sol.U - U_target) <= 1e-9 * (1 + abs(U_target)), "U = target")

    def occupation():
        import gentropy as g

        spec = build_spec(kind, p)
        law = g.occupation_law(spec, N_MAX)
        return law, (g.extensivity_check(spec, N_MAX) if law.valid else None)

    def check_occupation(out):
        no_error(out)
        law, rep = out
        if kind == "tsallis_q_above_1":  # ln_q is bounded above
            o.expect(not law.valid, "q > 1 occupation law must be inadmissible")
            return
        o.expect(law.valid, f"occupation law admissible ({law.reason})")
        o.expect(len(rep.rows) == N_MAX, "one row per N")
        o.expect(rep.max_residual <= EXTENSIVITY_TOL, f"extensivity residual {rep.max_residual:.3g}")
        N = [r[0] for r in rep.rows]
        closed = o.log_inverse_F(kind, p, N)
        if closed is not None:
            for (n, lw, *_), ref in zip(rep.rows, closed):
                o.expect(abs(lw - ref) <= 1e-12 * (1 + abs(ref)), f"ln W({n})")

    if kind == "s_iii":
        E_f6 = tuple(F6_E_MAX * i / (L_FIXED - 1) for i in range(L_FIXED))
        f6 = {"q": F6_Q}

        def fixed_f6():
            import gentropy as g

            return g.maxent_solve(g.MaxEntProblem(build_spec(kind, f6), E_f6, beta=F6_BETA))

        job.ops = [Op("maxent_fixed_beta", fixed_f6, lambda s: check_solution(kind, f6, E_f6, s), fault="F6")]
    else:
        job.ops = [Op("maxent_fixed_beta", fixed, lambda s: check_solution(kind, p, E_fixed, s))]
    if kind not in NO_TARGET_U:
        job.ops.append(Op("maxent_target_u", target, check_target))
    job.ops.append(Op("occupation_extensivity", occupation, check_occupation))
    return job


def make_jobs(seed: int, rounds: int, workdir) -> list[Job]:
    rng = random.Random(f"maxent-thermo:{seed}")
    st = Stratified(rng, rounds)
    return [make_job(kind, st, rng) for _ in range(rounds) for kind in KINDS]


def prepare(job: Job) -> None:
    """Inputs live in the job itself; there are no files."""


def release(job: Job) -> None:
    pass
