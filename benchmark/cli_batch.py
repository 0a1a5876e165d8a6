"""cli-batch: one analysis script of in-process ``main([...])`` calls per job.

A job covers one spec and its generated files: a distribution of W_STATES
probabilities, each line written as a decimal or as p/q, and an energy file
of L_LEVELS levels.  It runs eval, expand, check --axiom all, occupation,
scan, maxent --beta and group-law --order 8 as far as the kind supports each,
and ends with one probe of the exit-code contract.  Time goes into io parsing
and formatting, vectorized catalog evaluation, the axiom checkers and cli.
"""

from __future__ import annotations

import ast
import os
import random
import shutil
from fractions import Fraction
from math import factorial
from pathlib import Path
from types import SimpleNamespace

from harness import Job, Op, Stratified, run_cli

IMPORTS = ("gentropy", "gentropy.cli")
W_STATES = 10_000
L_LEVELS = 20
N_MAX = 300
GROUP_LAW_ORDER = 8
EXPAND_COUNT = 8
CHECK_SEEDS = 1000
KINDS = ("bg", "tsallis", "tsallis_q_above_1", "kaniadakis", "s_delta", "s_cd")
EXPONENTIAL = ("bg", "tsallis", "tsallis_q_above_1", "kaniadakis")
HAS_GROUP_LAW = ("bg", "tsallis", "tsallis_q_above_1", "kaniadakis", "s_delta")
STRICT_PASS = ("bg", "tsallis", "tsallis_q_above_1")
TSALLIS_EVEN = (2, 4, 6, 8)  # see maxent_thermo.TSALLIS_EVEN
LEVELS6 = "0\n1\n2\n3\n4\n5\n"


def _tsallis_z(q: Fraction) -> float:
    """sum_i e_q(-E_i) with the cut-off [1 + (1-q) y]_+, levels 0..5, beta 1."""
    s = float(1 - q)
    return sum(max(0.0, 1.0 - s * e) ** (1.0 / s) for e in range(6))


# (fault, argv, expected outcome); a fault names the op's known defect.
# Fixed inputs: the outcome of a probe never depends on the seed.
PROBES = (
    ("F1", ["eval", "--entropy", "bg", "--dist", "{nan}"], "usage-error"),
    ("F2", ["eval", "--entropy", "bg", "--dist", "uniform:0"], "usage-error"),
    ("F2", ["check", "--entropy", "bg", "--axiom", "sk2", "--states", "0"], "usage-error"),
    ("F2", ["check", "--entropy", "bg", "--axiom", "weak-composability", "--wa", "0"], "usage-error"),
    ("F3", ["eval", "--entropy", "bg", "--dist", "uniform:4", "--digits", "0"], "usage-error"),
    ("F4", ["eval", "--entropy", "s_delta", "--delta", "2", "--scale", "3", "--dist", "uniform:4"], "usage-error"),
    ("F4", ["eval", "--entropy", "s_q_delta", "--q", "1/2", "--delta", "2", "--scale", "3",
            "--dist", "uniform:4"], "usage-error"),
    ("F4", ["eval", "--entropy", "s_cd", "--c", "1/2", "--d", "2", "--scale", "3", "--dist", "uniform:4"],
     "usage-error"),
    ("F5", ["check", "--entropy", "bg", "--axiom", "strict-composability", "--trials", "0"], "inconclusive"),
    ("F7", ["maxent", "--entropy", "tsallis", "--q", "1/2", "--beta", "1", "--energies", "{levels6}"],
     ("Z", _tsallis_z(Fraction(1, 2)))),
    ("F7", ["maxent", "--entropy", "tsallis", "--q", "3/5", "--beta", "1", "--energies", "{levels6}"],
     ("Z", _tsallis_z(Fraction(3, 5)))),
    (None, ["eval", "--entropy", "bg", "--dist", "{bad}"], "usage-error"),
)


JOBS_PER_ROUND = len(PROBES)  # each round runs every probe once


def params(kind: str, st: Stratified) -> dict:
    F = Fraction
    if kind == "bg":
        return {}
    if kind == "tsallis":
        return {"q": 1 - 1 / F(st.choice(kind, TSALLIS_EVEN))}
    if kind == "tsallis_q_above_1":
        return {"q": 1 + 1 / F(st.choice(kind, TSALLIS_EVEN))}
    if kind == "kaniadakis":
        return {"kappa": st.rational(kind, F(-4, 5), F(4, 5), (10,), avoid=(-F(1, 10), 0, F(1, 10)))}
    if kind == "s_delta":
        return {"delta": st.rational(kind, F(1, 2), F(2), (4,), avoid=(1,))}  # delta = 1 is bg
    if kind == "s_cd":
        return {"c": st.rational(kind + ".c", F(1, 5), F(1), (5,)), "d": st.choice(kind + ".d", (1, 2, 3))}
    raise KeyError(kind)


def oracle_kind(kind: str) -> str:
    return "tsallis" if kind.startswith("tsallis") else kind


def spec_argv(kind: str, p: dict) -> list[str]:
    argv = ["--entropy", oracle_kind(kind)]
    for key, value in p.items():
        argv.append(f"--{key}={value}")  # "=" keeps a negative value off the flag list
    return argv


def scan_specs(kind: str, p: dict) -> list[tuple[str, dict]]:
    """bg as the yardstick, then the job's spec."""
    pairs = ",".join(f"{k}={v}" for k, v in p.items())
    return [("bg", {})] + ([(f"{oracle_kind(kind)}:{pairs}", p)] if pairs else [])


# -- checks ---------------------------------------------------------------------


def expect_code(res, code: int) -> None:
    import oracles as o

    if isinstance(res, BaseException):
        raise res
    o.expect(res.code == code, f"exit {res.code}, expected {code}: {res.err.strip()[:200]}")


def expect_usage_error(res) -> None:
    """Exit 2, nothing on stdout, exactly one 'error:' line and no traceback."""
    import oracles as o

    expect_code(res, 2)
    lines = res.err.splitlines()
    o.expect(res.out == "", "usage error prints nothing on stdout")
    o.expect(len(lines) == 1 and lines[0].startswith("error:"), f"stderr {res.err[:200]!r}")


def rows(res) -> list[list[str]]:
    return [line.split("\t") for line in res.out.splitlines() if not line.startswith("#")]


def check_eval(kind, p, ctx, res) -> None:
    import oracles as o

    expect_code(res, 0)
    ref = o.entropy(oracle_kind(kind), p, ctx["probs"])
    got = float(res.out)
    o.expect(abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), f"eval {got!r} against {ref!r}")


def check_expand(kind, p, res) -> None:
    import oracles as o

    expect_code(res, 0)
    if kind == "tsallis_q_above_1":  # documented convention: powers of q - 1
        s = p["q"] - 1
        ref = [s ** k / factorial(k + 1) for k in range(EXPAND_COUNT)]
    else:
        ref = o.exp_coefficients(oracle_kind(kind), p, EXPAND_COUNT)[1:]
    got = [Fraction(c) for _, c in rows(res)]
    o.expect(got == ref, "expansion coefficients")


def check_all_axioms(kind, p, seed, res) -> None:
    """Each verdict re-derived from the benchmark's own entropy values."""
    import numpy as np

    import oracles as o

    if isinstance(res, BaseException):
        raise res
    k = oracle_kind(kind)
    table = {r[0]: r for r in rows(res)}
    expected = ["sk2-maximum", "sk3-expansibility"]
    if kind in HAS_GROUP_LAW:
        expected += ["weak-composability", "strict-composability"]
    o.expect(list(table) == expected, f"axioms {list(table)}")

    samples = np.random.default_rng(seed).dirichlet(np.ones(8), size=100)
    excess = max(o.entropy(k, p, s) for s in samples) - o.entropy(k, p, np.full(8, 1 / 8))
    verdicts = {"sk2-maximum": None if abs(excess - 1e-12) < 1e-9 else excess <= 1e-12,
                "sk3-expansibility": True}
    if kind in HAS_GROUP_LAW:
        ua, ub, uab = (float(o.microcanonical(k, p, [w])[0]) for w in (2, 3, 6))
        weak = abs(uab - o.compose_values(k, p, ua, ub)) / max(1.0, abs(uab))
        verdicts["weak-composability"] = None if abs(weak - 1e-9) < 1e-10 else weak <= 1e-9
        verdicts["strict-composability"] = kind in STRICT_PASS
    for axiom, ok in verdicts.items():
        verdict = table[axiom][1]
        if ok is not None:
            o.expect(verdict == ("pass" if ok else "fail"), f"{axiom} verdict {verdict}")
    strict = table.get("strict-composability")
    if strict is not None and strict[1] == "fail":
        w = ast.literal_eval(strict[3])
        pa, pb = np.asarray(w["p_A"]), np.asarray(w["p_B"])
        s_ab = o.entropy(k, p, np.outer(pa, pb).ravel())
        composed = o.compose_values(k, p, o.entropy(k, p, pa), o.entropy(k, p, pb))
        resid = abs(s_ab - composed) / max(1.0, abs(s_ab))
        o.expect(resid > 1e-10, "strict-composability witness really fails")
        o.expect(abs(resid - float(strict[2])) <= 1e-6 * resid, "witness residual")
    failed = any(r[1] == "fail" for r in table.values())
    o.expect(res.code == (1 if failed else 0), f"exit {res.code} with fail={failed}")


def check_occupation(kind, p, res) -> None:
    import oracles as o

    if kind == "tsallis_q_above_1":  # ln_q is bounded above: W(N) does not exist
        expect_code(res, 1)
        o.expect(res.out.startswith("valid\tFalse\t"), "occupation law inadmissible")
        return
    expect_code(res, 0)
    o.expect(res.out.startswith("valid\tTrue\t-\n"), "occupation law admissible")
    table = rows(res)[1:]
    o.expect(len(table) == N_MAX, "one row per N")
    ref = o.log_inverse_F(oracle_kind(kind), p, [float(r[0]) for r in table])
    for (n, lw, _, _, resid), f in zip(table, ref):
        o.expect(abs(float(lw) - f) <= 1e-12 * (1 + abs(f)), f"ln W({n})")
        o.expect(float(resid) <= 1e-9 * max(1.0, float(n)), f"extensivity residual at N={n}")


def check_scan(kind, p, res) -> None:
    import oracles as o

    expect_code(res, 0)
    table = rows(res)
    specs = scan_specs(kind, p)
    o.expect(len(table) == len(specs), "one row per spec")
    for (label, family, exponent), (text, pk) in zip(table, specs):
        o.expect(label == text, f"row {label} for spec {text}")
        ref_family, ref_exp = o.growth_fit(oracle_kind(text.split(":")[0]), pk)
        o.expect(family == ref_family, f"{label}: family {family}, expected {ref_family}")
        o.expect(abs(float(exponent) - ref_exp) <= 1e-8 * max(1.0, abs(ref_exp)), f"{label} exponent")


def check_maxent(kind, p, energies, res) -> None:
    from maxent_thermo import check_solution

    expect_code(res, 0)
    fields = {}
    probs = []
    for r in rows(res):
        if len(r) == 2:
            fields[r[0]] = float(r[1])
        else:
            probs.append(float(r[2]))
    sol = SimpleNamespace(distribution=SimpleNamespace(p=probs), **fields)
    check_solution(kind, p, energies, sol)


def check_group_law(kind, p, res) -> None:
    import oracles as o

    expect_code(res, 0)
    got = {(int(k), int(m)): Fraction(c) for k, m, c in rows(res)}
    g = o.exp_coefficients(oracle_kind(kind), p, GROUP_LAW_ORDER)
    o.expect(got == o.law_terms(g, GROUP_LAW_ORDER), "group-law table")


def check_probe(expected, res) -> None:
    import oracles as o

    if expected == "usage-error":
        expect_usage_error(res)
    elif expected == "inconclusive":
        expect_code(res, 0)
        o.expect(rows(res)[0][1] == "inconclusive", f"verdict {rows(res)[0][1]} after zero cases")
    else:
        expect_code(res, 0)
        name, ref = expected
        got = {r[0]: float(r[1]) for r in rows(res) if len(r) == 2}[name]
        o.expect(abs(got - ref) <= 1e-12 * abs(ref), f"{name} {got!r}, expected {ref!r}")


# -- jobs -------------------------------------------------------------------------


def make_job(index: int, kind: str, st: Stratified, rng: random.Random, workdir: Path) -> Job:
    p = params(kind, st)
    seed = rng.randrange(CHECK_SEEDS)
    beta = round(st.uniform(kind + ".beta", 0.3, 2.0), 6)
    job = Job(kind, [])
    job.ctx.update(data_seed=rng.getrandbits(64), dir=workdir / f"job{index}")
    d = job.ctx["dir"]
    spec = spec_argv(kind, p)
    fault, probe, expected = PROBES[index % len(PROBES)]
    probe = [a.format(nan=d / "nan.txt", bad=d / "bad.txt", levels6=d / "levels6.txt") for a in probe]

    def cli(argv):
        return lambda: run_cli(argv)

    ops = [Op("eval", cli(["eval", *spec, "--dist", str(d / "dist.txt")]),
              lambda r: check_eval(kind, p, job.ctx, r))]
    if kind in EXPONENTIAL:
        ops.append(Op("expand", cli(["expand", *spec, "--count", str(EXPAND_COUNT)]),
                      lambda r: check_expand(kind, p, r)))
    ops.append(Op("check_all", cli(["check", *spec, "--axiom", "all", "--seed", str(seed)]),
                  lambda r: check_all_axioms(kind, p, seed, r)))
    if kind in EXPONENTIAL:
        ops.append(Op("occupation", cli(["occupation", *spec, "--nmax", str(N_MAX)]),
                      lambda r: check_occupation(kind, p, r)))
    scan = [a for text, _ in scan_specs(kind, p) for a in ("--spec", text)]
    ops.append(Op("scan", cli(["scan", *scan]), lambda r: check_scan(kind, p, r)))
    if kind in EXPONENTIAL:
        ops += [
            Op("maxent_beta", cli(["maxent", *spec, "--beta", str(beta), "--energies", str(d / "levels.txt")]),
               lambda r: check_maxent(kind, p, job.ctx["levels"], r)),
            Op("group_law", cli(["group-law", *spec, "--order", str(GROUP_LAW_ORDER)]),
               lambda r: check_group_law(kind, p, r)),
        ]
    ops.append(Op("probe", cli(probe), lambda r: check_probe(expected, r), fault=fault))
    job.ops = ops
    return job


def make_jobs(seed: int, rounds: int, workdir) -> list[Job]:
    rng = random.Random(f"cli-batch:{seed}")
    st = Stratified(rng, rounds * JOBS_PER_ROUND // len(KINDS))
    return [
        make_job(i, KINDS[i % len(KINDS)], st, rng, Path(workdir))
        for i in range(rounds * JOBS_PER_ROUND)
    ]


def prepare(job: Job) -> None:
    """Write the job's files; the reference probabilities stay in its context."""
    rng = random.Random(job.ctx["data_seed"])
    d = job.ctx["dir"]
    os.makedirs(d, exist_ok=True)
    weights = [rng.randint(1, 1000) for _ in range(W_STATES)]
    total = sum(weights)
    lines = [f"{w}/{total}" if rng.random() < 0.5 else repr(w / total) for w in weights]
    (d / "dist.txt").write_text("# generated distribution\n" + "\n".join(lines) + "\n")
    levels = sorted(round(rng.uniform(0.0, 5.0), 9) for _ in range(L_LEVELS))
    (d / "levels.txt").write_text("\n".join(repr(e) for e in levels) + "\n")
    (d / "levels6.txt").write_text(LEVELS6)
    (d / "nan.txt").write_text("0.5\nnan\n0.5\n")
    (d / "bad.txt").write_text("0.5\n0.25\nquarter\n")
    job.ctx.update(probs=[w / total for w in weights], levels=tuple(levels))


def release(job: Job) -> None:
    shutil.rmtree(job.ctx["dir"], ignore_errors=True)
    job.ctx.pop("probs", None)
