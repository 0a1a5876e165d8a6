"""Batch command-line front end.

Exit codes: 0 on success with all checks passing, 1 when a requested check
fails (the witness is emitted), 2 on usage or validation errors.  All output
is line-oriented TSV with a '#'-prefixed header; randomized subcommands are
fully determined by --seed.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import axioms, thermo
from .catalog import (
    BoltzmannGibbs,
    BorgesRoditi,
    DistributionError,
    Entropy,
    GenericEntropy,
    GroupEntropy,
    Kaniadakis,
    SAlphaBetaQ,
    SDelta,
    SFourth,
    SQDelta,
    SThird,
    SpecError,
    Tsallis,
)
from .groups import GroupLawError, group_law_from_exponential
from .io import (
    InputFormatError,
    format_value,
    parse_distribution,
    read_energy_file,
    tsv_line,
    tsv_table,
)
from .scd import ScdEntropy
from .series import SeriesError, normalized_from_literal, parse_rational_list


class UsageError(ValueError):
    pass


def _rat(value: str):
    """Prefer an exact rational when the literal is one; it must fit a float."""
    try:
        exact = Fraction(value)
        float(exact)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise UsageError(f"bad numeric literal {value!r}")
    return exact


def _order(value: str) -> int:
    """A truncation order: argparse names --order in the error for a bad one."""
    try:
        order = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if order < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {order}")
    return order


def _real(value: str) -> float:
    return float(_rat(value))


def _parse_coeff_map(text: str) -> dict:
    # "1:1,-1:-2,-2:1" maps index n to k_n
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n, v = chunk.rsplit(":", 1)
            out[int(n)] = Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad coefficient entry {chunk!r}")
    return out


class Param(NamedTuple):
    """A parameter's name in `catalog` and scan specs, its flag, its parser."""

    name: str
    flag: str
    parse: Callable[[str], object] = _rat

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class Kind(NamedTuple):
    """An entropy class, its positional parameters, its `catalog` texts."""

    cls: type
    params: tuple[Param, ...]
    domain: str
    definition: str


_Q = Param("q", "--q")
_DELTA = Param("delta", "--delta", _real)

# The one table of entropy kinds, keyed by class name: the parameter flags,
# build_entropy, scan specs and `catalog` all read it.
KINDS = {kind.cls.name: kind for kind in (
    Kind(BoltzmannGibbs, (), "-", "sum p ln(1/p)"),
    Kind(Tsallis, (_Q,), "q != 1", "(sum p^q - 1)/(1-q)"),
    Kind(Kaniadakis, (Param("kappa", "--kappa"),), "-1 < kappa <= 1, kappa != 0", "sum p (p^-k - p^k)/(2k)"),
    Kind(BorgesRoditi, (Param("a", "--a"), Param("b", "--b")), "a != b", "log (x^a - x^b)/(a-b)"),
    Kind(ScdEntropy, (Param("c", "--c", _real), Param("d", "--d", int)), "c in (0,1], d in N",
         "incomplete-gamma family"),
    Kind(GroupEntropy, (Param("sigma", "--sigma"), Param("coeffs", "--coeffs", _parse_coeff_map)),
         "sum k_n = 0, sum n k_n = 1", "(1/s) sum k_n x^(s n)"),
    Kind(SThird, (_Q,), "q != 1; concave for 2/3 < q < 1", "third-order discrete derivative"),
    Kind(SFourth, (_Q,), "q != 1", "fourth-order discrete derivative"),
    Kind(SAlphaBetaQ, (Param("alpha", "--alpha"), Param("beta", "--beta-param"), _Q),
         "q != 1; concave e.g. on (1/2,3/2)x(0,1/4)x(-1/4,0)", "three-parameter group entropy"),
    Kind(SDelta, (_DELTA,), "0 < delta <= 1 + ln W", "sum p (ln 1/p)^delta"),
    Kind(SQDelta, (_Q, _DELTA), "q != 1, delta > 0", "sum p (ln_q 1/p)^delta"),
    Kind(GenericEntropy, (Param("a", "--a-sequence", parse_rational_list),), "a_0 != 0",
         "series-defined exponential"),
)}

_PARAMS = {param.flag: param for kind in KINDS.values() for param in kind.params}


def _kind(name) -> Kind:
    if name not in KINDS:
        raise UsageError("--entropy is required" if name is None else f"unknown entropy kind {name!r}")
    return KINDS[name]


def build_entropy(args) -> Entropy:
    """The entropy named by ``args.entropy``, from its parameter flags.

    A missing parameter, a parameter of another kind, and ``--scale`` on a
    kind without a group exponential are usage errors.
    """
    name = args.entropy
    kind = _kind(name)
    for flag, param in _PARAMS.items():
        given = getattr(args, param.dest, None) is not None
        if given != (param in kind.params):
            raise UsageError(f"--entropy {name} {'does not take' if given else 'requires'} {flag}")
    values = [getattr(args, param.dest) for param in kind.params]
    options = {"kB": getattr(args, "kb", 1.0)}  # expand, group-law and scan take no --kb
    if args.scale is not None:
        if not kind.cls.has_exponential:
            raise UsageError(f"--entropy {name} does not take --scale")
        options["scale_c"] = args.scale
    try:
        return kind.cls(*values, **options)
    except SpecError as exc:
        raise UsageError(str(exc))


def cmd_eval(args) -> int:
    spec = build_entropy(args)
    dist = parse_distribution(args.dist)
    value = spec.evaluate(dist)
    print(format_value(value, args.digits))
    return 0


def cmd_expand(args) -> int:
    if args.count < 0:
        raise UsageError(f"--count must be nonnegative, got {args.count}")
    coeffs = build_entropy(args).expansion_coefficients(args.count)
    print("#k\tcoefficient")
    for k, c in enumerate(coeffs, start=1):
        print(tsv_line(k, c))
    return 0


def cmd_group_law(args) -> int:
    # Phi = G(F(x) + F(y)) is the same law for G(c t) at every c
    if args.scale is not None:
        raise UsageError("group-law does not take --scale; the composition law does not depend on it")
    if args.order < 1:
        raise UsageError(f"a group law needs --order >= 1, got {args.order}")
    if args.series:
        flags = {"--entropy": "entropy"}
        flags.update((flag, param.dest) for flag, param in _PARAMS.items())
        for flag, dest in flags.items():
            if getattr(args, dest) is not None:
                raise UsageError(f"--series does not take {flag}")
        G = normalized_from_literal(args.series, args.order)
    else:
        G = build_entropy(args).exp_series(args.order)
    law = group_law_from_exponential(G, args.order)
    print("#k\tm\tc_km")
    for (k, m), coeff in law.phi.iter_terms():
        print(tsv_line(k, m, coeff))
    return 0


# The shared flags, each declared only on the subcommands that read it.
SHARED = {
    "--kb": dict(type=float, default=1.0),
    "--scale": dict(type=_rat, help="scale constant applied as G(c t); exponential-class kinds only"),
    "--order": dict(type=_order, default=12,
                    help="total degree of the group law; a_k count of concavity-condition"),
    "--digits": dict(type=int, default=17),
}


# Each single check, run as check(spec, args) -> AxiomReport.
_CHECKS = {
    "sk2": lambda spec, a: axioms.check_sk2_maximum(spec, a.states, a.trials, a.seed),
    "sk3": lambda spec, a: axioms.check_sk3_expansibility(
        spec, parse_distribution(a.dist or f"uniform:{a.states}")),
    "weak-composability": lambda spec, a: axioms.check_weak_composability(spec, a.wa, a.wb),
    "strict-composability": lambda spec, a: axioms.check_strict_composability(
        spec, a.wa, a.wb, a.trials, a.seed),
    "concavity": lambda spec, a: axioms.check_concavity_numeric(spec),
    "concavity-condition": lambda spec, a: axioms.check_concavity_condition(spec.a_sequence(a.order)),
    "lesche": lambda spec, a: axioms.lesche_probe(spec, a.states, a.perturbation, a.trials, a.seed),
}
# The per-axiom flags of `check` and the shared --kb and --order, by argparse
# dest, with their defaults, and the ones each single check reads, each mapped
# to the flag whose presence makes the check ignore it (None: read whenever
# given).  argparse leaves them None, so that cmd_check can tell a flag given
# from one left out.
CHECK_DEFAULTS = {"dist": None, "states": 8, "wa": 2, "wb": 3, "trials": 100, "seed": 0, "perturbation": 1e-4,
                  "kb": SHARED["--kb"]["default"], "order": SHARED["--order"]["default"]}
CHECK_READS = {
    "sk2": dict.fromkeys(("states", "trials", "seed", "kb")),
    "sk3": {"dist": None, "kb": None, "states": "dist"},  # --states only sizes sk3's stand-in for --dist
    "weak-composability": dict.fromkeys(("wa", "wb", "kb")),
    "strict-composability": dict.fromkeys(("wa", "wb", "trials", "seed", "kb")),
    "concavity": {},
    "concavity-condition": {"order": None},
    "lesche": dict.fromkeys(("states", "perturbation", "trials", "seed", "kb")),
}
# The one table of --axiom names, read by the flag's choices and by cmd_check:
# the checks each name runs, then those it runs only for a spec with a
# composition rule.
AXIOMS = {name: ((name,), ()) for name in _CHECKS}
AXIOMS["all"] = (("sk2", "sk3"), ("weak-composability", "strict-composability"))


def cmd_check(args) -> int:
    given = [dest for dest in CHECK_DEFAULTS if getattr(args, dest) is not None]
    for dest, default in CHECK_DEFAULTS.items():
        if dest not in given:
            setattr(args, dest, default)
    spec = build_entropy(args)  # with the resolved --kb
    checks, composed = AXIOMS[args.axiom]
    names = checks + (composed if spec.has_group_law else ())
    reads = {dest for name in names for dest, unless in CHECK_READS[name].items()
             if unless is None or unless not in given}
    for dest in given:
        if dest not in reads:
            unless = {CHECK_READS[n].get(dest) for n in names} - {None}
            why = (f" with --{unless.pop()}" if unless else
                   " without a composition rule" if any(dest in CHECK_READS[n] for n in composed) else "")
            raise UsageError(f"--axiom {args.axiom} does not read --{dest} for --entropy {args.entropy}{why}")
    if args.trials < 0:
        raise UsageError(f"--trials must be nonnegative, got {args.trials}")
    reports = [_CHECKS[name](spec, args) for name in names]
    print("#axiom\tverdict\tresidual\twitness")
    failed = False
    for rep in reports:
        witness = "-" if rep.witness is None else repr(rep.witness)
        print(tsv_line(rep.axiom, rep.verdict, rep.worst_residual, witness,
                       digits=args.digits))
        failed = failed or rep.verdict == axioms.FAIL
    if args.witness_file and any(r.witness is not None for r in reports):
        with open(args.witness_file, "w", encoding="utf-8") as fh:
            for rep in reports:
                fh.write(f"{rep.axiom}\t{rep.verdict}\tseed={rep.seed}\t{rep.witness!r}\n")
    return 1 if failed else 0


def cmd_maxent(args) -> int:
    spec = build_entropy(args)
    energies = read_energy_file(args.energies)
    problem = thermo.MaxEntProblem(
        spec,
        tuple(energies),
        beta=args.beta,
        target_U=args.target_u,
    )
    sol = thermo.maxent_solve(problem)
    print("#field\tvalue")
    for field in ("alpha", "beta", "Z", "U", "S", "stationarity_residual"):
        print(tsv_line(field, getattr(sol, field), digits=args.digits))
    try:
        print(tsv_line("legendre_residual", thermo.legendre_residual(sol, spec),
                       digits=args.digits))
    except SpecError:
        pass
    print("#i\tenergy\tp")
    print(tsv_table(range(len(energies)), energies, sol.distribution.p, digits=args.digits))
    return 0


def cmd_occupation(args) -> int:
    spec = build_entropy(args)
    law = thermo.occupation_law(spec, args.nmax)
    print(tsv_line("valid", law.valid, law.reason or "-"))
    print("#N\tln_W\tW\tS\tresidual")
    if not law.valid:
        return 1
    report = thermo.extensivity_check(spec, args.nmax, law)
    if report.rows:
        N, lw, s, resid, _ = zip(*report.rows)
        W = np.exp(np.where(np.less(lw, 700), lw, np.inf))
        print(tsv_table(N, lw, W, s, resid, digits=args.digits))
    return 0


def cmd_scan(args) -> int:
    specs = {text: _spec_from_string(text, args) for text in args.spec}
    rows = thermo.asymptotic_scan(specs, W_max=args.wmax, points=args.points)
    print("#spec\tfamily\texponent")
    for row in rows:
        print(tsv_line(row.label, row.family, row.exponent, digits=args.digits))
    return 0


def _spec_from_string(text: str, args):
    """Parse 'kind:name=value,...' into an entropy instance.

    A comma ends a value only where a 'name=' follows, so list values such as
    an a-sequence or a coefficient map keep theirs.
    """
    name, _, rest = text.partition(":")
    params = {param.name: param for param in _kind(name).params}
    ns = argparse.Namespace(entropy=name, scale=args.scale)
    for pair in filter(None, re.split(r",(?=[^,=]*=)", rest)):
        key, eq, value = pair.partition("=")
        param = params.get(key.strip())
        if not eq or param is None:
            raise UsageError(f"bad spec parameter {pair!r} in {text!r}")
        try:
            setattr(ns, param.dest, param.parse(value))
        except ValueError as exc:
            raise UsageError(f"bad value {value!r} for {param.name} in {text!r}") from exc
    return build_entropy(ns)


def cmd_catalog(args) -> int:
    print("#kind\tparameters\tdomain\tdefinition")
    for name, kind in KINDS.items():
        params = ",".join(param.name for param in kind.params) or "-"
        print(tsv_line(name, params, kind.domain, kind.definition))
    return 0


@functools.cache  # argparse reads stdout, stderr and the terminal width per call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gentropy",
        description="Generalized entropies, their group laws, and MaxEnt tools.",
    )
    # --entropy and every parameter flag, declared once and copied into each entropy subcommand
    entropy = argparse.ArgumentParser(add_help=False)
    entropy.add_argument("--entropy", help="entropy kind (see `catalog`)")
    for flag, param in _PARAMS.items():
        takers = ", ".join(name for name, kind in KINDS.items() if param in kind.params)
        entropy.add_argument(flag, type=param.parse, help=f"{param.name} of {takers}")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, shared, about, parents=(entropy,)):
        p = subs.add_parser(name, parents=list(parents), help=about)
        for flag in shared.split():
            p.add_argument(flag, **SHARED[flag])
        p.set_defaults(func=func)
        return p

    p = add("eval", cmd_eval, "--kb --scale --digits", "evaluate an entropy on a distribution")
    p.add_argument("--dist", required=True, help="'uniform:W' or a file path")

    p = add("expand", cmd_expand, "--scale", "elementary-functional expansion coefficients")
    p.add_argument("--count", type=int, default=8)

    # --scale is declared only to be rejected with its reason
    p = add("group-law", cmd_group_law, "--scale --order", "triangular c_km table of the group law")
    p.add_argument("--series", help="normalized series literal '1, -1/2, ...'")

    p = add("check", cmd_check, "--kb --scale --order --digits", "run an axiom / property checker")
    p.set_defaults(kb=None, order=None)  # cmd_check fills them in from CHECK_DEFAULTS
    p.add_argument("--axiom", required=True, choices=list(AXIOMS))
    p.add_argument("--dist")
    p.add_argument("--states", type=int)
    p.add_argument("--wa", type=int)
    p.add_argument("--wb", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--perturbation", type=float)
    p.add_argument("--witness-file")

    p = add("maxent", cmd_maxent, "--kb --scale --digits", "canonical maximum-entropy distribution")
    p.add_argument("--energies", required=True, help="file with one level per line")
    p.add_argument("--beta", type=float)
    p.add_argument("--target-u", dest="target_u", type=float)

    p = add("occupation", cmd_occupation, "--kb --scale --digits", "occupation law and extensivity table")
    p.add_argument("--nmax", type=int, default=100)

    p = add("scan", cmd_scan, "--scale --digits", "asymptotic growth scan on uniform distributions",
            parents=())
    p.add_argument("--spec", action="append", required=True,
                   help="entropy as 'kind:param=value,...'; repeatable")
    p.add_argument("--wmax", type=float, default=1e12)
    p.add_argument("--points", type=int, default=13)

    add("catalog", cmd_catalog, "", "list entropy kinds and parameter domains", parents=())
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        if getattr(args, "digits", 1) < 1:
            raise UsageError(f"--digits must be at least 1, got {args.digits}")
        return args.func(args)
    except (UsageError, InputFormatError, SpecError, SeriesError, GroupLawError,
            DistributionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
