"""CLI subcommands: output format, exit codes, determinism."""

import ast
import contextlib
import io
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gentropy import thermo
from gentropy.cli import AXIOMS, CHECK_FLAGS, CHECKS, KINDS, build_entropy, build_parser, main
from gentropy.io import (
    InputFormatError,
    format_float,
    format_value,
    parse_distribution,
    read_distribution_file,
    read_energy_file,
    tsv_line,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def is_usage_error(code, out, err):
    """Exit 2, no stdout, one 'error:' line and no traceback."""
    lines = err.splitlines()
    return code == 2 and out == "" and len(lines) == 1 and lines[0].startswith("error:")


def maxent_fields(out):
    rows = (line.split("\t") for line in out.splitlines() if not line.startswith("#"))
    return {r[0]: float(r[1]) for r in rows if len(r) == 2}


class TestIO:
    def test_uniform_shorthand(self):
        d = parse_distribution("uniform:4")
        assert d.W == 4

    def test_bad_shorthand(self):
        with pytest.raises(InputFormatError):
            parse_distribution("uniform:x")

    def test_distribution_file_round_trip(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("".join(format_float(p) + "\n" for p in [0.5, 0.3, 0.2]))
        d = read_distribution_file(str(path))
        assert d.p.tolist() == [0.5, 0.3, 0.2]

    def test_rational_and_comments(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# header\n1/2\n0.3  # inline\n\n1/5\n")
        d = read_distribution_file(str(path))
        assert d.p.tolist() == [0.5, 0.3, 0.2]

    def test_malformed_line_reported_with_number(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.5\nnope\n0.5\n")
        with pytest.raises(InputFormatError, match=":2:"):
            read_distribution_file(str(path))

    def test_missing_file(self):
        with pytest.raises(InputFormatError):
            read_distribution_file("/nonexistent/file")

    def test_energy_file(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0.0\n1.5\n# done\n")
        assert read_energy_file(str(path)) == [0.0, 1.5]

    @pytest.mark.parametrize(
        "reader, text, message",
        [
            (read_distribution_file, None, "cannot read distribution file {path!r}"),
            (read_distribution_file, "0.5\n1/0\n", "{path}:2: malformed probability '1/0'"),
            pytest.param(read_distribution_file, "1" + "0" * 400 + "/1\n",
                         "{path}:1: malformed probability '1" + "0" * 400 + "/1'",
                         id="ratio-overflows-a-float"),
            (read_energy_file, None, "cannot read energy file {path!r}"),
            (read_energy_file, "# levels\n1/2\n", "{path}:2: malformed energy '1/2'"),
            (read_energy_file, "\n# none\n", "{path}: no energy levels found"),
        ],
    )
    def test_input_file_messages(self, tmp_path, reader, text, message):
        path = str(tmp_path / "in.txt")
        if text is not None:
            (tmp_path / "in.txt").write_text(text)
        with pytest.raises(InputFormatError) as info:
            reader(path)
        assert str(info.value) == message.format(path=path)

    def test_empty_energy_file(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# nothing\n")
        with pytest.raises(InputFormatError):
            read_energy_file(str(path))

    def test_format_float_round_trips(self):
        x = 1 / 3
        assert float(format_float(x)) == x

    def test_format_value_rational(self):
        from fractions import Fraction

        assert format_value(Fraction(-1, 3)) == "-1/3"


class TestEval:
    def test_bg_fair_coin(self, capsys):
        code, out, _ = run(capsys, "eval", "--entropy", "bg", "--dist", "uniform:2")
        assert code == 0
        assert float(out) == pytest.approx(math.log(2), rel=1e-12)

    def test_borges_roditi_with_close_parameters(self, capsys):
        # the two rates of G cancelled: it printed 2.7724489370939409, a relative error of 5.0e-5
        code, out, err = run(capsys, "eval", "--entropy", "borges_roditi", "--a", "1/2",
                             "--b", "499999999999/1000000000000", "--dist", "uniform:4")
        assert (code, err) == (0, "")
        with mp.workdps(50):
            a, b, x = mp.mpf(1) / 2, mp.mpf(499999999999) / 10 ** 12, mp.log(4)
            ref = (mp.exp(a * x) - mp.exp(b * x)) / (a - b)  # S(uniform over 4) = G(ln 4)
        assert abs(mp.mpf(float(out)) - ref) <= 4e-16 * ref

    def test_tsallis_requires_q(self, capsys):
        code, _, err = run(capsys, "eval", "--entropy", "tsallis", "--dist", "uniform:2")
        assert code == 2
        assert "--q" in err

    def test_unknown_entropy(self, capsys):
        code, _, err = run(capsys, "eval", "--entropy", "nope", "--dist", "uniform:2")
        assert code == 2

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1/2\n1/2\n")
        code, out, _ = run(
            capsys, "eval", "--entropy", "tsallis", "--q", "1/2",
            "--dist", str(path),
        )
        assert code == 0
        expected = (2 * (0.5 ** 0.5) - 1) / 0.5
        assert float(out) == pytest.approx(expected, rel=1e-12)

    def test_digits_flag(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--entropy", "bg", "--dist", "uniform:2", "--digits", "4"
        )
        assert code == 0
        assert out.strip() == "6.931e-01"

    def test_nan_probability_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.5\nnan\n0.5\n")
        code, out, err = run(capsys, "eval", "--entropy", "bg", "--dist", str(path))
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("flag, argv", [
        ("--dist", ("eval", "--entropy", "bg")),
        ("--dist", ("check", "--entropy", "bg", "--axiom", "sk3")),
        ("--energies", ("maxent", "--entropy", "bg", "--beta", "1")),
    ], ids=["eval", "check-sk3", "maxent"])
    def test_a_file_that_is_not_utf8_is_a_usage_error(self, capsys, tmp_path, flag, argv):
        # the decoding error was a traceback with exit 1
        path = tmp_path / "f.txt"
        path.write_bytes(b"0.5\n\xff0.5\n")
        code, out, err = run(capsys, *argv, flag, str(path))
        assert is_usage_error(code, out, err)
        assert str(path) in err and "UTF-8" in err

    def test_generic_evaluates_its_whole_sequence(self, capsys):
        # once cut at degree 12, which printed ln 3, the BG value
        code, out, err = run(capsys, "eval", "--entropy", "generic",
                             "--a-sequence", "1,0,0,0,0,0,0,0,0,0,0,0,5", "--dist", "uniform:3")
        assert (code, err) == (0, "")
        t = math.log(3)  # S(uniform W) = G(ln W), G(t) = t + 5 t^13 / 13
        assert float(out) == pytest.approx(t + 5 * t ** 13 / 13, rel=1e-14)


class TestExpand:
    def test_exact_rational_output(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--entropy", "tsallis", "--q", "1/2", "--count", "3"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines == ["1\t1", "2\t1/4", "3\t1/24"]

    def test_scale_multiplies_coefficient_k_by_c_to_the_k(self, capsys):
        # S = sum_k a_{k-1} c^k / k S_k: BG at c = 2 is 2 S_1
        code, out, _ = run(capsys, "expand", "--entropy", "bg", "--scale", "2", "--count", "3")
        assert code == 0
        assert out.splitlines()[1:] == ["1\t2", "2\t0", "3\t0"]


class TestGroupLaw:
    def test_tsallis_table(self, capsys):
        code, out, _ = run(
            capsys, "group-law", "--entropy", "tsallis", "--q", "1/2", "--order", "6"
        )
        assert code == 0
        rows = [l.split("\t") for l in out.splitlines() if not l.startswith("#")]
        table = {(int(r[0]), int(r[1])): r[2] for r in rows}
        assert table[(1, 1)] == "1/2"
        assert set(table) == {(1, 0), (0, 1), (1, 1)}

    def test_series_literal(self, capsys):
        code, out, _ = run(capsys, "group-law", "--series", "1", "--order", "4")
        assert code == 0
        rows = [l.split("\t") for l in out.splitlines() if not l.startswith("#")]
        assert {(int(r[0]), int(r[1])) for r in rows} == {(1, 0), (0, 1)}

    @pytest.mark.parametrize(
        "flags",
        [
            ["--entropy", "tsallis", "--q", "1/2", "--scale", "3"],
            ["--entropy", "tsallis"],
            ["--q", "1/2"],
            ["--kappa", "1/2"],
            ["--scale", "3"],
        ],
        ids=" ".join,
    )
    def test_series_takes_no_entropy_flags(self, capsys, flags):
        code, out, err = run(capsys, "group-law", "--series", "1, -1/2", "--order", "3", *flags)
        assert is_usage_error(code, out, err)

    def test_scale_is_a_usage_error(self, capsys):
        # G(c t) composes as G(F(x) + F(y)) at every c; the table would not show c
        code, out, err = run(capsys, "group-law", "--entropy", "tsallis", "--q", "1/2", "--scale", "2")
        assert is_usage_error(code, out, err)


class TestCheck:
    def test_passing_check_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "check", "--entropy", "bg", "--axiom", "sk2",
            "--states", "5", "--trials", "200",
        )
        assert code == 0
        assert "pass" in out

    def test_failing_check_exits_one_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "check", "--entropy", "s_iii", "--q", "4/5",
            "--axiom", "strict-composability", "--trials", "20",
        )
        assert code == 1
        assert "fail" in out
        assert "p_A" in out  # witness emitted

    def test_concavity_condition(self, capsys):
        code, out, _ = run(
            capsys, "check", "--entropy", "tsallis", "--q", "1/2",
            "--axiom", "concavity-condition",
        )
        assert code == 0

    def test_seeded_determinism(self, capsys):
        args = (
            "check", "--entropy", "tsallis", "--q", "1/2", "--axiom", "sk2",
            "--trials", "300", "--seed", "9",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_witness_file(self, capsys, tmp_path):
        wf = tmp_path / "w.txt"
        code, _, _ = run(
            capsys, "check", "--entropy", "kaniadakis", "--kappa", "1/2",
            "--axiom", "strict-composability", "--trials", "20",
            "--witness-file", str(wf),
        )
        assert code == 1
        assert "strict-composability" in wf.read_text()

    def test_unwritable_witness_file_is_one_error_line(self, capsys, tmp_path):
        # the write's FileNotFoundError once ended the run in a traceback with exit 1
        argv = ["check", "--entropy", "s_iii", "--q", "4/5", "--axiom", "strict-composability", "--trials", "20"]
        path = tmp_path / "missing" / "w.txt"
        code, out, err = run(capsys, *argv, "--witness-file", str(path))
        assert (code, err) == (2, f"error: cannot write witness file {str(path)!r}\n")
        assert out == run(capsys, *argv)[1]

    @pytest.mark.parametrize("axiom", ["sk2", "strict-composability", "lesche", "all"])
    def test_negative_seed_is_a_usage_error(self, capsys, axiom):
        # numpy's ValueError once ended the run in a traceback with exit 1
        code, out, err = run(capsys, "check", "--entropy", "bg", "--axiom", axiom, "--seed", "-1")
        assert (code, out, err) == (2, "", "error: --seed must be nonnegative, got -1\n")

    def test_kaniadakis_concavity_witness_is_exact(self, capsys):
        code, out, _ = run(capsys, "check", "--entropy", "kaniadakis", "--kappa", "1", "--axiom", "concavity")
        assert code == 0
        witness = ast.literal_eval(out.splitlines()[1].split("\t")[3])
        assert witness["second_derivative"] == pytest.approx(-1.0, abs=1e-12)

    def test_all_reads_dist_for_expansibility(self, capsys):
        code, out, err = run(capsys, "check", "--entropy", "bg", "--axiom", "all", "--dist", "/nonexistent/file")
        assert is_usage_error(code, out, err)

    def test_unknown_axiom(self, capsys):
        code, _, _ = run(capsys, "check", "--entropy", "bg", "--axiom", "bogus")
        assert code == 2

    def test_order_does_not_truncate_a_generic_entropy(self, capsys):
        # --order 0 once made G identically 0, which passed every axiom; no check of all reads --order
        argv = ["check", "--entropy", "generic", "--a-sequence", "1,-1/8,1/10", "--axiom", "all", "--trials", "20"]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        rows = {line.split("\t")[0]: line.split("\t") for line in out.splitlines()[1:]}
        assert rows["strict-composability"][1] == "fail"
        assert "p_A" in rows["strict-composability"][3]
        code, out, err = run(capsys, *argv, "--order", "0")
        assert is_usage_error(code, out, err) and "--axiom all does not read --order" in err


class TestCheckFlags:
    """Each per-axiom flag of `check` is accepted exactly where a check that runs reads it."""

    VALUES = {"dist": "uniform:3", "states": "3", "wa": "2", "wb": "2", "trials": "2", "seed": "1",
              "perturbation": "0.01", "kb": "2", "order": "3"}

    @pytest.mark.parametrize(
        "flags, unread",
        [
            (["--axiom", "concavity", "--trials", "5", "--seed", "3", "--states", "4", "--wa", "5",
              "--perturbation", "0.5"], "--states"),
            (["--axiom", "sk2", "--order", "3", "--wb", "5", "--perturbation", "0.5"], "--wb"),
            (["--axiom", "sk3", "--dist", "uniform:3", "--states", "4"], "--states"),
            (["--axiom", "sk2", "--order", "3"], "--order"),
            (["--axiom", "concavity-condition", "--kb", "2"], "--kb"),
            (["--axiom", "concavity", "--kb", "2", "--order", "3"], "--kb"),
        ],
        ids=["concavity", "sk2", "sk3 with --dist", "sk2 --order", "concavity-condition --kb",
             "concavity --kb --order"],
    )
    def test_unread_flags_are_usage_errors(self, capsys, flags, unread):
        # each command once printed the same bytes as without its unread flags
        code, out, err = run(capsys, "check", "--entropy", "bg", *flags)
        assert is_usage_error(code, out, err)
        assert unread in err and flags[1] in err

    def test_states_is_read_through_sk2_when_sk3_has_a_dist(self, capsys):
        flags = ["check", "--entropy", "bg", "--axiom", "all", "--dist", "uniform:3", "--trials", "5"]
        code, out, err = run(capsys, *flags, "--states", "4")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("axiom", list(AXIOMS))
    def test_flag_table(self, capsys, axiom):
        checks, composed = AXIOMS[axiom]
        reads = {dest for name in checks + composed for dest in CHECKS[name].reads}
        assert set(self.VALUES) == set(CHECK_FLAGS)
        for dest, value in self.VALUES.items():
            code, out, err = run(capsys, "check", "--entropy", "bg", "--axiom", axiom, f"--{dest}", value)
            assert is_usage_error(code, out, err) != (dest in reads), (dest, err)

    def test_all_reads_composition_flags_only_with_a_composition_rule(self, capsys):
        spec = ["check", "--entropy", "generic", "--a-sequence", "0,1", "--axiom", "all"]
        code, out, err = run(capsys, *spec, "--wa", "3")
        assert is_usage_error(code, out, err) and "--wa" in err and "composition rule" in err
        code, _, err = run(capsys, *spec, "--states", "3")
        assert code != 2, err

    def test_kb_and_order_where_read(self, capsys):
        argv = ["check", "--entropy", "tsallis", "--q", "1/2"]
        for axiom, flags in [("sk2", ["--kb", "1"]), ("lesche", ["--kb", "1"]),
                             ("concavity-condition", ["--order", "12"])]:
            default = run(capsys, *argv, "--axiom", axiom)
            assert default[0] == 0 and default == run(capsys, *argv, "--axiom", axiom, *flags)
        code, out, err = run(capsys, *argv, "--axiom", "concavity-condition", "--order", "1")
        assert (code, err) == (0, "") and out.splitlines()[1].split("\t")[1] == "inconclusive"
        # the spec is built with the given kB: the witness's entropy values double
        witness = {}
        for kb in ("1", "2"):
            code, out, _ = run(capsys, "check", "--entropy", "s_iii", "--q", "4/5", "--axiom",
                               "strict-composability", "--trials", "20", "--kb", kb)
            assert code == 1
            witness[kb] = ast.literal_eval(out.splitlines()[1].split("\t")[3])
        assert witness["2"]["S_AB"] == pytest.approx(2 * witness["1"]["S_AB"], rel=1e-15)

    def test_defaults_are_filled_in(self, capsys):
        code, out, _ = run(capsys, "check", "--entropy", "tsallis", "--q", "1/2", "--axiom", "all")
        flags = ["--states", "8", "--wa", "2", "--wb", "3", "--trials", "100", "--seed", "0"]
        assert (code, out) == run(capsys, "check", "--entropy", "tsallis", "--q", "1/2", "--axiom", "all",
                                  *flags)[:2]


class TestMaxent:
    def test_two_level_bg(self, capsys, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0\n1\n")
        code, out, _ = run(
            capsys, "maxent", "--entropy", "bg",
            "--energies", str(path), "--beta", "1.0",
        )
        assert code == 0
        fields = dict(
            line.split("\t")[:2]
            for line in out.splitlines()
            if line and not line.startswith("#")
        )
        z = 1 + math.exp(-1)
        assert float(fields["Z"]) == pytest.approx(z, rel=1e-10)
        assert float(fields["legendre_residual"]) <= 1e-10

    @pytest.mark.parametrize("q", ["1/2", "3/5"])
    def test_tsallis_partition_value_is_cut_off(self, capsys, tmp_path, q):
        path = tmp_path / "e.txt"
        path.write_text("0\n1\n2\n3\n4\n5\n")
        code, out, err = run(
            capsys, "maxent", "--entropy", "tsallis", "--q", q,
            "--energies", str(path), "--beta", "1",
        )
        assert code == 0, err
        s = 1 - float(Fraction(q))
        z = sum(max(0.0, 1 - s * e) ** (1 / s) for e in range(6))  # [1 + (1-q) y]_+
        assert maxent_fields(out)["Z"] == pytest.approx(z, rel=1e-12)

    @pytest.mark.parametrize("q", ["0.999999999999", "1.000000000001"])
    def test_partition_value_near_q_1_is_bg_s(self, capsys, tmp_path, q):
        # the q-exponential as a power of the rounded 1 + (1-q) y put Z 4.2e-6 and 2.5e-5 off BG's
        path = tmp_path / "e.txt"
        path.write_text("0\n1\n3\n")
        z = {}
        for flags in (["--entropy", "bg"], ["--entropy", "tsallis", "--q", q]):
            code, out, err = run(capsys, "maxent", *flags, "--energies", str(path), "--beta", "1")
            assert (code, err) == (0, "")
            z[flags[1]] = maxent_fields(out)["Z"]
        assert z["tsallis"] == pytest.approx(z["bg"], rel=1e-11)

    def test_tsallis_above_one_target_energy(self, capsys, tmp_path):
        # the beta bracket passes through beta < 0, where 1 + (1-q) y <= 0
        path = tmp_path / "e.txt"
        path.write_text("0\n1\n2\n3\n4\n5\n")
        code, out, err = run(
            capsys, "maxent", "--entropy", "tsallis", "--q", "3/2",
            "--energies", str(path), "--target-u", "1.5",
        )
        assert (code, err) == (0, "")
        assert maxent_fields(out)["U"] == pytest.approx(1.5, abs=1e-9)

    def test_partition_value_without_log_inverse_is_nan(self, capsys, tmp_path):
        # s_iii's log inverse has no value at -beta E for E > 0.7
        path = tmp_path / "e.txt"
        path.write_text("0\n1\n2\n3\n4\n5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "maxent", "--entropy", "s_iii", "--q", "4/5",
                "--energies", str(path), "--beta", "1",
            )
        assert (code, err) == (0, "")
        fields = maxent_fields(out)
        assert math.isnan(fields["Z"])
        assert "legendre_residual" not in fields

    def test_partition_value_past_the_largest_double_is_inf(self, capsys, tmp_path):
        # E(1e17) = exp(arcsinh(1e17 / 20) * 20) overflows; it once raised OverflowError with a traceback
        path = tmp_path / "e.txt"
        path.write_text("0\n1\n2\n")
        code, out, err = run(
            capsys, "maxent", "--entropy", "kaniadakis", "--kappa", "1/20",
            "--energies", str(path), "--beta=-1e17",
        )
        assert (code, err) == (0, "")
        assert maxent_fields(out)["Z"] == math.inf

    def test_generic_partition_value(self, capsys, tmp_path):
        # generic had no log inverse and printed Z nan; Z = sum exp(F(-beta E)), F = G^-1 at 50 digits
        path = tmp_path / "e.txt"
        path.write_text("0\n1\n3\n")
        code, out, err = run(capsys, "maxent", "--entropy", "generic", "--a-sequence", "1,1/8,1/10",
                             "--energies", str(path), "--beta", "1")
        assert (code, err) == (0, "")
        fields = maxent_fields(out)
        with mp.workdps(50):
            def F(y):
                return mp.findroot(lambda t: t + t ** 2 / 16 + t ** 3 / 30 - y, y)

            z = float(mp.fsum(mp.exp(F(-e)) for e in (0, 1, 3)))
        assert fields["Z"] == pytest.approx(z, rel=1e-14)
        assert math.isfinite(fields["legendre_residual"])

    @pytest.mark.parametrize("flags", [
        ["--q", "1/2", "--beta", "1"],
        ["--q", "3/4", "--scale", "2", "--target-u", "0.4"],
    ], ids=["h' < 0 at t = 0", "h' < 0 at t = 0 at scale 2"])
    def test_a_stationarity_function_that_turns_near_p_1_is_rejected(self, capsys, tmp_path, flags):
        # h falls on t in (0, 0.204), inside the first gap (0, 0.548) of the samples evenly spaced
        # in t; the solve went on and printed a stationarity residual of 0.68, or U = 0.389 for 0.4
        path = tmp_path / "e.txt"
        path.write_text("0\n1\n3\n")
        code, out, err = run(capsys, "maxent", "--entropy", "s_iii", *flags, "--energies", str(path))
        assert is_usage_error(code, out, err)
        assert "not strictly monotone" in err

    @pytest.mark.parametrize("beta", ["-800", "-1e17"])
    @pytest.mark.parametrize("option", [[], ["--kb", "2"], ["--scale", "2"]], ids=["plain", "kb", "scale"])
    def test_bg_partition_value_past_the_largest_double_is_inf_without_a_warning(
            self, capsys, tmp_path, beta, option):
        # np.exp in BG's log inverse once printed an overflow RuntimeWarning on stderr
        path = tmp_path / "e.txt"
        path.write_text("0\n1\n3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "maxent", "--entropy", "bg", "--energies", str(path),
                                 f"--beta={beta}", *option)
        assert (code, err) == (0, "")
        assert maxent_fields(out)["Z"] == math.inf

    def test_tsallis_partition_value_past_the_largest_double_is_inf_without_a_warning(self, capsys, tmp_path):
        # the q-exponential's scalar power once printed an overflow RuntimeWarning on stderr
        path = tmp_path / "e.txt"
        path.write_text("-1e6\n0\n1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "maxent", "--entropy", "tsallis", "--q", "99/100", "--beta", "1",
                                 "--energies", str(path))
        assert (code, err) == (0, "")
        assert maxent_fields(out)["Z"] == math.inf

    def test_the_stationarity_residual_leaves_out_the_clamped_levels(self, capsys, tmp_path):
        # levels 0 and 1 clamp at 1e-15, their targets about 1e6 past h's range (39.8); counted, they
        # made the residual 9.9996e+05, while the one free level is solved to about 2e-15
        path = tmp_path / "e.txt"
        path.write_text("-1e6\n0\n1\n")
        code, out, err = run(capsys, "maxent", "--entropy", "tsallis", "--q", "99/100", "--beta", "1",
                             "--energies", str(path))
        assert (code, err) == (0, "")
        assert maxent_fields(out)["stationarity_residual"] <= 1e-14

    @pytest.mark.parametrize("flags", [
        ["--entropy", "bg"],
        ["--entropy", "tsallis", "--q", "1/2"],
        ["--entropy", "tsallis", "--q", "3/2"],
        ["--entropy", "kaniadakis", "--kappa", "1/3"],
        ["--entropy", "generic", "--a-sequence", "1,1/8,1/10"],
    ], ids=["bg", "tsallis 1/2", "tsallis 3/2", "kaniadakis", "generic"])
    def test_beta_times_energy_past_the_largest_double_prints_no_warning(self, capsys, tmp_path, flags):
        # beta E overflowed in the residual and in the partition value, with a RuntimeWarning each
        path = tmp_path / "e.txt"
        path.write_text("0\n1\n3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "maxent", *flags, "--energies", str(path), "--beta", "1e308")
        assert (code, err) == (0, "")
        # the residual is taken over the free levels, the ground level at 0 alone; it read inf when the
        # clamped levels' targets counted
        assert maxent_fields(out)["stationarity_residual"] <= 1e-15

    def test_scaled_bg_keeps_the_legendre_relation(self, capsys, tmp_path):
        # Log(x) = c ln x and E(y) = e^(y/c) carry the scale constant
        path = tmp_path / "e.txt"
        path.write_text("0\n1\n2\n3\n4\n5\n")
        code, out, err = run(
            capsys, "maxent", "--entropy", "bg", "--scale", "2", "--energies", str(path), "--beta", "1",
        )
        assert (code, err) == (0, "")
        fields = maxent_fields(out)
        assert fields["legendre_residual"] == 0.0
        assert fields["Z"] == pytest.approx(sum(math.exp(-e / 2) for e in range(6)), rel=1e-14)

    def test_requires_mode(self, capsys, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0\n1\n")
        code, _, err = run(
            capsys, "maxent", "--entropy", "bg", "--energies", str(path)
        )
        assert code == 2

    @pytest.mark.parametrize(
        "levels, flags, ground",
        [
            ("0\n1\n2\n", ["--entropy", "tsallis", "--q", "1/2", "--beta=-1e61"], 2),
            ("-5\n0\n5\n", ["--entropy", "bg", "--beta", "1e61"], 0),
            # beta E_0 = 1e310 is past the largest double, so alpha prints as -inf and the residual as nan
            ("1e300\n2e300\n3e300\n", ["--entropy", "bg", "--beta", "1e10"], 0),
        ],
        ids=["tsallis beta -1e61", "bg beta 1e61", "bg beta 1e10 at 1e300"],
    )
    def test_beta_energy_past_the_old_alpha_reach_is_solved(self, capsys, tmp_path, levels, flags, ground):
        # measured from the ground level, alpha always exists: the ground level at 1 - 2e-15 and the
        # others clamped at 1e-15.  In absolute energy, the alpha bracket was clipped to 2^200 and these
        # exited 2 with "no alpha normalizes the clamped levels"
        path = tmp_path / "e.txt"
        path.write_text(levels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "maxent", "--energies", str(path), *flags)
        assert (code, err) == (0, "")
        fields = maxent_fields(out)
        assert math.isinf(fields["alpha"]) == math.isnan(fields["stationarity_residual"])
        p = [float(line.split("\t")[2]) for line in out.splitlines()[-3:]]
        assert sum(p) == pytest.approx(1.0, abs=1e-15)
        assert p[ground] == pytest.approx(1 - 2e-15, abs=3e-16)
        assert [v for i, v in enumerate(p) if i != ground] == pytest.approx([1e-15] * 2, rel=1e-15)

    def test_target_energy_on_levels_spanning_past_the_largest_double(self, capsys, tmp_path):
        # E_max - E_min is inf: with x = (E - U*) / span every x was 0, and this exited 2 with "no beta
        # reaches the target energy 0.0 on the clamped levels", though beta = 0 meets it exactly
        path = tmp_path / "e.txt"
        path.write_text("-1e308\n1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "maxent", "--entropy", "bg", "--energies", str(path), "--target-u", "0")
        assert (code, err) == (0, "")
        assert maxent_fields(out)["beta"] == 0.0 and maxent_fields(out)["U"] == 0.0
        assert [float(line.split("\t")[2]) for line in out.splitlines()[-2:]] == [0.5, 0.5]

    @pytest.mark.parametrize(
        "levels, flags",
        [
            ("0\n1\n2\n", ["--entropy", "bg", "--target-u", "1e-300"]),
            # 1e-15 sum (E_i - E_min) = 5e-14 is the lowest mean energy on the clamped levels
            ("".join(f"{5 * i / 19!r}\n" for i in range(20)), ["--entropy", "bg", "--target-u", "4.9e-14"]),
        ],
        ids=["bg target-u 1e-300", "bg target-u 4.9e-14"],
    )
    def test_out_of_reach_of_the_clamped_levels(self, capsys, tmp_path, levels, flags):
        # p is clamped to [1e-15, 1 - 1e-15], so no beta reaches these
        path = tmp_path / "e.txt"
        path.write_text(levels)
        assert is_usage_error(*run(capsys, "maxent", "--energies", str(path), *flags))


class TestOccupation:
    def test_bg_table(self, capsys):
        code, out, _ = run(
            capsys, "occupation", "--entropy", "bg", "--nmax", "5"
        )
        assert code == 0
        rows = [
            l.split("\t") for l in out.splitlines() if l and not l.startswith("#")
        ]
        # first row is the validity line
        assert rows[0][1] == "True"
        n3 = rows[3]  # validity line, then N = 1, 2, 3
        assert float(n3[1]) == pytest.approx(3.0)

    def test_numeric_inverse_table_unchanged(self, capsys):
        # Borges-Roditi has no closed-form F, so every ln W comes from the numeric inverse;
        # each value is correctly rounded (checked against 50-digit roots in test_thermo)
        code, out, _ = run(
            capsys, "occupation", "--entropy", "borges_roditi", "--a", "1/2",
            "--b=-1/3", "--nmax", "4",
        )
        assert code == 0
        assert out == (
            "valid\tTrue\t-\n"
            "#N\tln_W\tW\tS\tresidual\n"
            "1\t9.0565845039500703e-01\t2.4735601035878703e+00"
            "\t9.9999999999999989e-01\t1.1102230246251565e-16\n"
            "2\t1.6211429249220810e+00\t5.0588689210466953e+00"
            "\t1.9999999999999998e+00\t2.2204460492503131e-16\n"
            "3\t2.1856015727743938e+00\t8.8959985345279442e+00"
            "\t3.0000000000000000e+00\t0.0000000000000000e+00\n"
            "4\t2.6423345811712613e+00\t1.4045956786626514e+01"
            "\t3.9999999999999996e+00\t4.4408920985006262e-16\n"
        )

    def test_W_is_inf_only_where_exp_overflows(self, capsys):
        # W was once printed as inf from N = 700 on, although e^709 fits in a double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "occupation", "--entropy", "bg", "--nmax", "712")
        assert (code, err) == (0, "")
        W = [float(line.split("\t")[2]) for line in out.splitlines()[2:]]
        assert W[698:] == [pytest.approx(math.exp(N), rel=1e-15) for N in range(699, 710)] + [math.inf] * 3

    def test_builds_the_occupation_law_once(self, capsys, monkeypatch):
        # the law and the extensivity rows take F from one solve
        from gentropy import catalog

        calls = []
        solve = catalog.BoltzmannGibbs._F

        def counting(self, s):
            calls.append(s)
            return solve(self, s)

        monkeypatch.setattr(catalog.BoltzmannGibbs, "_F", counting)
        code, _, _ = run(capsys, "occupation", "--entropy", "bg", "--nmax", "5")
        assert code == 0
        assert len(calls) == 1

    def test_invalid_law_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "occupation", "--entropy", "tsallis", "--q", "2", "--nmax", "5"
        )
        assert code == 1
        assert "False" in out

    def test_checks_the_whole_printed_range(self, capsys):
        # ln_q N is finite only below N = 1/(q-1) = 200
        code, out, _ = run(
            capsys, "occupation", "--entropy", "tsallis", "--q", "201/200", "--nmax", "300"
        )
        assert code == 1
        assert out == "valid\tFalse\tF not finite at N=200\n#N\tln_W\tW\tS\tresidual\n"

    def test_solves_each_ln_W_once(self, capsys, monkeypatch):
        from gentropy import catalog

        calls = []
        inverse = catalog._numeric_inverse

        def counting(G, dG, s, G_long):
            calls.append(s.tolist())
            return inverse(G, dG, s, G_long)

        monkeypatch.setattr(catalog, "_numeric_inverse", counting)
        code, _, _ = run(
            capsys, "occupation", "--entropy", "borges_roditi", "--a", "1/2",
            "--b=-1/3", "--nmax", "150",
        )
        assert code == 0
        assert calls == [[float(N) for N in range(151)]]

    @pytest.mark.parametrize("flags", [["bg"], ["tsallis", "--q", "1/2"], ["borges_roditi", "--a", "1/2", "--b=-1/3"]],
                             ids=["bg", "tsallis", "borges_roditi"])
    def test_kb_scales_the_entropy_not_the_law(self, capsys, flags):
        # W(N) = exp(F(N)), so S(W(N)) = kB N; the law once solved F(N / kB), and residuals grew as N
        code, out, _ = run(capsys, "occupation", "--entropy", *flags, "--kb", "2", "--nmax", "50")
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[2:]]
        assert [int(r[0]) for r in rows] == list(range(1, 51))
        for N, lw, W, S, resid in rows:
            assert float(S) == pytest.approx(2 * int(N), rel=1e-12)
            assert float(resid) <= 1e-9 * int(N)
        _, one, _ = run(capsys, "occupation", "--entropy", *flags, "--nmax", "50")
        assert [r[1] for r in rows] == [line.split("\t")[1] for line in one.splitlines()[2:]]


class TestScan:
    def test_three_specs(self, capsys):
        code, out, _ = run(
            capsys, "scan",
            "--spec", "bg",
            "--spec", "tsallis:q=1/2",
            "--spec", "s_delta:delta=2",
            "--wmax", "1e12",
        )
        assert code == 0
        rows = [
            l.split("\t") for l in out.splitlines() if not l.startswith("#")
        ]
        by = {r[0]: (r[1], float(r[2])) for r in rows}
        assert by["bg"][0] == "(ln W)^a"
        assert by["tsallis:q=1/2"][1] == pytest.approx(0.5, abs=0.02)
        assert by["s_delta:delta=2"][1] == pytest.approx(2.0, abs=0.02)

    def test_bad_spec_string(self, capsys):
        code, _, err = run(capsys, "scan", "--spec", "tsallis:oops")
        assert code == 2

    def test_a_repeated_parameter_is_a_usage_error(self, capsys):
        # the second q once overwrote the first under the whole label
        code, out, err = run(capsys, "scan", "--spec", "tsallis:q=1/2,q=1/3")
        assert is_usage_error(code, out, err)
        assert "q given twice" in err

    @pytest.mark.parametrize("spec", ["s_iii:q=3/2", "generic:a=1,-1"])
    def test_entropy_that_is_not_positive_is_a_usage_error(self, capsys, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "scan", "--spec", "bg", "--spec", spec)
        assert is_usage_error(code, out, err)
        assert spec in err

    @pytest.mark.parametrize("points", ["1", "2", "3", "4"])
    def test_too_few_points_to_fit_is_a_usage_error(self, capsys, points):
        # below five points the fitted top half holds one or two, which both lines fit
        # exactly, so the fit cannot tell (ln W)^a from W^b
        code, out, err = run(capsys, "scan", "--spec", "bg", "--points", points)
        assert is_usage_error(code, out, err)
        assert "five points" in err

    def test_five_points_tell_the_families_apart(self, capsys):
        code, out, _ = run(capsys, "scan", "--spec", "bg", "--spec", "tsallis:q=1/2", "--points", "5")
        assert code == 0
        rows = [l.split("\t") for l in out.splitlines() if not l.startswith("#")]
        assert [(r[1], round(float(r[2]), 2)) for r in rows] == [("(ln W)^a", 1.0), ("W^b", 0.5)]


class TestUniformPastWhatAnArrayHolds:
    """A uniform W that no float array holds exits 2 with one 'error:' line naming W."""

    @pytest.mark.parametrize("W", ["99999999999999999999", "1" + "0" * 400], ids=["10**20-1", "10**400"])
    def test_eval(self, capsys, W):
        # numpy refuses 10**20 states before allocating; 1.0 / 10**400 overflows the int's conversion
        code, out, err = run(capsys, "eval", "--entropy", "bg", "--dist", f"uniform:{W}")
        assert is_usage_error(code, out, err)
        assert f"W = {W} states" in err

    def test_memory(self, capsys, monkeypatch):
        full = np.full

        def refused(shape, *args, **kwargs):
            if shape >= 10 ** 9:
                raise MemoryError(f"cannot allocate {shape} doubles")
            return full(shape, *args, **kwargs)

        monkeypatch.setattr(np, "full", refused)
        code, out, err = run(capsys, "check", "--entropy", "bg", "--axiom", "weak-composability",
                             "--wa", "99999999999", "--wb", "99999999999")
        assert is_usage_error(code, out, err)
        assert "W = 99999999999 states" in err


class TestScaleWithNoDoubleWeights:
    """A scale constant whose h' weights, about c^2 r^2 / sigma, pass the largest double exits 2 with one
    'error:' line naming it; it once ended in an OverflowError traceback."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--entropy", "tsallis", "--q", "1/2", "--dist", "uniform:3"],
        ["occupation", "--entropy", "kaniadakis", "--kappa", "1/3"],
        ["check", "--entropy", "s_iii", "--q", "4/5", "--axiom", "sk2"],
        ["maxent", "--entropy", "borges_roditi", "--a", "1/2", "--b=-1/3", "--beta", "1"],
        ["scan", "--spec", "s_iv:q=9/10"],
    ], ids=lambda argv: argv[0])
    def test_float_subcommands_exit_two(self, capsys, tmp_path, argv):
        if argv[0] == "maxent":
            path = tmp_path / "e.txt"
            path.write_text("0\n1\n3\n")
            argv = [*argv, "--energies", str(path)]
        code, out, err = run(capsys, *argv, "--scale", "1e300")
        assert is_usage_error(code, out, err)
        assert "scale constant 1e+300 " in err

    def test_expand_needs_no_float_table(self, capsys):
        code, out, err = run(capsys, "expand", "--entropy", "tsallis", "--q", "1/2", "--scale", "1e300",
                             "--count", "2")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["1\t" + str(10 ** 300), "2\t" + str(10 ** 600 // 4)]


class TestUsageErrors:
    """Bad values exit 2 with one 'error:' line, no stdout and no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--entropy", "bg", "--dist", "uniform:0"],
            ["check", "--entropy", "bg", "--axiom", "sk2", "--states", "0"],
            ["check", "--entropy", "bg", "--axiom", "weak-composability", "--wa", "0"],
            # zero trials once skipped the width check and printed inconclusive
            ["check", "--entropy", "bg", "--axiom", "strict-composability", "--wa", "-3", "--wb", "0",
             "--trials", "0"],
            ["check", "--entropy", "bg", "--axiom", "strict-composability", "--wb", "0", "--trials", "0"],
            ["eval", "--entropy", "bg", "--dist", "uniform:4", "--digits", "0"],
            ["eval", "--entropy", "bg", "--dist", "uniform:4", "--digits", "-2"],
            ["expand", "--entropy", "bg", "--count", "-1"],
            ["occupation", "--entropy", "bg", "--nmax", "-1"],
        ],
    )
    def test_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--spec", "tsallis:q=1/2,zz=3"],
            ["scan", "--spec", "s_cd:c=1/2,d=x"],
            ["scan", "--spec", "generic:a_sequence=1"],
            ["check", "--entropy", "bg", "--axiom", "sk2", "--trials", "-1"],
        ],
    )
    def test_unknown_or_malformed_input_exits_two(self, capsys, argv):
        assert is_usage_error(*run(capsys, *argv))

    @pytest.mark.parametrize(
        "argv",
        [
            # each once exited 0 or failed with an unrelated message
            ["expand", "--entropy", "s_iii", "--q", "4/5", "--order", "-3"],
            ["check", "--entropy", "s_iii", "--q", "4/5", "--order", "-1",
             "--axiom", "concavity-condition"],
            ["group-law", "--entropy", "tsallis", "--q", "1/2", "--order", "-1"],
            ["scan", "--spec", "bg", "--order=-2"],
        ],
    )
    def test_negative_order_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--order" in errors[0] and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--entropy", "borges_roditi", "--a", "1/2", "--b", "1/2", "--dist", "uniform:4"],
            ["group-law", "--entropy", "borges_roditi", "--a", "1/2", "--b", "1/2"],
        ],
        ids=["eval", "group-law"],
    )
    def test_borges_roditi_refuses_equal_parameters(self, capsys, argv):
        # a = b is the confluent limit G(t) = t e^(at), not a sum of distinct rates
        code, out, err = run(capsys, *argv)
        assert is_usage_error(code, out, err)
        assert err == "error: Borges-Roditi needs distinct parameters a != b\n"

    def test_order_zero_keeps_its_behaviour(self, capsys):
        code, out, err = run(capsys, "expand", "--entropy", "s_iii", "--q", "4/5", "--order", "0",
                             "--count", "2")
        assert (code, out) == (2, "") and "unrecognized arguments: --order 0" in err
        code, out, _ = run(capsys, "check", "--entropy", "s_iii", "--q", "4/5", "--order", "0",
                           "--axiom", "concavity-condition")
        assert code == 0 and out.splitlines()[1].split("\t")[1] == "inconclusive"
        for spec in (["--entropy", "tsallis", "--q", "1/2"], ["--series", "1"]):
            code, out, err = run(capsys, "group-law", *spec, "--order", "0")
            assert is_usage_error(code, out, err) and "needs --order >= 1" in err

    def test_zero_trials_on_all_axioms_is_inconclusive(self, capsys):
        code, out, _ = run(
            capsys, "check", "--entropy", "bg", "--axiom", "all", "--trials", "0",
        )
        assert code == 0
        verdicts = dict(line.split("\t")[:2] for line in out.splitlines()[1:])
        assert verdicts["sk2-maximum"] == "inconclusive"
        assert verdicts["strict-composability"] == "inconclusive"

    def test_zero_trials_is_inconclusive(self, capsys):
        code, out, _ = run(
            capsys, "check", "--entropy", "bg", "--axiom", "strict-composability",
            "--trials", "0",
        )
        assert code == 0
        row = out.splitlines()[1].split("\t")
        assert row[:2] == ["strict-composability", "inconclusive"]


SHARED_FLAGS = ("--kb", "--scale", "--order", "--digits")
# Each subcommand's command line, and the shared flags it declares, each with a
# value that changes its stdout; a flag may name its own command line.
FLAG_TABLE = {
    "eval": (["eval", "--entropy", "tsallis", "--q", "1/2", "--dist", "uniform:4"],
             {"--kb": "2", "--scale": "2", "--digits": "3"}),
    "expand": (["expand", "--entropy", "bg", "--count", "3"], {"--scale": "2"}),
    "group-law": (["group-law", "--entropy", "kaniadakis", "--kappa", "1/2"],
                  {"--scale": "2", "--order": "3"}),  # --scale: its one-line usage error
    "check": (["check", "--entropy", "s_iii", "--q", "4/5", "--axiom", "strict-composability",
               "--trials", "5"],
              {"--kb": "2", "--scale": "2", "--digits": "3",
               "--order": ("1", ["check", "--entropy", "bg", "--axiom", "concavity-condition"])}),
    "maxent": (["maxent", "--entropy", "bg", "--beta", "1", "--energies", "levels:4"],
               {"--kb": "2", "--scale": "2", "--digits": "3"}),
    "occupation": (["occupation", "--entropy", "tsallis", "--q", "1/2", "--nmax", "3"],
                   {"--kb": "2", "--scale": "2", "--digits": "3"}),
    "scan": (["scan", "--spec", "tsallis:q=1/2", "--points", "7"], {"--scale": "2", "--digits": "3"}),
    "catalog": (["catalog"], {}),
}


@pytest.mark.parametrize("command", list(FLAG_TABLE))
@pytest.mark.parametrize("flag", SHARED_FLAGS)
def test_shared_flag_table(levels, command, flag):
    argv, declared = FLAG_TABLE[command]
    argv = [levels[int(a[7:])] if a.startswith("levels:") else a for a in argv]
    if flag not in declared:
        code, out, err = run_quiet([*argv, flag, "2"])
        assert (code, out) == (2, "") and f"unrecognized arguments: {flag} 2" in err
        return
    value, argv = declared[flag] if isinstance(declared[flag], tuple) else (declared[flag], argv)
    code, out, err = run_quiet([*argv, flag, value])
    if (command, flag) == ("group-law", "--scale"):
        assert is_usage_error(code, out, err) and "does not take --scale" in err
        return
    before = run_quiet(argv)
    assert code == before[0] and code in (0, 1) and err == before[2] == ""
    assert out != before[1]


class TestCatalogCommand:
    def test_lists_all_kinds(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        for kind in ("bg", "tsallis", "s_cd", "s_alpha_beta_q", "generic"):
            assert any(line.startswith(kind + "\t") for line in out.splitlines())


# one valid value per parameter flag, whichever kind takes it
VALUES = {
    "--q": "1/2", "--kappa": "1/2", "--a": "1/2", "--b": "-1/3", "--c": "1/2",
    "--d": "2", "--sigma": "1/5", "--coeffs": "1:1,-1:-2,-2:1", "--alpha": "1",
    "--beta-param": "1/8", "--delta": "2", "--a-sequence": "1,-1/2,1/3",
}
ALL_FLAGS = {param.flag for kind in KINDS.values() for param in kind.params}


def spec_flags(kind):
    return [f"{param.flag}={VALUES[param.flag]}" for param in KINDS[kind].params]


@pytest.mark.parametrize("kind", list(KINDS))
class TestRegistry:
    """Every kind in the registry, through its flags and through a scan spec."""

    def eval(self, capsys, kind, *flags):
        return run(capsys, "eval", "--entropy", kind, *flags, "--dist", "uniform:4")

    def test_its_parameters_suffice(self, capsys, kind):
        code, out, err = self.eval(capsys, kind, *spec_flags(kind))
        assert (code, err) == (0, "")
        assert math.isfinite(float(out))

    def test_each_parameter_is_required(self, capsys, kind):
        flags = spec_flags(kind)
        for i, param in enumerate(KINDS[kind].params):
            code, out, err = self.eval(capsys, kind, *flags[:i], *flags[i + 1:])
            assert is_usage_error(code, out, err)
            assert param.flag in err

    def test_other_kinds_parameters_are_rejected(self, capsys, kind):
        own = {param.flag for param in KINDS[kind].params}
        for flag in sorted(ALL_FLAGS - own):
            code, out, err = self.eval(capsys, kind, *spec_flags(kind), f"{flag}={VALUES[flag]}")
            assert is_usage_error(code, out, err)
            assert flag in err

    def test_scale_needs_a_group_exponential(self, capsys, kind):
        code, out, err = self.eval(capsys, kind, *spec_flags(kind), "--scale", "2")
        if KINDS[kind].cls.has_exponential:
            assert (code, err) == (0, "")
        else:
            assert is_usage_error(code, out, err)

    def test_array_F_is_scalar_F_bit_for_bit(self, kind):
        args = build_parser().parse_args(["eval", "--entropy", kind, *spec_flags(kind), "--dist", "-"])
        spec = build_entropy(args)
        if not spec.has_exponential:
            return
        s = np.linspace(0.0, 40.0, 161)
        assert spec.F(s).tobytes() == np.array([spec.F(v) for v in s.tolist()]).tobytes()

    def test_scan_spec_builds_what_the_flags_build(self, capsys, kind):
        pairs = [f"{param.name}={VALUES[param.flag]}" for param in KINDS[kind].params]
        spec = f"{kind}:{','.join(pairs)}" if pairs else kind
        code, out, err = run(capsys, "scan", "--spec", spec, "--points", "7")
        assert (code, err) == (0, "")
        args = build_parser().parse_args(["eval", "--entropy", kind, *spec_flags(kind), "--dist", "-"])
        rows = thermo.asymptotic_scan({spec: build_entropy(args)}, points=7)
        assert out == "#spec\tfamily\texponent\n" + "".join(
            tsv_line(r.label, r.family, r.exponent) + "\n" for r in rows
        )


def test_catalog_lists_the_registry(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert [line.split("\t")[0] for line in out.splitlines()[1:]] == list(KINDS)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--entropy", "bg", "--dist", "uniform:4"],
        ["scan", "--spec", "bg", "--points", "3"],  # an append flag starts empty each time
        ["check", "--entropy", "bg"],
        ["eval", "--help"],
    ],
)
def test_main_calls_share_one_parser(capsys, argv):
    assert build_parser() is build_parser()
    assert run(capsys, *argv) == run(capsys, *argv)


# every kind, and for kinds with q both sides of q = 1
CONTRACT_CASES = [
    (kind, q)
    for kind, spec in KINDS.items()
    for q in (("1/2", "3/2") if any(p.flag == "--q" for p in spec.params) else (None,))
]


@pytest.mark.parametrize(
    "kind, q", CONTRACT_CASES, ids=[kind + (f" q={q}" if q else "") for kind, q in CONTRACT_CASES]
)
def test_solvers_keep_the_exit_code_contract(capsys, tmp_path, kind, q):
    levels = tmp_path / "e.txt"
    levels.write_text("0\n1\n2\n3\n4\n5\n")
    flags = [
        f"{p.flag}={q if p.flag == '--q' else VALUES[p.flag]}" for p in KINDS[kind].params
    ]
    for command in (
        ["maxent", "--energies", str(levels), "--beta", "1"],
        ["maxent", "--energies", str(levels), "--target-u", "1.5"],
        ["occupation", "--nmax", "20"],
    ):
        code, _, err = run(capsys, *command, "--entropy", kind, *flags)
        assert code in (0, 1, 2), command
        assert "Traceback" not in err, command


@pytest.mark.parametrize("argv, exit_code", [
    (["eval", "--entropy", "tsallis", "--q", "1/2", "--dist", "uniform:3", "--scale", "1e150"], 0),
    (["eval", "--entropy", "tsallis", "--q", "1/2", "--dist", "uniform:3", "--scale", "1.8e154"], 0),
    (["eval", "--entropy", "kaniadakis", "--kappa", "1/2", "--dist", "uniform:3", "--scale", "1.8e154"], 0),
    (["eval", "--entropy", "generic", "--a-sequence", "1,1/8,1/10", "--dist", "uniform:3", "--scale", "1e150"], 0),
    (["check", "--entropy", "tsallis", "--q", "1/2", "--scale", "1e150", "--axiom", "all"], 1),
    (["scan", "--spec", "tsallis:q=1/2", "--scale", "1e150"], 2),
    (["maxent", "--entropy", "tsallis", "--q", "1/2", "--scale", "1e150", "--beta", "1", "--energies", "levels:4"], 2),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_values_past_the_largest_double_print_no_floating_point_warning(capsys, levels, argv, exit_code):
    # numpy's overflow and invalid-value RuntimeWarnings once reached stderr next to the inf or nan printed
    argv = [levels[int(a[7:])] if a.startswith("levels:") else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = run(capsys, *argv)  # the command's exit code and stdout with its warnings dropped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out) == reference[:2] and code == exit_code
    assert err == "" if code < 2 else is_usage_error(code, out, err)


# -- the exit-code contract under generated command lines --------------------
# Every subcommand, every kind, good and bad parameter literals and the
# shared flags, at sizes small enough to keep each command cheap.

LITERALS = ("1/2", "3/2", "1", "0", "-1", "1/0", "abc", "1e400", "nan")
SPEC_COMMANDS = ("eval", "expand", "group-law", "check", "maxent", "occupation")


@pytest.fixture(scope="module")
def levels(tmp_path_factory):
    """Energy files of 3 to 6 levels, keyed by level count."""
    out = {}
    for n in range(3, 7):
        path = tmp_path_factory.mktemp("levels") / f"levels{n}.txt"
        path.write_text("".join(f"{e}\n" for e in range(n)))
        out[n] = str(path)
    return out


def literal(good):
    """A good value half the time, else one of LITERALS."""
    return st.one_of(st.just(good), st.sampled_from(LITERALS))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(SPEC_COMMANDS + ("scan", "catalog")))
    kind = draw(st.sampled_from(list(KINDS)))
    values = {p.flag: draw(literal(VALUES[p.flag])) for p in KINDS[kind].params}
    shared = [f"{flag}={draw(literal(good))}"
              for flag, good in (("--kb", "2"), ("--scale", "2"), ("--digits", "6")) if draw(st.booleans())]
    if command == "catalog":
        return ["catalog"] + [f for f in shared if f.startswith("--digits")]
    if command == "scan":
        pairs = ",".join(f"{p.name}={values[p.flag]}" for p in KINDS[kind].params)
        return ["scan", "--spec", f"{kind}:{pairs}" if pairs else kind, *shared,
                "--points", draw(st.integers(0, 7).map(str)),
                f"--wmax={draw(st.sampled_from(('1e12', '100', '1', '-1', 'nan', '1e400')))}"]
    argv = [command, "--entropy", kind, *(f"{flag}={v}" for flag, v in values.items()), *shared]
    cheap = st.integers(-1, 20).map(str)
    if command == "eval":
        argv += ["--dist", f"uniform:{draw(st.integers(0, 6))}"]
    elif command == "expand":
        argv += ["--count", draw(st.integers(0, 8).map(str))]
    elif command in ("group-law", "check"):
        argv += ["--order", draw(st.integers(-3, 6).map(str))]
    if command == "check":
        argv += ["--axiom", draw(st.sampled_from(list(AXIOMS))), "--trials", draw(cheap)]
        for flag in ("--states", "--wa", "--wb"):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(st.integers(-1, 6))}")
        if draw(st.booleans()):
            argv.append(f"--perturbation={draw(st.sampled_from(('1e-4', '0', '-1', 'nan')))}")
    elif command == "maxent":
        mode = draw(st.sampled_from(("--beta", "--target-u")))
        value = draw(st.sampled_from(("1", "1.5", "0.3", "-1", "nan", "1e400", "-1e61", "1e-300")))
        argv += ["--energies", f"levels:{draw(st.integers(3, 6))}", f"{mode}={value}"]
    elif command == "occupation":
        argv += ["--nmax", draw(cheap)]
    return argv


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=command_lines())
# inputs that once escaped main with a traceback
@example(argv=["eval", "--entropy", "bg", "--scale=1e400", "--dist", "uniform:1"])
@example(argv=["eval", "--entropy", "tsallis", "--q=1e400", "--dist", "uniform:2"])
@example(argv=["eval", "--entropy", "s_delta", "--delta=1e400", "--dist", "uniform:2"])
@example(argv=["eval", "--entropy", "generic", "--a-sequence=1e400", "--dist", "uniform:2"])
@example(argv=["maxent", "--entropy", "bg", "--energies", "levels:3", "--beta=nan"])
@example(argv=["maxent", "--entropy", "bg", "--kb=nan", "--energies", "levels:3", "--beta=1"])
@example(argv=["check", "--entropy", "bg", "--axiom", "lesche", "--trials", "3", "--states=1"])
@example(argv=["check", "--entropy", "bg", "--axiom", "lesche", "--trials", "3", "--perturbation=-1"])
@example(argv=["check", "--entropy", "bg", "--axiom", "sk2", "--trials", "3", "--states=-1"])
@example(argv=["check", "--entropy", "bg", "--axiom", "strict-composability", "--trials", "3", "--wa=-1"])
@example(argv=["scan", "--spec", "bg", "--points", "0", "--wmax=1e12"])
@example(argv=["scan", "--spec", "bg", "--points", "7", "--wmax=1"])
@example(argv=["maxent", "--entropy", "tsallis", "--q=1/2", "--energies", "levels:3", "--beta=-1e61"])
@example(argv=["maxent", "--entropy", "bg", "--energies", "levels:3", "--target-u=1e-300"])
# once a vacuous pass: admissibility was checked only up to N = 100
@example(argv=["occupation", "--entropy", "tsallis", "--q=201/200", "--nmax", "300"])
# once a nan exponent with exit 0: S(uniform W) is negative on the fitted grid
@example(argv=["scan", "--spec", "s_iii:q=3/2"])
@example(argv=["scan", "--spec", "generic:a=1,-1"])
# once exit 0: expand ignored a negative --order
@example(argv=["expand", "--entropy", "bg", "--order", "-3"])
def test_cli_keeps_the_exit_code_contract(levels, argv):
    argv = [levels[int(a[7:])] if a.startswith("levels:") else a for a in argv]
    code, out, err = run_quiet(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if "--order" in argv and int(argv[argv.index("--order") + 1]) < 0:
        assert code == 2 and "--order" in err
    if code == 2:
        assert out == ""
        assert "error:" in err
    if code == 1:
        assert any(line and not line.startswith("#") for line in out.splitlines())


# -- the exit-code contract on distribution files -----------------------------
# A few good lines summing to 1, with bad, huge, commented and blank lines
# mixed in.

BAD_LINES = ("nan", "inf", "-inf", "1e400", "-0.25", "-1/4", "1/0", "0/0", "quarter",
             "1 /4", "1/4/1", "1" + "0" * 400 + "/1", "1/1" + "0" * 400, "1" * 5000 + "/1",
             "# comment", "", "   ", "0.25  # inline")


@st.composite
def distribution_lines(draw):
    n = draw(st.integers(1, 5))
    lines = [draw(st.sampled_from((f"1/{n}", repr(1 / n)))) for _ in range(n)]
    for bad in draw(st.lists(st.sampled_from(BAD_LINES), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


@pytest.fixture(scope="module")
def dist_path(tmp_path_factory):
    return tmp_path_factory.mktemp("dists") / "dist.txt"


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=distribution_lines())
# once an OverflowError traceback: the ratio is too large for a float
@example(lines=["1" + "0" * 400 + "/1"])
def test_distribution_files_keep_the_exit_code_contract(dist_path, lines):
    dist_path.write_text("\n".join(lines) + "\n")
    for argv in (["eval", "--entropy", "bg", "--dist", str(dist_path)],
                 ["check", "--entropy", "bg", "--axiom", "sk3", "--dist", str(dist_path)]):
        code, out, err = run_quiet(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert is_usage_error(code, out, err), argv
