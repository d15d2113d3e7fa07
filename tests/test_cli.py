import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import add_T1_to_e1
from cyclohecke import center, cli, hecke, ktheory, suites
from cyclohecke.hecke import EngineError
from cyclohecke.linalg import kernel_basis
from cyclohecke.cli import (
    UsageError,
    build_domain_and_values,
    main,
    parse_scalar,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "testdata" / "tables"


class TestScalarLiterals:
    def test_rationals(self):
        assert parse_scalar("3/2") == ("rational", Fraction(3, 2))
        assert parse_scalar("-1") == ("rational", Fraction(-1))
        assert parse_scalar("2") == ("rational", Fraction(2))

    def test_zeta(self):
        assert parse_scalar("zeta_6^2") == ("zeta", 6, 2)
        assert parse_scalar("zeta_3") == ("zeta", 3, 1)

    def test_generic(self):
        assert parse_scalar("generic") == ("generic",)

    def test_malformed(self):
        with pytest.raises(UsageError):
            parse_scalar("q+1")
        with pytest.raises(UsageError):
            parse_scalar("1/0")

    def test_mixed_orders_rejected(self):
        with pytest.raises(UsageError):
            build_domain_and_values(("zeta", 3, 1), [("zeta", 4, 1)])

    def test_rationals_embed_alongside_zeta(self):
        domain, q_val, Q_vals = build_domain_and_values(
            ("zeta", 3, 1), [("rational", Fraction(1))])
        assert domain.order == 3
        assert Q_vals == [domain.one]


class TestCommands:
    def test_verify_main_single_pair(self, capsys):
        code = main(["verify-main", "--n", "3", "--r", "2"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out.strip())
        assert report["status"] == "pass"
        assert report["params"]["rows"] == 10

    def test_blocks_command(self, capsys):
        code = main(["blocks", "--n", "3", "--r", "1", "--ell", "2",
                     "--charge", "0"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out.strip())
        assert report["params"]["blocks"] == 2

    def test_center_command(self, capsys):
        code = main(["center", "--n", "2", "--r", "1",
                     "--q", "-1", "--Q", "1"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out.strip())
        assert report["params"]["results"][0]["dim_center"] == 2

    def test_q1_gap_command(self, capsys):
        code = main(["q1-gap", "--n", "2", "--r", "2", "--Q", "2,5"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out.strip())
        assert report["params"]["invariant_dim"] == 3

    def test_hilb_command(self, capsys):
        code = main(["hilb", "--n", "2", "--q-values", "2,-1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report["status"] == "pass"

    def test_hilb_labels(self, capsys):
        # a root of unity without a power is labelled with power 1
        code = main(["hilb", "--n", "2",
                     "--q-values", "2,-1/2,zeta_3,zeta_4^-1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert [res["q"] for res in report["params"]["results"]] == \
            ["2", "-1/2", "zeta_3^1", "zeta_4^-1"]

    def test_dims_command(self, capsys):
        code = main(["dims", "--n", "2", "--r", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report["params"]["expected"] == 8
        assert report["params"]["multipartitions"] == 5

    def test_table_csv_matches_golden(self, capsys):
        code = main(["--format", "csv", "table", "--n", "2", "--r", "2"])
        out = capsys.readouterr().out
        assert code == 0
        golden = (GOLDEN_DIR / "restriction-n2-r2.csv").read_text()
        assert out == golden

    def test_table_to_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code = main(["--format", "csv", "table", "--n", "1", "--r", "1",
                     "--out", str(target)])
        assert code == 0
        assert target.read_text().startswith("multipartition,e1,det_inv")

    def test_pairing_command(self, capsys):
        code = main(["--samples", "1", "pairing", "--n", "2", "--r", "1"])
        assert code == 0


class TestNoAlgebraProduct:
    """No command multiplies or inverts algebra elements, not even in the
    build gate: with AlgebraContext.multiply and .invert refusing from
    before the first context is built, each command exits 0 with the stdout
    of an unpatched run."""

    @pytest.mark.parametrize("argv", [
        ["hilb", "--n", "3", "--q-values", "2,-1,zeta_3"],
        ["center", "--n", "2", "--r", "2", "--q", "3", "--Q", "2,5"],
        ["--samples", "1", "center", "--n", "2", "--r", "2",
         "--q", "generic", "--Q", "generic,generic"],
        ["blocks", "--n", "3", "--r", "2", "--ell", "3", "--charge", "0,1"],
        ["--samples", "1", "pairing", "--n", "2", "--r", "2"],
        ["q1-gap", "--n", "2", "--r", "2", "--Q", "2,5"],
        ["dims", "--n", "2", "--r", "2"],
        ["--format", "csv", "table", "--n", "2", "--r", "2"],
        ["verify-main", "--n", "3", "--r", "2"],
    ], ids=["hilb", "center", "center-generic", "blocks", "pairing",
            "q1-gap", "dims", "table", "verify-main"])
    def test_command_does_not_multiply(self, monkeypatch, capsys, argv):
        assert main(argv) == 0
        expected = capsys.readouterr().out

        def refuse(self, *elements):
            raise AssertionError("algebra product or inverse")

        monkeypatch.setattr(hecke.AlgebraContext, "multiply", refuse)
        monkeypatch.setattr(hecke.AlgebraContext, "invert", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


class TestReach:
    """Sizes at and past PBW dimension 48, reached through the JM-span
    early stop and, at roots of unity, integer cyclotomic arithmetic:
    (3,2) has dimension 48, (5,1) 120 and (4,2) 384."""

    def test_hilb_n5(self, capsys):
        code = main(["hilb", "--n", "5", "--q-values", "2,-1,zeta_3^1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"
        assert [(res["q"], res["dim_center"], res["dim_jm_center"])
                for res in report["params"]["results"]] == [
            ("2", 7, 7), ("-1", 7, 7), ("zeta_3^1", 7, 7)]

    def test_center_n4_r2(self, capsys):
        code = main(["center", "--n", "4", "--r", "2",
                     "--q", "3", "--Q", "2,5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"
        (res,) = report["params"]["results"]
        assert (res["dim_center"], res["dim_jm_center"]) == (20, 20)
        assert res["jm_span_capped"] is False

    def test_hilb_n5_at_zeta_5(self, capsys):
        code = main(["hilb", "--n", "5", "--q-values", "zeta_5^1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"
        (res,) = report["params"]["results"]
        assert (res["dim_center"], res["dim_jm_center"]) == (7, 7)

    def test_blocks_n3_r2_ell3(self, capsys):
        code = main(["blocks", "--n", "3", "--r", "2", "--ell", "3",
                     "--charge", "0,1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"
        params = report["params"]
        assert params["blocks"] == params["classes"] == 3
        assert sorted(b["class_size"] for b in params["per_block"]) == \
            [1, 1, 8]


def test_python_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "cyclohecke", "dims", "--n", "2", "--r", "2"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    report = json.loads(line)
    assert report["check"] == "pbw_dimension"
    assert report["status"] == "pass"


class TestExitCodes:
    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_removed_trials_option_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--trials", "5", "pairing", "--n", "2", "--r", "1"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_literal_is_usage_error(self, capsys):
        code = main(["center", "--n", "2", "--r", "1",
                     "--q", "nope", "--Q", "1"])
        assert code == 2

    def test_bad_charge_length(self, capsys):
        code = main(["blocks", "--n", "2", "--r", "2", "--ell", "2",
                     "--charge", "0"])
        assert code == 2

    def test_ell_below_two(self, capsys):
        code = main(["blocks", "--n", "2", "--r", "1", "--ell", "1",
                     "--charge", "0"])
        assert code == 2

    def test_hilb_rejects_q_one(self, capsys):
        code = main(["hilb", "--n", "2", "--q-values", "1"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        "center --n 2 --r 1 --q 0 --Q 1",
        "center --n 2 --r 1 --q 2 --Q 0",
        "center --n 0 --r 1 --q 2 --Q 1",
        "dims --n 2 --r 0",
        "pairing --n 2 --r 0",
        "q1-gap --n 2 --r 2 --Q 2,2",
        "q1-gap --n 2 --r 2 --Q 0,2",
        "hilb --n 2 --q-values zeta_1",
        "hilb --n 2 --q-values 0",
        "verify-main --n 2 --r 0",
        "verify-main --r 2",
        "--samples 0 pairing --n 2 --r 1",
        "--samples 0 center --n 2 --r 1 --q generic --Q generic",
        "verify-main --budget 0",
        "verify-main --n 2 --budget 50",
        "table --n 2 --r 2 --out {tmp}/missing/x.csv",
        "--format csv verify-main --n 2 --r 1",
        "--format csv hilb --n 2 --q-values 2",
        "--format csv blocks --n 2 --r 1 --ell 2 --charge 0",
        "--format csv q1-gap --n 2 --r 1",
        "--format csv pairing --n 2 --r 1",
        "--format csv center --n 2 --r 1 --q 2 --Q 1",
        "--format csv dims --n 2 --r 2",
        "--format table table --n 2 --r 2",
    ])
    def test_invalid_parameters_are_usage_errors(self, argv, tmp_path,
                                                 capsys):
        args = [a.format(tmp=tmp_path) for a in argv.split()]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestNegativeLiterals:
    @pytest.mark.parametrize("spaced, joined", [
        ("center --n 2 --r 1 --q -1/2 --Q 1",
         "center --n 2 --r 1 --q=-1/2 --Q 1"),
        ("center --n 2 --r 2 --q 2 --Q -3/2,5",
         "center --n 2 --r 2 --q 2 --Q=-3/2,5"),
        ("hilb --n 2 --q-values -1,2", "hilb --n 2 --q-values=-1,2"),
        ("q1-gap --n 2 --r 2 --Q -1,2", "q1-gap --n 2 --r 2 --Q=-1,2"),
    ])
    def test_value_may_start_with_a_minus(self, spaced, joined, capsys):
        """A negative literal after its flag is a value, as in --flag=-x."""
        assert main(spaced.split()) == 0
        out = capsys.readouterr().out
        assert main(joined.split()) == 0
        assert capsys.readouterr().out == out

    def test_non_numeric_value_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["center", "--n", "2", "--r", "1", "--q", "2", "--Q", "-x"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


_CLI_TEXT_CASES = {
    "help": ["-h"],
    **{f"help-{name}": [name, "-h"] for name in [
        "verify-main", "hilb", "blocks", "q1-gap", "pairing", "center",
        "table", "dims"]},
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "missing-required": ["blocks", "--n", "3"],
    "bad-int": ["dims", "--n", "x", "--r", "1"],
    "unknown-option": ["dims", "--n", "1", "--r", "1", "--bogus"],
    "trials": ["--trials", "5", "pairing", "--n", "2", "--r", "1"],
}


def _cli_text(argv, capsys):
    """Exit code, stdout and stderr of one parse-level invocation, in the
    layout of testdata/cli/*.txt; an intended change to the help or usage
    text rewrites those files from this function."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return (f"exit {code}\n--- stdout\n{captured.out}"
            f"--- stderr\n{captured.err}")


class TestParserText:
    """Help, usage errors and exit codes are the parser's interface; they
    stay byte-identical to testdata/cli/ at a fixed terminal width."""

    @pytest.mark.parametrize("name", sorted(_CLI_TEXT_CASES))
    def test_text_matches_golden(self, monkeypatch, capsys, name):
        monkeypatch.setenv("COLUMNS", "80")
        golden = (ROOT / "testdata" / "cli" / f"{name}.txt").read_text()
        assert _cli_text(_CLI_TEXT_CASES[name], capsys) == golden

    def test_only_the_running_command_gets_a_parser(self, monkeypatch,
                                                    capsys):
        # the top-level parser plus the one of dims; built afresh here, so
        # that an earlier test's cached parser does not hide the count
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        cli.build_parser.cache_clear()
        assert main(["dims", "--n", "1", "--r", "1"]) == 0
        assert len(built) <= 2, built
        assert main(["dims", "--n", "1", "--r", "1"]) == 0
        assert len(built) <= 2, built


class TestInclusionCertificate:
    """hilb and center check that the generators of the JM-center span lie
    in the center."""

    @pytest.mark.parametrize("argv, reasons", [pytest.param(*case, id=case[0])
                                               for case in [
        # the non-central e_1 also enlarges the span past the number of
        # multipartitions, at explicit and sampled parameters alike
        ("hilb --n 3 --q-values 2",
         ["dimensions differ from the number of multipartitions",
          "a JM-center element is not in the center"]),
        ("center --n 2 --r 2 --q 3 --Q 2,5",
         ["dimensions differ from the number of multipartitions",
          "a JM-center element is not in the center"]),
        ("center --n 3 --r 1 --q generic --Q generic",
         ["dimensions differ from the number of multipartitions",
          "a JM-center element is not in the center"] * 3),
    ]])
    def test_jm_element_outside_the_center_fails(self, monkeypatch, capsys,
                                                 argv, reasons):
        # the generator e_1 becomes e_1 + T_1, which is not central
        add_T1_to_e1(monkeypatch)
        assert main(argv.split()) == 1
        reports = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert [r["status"] for r in reports] == ["fail"]
        assert [w["reason"] for w in reports[0]["witnesses"]] == reasons


class TestGenericCenterCount:
    def test_spurious_center_vector_fails_generic_center(self, monkeypatch,
                                                          capsys):
        # T_1 is not central, so the inclusion check still passes; only the
        # multipartition count catches it
        basis = center.center_basis
        monkeypatch.setattr(center, "center_basis",
                            lambda ctx: basis(ctx) + [ctx.T(1)])
        argv = ("--samples 1 center --n 2 --r 4 --q generic "
                "--Q generic,generic,generic,generic")
        assert main(argv.split()) == 1
        (line,) = capsys.readouterr().out.splitlines()
        report = json.loads(line)
        assert report["status"] == "fail"
        (witness,) = report["witnesses"]
        assert witness["reason"] == ("dimensions differ from the number of "
                                     "multipartitions")
        assert (witness["expected"], witness["dim_center"],
                witness["dim_jm_center"]) == (14, 15, 14)


class TestCenterKernelFault:
    def test_corrupted_constraint_row_fails_hilb(self, monkeypatch, capsys):
        # every single commutator row at (3,1) is redundant, so the fault
        # drops one entry of the first row on its way into the sparse kernel
        def cut(rows, domain, ncols):
            first = dict(rows[0])
            del first[min(first)]
            return kernel_basis([first] + rows[1:], domain, ncols)

        monkeypatch.setattr(center, "kernel_basis", cut)
        assert main(["hilb", "--n", "3", "--q-values", "2"]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        report = json.loads(line)
        assert report["status"] == "fail"
        assert report["params"]["results"][0]["dim_center"] == 2
        assert "a JM-center element is not in the center" in {
            w["reason"] for w in report["witnesses"]}


def test_q1_gap_builds_no_kernel_vectors(monkeypatch, capsys):
    # the invariant count is a rank: no binding of kernel_basis runs
    def refuse(*args):
        raise AssertionError("kernel vectors built")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cyclohecke" and \
                getattr(module, "kernel_basis", None) is kernel_basis:
            monkeypatch.setattr(module, "kernel_basis", refuse)
    assert main(["q1-gap", "--n", "3", "--r", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["params"]["invariant_dim"] == 4


def _failed_witnesses(argv, capsys):
    """The witnesses of the one report of a CLI run that must exit 1."""
    assert main(argv.split()) == 1
    (line,) = capsys.readouterr().out.splitlines()
    report = json.loads(line)
    assert report["status"] == "fail"
    return report["witnesses"]


class TestFailurePaths:
    """Each failure path below fails on its own fault, with its exact
    witness."""

    def test_block_image_dimension_differs_from_class_size(self, monkeypatch,
                                                           capsys):
        # (3,1) at ell = 2: every block's Jucys-Murphy center image gains
        # one dimension; the prime-field split fails the same way, so the
        # report comes from the exact rerun
        split = ktheory.central_idempotents
        domains = []

        def grown(ctx, classes):
            domains.append(type(ctx.domain).__name__)
            idempotents, spectra, image_dims = split(ctx, classes)
            return idempotents, spectra, [dim + 1 for dim in image_dims]

        monkeypatch.setattr(ktheory, "central_idempotents", grown)
        witnesses = _failed_witnesses(
            "blocks --n 3 --r 1 --ell 2 --charge 0", capsys)
        assert domains == ["PrimeFieldDomain", "CyclotomicDomain"]
        assert witnesses == [
            {"reason": "jm-center image dimension != class size",
             "residue": "(2, 1)", "jm_image_dim": 3, "class_size": 2},
            {"reason": "jm-center image dimension != class size",
             "residue": "(1, 2)", "jm_image_dim": 2, "class_size": 1}]

    def test_block_row_of_no_cell_module_is_a_zero_component(self,
                                                             monkeypatch,
                                                             capsys):
        # e_n is a unit, so no cell module has the row of zeros; both routes
        # split along it as well and fail, and the report is the exact one
        split = ktheory.central_idempotents
        domains = []

        def grown(ctx, classes):
            domains.append(type(ctx.domain).__name__)
            return split(ctx, classes + [(ctx.domain.zero,) * ctx.n])

        monkeypatch.setattr(ktheory, "central_idempotents", grown)
        witnesses = _failed_witnesses(
            "blocks --n 3 --r 1 --ell 2 --charge 0", capsys)
        assert domains == ["PrimeFieldDomain", "CyclotomicDomain"]
        assert witnesses == [{"reason": "idempotent splitting failed",
                              "error": "zero component"}]

    def test_pairing_singular_gram_matrix_is_skipped(self, monkeypatch,
                                                     capsys):
        def singular(*args):
            raise center.SingularGramError("trace Gram matrix is singular")

        monkeypatch.setattr(suites, "trace_gram_matrix", singular)
        argv = "--samples 1 pairing --n 2 --r 2".split()
        assert main(argv) == 0
        (line,) = capsys.readouterr().out.splitlines()
        report = json.loads(line)
        assert report["status"] == "skipped"
        assert report["params"]["gram_skipped"] == \
            "trace Gram matrix is singular"
        assert report["witnesses"] == []
        assert main(["--format", "table", *argv]) == 0
        assert capsys.readouterr().out.endswith(
            "\n0 passed, 0 failed, 1 skipped\n")

    def test_pairing_jm_center_rank_differs_from_the_count(self, monkeypatch,
                                                           capsys):
        # the span loses its last element: rank 4 against 5 multipartitions
        spans = suites.center_and_jm_span

        def short(ctx):
            center_space, span = spans(ctx)
            return center_space, center.JMCenterSpan(
                span.rank - 1, span.elements[:-1], span.descriptors[:-1],
                span.generators, span.in_center)

        monkeypatch.setattr(suites, "center_and_jm_span", short)
        witnesses = _failed_witnesses("--samples 1 pairing --n 2 --r 2",
                                      capsys)
        assert witnesses == [{"reason": "JM-center rank != multipartition "
                                        "count", "rank": 4, "expected": 5}]

    def test_q1_gap_without_a_gap(self, monkeypatch, capsys):
        # at (2,2) the invariant dimension is 3 against 5 multipartitions;
        # a count of 3 leaves no gap
        mps = suites.enumerate_multipartitions
        monkeypatch.setattr(suites, "enumerate_multipartitions",
                            lambda n, r: mps(n, r)[:3])
        witnesses = _failed_witnesses("q1-gap --n 2 --r 2", capsys)
        assert witnesses == [{
            "reason": "no gap: invariant dimension not below the "
                      "multipartition count",
            "invariant_dim": 3, "multipartitions": 3}]

    def test_q1_gap_invariant_dimension_differs_from_the_binomial(
            self, monkeypatch, capsys):
        # at (2,2) the invariant count 3 becomes 4: it differs from
        # binom(3, 2) = 3 and from the engine's rank 3, and stays below the
        # 5 multipartitions
        count = suites.SmashProduct.invariant_polynomial_dim
        monkeypatch.setattr(suites.SmashProduct, "invariant_polynomial_dim",
                            lambda smash: count(smash) + 1)
        witnesses = _failed_witnesses("q1-gap --n 2 --r 2", capsys)
        assert witnesses == [
            {"reason": "invariant dimension != binom(n+r-1, n)",
             "invariant_dim": 4, "expected": 3},
            {"reason": "engine JM-center rank at q = 1 disagrees",
             "jm_rank": 3, "invariant_dim": 4}]

    def test_q1_gap_engine_rank_disagrees(self, monkeypatch, capsys):
        # the engine's span at q = 1 reports one dimension fewer than the
        # invariant dimension 3 of (2,2)
        spans = suites.jm_center_span

        def short(ctx):
            span = spans(ctx)
            return center.JMCenterSpan(
                span.rank - 1, span.elements, span.descriptors,
                span.generators, span.in_center)

        monkeypatch.setattr(suites, "jm_center_span", short)
        witnesses = _failed_witnesses("q1-gap --n 2 --r 2", capsys)
        assert witnesses == [{
            "reason": "engine JM-center rank at q = 1 disagrees",
            "jm_rank": 2, "invariant_dim": 3}]

    def test_dims_square_sum_mismatch(self, monkeypatch, capsys):
        # at (2,2) the tableau counts 1, 1, 2, 1, 1 become 2, 2, 3, 2, 2
        count = suites.count_standard_tableaux
        monkeypatch.setattr(suites, "count_standard_tableaux",
                            lambda mp: count(mp) + 1)
        witnesses = _failed_witnesses("dims --n 2 --r 2", capsys)
        assert witnesses == [{
            "reason": "sum of squared tableau counts mismatch",
            "syt_sum": 25, "expected": 8}]


class TestEngineErrors:
    """An engine error is a failed report, not a traceback."""

    @pytest.mark.parametrize("error", [EngineError])
    def test_suite_error_is_one_failed_report(self, monkeypatch, capsys,
                                              error):
        def broken(*args, **kwargs):
            raise error("context self-test failed")

        monkeypatch.setattr(cli, "suite_q1_gap", broken)
        code = main(["--seed", "4", "q1-gap", "--n", "2", "--r", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        (line,) = captured.out.splitlines()
        report = json.loads(line)
        assert report == {
            "check": "engine_error", "params": {"command": "q1-gap"},
            "status": "fail", "seed": 4,
            "witnesses": [{
                "error": error.__name__,
                "message": "context self-test failed"}]}

    def test_failed_engine_build_is_reported(self, monkeypatch, capsys):
        # a closed form with the (q-1) terms negated fails its oracle
        closed_form = hecke.straightening_closed_form
        monkeypatch.setattr(hecke, "straightening_closed_form", lambda a, b: {
            key: c if key[2] else -c for key, c in closed_form(a, b).items()})
        monkeypatch.setattr(hecke, "_STRAIGHTENING_VALIDATED_THROUGH", -1)
        code = main(["--format", "table", "center", "--n", "2", "--r", "2",
                     "--q", "3", "--Q", "2,5"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("[FAIL] engine_error command=center\n")
        assert "straightening mismatch at exponents (0, 1)" in out
        assert out.endswith("0 passed, 1 failed, 0 skipped\n")


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        args = ["--seed", "7", "--samples", "1",
                "pairing", "--n", "2", "--r", "1"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_table_format_output(self, capsys):
        code = main(["--format", "table", "verify-main", "--n", "2",
                     "--r", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out
        assert "1 passed, 0 failed, 0 skipped" in out


# Scalar literals: rationals, roots of unity of order at most 12, "generic",
# zero and malformed text (no "e", so no literal can spell a huge exponent).
# Well-formed nonzero literals are drawn three times as often, and valid
# sizes three times as often as invalid ones, so that most argvs run.
_NONZERO = st.integers(min_value=1, max_value=9) | \
    st.integers(min_value=-9, max_value=-1)
_WELL_FORMED = st.one_of(
    _NONZERO.map(str),
    st.builds("{}/{}".format, _NONZERO, st.integers(min_value=1, max_value=9)),
    st.builds("zeta_{}^{}".format, st.integers(min_value=1, max_value=12),
              st.integers(min_value=-13, max_value=13)),
)
_SCALARS = st.one_of(
    _WELL_FORMED, _WELL_FORMED, _WELL_FORMED,
    st.builds("zeta_{}".format, st.integers(min_value=0, max_value=12)),
    st.sampled_from(["generic", "0", "", "q+1", "1/0", "zeta_", "zeta_3^",
                     "zeta_-1", "nan", "inf", "1//2", "generic2"]),
    st.text(alphabet="0123456789/-+_^. ,", max_size=6),
)
_SIZES = st.sampled_from([1, 2, 1, 2, 1, 2, 0, -1])


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_cli_fuzz_exits_cleanly(data):
    # any literal and small size either runs (exit 0 or 1) or is a usage
    # error (exit 2); an uncaught exception fails the test with its traceback
    command = data.draw(st.sampled_from(["center", "hilb", "q1-gap",
                                         "blocks", "pairing"]))
    n, r = data.draw(_SIZES), data.draw(_SIZES)
    # mostly one literal per level, sometimes a wrong count
    count = data.draw(st.sampled_from([max(r, 1)] * 3 + [1, 3]))
    literals = ",".join(data.draw(
        st.lists(_SCALARS, min_size=count, max_size=count)))
    sizes = ["--n", str(n), "--r", str(r)]
    if command == "center":
        argv = ["--samples", "1", "center", *sizes,
                "--q", data.draw(_SCALARS), "--Q", literals]
    elif command == "hilb":
        argv = ["hilb", "--n", str(n), "--q-values", literals]
    elif command == "q1-gap":
        argv = ["q1-gap", *sizes]
        if data.draw(st.booleans()):
            argv += ["--Q", literals]
    elif command == "pairing":
        argv = ["pairing", *sizes]
    else:
        ell = data.draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 1, 0, -1]))
        charge = data.draw(st.lists(st.integers(min_value=-3, max_value=3),
                                    min_size=count, max_size=count))
        argv = ["blocks", *sizes, "--ell", str(ell),
                "--charge", ",".join(map(str, charge))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
