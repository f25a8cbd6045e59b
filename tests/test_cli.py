"""Tests for the report container, the verification suites, and the CLI.

CLI tests drive main() in-process and parse stdout/stderr; every
determinism claim is checked byte for byte.
"""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from diskpoly import (
    DomainError,
    NonConvergentError,
    ZernikeParams,
    cli,
    cauchy_zernike_closed,
    cauchy_zernike_quad,
    eval_explicit,
    eval_jacobi,
    jacobi_line,
    pochhammer,
)
from diskpoly.cli import main
from diskpoly.report import (
    INFORMATIONAL,
    ReportRow,
    checked_row,
    make_report,
    serialize,
    to_csv,
    to_json,
)
from diskpoly import cauchy, numerics, suites, zernike
from diskpoly.suites import DEFAULT_GAMMAS, normalized_deviation, run_suite


class TestReport:
    def test_rows_sorted_and_counted(self):
        rows = [
            checked_row("b_check", "m=1", 1e-12, 1e-9),
            checked_row("a_check", "m=2", 5.0, 1e-9),
            checked_row("a_check", "m=1", 0.0, 1e-9),
        ]
        rep = make_report("demo", rows)
        assert [(r.identity, r.params) for r in rep.rows] == [
            ("a_check", "m=1"), ("a_check", "m=2"), ("b_check", "m=1")]
        assert rep.n_pass == 2 and rep.n_fail == 1
        assert not rep.all_passed

    def test_informational_never_gates(self):
        rep = make_report("demo", [checked_row("x", "p", 2.7, INFORMATIONAL)])
        assert rep.all_passed

    def test_json_shape(self):
        rep = make_report("demo", [checked_row("x", "p", 1.0 / 3.0, 1e-9)])
        doc = json.loads(to_json(rep))
        assert doc["suite"] == "demo"
        assert doc["summary"] == {"pass": 0, "fail": 1}
        row = doc["rows"][0]
        assert row["pass"] is False
        # 17 significant digits survive the round trip
        assert row["max_error"] == 1.0 / 3.0
        assert "0.33333333333333331" in to_json(rep)

    def test_non_finite_error_is_json_null(self):
        # JSON has no NaN or infinity; CSV keeps them, and the rows fail
        rep = make_report("demo", [checked_row("x", "a", math.nan, 1e-9),
                                   checked_row("x", "b", math.inf, INFORMATIONAL)])
        doc = json.loads(to_json(rep), parse_constant=_no_constant)
        assert [row["max_error"] for row in doc["rows"]] == [None, None]
        assert doc["summary"] == {"pass": 0, "fail": 2}
        assert [row[2] for row in csv.reader(io.StringIO(to_csv(rep)))][1:3] == ["nan", "inf"]

    def test_csv_shape(self):
        rep = make_report("demo", [checked_row("x", "p, with comma", 0.0, 1e-9)])
        rows = list(csv.reader(io.StringIO(to_csv(rep))))
        assert rows[0] == ["identity", "params", "max_error", "tolerance", "pass"]
        assert rows[1][1] == "p, with comma"
        assert rows[-1][0] == "summary"
        # RFC-4180 line endings
        assert "\r\n" in to_csv(rep)

    def test_unknown_format(self):
        rep = make_report("demo", [])
        with pytest.raises(DomainError):
            serialize(rep, "yaml")


class TestSuites:
    def test_normalized_deviation_floor(self):
        # pairwise scale dominates when values are large
        assert normalized_deviation(2.0, 1.0, 1.0) == 0.5
        # parameter-scale floor kicks in near a zero of the function
        assert normalized_deviation(1e-13, 0.0, 1.0) == pytest.approx(1e-12)

    def test_worst_propagates_nan(self):
        assert math.isnan(suites._worst([1.0, math.nan], [1.0, 1.0], 1.0))
        assert suites._worst([1.0, 2.0], [1.0, 1.0], 1.0) == 0.5

    def test_nan_or_overflowing_modulus_fails_its_row(self):
        # CPython's complex abs returns NaN for a NaN part without clearing
        # errno, so it raises OverflowError while a caught float overflow's
        # ERANGE is still set; it raises for a finite pair past the float range
        for a, b in ((0j, math.nan), (1.5e308 + 1.5e308j, 0j)):
            try:
                1e200 ** 2
            except OverflowError:
                pass
            dev = normalized_deviation(a, b, 0.0)
            assert math.isnan(dev), (a, b)
            assert not checked_row("x", "p", dev, 1e-9).passed

    def test_nan_route_value_fails_its_row(self, monkeypatch):
        # NaN at the second of the member's points, after a finite deviation
        calls = []

        def second_is_nan(p, z):
            calls.append(z)
            return math.nan if len(calls) % 6 == 2 else zernike.eval_gauss1(p, z)

        monkeypatch.setitem(zernike.ROUTES, "gauss1", second_is_nan)
        rows = run_suite("routes", 0).rows
        failed = {(r.identity, math.isnan(r.max_error)) for r in rows if not r.passed}
        assert failed == {("gauss1_vs_explicit", True)}
        assert sum(not r.passed for r in rows) == len(DEFAULT_GAMMAS)

    def test_raising_route_fails_its_own_rows(self, monkeypatch):
        monkeypatch.setitem(zernike.ROUTES, "gauss2", _raising(
            zernike.eval_gauss2, lambda p, z: (p.m, p.n) == (1, 1)))
        rows = run_suite("routes", 1).rows
        assert _failed(rows) == {("gauss2_vs_explicit", f"gamma={g:g} m=1 n=1")
                                 for g in DEFAULT_GAMMAS}

    @pytest.mark.parametrize("suite, rule, identity", [
        ("routes", None, "contour_vs_explicit"),
        ("contour", None, "contour_adaptive_vs_explicit"),
        ("contour", 512, "contour_fixed512_vs_explicit"),
    ], ids=["routes", "contour-adaptive", "contour-fixed"])
    def test_non_converging_contour_member_fails_its_own_rows(self, monkeypatch, suite,
                                                              rule, identity):
        def member_fails(m, gamma, z, n_max, n_nodes=None):
            row = zernike.contour_row(m, gamma, z, n_max, n_nodes)
            if (m, n_nodes) == (1, rule):
                row[1] = NonConvergentError("stand-in")
            return row

        monkeypatch.setattr(suites, "contour_row", member_fails)
        rows = run_suite(suite, 1).rows
        assert _failed(rows) == {(identity, f"gamma={g:g} m=1 n=1") for g in DEFAULT_GAMMAS}

    def test_raising_inner_product_fails_its_own_rows(self, monkeypatch):
        monkeypatch.setattr(suites, "norm_squared", _raising(
            zernike.norm_squared, lambda p: (p.m, p.n, p.gamma) == (0, 1, 1.0)))
        monkeypatch.setattr(suites, "inner_product", _raising(
            zernike.inner_product, lambda p1, p2: (p1.m, p1.n, p2.m, p2.n) == (1, 1, 2, 2)))
        rows = run_suite("orthogonality", 2).rows
        own = {(r.identity, r.params) for r in rows
               if r.params.startswith("gamma=1 ") and ("m1=0 n1=1" in r.params
                                                       or "m2=0 n2=1" in r.params)
               or r.params.endswith("m1=1 n1=1 m2=2 n2=2")}
        assert len(own) == 8 + 4  # (0, 1) meets 8 members at gamma = 1; the pair, 4 gammas
        assert _failed(rows) == own

    def test_raising_cauchy_route_fails_its_own_rows(self, monkeypatch):
        from diskpoly import cauchy
        monkeypatch.setattr(suites, "cauchy_zernike_quad", _raising(
            cauchy.cauchy_zernike_quad, lambda p, z: (p.m, p.n) == (2, 1)))
        monkeypatch.setattr(suites, "cauchy_monomial_2f1", _raising(
            cauchy.cauchy_monomial_2f1, lambda p, q, k, g, z: k == 3))
        monkeypatch.setattr(suites, "cauchy_direct_2d", _raising(
            cauchy.cauchy_direct_2d, lambda f, g, z, *nodes: g == 2.5))
        rows = run_suite("cauchy", 2).rows
        own = {(r.identity, r.params) for r in rows
               if r.params.endswith(" m=2 n=1") or " k=3 " in r.params
               or r.identity == "cauchy_direct2d_spotcheck" and r.params.startswith("gamma=2.5 ")}
        assert _failed(rows) == own

    @pytest.mark.parametrize("suite, gamma", [
        ("routes", 1000.0), ("contour", 1000.0),
        ("routes", 1e100), ("orthogonality", 1e100), ("contour", 1e100)])
    def test_overflowing_gamma_fails_rows_not_the_suite(self, suite, gamma):
        # the inner product first overflows at (1, 4) x (1, 4)
        rows = run_suite(suite, 4, gammas=(gamma,)).rows
        assert len(rows) == len(run_suite(suite, 4, gammas=(0.5,)).rows)
        assert not all(r.passed for r in rows)
        assert INFORMATIONAL not in {r.max_error for r in rows}

    @pytest.mark.parametrize("suite, name, fake, identity", [
        ("spectral", "factorization_residuals", lambda nu, e: (0.0, math.nan),
         "ladder_factorization"),
        ("hermite", "hermite_limit_error",
         lambda m, n, z, rho: {10.0: 1e-2, 100.0: 1e-4, 1000.0: math.nan}[rho],
         "hermite_limit_monotone"),
        # no ratio is defined when the error vanishes at rho = 10 only
        ("hermite", "hermite_limit_error",
         lambda m, n, z, rho: {10.0: 0.0, 100.0: 1e-4, 1000.0: 1e-6}[rho],
         "hermite_limit_monotone"),
    ], ids=["spectral", "hermite", "hermite-undefined-ratio"])
    def test_nan_after_a_number_fails_the_row(self, monkeypatch, suite, name, fake, identity):
        monkeypatch.setattr(suites, name, fake)
        rows = [r for r in run_suite(suite, 1).rows if r.identity == identity]
        assert rows and all(math.isnan(r.max_error) and not r.passed for r in rows)

    def test_hermite_suite_green(self):
        rep = run_suite("hermite", max_mn=3)
        assert rep.suite == "hermite"
        assert rep.all_passed
        ids = {r.identity for r in rep.rows}
        assert ids == {"hermite_limit_monotone", "hermite_origin_delta"}

    def test_routes_suite_row_count(self):
        rep = run_suite("routes", max_mn=4, gammas=(0.5,))
        # 25 index pairs, 5 comparisons each
        assert len(rep.rows) == 125
        assert rep.all_passed

    def test_report_inventory(self):
        # at max_mn 6 every per-suite index cap (4, 5, 6) is in force; a
        # refactor that drops or re-tolerances a row family shows up here
        rep = run_suite("all", max_mn=6)
        inventory = {}
        for r in rep.rows:
            tol, count = inventory.get(r.identity, (r.tolerance, 0))
            assert tol == r.tolerance, r.identity
            inventory[r.identity] = (tol, count + 1)
        assert inventory == {
            "cauchy_direct2d_spotcheck": (1e-6, 10),
            "cauchy_monomial_2f1_vs_closed": (1e-10, 200),
            "cauchy_shift_closed_vs_quad": (1e-9, 60),
            "cauchy_shift_same_pattern": (1e-9, 40),
            "cauchy_shift_swapped_pattern": (INFORMATIONAL, 40),
            "contour_adaptive_vs_explicit": (1e-10, 196),
            "contour_fixed512_vs_explicit": (1e-9, 196),
            "contour_vs_explicit": (1e-9, 196),
            "eigen_residual": (1e-10, 45),
            "gauss1_vs_explicit": (1e-9, 196),
            "gauss2_vs_explicit": (1e-9, 196),
            "hermite_limit_monotone": (1.0, 25),
            "hermite_origin_delta": (1e-300, 49),
            "inner_product_zero": (1e-11, 2520),
            "jacobi_vs_explicit": (1e-9, 196),
            "ladder_bridge": (1e-10, 45),
            "ladder_factorization": (1e-10, 50),
            "norm_base": (1e-12, 4),
            "rodrigues_vs_explicit": (1e-9, 196),
        }
        assert len(rep.rows) == 4460 and rep.all_passed

    def test_rows_sorted(self):
        rep = run_suite("spectral", max_mn=2)
        keys = [(r.identity, r.params) for r in rep.rows]
        assert keys == sorted(keys)

    def test_suite_guards(self):
        with pytest.raises(DomainError):
            run_suite("nope")
        with pytest.raises(DomainError):
            run_suite("routes", max_mn=9)
        with pytest.raises(DomainError):
            run_suite("routes", gammas=())
        with pytest.raises(DomainError):
            run_suite("routes", gammas=(-2.0,))

    def test_any_integer_seed(self):
        for seed in (-1, 2**70, np.int64(7)):
            assert run_suite("hermite", max_mn=1, seed=seed).rows

    def test_max_mn_past_the_cap_is_one_error_line(self, capsys):
        assert main(["verify", "--suite", "all", "--max-mn", "9"]) == 3
        assert capsys.readouterr().err == "ERROR 3: max_mn must be at most 8, got 9\n"


class TestEval:
    def test_single_route(self, capsys):
        assert main(["eval", "--m", "0", "--n", "0", "--gamma", "0",
                     "--z", "0.1,0.2", "--method", "explicit"]) == 0
        assert capsys.readouterr().out == "explicit, 1.0, 0.0\n"

    def test_all_routes_agree(self, capsys):
        assert main(["eval", "--m", "1", "--n", "1", "--gamma", "0",
                     "--z", "0.5,0", "--method", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        for line in lines[:6]:
            _, re_s, im_s = line.split(", ")
            assert complex(float(re_s), float(im_s)) == pytest.approx(-1.0, abs=1e-9)
        label, dev = lines[6].split(", ")
        assert label == "max_pairwise_deviation"
        assert float(dev) <= 1e-9

    def test_all_at_origin_skips_gauss(self, capsys):
        # |z|^2 of 1e-200 underflows to 0, so that point is the origin too
        for z in ("0,0", "1e-200,0"):
            assert main(["eval", "--m", "2", "--n", "2", "--gamma", "0.5",
                         "--z", z, "--method", "all"]) == 0
            out = capsys.readouterr().out
            assert "gauss1" not in out and "gauss2" not in out
            assert out.startswith("explicit, ")

    def test_domain_error_exit_3(self, capsys):
        assert main(["eval", "--m", "1", "--n", "1", "--gamma", "0",
                     "--z", "0,0", "--method", "gauss1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("ERROR 3: ")

    def test_bad_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["eval", "--m", "1", "--n", "1", "--gamma", "0",
                  "--z", "0.5,0", "--method", "bogus"])
        assert ei.value.code == 2
        assert capsys.readouterr().err.startswith("ERROR 2: ")

    def test_bad_z_exit_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["eval", "--m", "1", "--n", "1", "--gamma", "0",
                  "--z", "zebra", "--method", "explicit"])
        assert ei.value.code == 2

    def test_contour_nodes_flag(self, capsys):
        assert main(["eval", "--m", "2", "--n", "1", "--gamma", "0.5",
                     "--z", "0.3,0.1", "--method", "contour",
                     "--contour-nodes", "128"]) == 0
        line = capsys.readouterr().out.strip()
        _, re_s, im_s = line.split(", ")
        ref = eval_explicit(ZernikeParams(2, 1, 0.5), complex(0.3, 0.1))
        assert complex(float(re_s), float(im_s)) == pytest.approx(ref, rel=1e-10)

    # the contour route never runs here: another method, or a point past
    # the contour route's |z| <= 0.95
    @pytest.mark.parametrize("method, z", [("jacobi", "0.3,0.2"), ("all", "0.99,0")])
    @pytest.mark.parametrize("count", ["5", "65537"])
    def test_contour_nodes_checked_whatever_runs(self, capsys, method, z, count):
        rc = main(["eval", "--m", "1", "--n", "1", "--gamma", "0.5", "--z", z,
                   "--method", method, "--contour-nodes", count])
        out, err = capsys.readouterr()
        assert _one_error_3(rc, err) and "contour node count" in err, (rc, out, err)
        assert out == ""

    def test_contour_nodes_help_gives_range(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["eval", "--help"])
        assert ei.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "from 16 to 65536" in text and "adaptive node rule" in text


class TestEvalErrorContract:
    """Commands that once died with an uncaught exception at the index cap.

    An uncaught exception exits 1, the code reserved for failed rows; here
    it would fail the test.
    """

    @pytest.mark.parametrize("method, z", [("gauss2", "0.3,0.2"), ("gauss1", "0.001,0")])
    def test_exit_0_finite_or_exit_3(self, capsys, method, z):
        rc = main(["eval", "--m", "64", "--n", "64", "--gamma", "0.5",
                   "--z", z, "--method", method])
        out, err = capsys.readouterr()
        if rc == 0:
            label, re_s, im_s = out.strip().split(", ")
            assert label == method
            assert math.isfinite(float(re_s)) and math.isfinite(float(im_s))
        else:
            assert rc == 3
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("ERROR 3: ")

    @pytest.mark.parametrize("count", ["65537", "1000000000000000"])
    def test_contour_node_count_above_cap_exit_3(self, capsys, count):
        # the larger count once died allocating 7 PiB, with exit 1
        rc = main(["eval", "--m", "2", "--n", "1", "--gamma", "0.5", "--z", "0.3,0.2",
                   "--method", "contour", "--contour-nodes", count])
        out, err = capsys.readouterr()
        assert _one_error_3(rc, err), (rc, out, err)
        assert "at most 65536" in err


def _run_cli(argv, python_flags=(), **kwargs):
    """Run main(argv) in a fresh interpreter on this checkout's package."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys; from diskpoly.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, *python_flags, "-c", code] + argv,
                          capture_output=True, text=True, env=env, timeout=120, **kwargs)


def _no_constant(name):
    """``parse_constant`` for json.loads: NaN and Infinity are not JSON."""
    raise ValueError(f"not JSON: {name}")


def _raising(func, when):
    """A stand-in for func that raises NonConvergentError where when(*args)."""
    def stand_in(*args):
        if when(*args):
            raise NonConvergentError("stand-in")
        return func(*args)
    return stand_in


def _failed(rows):
    """The (identity, params) of the failed rows, each of which has a NaN error."""
    failed = [r for r in rows if not r.passed]
    assert all(math.isnan(r.max_error) for r in failed)
    return {(r.identity, r.params) for r in failed}


def _csv_rows(path):
    """Every row of the CSV file at path, header included; the file is closed."""
    with path.open() as f:
        return list(csv.reader(f))


def _one_error_3(rc, err):
    lines = err.splitlines()
    return rc == 3 and len(lines) == 1 and lines[0].startswith("ERROR 3: ")


class TestPointContract:
    """A NaN point is a domain error naming |z|, not a printed NaN or a
    convergence failure; a point whose |z|^2 underflows to 0 is the origin,
    not a ZeroDivisionError (exit 1 is reserved for failed rows)."""

    EVAL = ["eval", "--m", "2", "--n", "1", "--gamma", "0.5"]
    CAUCHY = ["cauchy", "--gamma", "0.5"]

    @pytest.mark.parametrize("args", [
        EVAL + ["--method", "explicit"],
        EVAL + ["--method", "jacobi"],
        EVAL + ["--method", "gauss1"],
        EVAL + ["--method", "contour"],
        EVAL + ["--method", "all"],
        CAUCHY + ["--m", "2", "--n", "1", "--route", "closed"],
        CAUCHY + ["--m", "2", "--n", "1", "--route", "quad"],
        CAUCHY + ["--m", "2", "--n", "1", "--route", "direct"],
        CAUCHY + ["--monomial", "2,1,1", "--route", "2f1"],
    ])
    def test_nan_point_exit_3(self, capsys, args):
        rc = main(args + ["--z", "nan,0"])
        out, err = capsys.readouterr()
        assert _one_error_3(rc, err), (rc, out, err)
        assert "|z|" in err

    @pytest.mark.parametrize("args", [
        EVAL + ["--method", "gauss1"],
        EVAL + ["--method", "gauss2"],
        CAUCHY + ["--monomial", "2,1,1", "--route", "2f1"],
    ])
    def test_underflowing_point_exit_3(self, capsys, args):
        rc = main(args + ["--z", "1e-200,0"])
        assert _one_error_3(rc, capsys.readouterr().err)

    @pytest.mark.parametrize("args", [
        CAUCHY + ["--m", "2", "--n", "1", "--route", "quad"],
        CAUCHY + ["--monomial", "2,1,1", "--route", "closed"],
    ])
    def test_underflowing_point_transform_exit_0(self, capsys, args):
        assert main(args + ["--z", "1e-200,0"]) == 0
        _, re_s, im_s = capsys.readouterr().out.strip().split(", ")
        assert math.isfinite(float(re_s)) and math.isfinite(float(im_s))

    def test_underflowing_power_transform_exit_0(self, capsys):
        # |z|^2 = 1e-320 is nonzero, but z^3 underflows to 0: the value
        # underflows too, so the route prints 0, not a ZeroDivisionError
        args = self.CAUCHY + ["--m", "3", "--n", "1", "--route", "quad", "--z", "1e-160,0"]
        assert main(args) == 0
        assert capsys.readouterr().out == "quad, 0.0, 0.0\n"


class TestFiniteContract:
    """A value that overflows to inf or NaN is a convergence error, not a
    printed non-finite number with exit 0."""

    BIG = ["--m", "64", "--n", "64", "--gamma", "1000", "--z", "0.3,0.2"]

    @pytest.mark.parametrize("args", [
        ["eval", "--method", "explicit"] + BIG,
        ["eval", "--method", "gauss1"] + BIG,
        ["eval", "--method", "jacobi"] + BIG,
        ["eval", "--method", "rodrigues"] + BIG,
        ["eval", "--method", "contour"] + BIG,
        ["eval", "--method", "all"] + BIG,
        ["cauchy", "--route", "closed"] + BIG,
    ])
    def test_non_finite_value_exit_3(self, capsys, args):
        rc = main(args)
        out, err = capsys.readouterr()
        assert _one_error_3(rc, err), (rc, out, err)
        assert out == ""

    @pytest.mark.parametrize("args", [
        BIG,
        BIG[:6] + ["--z", "0.9,0"],
        BIG[:6] + ["--z", "0.9,0", "--contour-nodes", "64"],
        ["--m", "64", "--n", "64", "--gamma", "-0.99", "--z", "0.999999,0"],
        ["--m", "64", "--n", "0", "--gamma", "1e300", "--z", "0.1,0"],
        # a fractional gamma + m takes the weight power in polar form
        ["--m", "0", "--n", "0", "--gamma", "1800.5", "--z", "0.5,0"],
    ], ids=["summand", "prefactor", "prefactor-fixed", "near-boundary", "huge-gamma",
            "summand-fractional"])
    def test_overflowing_contour_one_stderr_line(self, args):
        # in a fresh interpreter, so a numpy RuntimeWarning would reach
        # stderr instead of pytest's warning capture
        proc = _run_cli(["eval", "--method", "contour"] + args)
        assert _one_error_3(proc.returncode, proc.stderr), (proc.returncode, proc.stderr)
        assert proc.stdout == ""

    @pytest.mark.parametrize("args", [
        ["--r-steps", "1", "--theta-steps", "1"],
        [],
        # the value overflows before the point-by-point transform stalls
        ["--n", "0", "--gammas", "1e300", "--r-steps", "1", "--theta-steps", "2"],
    ], ids=["one-point", "grid", "n0-column"])
    def test_overflowing_table_one_stderr_line(self, tmp_path, args):
        # the table's array blocks, in a fresh interpreter as above
        out = tmp_path / "t.csv"
        proc = _run_cli(["table", "--m", "64", "--n", "64", "--gammas", "1000",
                         "--with-cauchy", "--out", str(out)] + args)
        assert _one_error_3(proc.returncode, proc.stderr), (proc.returncode, proc.stderr)
        assert "value is not finite" in proc.stderr
        assert out.read_text().splitlines() == [
            "m,n,gamma,re_z,im_z,re_val,im_val,re_cauchy,im_cauchy"]

    def test_grid_beyond_memory_exit_3(self, tmp_path):
        # 1e10 points under a 600 MB address-space limit: the point list
        # runs out of memory before the file is opened
        resource = pytest.importorskip("resource")
        limit = 600 << 20

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        out = tmp_path / "t.csv"
        proc = _run_cli(["table", "--m", "0", "--n", "0", "--r-steps", "100000",
                         "--theta-steps", "100000", "--out", str(out)],
                        preexec_fn=cap_memory)
        assert proc.returncode == 3, (proc.returncode, proc.stderr)
        assert proc.stderr == "ERROR 3: not enough memory for this request\n"
        assert proc.stdout == ""
        assert not out.exists()

    def test_non_finite_table_cell_exit_3(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["table", "--m", "64", "--n", "64", "--gammas", "1000",
                   "--r-steps", "1", "--theta-steps", "1", "--with-cauchy",
                   "--out", str(out)])
        assert _one_error_3(rc, capsys.readouterr().err)
        assert out.read_text().splitlines() == [
            "m,n,gamma,re_z,im_z,re_val,im_val,re_cauchy,im_cauchy"]


class TestVerify:
    def test_report_written_and_green(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["verify", "--suite", "spectral", "--seed", "7",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["fail"] == 0
        keys = [(r["identity"], r["params"]) for r in doc["rows"]]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("suite, flags", [
        ("spectral", []),
        # the second run in one process finds every cache warm
        ("contour", ["--max-mn", "1", "--gammas", "0.37"]),
        ("routes", ["--max-mn", "1", "--gammas", "0.37"]),
    ], ids=["spectral", "contour", "routes"])
    def test_byte_identical_reruns(self, capsys, tmp_path, suite, flags):
        paths = tmp_path / "a.json", tmp_path / "b.json"
        for path in paths:
            main(["verify", "--suite", suite, *flags, "--seed", "7", "--out", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "rep.csv"
        assert main(["verify", "--suite", "hermite", "--format", "csv",
                     "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert rows[0][0] == "identity"
        assert rows[-1][0] == "summary"

    def test_failing_rows_exit_1(self, capsys, tmp_path, monkeypatch):
        import diskpoly.cli as cli_mod

        def fake_run_suite(name, max_mn, gammas, seed):
            return make_report(name, [ReportRow("x", "p", 1.0, 1e-9, False),
                                      ReportRow("y", "p", 0.0, 1e-9, True)])

        monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
        out = tmp_path / "rep.json"
        assert main(["verify", "--suite", "hermite", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "ERROR 1: 1 of 2 rows failed"
        assert out.exists()

    def test_overflowing_oracle_fails_rows_in_json(self, tmp_path):
        # the 2D oracle overflows at this gamma; under -W error, as CI runs,
        # no numpy warning may escape, and NaN errors are written as null
        out = tmp_path / "rep.json"
        proc = _run_cli(["verify", "--suite", "cauchy", "--max-mn", "2", "--gammas=1e100",
                         "--out", str(out)], python_flags=("-W", "error"))
        assert proc.returncode == 1, proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("ERROR 1: ")
        doc = json.loads(out.read_text(), parse_constant=_no_constant)
        assert any(row["max_error"] is None for row in doc["rows"])
        assert doc["summary"]["fail"] == int(proc.stderr.split()[2])

    def test_bad_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["verify", "--suite", "everything"])
        assert ei.value.code == 2


class TestUnwritableOut:
    """An --out path that cannot be opened is a bad flag value: exit 2 with
    one ERROR 2 line, not a traceback with the failed-rows code 1."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "routes", "--max-mn", "1"],
        ["table", "--m", "0:2", "--n", "0:1"],
    ])
    @pytest.mark.parametrize("where", ["missing_parent", "directory"])
    def test_exit_2(self, capsys, tmp_path, argv, where):
        out = tmp_path / "missing" / "out.txt" if where == "missing_parent" else tmp_path
        rc = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("ERROR 2: "), (rc, err)
        assert str(out) in lines[0]


# case id -> (table flags, sha256 of the CSV and of the JSON output)
GOLDEN_TABLES = {
    "n0-column": ("--m 0:3 --n 0:3 --gammas=-0.5,0,2.5 --r-steps 3 --theta-steps 8 --with-cauchy", {
        "csv": "3d2b2980eec87390f7edd2ad6ea9102f18377719446cb840e0fa31c317d276cd",
        "json": "577672b1152bad2207cb2c7cda8456e6c41f6816cdfa9df98b6c44ef2dc0cb3e"}),
    "boundary": ("--m 0:2 --n 1:2 --gammas=0.5,1e-300 --r-steps 2 --theta-steps 3"
                 " --include-boundary --with-cauchy", {
        "csv": "ef5b6ccd46f810f667b44c3240cccb581f9299128690e88805be8403fc6e0302",
        "json": "2f28a7a4f8f87477c88604582236970479c0c19b0cb91a3122ed170ea47e51ac"}),
    "no-points": ("--m 0:3 --n 0:3 --r-steps 0 --theta-steps 5", {
        "csv": "fe54a1d3ac2e0e67e95e6348d193ab8ccb3d6cfbe3ebe4c16797be8e00110384",
        "json": "54f117b0aa1b3044f0eb46b24a96d786ef08fb041dac9d5467fa6170172de18d"}),
    "empty-range": ("--m 2:1 --n 0", {
        "csv": "fe54a1d3ac2e0e67e95e6348d193ab8ccb3d6cfbe3ebe4c16797be8e00110384",
        "json": "54f117b0aa1b3044f0eb46b24a96d786ef08fb041dac9d5467fa6170172de18d"}),
}


class TestTable:
    def test_single_point_matches_eval(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "2", "--n", "1", "--gammas", "0.5",
                     "--r-steps", "1", "--theta-steps", "1",
                     "--r-max", "0.7", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = _csv_rows(out)
        assert rows[0] == ["m", "n", "gamma", "re_z", "im_z", "re_val", "im_val"]
        assert len(rows) == 2
        cells = rows[1]
        assert main(["eval", "--m", "2", "--n", "1", "--gamma", "0.5",
                     "--z", "0.7,0", "--method", "jacobi"]) == 0
        line = capsys.readouterr().out.strip()
        _, re_s, im_s = line.split(", ")
        assert float(cells[5]) == float(re_s)
        assert float(cells[6]) == float(im_s)

    def test_boundary_ring_modulus(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "2", "--n", "1", "--gammas", "0.5",
                     "--r-steps", "0", "--theta-steps", "8",
                     "--include-boundary", "--out", str(out)]) == 0
        rows = _csv_rows(out)[1:]
        assert len(rows) == 8
        ref = pochhammer(1.5, 3)
        for cells in rows:
            v = complex(float(cells[5]), float(cells[6]))
            assert abs(v) == pytest.approx(ref, rel=1e-12)

    def test_empty_range_header_only(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "2:1", "--n", "0", "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert rows == [["m", "n", "gamma", "re_z", "im_z", "re_val", "im_val"]]

    def test_empty_range_json(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        assert main(["table", "--m", "2:1", "--n", "0", "--format", "json",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rows"] == []

    def test_huge_range_exit_3_no_file(self, capsys, tmp_path):
        # the bounds are checked before the range is built, so a bound of
        # 1e18 is one domain error, not a MemoryError
        out = tmp_path / "t.csv"
        for flags in (["--m", "0:1000000000000000000", "--n", "0"],
                      ["--m", "0", "--n", "1000000000000000000"]):
            assert main(["table", *flags, "--out", str(out)]) == 3
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("ERROR 3: indices must lie in")
            assert not out.exists()

    def test_bad_gamma_exit_3_no_file(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "1", "--n", "1", "--gammas=0,-1",
                     "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR 3: ")
        assert not out.exists()

    def test_error_part_way_exit_3(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "t.csv"
        calls = []

        def flaky(k, g, z, s_max, s_min):
            calls.append(z)
            if len(calls) == 3:
                raise NonConvergentError("injected")
            return jacobi_line(k, g, z, s_max, s_min)

        monkeypatch.setattr(cli, "jacobi_line", flaky)
        # one call per charge line, and each of the three blocks is on a
        # line of its own (one per gamma)
        assert main(["table", "--m", "1", "--n", "1", "--gammas", "0,0.5,1",
                     "--out", str(out)]) == 3
        assert len(calls) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR 3: ")
        assert set(tmp_path.iterdir()) <= {out}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_byte_identical_reruns(self, capsys, tmp_path, fmt):
        paths = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        for path in paths:
            assert main(["table", "--m", "0:3", "--n", "0:3", "--gammas=-0.5,0,2.5",
                         "--r-steps", "3", "--theta-steps", "8", "--with-cauchy",
                         "--format", fmt, "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(paths[0].read_bytes()) > 10000

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", list(GOLDEN_TABLES))
    def test_golden_bytes(self, capsys, tmp_path, case, fmt):
        # sha256 of each table as the csv-module writer produced it; the
        # block writer must reproduce every byte
        flags, sha256 = GOLDEN_TABLES[case]
        out = tmp_path / f"t.{fmt}"
        assert main(["table", *flags.split(), "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256[fmt]

    @pytest.mark.parametrize("bad, want", [
        ({(1, 0): math.inf, (2, 0): math.nan}, "inf, 0.0"),
        ({(1, 1): math.nan, (2, 0): math.inf}, "inf, 0.0"),
        ({(3, 0): complex(3.0, math.inf)}, "3.0, inf"),
        ({(2, 1): math.nan, (3, 1): math.inf}, "nan, 0.0"),
    ], ids=["row-order", "value-first", "imag-part", "transform-line"])
    def test_first_non_finite_cell_named(self, capsys, tmp_path, monkeypatch, bad, want):
        # each line yields its members through numerics._finite, which
        # names a column's first non-finite cell in row order; the value
        # line is checked before the transform line runs, and the block
        # writes no row
        cols = [np.arange(4, dtype=complex), np.arange(4, dtype=complex)]
        for (row, col), v in bad.items():
            cols[col][row] = v
        monkeypatch.setattr(zernike, "_line_members",
                            lambda *args: map(numerics._finite, repeat(cols[0])))
        monkeypatch.setattr(cauchy, "_line_members",
                            lambda *args: map(numerics._finite, repeat(cols[1])))
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "1", "--n", "1", "--r-steps", "1",
                     "--theta-steps", "4", "--with-cauchy", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"ERROR 3: value is not finite: {want}\n"
        assert len(out.read_text().splitlines()) == 1

    def test_out_symlink_written_through(self, capsys, tmp_path):
        target = tmp_path / "target.csv"
        link = tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(["table", "--m", "1", "--n", "1", "--r-steps", "1",
                     "--theta-steps", "2", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert len(_csv_rows(target)) == 3

    def test_cauchy_column_at_large_index_and_gamma(self, capsys, tmp_path):
        # the default grid holds z = 0.224+0.224i, where the transform
        # column was once off by 5e8 times the block's largest modulus
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "56", "--n", "63", "--gammas", "300",
                     "--with-cauchy", "--out", str(out)]) == 0
        rows = _csv_rows(out)[1:]
        got, want = [], []
        for row in rows:
            z = complex(float(row[3]), float(row[4]))
            got.append(complex(float(row[7]), float(row[8])))
            want.append(_closed_transform_ref(56, 63, 300.0, z))
        s = max(map(abs, want))
        assert len(rows) == 24
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13 * s

    def test_cauchy_columns(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "1", "--n", "0:1", "--gammas", "0",
                     "--r-steps", "1", "--theta-steps", "2", "--r-max", "0.5",
                     "--with-cauchy", "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert rows[0][-2:] == ["re_cauchy", "im_cauchy"]
        # (1,1) at z=0.5: transform value 0.75 from the closed form
        vals = {(c[0], c[1], c[3]): complex(float(c[7]), float(c[8])) for c in rows[1:]}
        assert vals[("1", "1", "0.5")] == pytest.approx(0.75, rel=1e-12)

    def test_refuses_outside_grid(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(["table", "--m", "1", "--n", "1", "--r-max", "1.0"])
        assert ei.value.code == 2

    def test_boundary_cauchy_n0(self, capsys, tmp_path):
        # the n = 0 transform is finite on the rim, and each cell is the
        # closed route's value at that point
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "0:3", "--n", "0", "--gammas=-0.9,0.5",
                     "--r-steps", "2", "--theta-steps", "8", "--include-boundary",
                     "--with-cauchy", "--out", str(out)]) == 0
        rows = _csv_rows(out)[1:]
        assert len(rows) == 4 * 2 * 24
        assert sum(r[3:5] == ["1", "0"] for r in rows) == 8
        for r in rows:
            cells = [float(c) for c in r[5:]]
            assert all(map(math.isfinite, cells)), r
            p = ZernikeParams(int(r[0]), 0, float(r[2]))
            t = cauchy_zernike_closed(p, complex(float(r[3]), float(r[4])))
            assert r[7:] == ["%.17g" % t.real, "%.17g" % t.imag], r

    def test_rim_ring_at_singular_weights(self, capsys, tmp_path):
        # 7 of the 64 rim angles give |z|^2 = 1 - 2^-53, where the
        # incomplete beta self-check once raised for gamma <= -0.5
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "0:3", "--n", "0", "--gammas=-0.99,-0.9,-0.7,-0.5",
                     "--r-steps", "1", "--theta-steps", "64", "--include-boundary",
                     "--with-cauchy", "--out", str(out)]) == 0
        rows = _csv_rows(out)[1:]
        assert len(rows) == 4 * 4 * 2 * 64
        for r in rows:
            p = ZernikeParams(int(r[0]), 0, float(r[2]))
            t = cauchy_zernike_closed(p, complex(float(r[3]), float(r[4])))
            assert r[7:] == ["%.17g" % t.real, "%.17g" % t.imag], r

    def test_value_cells_match_explicit(self, capsys, tmp_path):
        # an independent referee for the value column, which now shares
        # its arithmetic with eval_jacobi: the explicit sum at m, n <= 8
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "0:8", "--n", "0:8", "--gammas=-0.9,0,0.37,2.5",
                     "--r-steps", "3", "--theta-steps", "8", "--include-boundary",
                     "--out", str(out)]) == 0
        blocks = {}
        for row in _csv_rows(out)[1:]:
            blocks.setdefault(tuple(row[:3]), []).append(row)
        assert len(blocks) == 81 * 4
        for (m, n, g), rows in blocks.items():
            zs = np.array([complex(float(r[3]), float(r[4])) for r in rows])
            got = [complex(float(r[5]), float(r[6])) for r in rows]
            want = eval_explicit(ZernikeParams(int(m), int(n), float(g)), zs).tolist()
            s = max(map(abs, want))
            err = max(map(normalized_deviation, got, want, [s] * len(want)))
            assert err <= 1e-12, (m, n, g, err)

    @pytest.mark.parametrize("m, n", [("3:5", "2:7"), ("2:4", "0:3"), ("0:2", "0")])
    def test_sub_ranges_match_per_block_routes(self, capsys, tmp_path, m, n):
        # ranges that do not start at 0, n = 0 blocks among the others and a
        # repeated gamma: every value and transform cell is the one that
        # eval_jacobi, cauchy_zernike_closed or (at n = 0) the quad route
        # gives for that block alone, byte for byte
        out = tmp_path / "t.csv"
        assert main(["table", "--m", m, "--n", n, "--gammas=0.5,-0.3,0.5",
                     "--r-steps", "2", "--theta-steps", "5", "--with-cauchy",
                     "--out", str(out)]) == 0
        rows = _csv_rows(out)[1:]
        blocks = {}
        for row in rows:
            blocks.setdefault(tuple(row[:3]), []).append(row)
        lo, hi = (int(v) for v in m.split(":"))
        n_lo, n_hi = (int(v) for v in (n.split(":") if ":" in n else (n, n)))
        assert len(rows) == (hi - lo + 1) * (n_hi - n_lo + 1) * 3 * 10
        for (mm, nn, g), block in blocks.items():
            p = ZernikeParams(int(mm), int(nn), float(g))
            pts = [complex(float(r[3]), float(r[4])) for r in block]
            values = eval_jacobi(p, np.array(pts)).tolist()
            if p.n:
                transforms = cauchy_zernike_closed(p, np.array(pts)).tolist()
            else:
                transforms = [cauchy_zernike_quad(p, z) for z in pts]
            for r, v, t in zip(block, values, transforms, strict=True):
                assert r[5:] == ["%.17g" % x for x in (v.real, v.imag, t.real, t.imag)]

    def test_cap_table_values_match_mpmath(self, capsys, tmp_path):
        # the reduced cap table; through the explicit sum, 1 695 of its
        # 4 160 value blocks were off by more than 1e-9 (normalized)
        mpmath = pytest.importorskip("mpmath")
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "0:64", "--n", "1:64", "--gammas", "0.5",
                     "--r-steps", "2", "--theta-steps", "8", "--with-cauchy",
                     "--out", str(out)]) == 0
        rows = _csv_rows(out)[1:]
        assert len(rows) == 65 * 64 * 16
        rng = np.random.default_rng(2105)
        picks = [(64, 64), (63, 63), (64, 1), (0, 64)] + [
            (int(a), int(b)) for a, b in zip(rng.integers(0, 65, 36), rng.integers(1, 65, 36))]
        for m, n in picks:
            i = (m * 64 + n - 1) * 16
            block = rows[i:i + 16]
            assert {tuple(r[:3]) for r in block} == {(str(m), str(n), "0.5")}
            got = [complex(float(r[5]), float(r[6])) for r in block]
            want = [_explicit_ref(m, n, 0.5, complex(float(r[3]), float(r[4])))
                    for r in block]
            s = max(map(abs, want))
            err = max(map(normalized_deviation, got, want, [s] * len(want)))
            assert err <= 1e-12, (m, n, err)

    def test_json_table(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        assert main(["table", "--m", "1", "--n", "1", "--gammas", "0",
                     "--r-steps", "2", "--theta-steps", "2",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["header"][:3] == ["m", "n", "gamma"]
        assert len(doc["rows"]) == 4
        z = complex(doc["rows"][0][3], doc["rows"][0][4])
        ref = eval_explicit(ZernikeParams(1, 1, 0.0), z)
        assert complex(doc["rows"][0][5], doc["rows"][0][6]) == pytest.approx(ref)


def _explicit_ref(m: int, n: int, gamma: float, z: complex) -> complex:
    """Z_{m,n}^gamma(z) from the explicit sum at 80 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        g = mpmath.mpf(gamma)
        w = mpmath.mpc(z)
        u = 1 - mpmath.mpf(z.real) ** 2 - mpmath.mpf(z.imag) ** 2
        return complex(mpmath.fsum(
            (-1) ** j * math.comb(m, j) * math.comb(n, j) * math.factorial(j)
            * mpmath.rf(g + j + 1, m + n - j) * u**j
            * mpmath.conj(w) ** (m - j) * w ** (n - j)
            for j in range(min(m, n) + 1)))


def _closed_transform_ref(m: int, n: int, gamma: float, z: complex) -> complex:
    """u^(gamma+1) Z_{m,n-1}^{gamma+1}(z) from the explicit sum at 120 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(120):
        g = mpmath.mpf(gamma) + 1
        w = mpmath.mpc(z)
        u = 1 - mpmath.mpf(z.real) ** 2 - mpmath.mpf(z.imag) ** 2
        total = mpmath.fsum(
            (-1) ** j * math.comb(m, j) * math.comb(n - 1, j) * math.factorial(j)
            * mpmath.rf(g + j + 1, m + n - 1 - j) * u**j
            * mpmath.conj(w) ** (m - j) * w ** (n - 1 - j)
            for j in range(min(m, n - 1) + 1))
        return complex(u**g * total)


class TestCauchyCmd:
    def test_closed_at_large_index_and_gamma(self, capsys):
        # through the explicit sum, which cancels here, the closed form
        # printed 1.45e233i; the transform is -7.28e224i
        assert main(["cauchy", "--m", "56", "--n", "63", "--gamma", "300",
                     "--z", "0.224,0.224", "--route", "closed"]) == 0
        _, re_s, im_s = capsys.readouterr().out.strip().split(", ")
        ref = _closed_transform_ref(56, 63, 300.0, 0.224 + 0.224j)
        assert abs(complex(float(re_s), float(im_s)) - ref) <= 1e-13 * abs(ref)

    def test_closed_value(self, capsys):
        assert main(["cauchy", "--gamma", "0", "--z", "0.5,0",
                     "--m", "1", "--n", "1"]) == 0
        assert capsys.readouterr().out == "closed, 0.75, 0.0\n"

    def test_routes_consistent(self, capsys):
        vals = {}
        for route in ("closed", "quad", "direct"):
            assert main(["cauchy", "--gamma", "0.5", "--z", "0.3,-0.2",
                         "--m", "2", "--n", "1", "--route", route]) == 0
            _, re_s, im_s = capsys.readouterr().out.strip().split(", ")
            vals[route] = complex(float(re_s), float(im_s))
        assert vals["closed"] == pytest.approx(vals["quad"], rel=1e-10)
        assert vals["closed"] == pytest.approx(vals["direct"], rel=1e-6)

    def test_monomial_2f1(self, capsys):
        assert main(["cauchy", "--gamma", "0", "--z", "0.5,0",
                     "--monomial", "0,0,0", "--route", "2f1"]) == 0
        label, re_s, im_s = capsys.readouterr().out.strip().split(", ")
        assert label == "2f1"
        # non-terminating series route, so to rounding rather than exactly
        assert complex(float(re_s), float(im_s)) == pytest.approx(-0.5, rel=1e-12)

    def test_n_zero_closed_prints_quad_digits(self, capsys):
        out = {}
        for route in ("closed", "quad"):
            assert main(["cauchy", "--gamma", "0", "--z", "0.5,0", "--m", "1", "--n", "0",
                         "--route", route]) == 0
            label, digits = capsys.readouterr().out.split(", ", 1)
            assert label == route
            out[route] = digits
        assert out["closed"] == out["quad"]

    def test_rim_point_quad_route(self, capsys):
        # |z|^2 rounds to 1 - 2^-53 here; the quad route's incomplete beta
        # self-check once raised at gamma = -0.5
        z = "0.9569403357322088,0.29028467725446233"
        out = {}
        for route in ("closed", "quad"):
            assert main(["cauchy", "--gamma", "-0.5", "--z", z, "--m", "0", "--n", "0",
                         "--route", route]) == 0
            out[route] = capsys.readouterr().out.split(", ", 1)[1]
        assert out["closed"] == out["quad"]

    def test_flag_conflicts_exit_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["cauchy", "--gamma", "0", "--z", "0.5,0"])
        assert ei.value.code == 2
        with pytest.raises(SystemExit) as ei:
            main(["cauchy", "--gamma", "0", "--z", "0.5,0",
                  "--monomial", "1,0,0", "--m", "1", "--n", "1"])
        assert ei.value.code == 2
        with pytest.raises(SystemExit) as ei:
            main(["cauchy", "--gamma", "0", "--z", "0.5,0", "--monomial", "1,0"])
        assert ei.value.code == 2

    @pytest.mark.parametrize("args", [
        ["--m", "2", "--n", "1", "--route", "2f1"],
        ["--monomial", "2,1,1", "--route", "quad"],
        ["--monomial", "2,1,1", "--route", "direct"],
    ])
    def test_route_not_for_input_kind_exit_2(self, capsys, args):
        with pytest.raises(SystemExit) as ei:
            main(["cauchy", "--gamma", "0.5", "--z", "0.3,0.2"] + args)
        assert ei.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR 2: ")
