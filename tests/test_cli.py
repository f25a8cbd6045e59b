"""Tests for the report container, the verification suites, and the CLI.

CLI tests drive main() in-process and parse stdout/stderr; every
determinism claim is checked byte for byte.
"""

import csv
import io
import json
import math

import pytest

from diskpoly import DomainError, NonConvergentError, ZernikeParams, cli, eval_explicit, pochhammer
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
from diskpoly.suites import normalized_deviation, run_suite


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

class TestFiniteContract:
    """A value that overflows to inf or NaN is a convergence error, not a
    printed non-finite number with exit 0."""

    BIG = ["--m", "64", "--n", "64", "--gamma", "1000", "--z", "0.3,0.2"]

    @pytest.mark.parametrize("args", [
        ["eval", "--method", "explicit"] + BIG,
        ["eval", "--method", "gauss1"] + BIG,
        ["eval", "--method", "jacobi"] + BIG,
        ["eval", "--method", "contour"] + BIG,
        ["eval", "--method", "all"] + BIG,
        ["cauchy", "--route", "closed"] + BIG,
    ])
    def test_non_finite_value_exit_3(self, capsys, args):
        rc = main(args)
        out, err = capsys.readouterr()
        assert _one_error_3(rc, err), (rc, out, err)
        assert out == ""

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

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--suite", "spectral", "--seed", "7", "--out", str(a)])
        main(["verify", "--suite", "spectral", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "rep.csv"
        assert main(["verify", "--suite", "hermite", "--format", "csv",
                     "--out", str(out)]) == 0
        rows = list(csv.reader(out.open()))
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

    def test_bad_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["verify", "--suite", "everything"])
        assert ei.value.code == 2


class TestTable:
    def test_single_point_matches_eval(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "2", "--n", "1", "--gammas", "0.5",
                     "--r-steps", "1", "--theta-steps", "1",
                     "--r-max", "0.7", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["m", "n", "gamma", "re_z", "im_z", "re_val", "im_val"]
        assert len(rows) == 2
        cells = rows[1]
        assert main(["eval", "--m", "2", "--n", "1", "--gamma", "0.5",
                     "--z", "0.7,0", "--method", "explicit"]) == 0
        line = capsys.readouterr().out.strip()
        _, re_s, im_s = line.split(", ")
        assert float(cells[5]) == float(re_s)
        assert float(cells[6]) == float(im_s)

    def test_boundary_ring_modulus(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "2", "--n", "1", "--gammas", "0.5",
                     "--r-steps", "0", "--theta-steps", "8",
                     "--include-boundary", "--out", str(out)]) == 0
        rows = list(csv.reader(out.open()))[1:]
        assert len(rows) == 8
        ref = pochhammer(1.5, 3)
        for cells in rows:
            v = complex(float(cells[5]), float(cells[6]))
            assert abs(v) == pytest.approx(ref, rel=1e-12)

    def test_empty_range_header_only(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "2:1", "--n", "0", "--out", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows == [["m", "n", "gamma", "re_z", "im_z", "re_val", "im_val"]]

    def test_empty_range_json(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        assert main(["table", "--m", "2:1", "--n", "0", "--format", "json",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rows"] == []

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

        def flaky(p, z):
            calls.append(z)
            if len(calls) == 3:
                raise NonConvergentError("injected")
            return eval_explicit(p, z)

        monkeypatch.setattr(cli, "eval_explicit", flaky)
        assert main(["table", "--m", "1", "--n", "1", "--out", str(out)]) == 3
        assert len(calls) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR 3: ")
        assert set(tmp_path.iterdir()) <= {out}

    def test_out_symlink_written_through(self, capsys, tmp_path):
        target = tmp_path / "target.csv"
        link = tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(["table", "--m", "1", "--n", "1", "--r-steps", "1",
                     "--theta-steps", "2", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert len(list(csv.reader(target.open()))) == 3

    def test_cauchy_columns(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--m", "1", "--n", "0:1", "--gammas", "0",
                     "--r-steps", "1", "--theta-steps", "2", "--r-max", "0.5",
                     "--with-cauchy", "--out", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0][-2:] == ["re_cauchy", "im_cauchy"]
        # (1,1) at z=0.5: transform value 0.75 from the closed form
        vals = {(c[0], c[1], c[3]): complex(float(c[7]), float(c[8])) for c in rows[1:]}
        assert vals[("1", "1", "0.5")] == pytest.approx(0.75, rel=1e-12)

    def test_refuses_outside_grid(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(["table", "--m", "1", "--n", "1", "--r-max", "1.0"])
        assert ei.value.code == 2

    def test_refuses_boundary_cauchy_n0(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(["table", "--m", "1", "--n", "0", "--include-boundary",
                  "--with-cauchy"])
        assert ei.value.code == 2

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


class TestCauchyCmd:
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

    def test_n_zero_closed_exit_3(self, capsys):
        assert main(["cauchy", "--gamma", "0", "--z", "0.5,0",
                     "--m", "1", "--n", "0"]) == 3
        assert capsys.readouterr().err.startswith("ERROR 3: ")

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
