"""Command-line surface: evaluate family members, run verification
suites, compute transforms, and export value tables.

Exit codes: 0 success, 1 verification rows failed, 2 bad flags, 3 domain
or convergence error (an inf or NaN result counts as one).  Every failure
writes one machine-parseable line "ERROR <code>: <reason>" to stderr.  All
output is deterministic for identical flags.
"""

import argparse
import cmath
import csv
import math
import sys

from .cauchy import (cauchy_direct_2d, cauchy_monomial_2f1, cauchy_monomial_closed,
                     cauchy_zernike_closed, cauchy_zernike_quad)
from .errors import DiskPolyError, NonConvergentError
from .report import _f17, serialize
from .suites import DEFAULT_GAMMAS, DEFAULT_SEED, SUITE_NAMES, run_suite
from .zernike import ROUTES, ZernikeParams, eval_explicit, eval_route

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"ERROR 2: {message}", file=sys.stderr)
        raise SystemExit(2)


def _flag_error(msg: str):
    print(f"ERROR 2: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _parse_z(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    _flag_error(f"--z expects 're,im', got {text!r}")


def _parse_gammas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        _flag_error(f"--gammas expects comma-separated reals, got {text!r}")


def _parse_range(text: str, flag: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return list(range(int(lo), int(hi) + 1))
        return [int(text)]
    except ValueError:
        _flag_error(f"{flag} expects INT or LO:HI, got {text!r}")


def _finite(v: complex) -> complex:
    """Return v, or raise NonConvergentError if a part is inf or NaN."""
    if not cmath.isfinite(v):
        raise NonConvergentError(f"value is not finite: {v.real!r}, {v.imag!r}")
    return v


def _value_line(label: str, v: complex) -> str:
    v = _finite(v)
    return f"{label}, {v.real!r}, {v.imag!r}"


# ------------------------------------------------------------------ eval

def cmd_eval(ns) -> int:
    p = ZernikeParams(ns.m, ns.n, ns.gamma)
    z = _parse_z(ns.z)
    if ns.method != "all":
        v = eval_route(p, z, ns.method, contour_nodes=ns.contour_nodes)
        print(_value_line(ns.method, v))
        return 0
    values = []
    r2 = z.real * z.real + z.imag * z.imag
    for route in ROUTES:
        if route in ("gauss1", "gauss2") and r2 == 0:
            continue
        if route == "contour" and abs(z) > 0.95:
            continue
        v = eval_route(p, z, route, contour_nodes=ns.contour_nodes)
        values.append(v)
        print(_value_line(route, v))
    dev = max((abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]),
              default=0.0)
    print(f"max_pairwise_deviation, {dev!r}")
    return 0


# ---------------------------------------------------------------- verify

def cmd_verify(ns) -> int:
    report = run_suite(ns.suite, max_mn=ns.max_mn, gammas=_parse_gammas(ns.gammas),
                       seed=ns.seed)
    path = ns.out if ns.out else f"verify_{ns.suite}.{ns.format}"
    with open(path, "w", newline="") as fh:
        fh.write(serialize(report, ns.format))
    total = len(report.rows)
    print(f"{ns.suite}: {report.n_pass} of {total} rows pass -> {path}")
    if not report.all_passed:
        print(f"ERROR 1: {report.n_fail} of {total} rows failed", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------- table

def _table_rows(ns, params, points):
    """Yield the finished cells of each table row, one row at a time."""
    for p in params:
        for z in points:
            v = _finite(eval_explicit(p, z))
            row = [p.gamma, z.real, z.imag, v.real, v.imag]
            if ns.with_cauchy:
                c = _finite(cauchy_zernike_closed(p, z) if p.n >= 1
                            else cauchy_zernike_quad(p, z))
                row.extend([c.real, c.imag])
            yield [str(p.m), str(p.n)] + [_f17(x) for x in row]


def cmd_table(ns) -> int:
    m_vals = _parse_range(ns.m, "--m")
    n_vals = _parse_range(ns.n, "--n")
    gammas = _parse_gammas(ns.gammas)
    if ns.r_steps < 0 or ns.theta_steps < 1:
        _flag_error("need --r-steps >= 0 and --theta-steps >= 1")
    if not 0.0 < ns.r_max < 1.0:
        _flag_error(f"grid radii must stay inside the disk, got --r-max {ns.r_max:g}")
    radii = [ns.r_max * i / ns.r_steps for i in range(1, ns.r_steps + 1)]
    if ns.include_boundary:
        radii.append(1.0)
    if ns.with_cauchy and ns.include_boundary and any(n == 0 for n in n_vals):
        _flag_error("transform of the n=0 column is undefined on the boundary ring")
    thetas = [2.0 * math.pi * j / ns.theta_steps for j in range(ns.theta_steps)]
    points = [complex(r * math.cos(t), r * math.sin(t)) for r in radii for t in thetas]
    params = [ZernikeParams(m, n, g) for m in m_vals for n in n_vals for g in gammas]
    header = ["m", "n", "gamma", "re_z", "im_z", "re_val", "im_val"]
    if ns.with_cauchy:
        header.extend(["re_cauchy", "im_cauchy"])
    rows = _table_rows(ns, params, points)
    path = ns.out if ns.out else f"table.{ns.format}"
    with open(path, "w", newline="") as fh:
        if ns.format == "csv":
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        else:
            fh.write('{\n  "header": [%s],\n  "rows": [\n'
                     % ", ".join(f'"{h}"' for h in header))
            sep = ""
            for cells in rows:
                fh.write("%s    [%s]" % (sep, ", ".join(cells)))
                sep = ",\n"
            fh.write("\n  ]\n}\n" if sep else "  ]\n}\n")
    print(f"wrote {len(params) * len(points)} rows -> {path}")
    return 0


# ---------------------------------------------------------------- cauchy

_MONOMIAL_ROUTES = {"closed": cauchy_monomial_closed, "2f1": cauchy_monomial_2f1}
_PAIR_ROUTES = {
    "closed": cauchy_zernike_closed,
    "quad": cauchy_zernike_quad,
    "direct": lambda p, z: cauchy_direct_2d(lambda w: eval_explicit(p, w), p.gamma, z),
}


def cmd_cauchy(ns) -> int:
    z = _parse_z(ns.z)
    has_mono = ns.monomial is not None
    has_pair = ns.m is not None or ns.n is not None
    if has_mono == has_pair:
        _flag_error("specify exactly one of --monomial or --m/--n")
    if has_pair and (ns.m is None or ns.n is None):
        _flag_error("--m and --n go together")
    routes = _MONOMIAL_ROUTES if has_mono else _PAIR_ROUTES
    if ns.route not in routes:
        _flag_error(f"--route {ns.route} needs {'--m/--n' if has_mono else '--monomial'}")
    if has_mono:
        parts = ns.monomial.split(",")
        if len(parts) != 3:
            _flag_error(f"--monomial expects 'p,q,k', got {ns.monomial!r}")
        try:
            p, q, k = (int(s) for s in parts)
        except ValueError:
            _flag_error(f"--monomial expects integers, got {ns.monomial!r}")
        v = routes[ns.route](p, q, k, ns.gamma, z)
    else:
        v = routes[ns.route](ZernikeParams(ns.m, ns.n, ns.gamma), z)
    print(_value_line(ns.route, v))
    return 0


# ------------------------------------------------------------------ main

def build_parser() -> _Parser:
    parser = _Parser(prog="diskpoly",
                     description=__doc__.split("\n\n")[0].replace("\n", " "))
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval", help="evaluate one family member at one point")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--z", required=True, help="point as 're,im'")
    p.add_argument("--method", required=True, choices=ROUTES + ("all",))
    p.add_argument("--contour-nodes", type=int, default=None,
                   help="fixed node count for the contour route")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run a verification suite and write a report")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--max-mn", type=int, default=4)
    p.add_argument("--gammas", default=",".join(format(g, "g") for g in DEFAULT_GAMMAS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="export values over a polar grid")
    p.add_argument("--m", required=True, help="index or range LO:HI")
    p.add_argument("--n", required=True, help="index or range LO:HI")
    p.add_argument("--gammas", default="0")
    p.add_argument("--r-steps", type=int, default=3)
    p.add_argument("--theta-steps", type=int, default=8)
    p.add_argument("--r-max", type=float, default=0.95)
    p.add_argument("--include-boundary", action="store_true")
    p.add_argument("--with-cauchy", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cauchy", help="weighted Cauchy transform of a monomial or member")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--z", required=True, help="point as 're,im'")
    p.add_argument("--monomial", default=None, help="exponents 'p,q,k'")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--route", default="closed", choices=("closed", "quad", "2f1", "direct"))
    p.set_defaults(func=cmd_cauchy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except DiskPolyError as exc:
        print(f"ERROR 3: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
