"""Command-line surface: evaluate family members, run verification
suites, compute transforms, and export value tables.

Exit codes: 0 success, 1 verification rows failed, 2 bad flags (an --out
path that cannot be written counts as one), 3 domain or convergence error
(an inf or NaN result, or running out of memory, counts as one).  Every
failure writes one machine-parseable line "ERROR <code>: <reason>" to
stderr.  All output is deterministic for identical flags.
"""

import argparse
import cmath
import math
import sys

import numpy as np

from .cauchy import CAUCHY_ROUTES, MONOMIAL_ROUTES, cauchy_closed_line, cauchy_zernike_closed
from .errors import DiskPolyError, NonConvergentError
from .report import _f17, serialize
from .suites import DEFAULT_GAMMAS, DEFAULT_SEED, SUITE_NAMES, run_suite
from .zernike import MAX_NODES, ROUTES, ZernikeParams, _check_indices, eval_route, jacobi_line

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _flag_error(message)


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


def _parse_range(text: str, flag: str) -> range:
    """The indices of INT or LO:HI; both bounds are checked before the
    range is built, so no bound can ask for a huge range."""
    try:
        lo, hi = text.split(":") if ":" in text else (text, text)
        lo, hi = int(lo), int(hi)
    except ValueError:
        _flag_error(f"{flag} expects INT or LO:HI, got {text!r}")
    _check_indices(lo, hi)
    return range(lo, hi + 1)


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
    every = ns.method == "all"
    r2 = z.real * z.real + z.imag * z.imag
    values = []
    for route in ROUTES if every else (ns.method,):
        if every and (route in ("gauss1", "gauss2") and r2 == 0
                      or route == "contour" and abs(z) > 0.95):
            continue
        v = eval_route(p, z, route, contour_nodes=ns.contour_nodes)
        values.append(v)
        print(_value_line(route, v))
    if every:
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

# (row start, cell separator, row end, row joiner); "\r\n" ends a csv-module row
_ROW_SHAPES = {"csv": ("", ",", "\r\n", ""), "json": ("    [", ", ", "]", ",\n")}


def _line_member(lines: dict, key, start, last: bool):
    """The next member of the charge line kept under ``key`` in ``lines``.

    ``start()`` begins the line at its first block's member the first
    time; after that each call takes the next member, since s rises by one
    per block along a line.  A line is dropped after its ``last`` member,
    so only live lines keep their recurrence state.
    """
    if key not in lines:
        lines[key] = start()
    v = next(lines[key])
    if last:
        del lines[key]
    return v


def _table_blocks(ns, params, n_gammas, points, start, sep, end, joiner):
    """Yield the finished text of each table block, one (m, n, gamma)
    block over the whole grid at a time, in a row shape of _ROW_SHAPES.

    ``params`` runs over (m, n, gamma) with the n_gammas weights innermost.
    Each block is the member s = min(m, n) of the charge line n - m = k
    at its gamma (the position of gamma in the list, so a repeated gamma
    gets a line of its own): its value column comes from
    ``zernike.jacobi_line`` and equals ``eval_jacobi``, and its transform
    column from ``cauchy.cauchy_closed_line`` and equals
    ``cauchy_zernike_closed``, bit for bit.  Along a line m rises by one
    per block, so each line starts at its first block's member, holds
    only its running recurrence state between blocks, and is dropped
    after its last block.  An n = 0 block
    takes its transform column from ``cauchy_zernike_closed``, point by
    point, and only once its value column is finite.  The point cells are
    formatted once, and a block's text is one "%" call that fills its
    value cells in with report._f17's "%.17g".  Every cell
    is an int or such a number, so none holds ",", '"' or "%" and no CSV
    cell needs quoting.  A block yields no text unless all its cells are
    finite, and the error names the first non-finite cell in row order,
    value before transform.
    """
    if not points:
        return
    zs = np.array(points, complex)
    cells = (sep + "%.17g") * (4 if ns.with_cauchy else 2) + end
    tails = [f"{_f17(z.real)}{sep}{_f17(z.imag)}{cells}" for z in points]
    last_m = {p.n - p.m: p.m for p in params}  # the largest m on each line
    lines = {}
    for i, p in enumerate(params):
        k, g, at = p.n - p.m, p.gamma, i % n_gammas
        m_last = last_m[k]
        last = p.m == m_last
        with np.errstate(all="ignore"):
            cols = [_line_member(
                lines, ("value", at, k),
                lambda: jacobi_line(k, g, zs, min(m_last, m_last + k), min(p.m, p.n)), last)]
            if ns.with_cauchy and p.n == 0:
                if np.isfinite(cols[0]).all():
                    cols.append(cauchy_zernike_closed(p, zs))
            elif ns.with_cauchy:
                cols.append(_line_member(
                    lines, ("transform", at, k),
                    lambda: cauchy_closed_line(k, g, zs, min(m_last, m_last + k - 1),
                                               min(p.m, p.n - 1)), last))
        if not all(np.isfinite(c).all() for c in cols):
            for row in zip(*cols):
                for v in row:
                    _finite(complex(v))
        head = f"{start}{p.m}{sep}{p.n}{sep}{_f17(p.gamma)}{sep}"
        template = (joiner if i else "") + head + (joiner + head).join(tails)
        # each row's re and im parts of each column, as interleaved floats
        yield template % tuple(np.column_stack(cols).view(float).ravel().tolist())


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
    thetas = [2.0 * math.pi * j / ns.theta_steps for j in range(ns.theta_steps)]
    points = [complex(r * math.cos(t), r * math.sin(t)) for r in radii for t in thetas]
    params = [ZernikeParams(m, n, g) for m in m_vals for n in n_vals for g in gammas]
    header = ["m", "n", "gamma", "re_z", "im_z", "re_val", "im_val"]
    if ns.with_cauchy:
        header.extend(["re_cauchy", "im_cauchy"])
    blocks = _table_blocks(ns, params, len(gammas), points, *_ROW_SHAPES[ns.format])
    n_rows = len(params) * len(points)
    path = ns.out if ns.out else f"table.{ns.format}"
    with open(path, "w", newline="") as fh:
        if ns.format == "csv":
            fh.write(",".join(header) + "\r\n")
        else:
            fh.write('{\n  "header": [%s],\n  "rows": [\n'
                     % ", ".join(f'"{h}"' for h in header))
        fh.writelines(blocks)
        if ns.format == "json":
            fh.write("\n  ]\n}\n" if n_rows else "  ]\n}\n")
    print(f"wrote {n_rows} rows -> {path}")
    return 0


# ---------------------------------------------------------------- cauchy

def cmd_cauchy(ns) -> int:
    z = _parse_z(ns.z)
    has_mono = ns.monomial is not None
    has_pair = ns.m is not None or ns.n is not None
    if has_mono == has_pair:
        _flag_error("specify exactly one of --monomial or --m/--n")
    if has_pair and (ns.m is None or ns.n is None):
        _flag_error("--m and --n go together")
    routes = MONOMIAL_ROUTES if has_mono else CAUCHY_ROUTES
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
    p.add_argument("--method", required=True, choices=(*ROUTES, "all"))
    p.add_argument("--contour-nodes", type=int, default=None, metavar="N",
                   help=f"run the contour route as one pass of N nodes, an integer "
                        f"from 16 to {MAX_NODES}, instead of its adaptive node rule")
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
    p.add_argument("--route", default="closed", choices={**CAUCHY_ROUTES, **MONOMIAL_ROUTES})
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
    except OSError as exc:  # an --out path that cannot be written
        print(f"ERROR 2: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a request too large to hold, such as a huge table grid
        print("ERROR 3: not enough memory for this request", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
