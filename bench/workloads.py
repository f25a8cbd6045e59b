"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload is a ``Workload`` with three steps.  ``prepare`` builds the
inputs from the seed (same seed, same inputs) and runs before the clock
starts.  ``run`` is the timed pass and calls only public entry points:
``diskpoly.cli.main`` and public functions of ``zernike``, ``spectral`` and
``algebra``.  ``check`` runs after the clock stops and returns
``(attempted, failed, digest)``; ``digest`` identifies the pass output so
the parent can require byte-identical reruns where the CLI promises them.
"""

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from diskpoly import algebra, cli, spectral, zernike
from diskpoly.report import INFORMATIONAL
from diskpoly.suites import normalized_deviation
from diskpoly.zernike import ZernikeParams

# Tolerances are the suites' own.
ROUTE_TOL = 1e-9      # normalized deviation between evaluation routes
ORTHO_TOL = 1e-11     # orthogonality of the Gram matrix
SPECTRAL_TOL = 1e-10  # exact-algebra identities
_TINY = 1e-250


@dataclass(frozen=True)
class Workload:
    prepare: Callable
    run: Callable
    check: Callable


def _gamma(rng: random.Random) -> float:
    """A weight exponent drawn from (-1, 3]."""
    return 3.0 - 4.0 * rng.random()


def _cli_run(inp: dict) -> int:
    return cli.main(inp["argv"])


# ------------------------------------------------------------ verify_all

def _verify_prepare(seed: int, workdir: str) -> dict:
    out = os.path.join(workdir, "verify_all.json")
    return {"out": out,
            "argv": ["verify", "--suite", "all", "--max-mn", "8",
                     "--seed", str(seed), "--out", out]}


def _verify_check(inp: dict, rc, pass_index: int):
    """Exit code 0 and every gating row passes; digest of the report bytes."""
    with open(inp["out"], "rb") as fh:
        raw = fh.read()
    attempted, failed = 1, int(rc != 0)
    for row in json.loads(raw)["rows"]:
        if row["tolerance"] >= INFORMATIONAL:
            continue
        attempted += 1
        failed += not row["pass"]
    return attempted, failed, hashlib.sha256(raw).hexdigest()


# ------------------------------------------------------------ table_grid

TABLE_M = (0, 8)
TABLE_N = (1, 8)       # n >= 1 keeps every row on the closed transform
TABLE_R_STEPS = 6
TABLE_THETA_STEPS = 32
TABLE_GAMMAS = 4
TABLE_SAMPLE = 48      # rows recomputed per pass


def _table_prepare(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    gammas = [_gamma(rng) for _ in range(TABLE_GAMMAS)]
    out = os.path.join(workdir, "table.csv")
    argv = ["table", "--m", "%d:%d" % TABLE_M, "--n", "%d:%d" % TABLE_N,
            "--gammas=" + ",".join(repr(g) for g in gammas),
            "--r-steps", str(TABLE_R_STEPS), "--theta-steps", str(TABLE_THETA_STEPS),
            "--with-cauchy", "--out", out]
    rows = ((TABLE_M[1] - TABLE_M[0] + 1) * (TABLE_N[1] - TABLE_N[0] + 1)
            * TABLE_GAMMAS * TABLE_R_STEPS * TABLE_THETA_STEPS)
    return {"out": out, "argv": argv, "rows": rows, "seed": seed}


def cauchy_reference(m: int, n: int, gamma: float, z: complex) -> complex:
    """The monomial route of the transform in 50-digit arithmetic.

    Each term conj(z)^(m-j) z^(n-j) u^j of the explicit sum is transformed by
    its incomplete beta integral, with exact coefficients.  The float route
    ``cauchy_zernike_quad`` computes the same sum after expanding u^j into
    monomials, and its cancellation costs up to 2.5e-8 of the normalized value
    at (m, n) = (8, 8) with gamma near -1, so it cannot referee a 1e-9 check
    there; this evaluation of the same route can.
    """
    import mpmath  # loaded after the timed pass, so it stays out of peak RSS

    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        w = mpmath.mpc(z)
        r2 = mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2
        chi = n - m
        acc = mpmath.mpc(0)
        for j in range(min(m, n) + 1):
            coef = ((-1) ** j * math.comb(m, j) * math.comb(n, j) * math.factorial(j)
                    * mpmath.rf(g + j + 1, m + n - j))
            a, b = m - j + 1, g + j + 1
            if chi <= 0:
                term = -mpmath.betainc(a, b, 0, r2) / w ** (1 - chi)
            else:
                term = w ** (chi - 1) * mpmath.betainc(a, b, r2, 1)
            acc += coef * term
        return complex(acc)


def _table_check(inp: dict, rc, pass_index: int):
    """Exit code 0, the full row count, and a seeded sample of rows
    recomputed: the value by the Jacobi route, the transform by the
    high-precision monomial route, both at the suites' normalized 1e-9."""
    with open(inp["out"], newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [r for r in reader]
    attempted, failed = 2, int(rc != 0) + int(len(rows) != inp["rows"])
    scale = {}
    for r in rows:
        key = (r[0], r[1], r[2])
        s = scale.setdefault(key, [0.0, 0.0])
        s[0] = max(s[0], abs(complex(float(r[5]), float(r[6]))))
        s[1] = max(s[1], abs(complex(float(r[7]), float(r[8]))))
    rng = random.Random(inp["seed"] * 7919 + pass_index)
    for i in rng.sample(range(len(rows)), min(TABLE_SAMPLE, len(rows))):
        r = rows[i]
        m, n, g = int(r[0]), int(r[1]), float(r[2])
        z = complex(float(r[3]), float(r[4]))
        value = complex(float(r[5]), float(r[6]))
        transform = complex(float(r[7]), float(r[8]))
        s_val, s_tr = scale[(r[0], r[1], r[2])]
        ref_val = zernike.eval_jacobi(ZernikeParams(m, n, g), z)
        ref_tr = cauchy_reference(m, n, g, z)
        attempted += 2
        failed += normalized_deviation(value, ref_val, s_val) >= ROUTE_TOL
        failed += normalized_deviation(transform, ref_tr, s_tr) >= ROUTE_TOL
    return attempted, failed, None


# ------------------------------------------------------------ exact_gram

GRAM_MAX = 8
SPECTRAL_LEVELS = (8, 12, 15)  # nu = k + 1/2 + f, f in [0.05, 0.95]: k + 1 levels each
SPECTRAL_N_MAX = 16
FACTOR_EXPRS = 300
FACTOR_NUS = (1.0, 2.5, 6.0)
RODRIGUES_MAX = 24


def _random_expr(rng: random.Random):
    terms = {}
    for _ in range(1 + rng.randrange(4)):
        key = (rng.randrange(4), rng.randrange(4), rng.randrange(3))
        terms[key] = complex(4.0 * rng.random() - 2.0, 4.0 * rng.random() - 2.0)
    return algebra.DiskExpr(terms, rng.choice((0.0, 1.0, 0.5, 1.5)))


def _gram_prepare(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    idx = [(m, n) for m in range(GRAM_MAX + 1) for n in range(GRAM_MAX + 1)]
    pairs = [(a, b) for i, a in enumerate(idx) for b in idx[i:] if a[1] - a[0] == b[1] - b[0]]
    nus = [k + 0.5 + rng.uniform(0.05, 0.95) for k in SPECTRAL_LEVELS]
    levels = [(nu, m, n) for nu in nus for m in range(math.ceil(nu - 0.5))
              for n in range(SPECTRAL_N_MAX + 1)]
    exprs = [(FACTOR_NUS[i % len(FACTOR_NUS)], _random_expr(rng)) for i in range(FACTOR_EXPRS)]
    return {"gram_gamma": _gamma(rng), "pairs": pairs, "levels": levels, "exprs": exprs,
            "rodrigues_gamma": _gamma(rng)}


def _gram_run(inp: dict):
    g = inp["gram_gamma"]
    gram = {(a, b): zernike.inner_product(ZernikeParams(*a, g), ZernikeParams(*b, g))
            for a, b in inp["pairs"]}
    eigen, bridge = [], []
    for nu, m, n in inp["levels"]:
        sp = spectral.SpectralParams(nu, m, n)
        eigen.append(spectral.eigen_residual(sp))
        bridge.append(spectral.bridge_pair(sp))
    factor = [spectral.factorization_residuals(nu, e) for nu, e in inp["exprs"]]
    rg = inp["rodrigues_gamma"]
    rodrigues = []
    for m in range(RODRIGUES_MAX + 1):
        for n in range(RODRIGUES_MAX + 1):
            p = ZernikeParams(m, n, rg)
            rodrigues.append((zernike.rodrigues_expr(p), zernike.explicit_expr(p)))
    return gram, eigen, bridge, factor, rodrigues


def _norm_squared(m: int, n: int, g: float) -> float:
    """Closed form pi m! n! (g+1)_{m+n}^2 / ((g+m+n+1) (g+1)_m (g+1)_n)."""
    def rf(a, k):
        return math.prod(a + i for i in range(k))
    return (math.pi * math.factorial(m) * math.factorial(n) * rf(g + 1, m + n) ** 2
            / ((g + m + n + 1) * rf(g + 1, m) * rf(g + 1, n)))


def _coeff_residual(lhs, rhs) -> float:
    diff = algebra.max_abs_coeff(algebra.add(lhs, algebra.scale(rhs, -1.0)))
    return diff / max(algebra.max_abs_coeff(lhs), _TINY)


def _gram_check(inp: dict, out, pass_index: int):
    """Orthogonality at 1e-11 (diagonal against the closed-form norm),
    the spectral identities and Rodrigues = explicit at 1e-10."""
    gram, eigen, bridge, factor, rodrigues = out
    g = inp["gram_gamma"]
    errs = []
    for (a, b), ip in gram.items():
        if a == b:
            ref = _norm_squared(*a, g)
            errs.append((abs(ip - ref) / ref, ORTHO_TOL))
        else:
            errs.append((abs(ip) / math.sqrt(gram[(a, a)] * gram[(b, b)]), ORTHO_TOL))
    errs += [(r, SPECTRAL_TOL) for r in eigen]
    errs += [(_coeff_residual(lhs, rhs), SPECTRAL_TOL) for lhs, rhs in bridge]
    errs += [(max(r), SPECTRAL_TOL) for r in factor]
    errs += [(_coeff_residual(e, r), SPECTRAL_TOL) for r, e in rodrigues]
    return len(errs), sum(not (e < tol) for e, tol in errs), None


WORKLOADS = {
    "verify_all": Workload(_verify_prepare, _cli_run, _verify_check),
    "table_grid": Workload(_table_prepare, _cli_run, _table_check),
    "exact_gram": Workload(_gram_prepare, _gram_run, _gram_check),
}
