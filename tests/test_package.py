"""The package's public names are its modules' ``__all__`` lists, its
sources parse at the oldest Python it supports, and bad arguments at its
entry points raise its own errors, not bare Python ones."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import diskpoly
from diskpoly import (DiskExpr, DomainError, NonConvergentError, cauchy_closed_line, eval_expr,
                      hermite, hermite_limit_error, hyp2f1, incomplete_beta, jacobi_line,
                      jacobi_p, pochhammer)

MODULES = ("errors", "numerics", "algebra", "zernike", "spectral", "cauchy")


def test_every_module_name_is_the_same_object_on_the_package():
    for short in MODULES:
        mod = importlib.import_module("diskpoly." + short)
        for name in mod.__all__:
            assert getattr(diskpoly, name) is getattr(mod, name), f"{short}.{name}"


def test_package_exports_nothing_else():
    names = {name for short in MODULES
             for name in importlib.import_module("diskpoly." + short).__all__}
    public = {name for name, value in vars(diskpoly).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == names


def test_sources_parse_at_the_python_floor():
    # a best-effort check of requires-python = ">=3.10": ast's
    # feature_version rejects much newer syntax (except*, type aliases),
    # but not every newer grammar rule, and no newer library call
    root = Path(__file__).resolve().parent.parent
    files = sorted(p for d in ("src", "tests", "bench", "demos")
                   for p in (root / d).rglob("*.py"))
    assert len(files) >= 29
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("call, error", [
    (lambda: hermite_limit_error(1, 1, 0.3, "abc"), DomainError),
    (lambda: hermite_limit_error(1, 1, 0.3, None), DomainError),
    (lambda: hyp2f1("a", 1, 1, 0.5), DomainError),
    (lambda: incomplete_beta("a", 1, 0.5), DomainError),
    (lambda: jacobi_p(2, "a", 0.5, 0.3), DomainError),
    (lambda: jacobi_p(2, 0.5, 0.5, "x"), DomainError),
    (lambda: pochhammer("a", 2), DomainError),
    (lambda: eval_expr(DiskExpr.one(), "abc"), DomainError),
    (lambda: eval_expr(DiskExpr.z_power(1), "0.3"), DomainError),
    (lambda: hermite(64, 64, 1e300), NonConvergentError),
    (lambda: next(jacobi_line("a", 0.5, 0.3, 2)), DomainError),
    (lambda: next(cauchy_closed_line(1, 0.5, 0.3, "2")), DomainError),
    (lambda: next(cauchy_closed_line(65, 0.5, 0.3, 0)), DomainError),
    (lambda: incomplete_beta([1], 1, 0.5), DomainError),
    (lambda: incomplete_beta(1, 1, np.array([0.5])), DomainError),
    (lambda: hermite(8, 8, 1e20 + 1e20j), NonConvergentError),
    (lambda: DiskExpr({(1, 0): 1}), DomainError),
    (lambda: DiskExpr([((0, 0, 0), 1)]), DomainError),
    (lambda: DiskExpr({(1, 0, 0): "a"}), DomainError),
    (lambda: DiskExpr({(1.5, 0, 0): 1}), DomainError),
    (lambda: DiskExpr({(0, 0, 0): 1}, float("nan")), DomainError),
    (lambda: DiskExpr({(0, 0, 0): 1}, "x"), DomainError),
], ids=["rho-str", "rho-none", "hyp2f1", "incomplete-beta", "jacobi-p-alpha", "jacobi-p-x",
        "pochhammer", "eval-expr-str", "eval-expr-numeric-str", "hermite-overflow",
        "jacobi-line-k", "closed-line-s-max", "closed-line-past-cap", "incomplete-beta-list",
        "incomplete-beta-ndarray", "hermite-non-finite", "disk-expr-pair-key",
        "disk-expr-list", "disk-expr-str-coeff", "disk-expr-float-key",
        "disk-expr-nan-offset", "disk-expr-str-offset"])
def test_bad_arguments_raise_package_errors(call, error):
    with pytest.raises(error):
        call()
