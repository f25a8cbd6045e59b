"""The package's public names are its modules' ``__all__`` lists, and its
sources parse at the oldest Python it supports."""

import ast
import importlib
import inspect
from pathlib import Path

import diskpoly

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
