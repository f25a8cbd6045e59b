"""The package's public names are its modules' ``__all__`` lists."""

import importlib
import inspect

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
