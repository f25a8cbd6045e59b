"""The names the traced benchmark run wraps must exist in the package.

``bench/spans.py`` patches package functions by name from the outside, so
a rename or a dropped cache there would only surface in a traced
benchmark run; this test loads its name tables and checks them here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_spanned_and_counted_names_exist():
    spans = _load_spans()
    for table in (spans.SPANNED, spans.COUNTED):
        for short, names in table.items():
            mod = importlib.import_module("diskpoly." + short)
            for name in names:
                assert hasattr(mod, name), f"diskpoly.{short}.{name}"


def test_cached_names_expose_cache_info():
    spans = _load_spans()
    for short, names in spans.CACHED.items():
        mod = importlib.import_module("diskpoly." + short)
        for name in names:
            assert callable(getattr(getattr(mod, name), "cache_info", None)), \
                f"diskpoly.{short}.{name}"
