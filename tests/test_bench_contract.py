"""The names the traced benchmark run wraps must exist in the package.

``bench/spans.py`` patches package functions by name from the outside, so
a rename or a dropped cache there would only surface in a traced
benchmark run; this test loads its name tables and checks them here, and
runs one small traced pass of the exact layer.
"""

import importlib
import importlib.util
from pathlib import Path

from diskpoly import algebra, spectral, zernike

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


def _fingerprint(value):
    """Plain data with every float as hex, so a sign of zero shows."""
    if isinstance(value, algebra.DiskExpr):
        return ("expr", _fingerprint(value.base_offset),
                [(key, _fingerprint(c)) for key, c in value.terms.items()])
    if isinstance(value, (tuple, list)):
        return [_fingerprint(v) for v in value]
    if isinstance(value, complex):
        return ("complex", value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def _exact_pass():
    # through the module attributes, which the recorder replaces
    out = []
    for nu, m, n in [(2.5, 1, 3), (4.2, 3, 2), (6.0, 5, 0)]:
        sp = spectral.SpectralParams(nu, m, n)
        out.append(spectral.eigen_residual(sp))
        out.append(spectral.bridge_pair(sp))
    e = algebra.DiskExpr({(2, 1, 0): 1.0 + 0.5j, (0, 3, 1): -2.0, (1, 0, 2): 0.25}, 0.5)
    for nu in (1.0, 2.5):
        out.append(spectral.factorization_residuals(nu, e))
    for m, n in [(0, 0), (2, 3), (5, 4)]:
        p = zernike.ZernikeParams(m, n, 0.75)
        out.append(zernike.rodrigues_expr(p))
        out.append(zernike.explicit_expr(p))
    return _fingerprint(out)


def _clear_caches():
    spectral.psi.cache_clear()
    zernike.rodrigues_expr.cache_clear()


def test_traced_exact_pass_matches_untraced():
    spans = _load_spans()
    originals = (spectral.nabla, zernike.explicit_expr, algebra.DiskExpr.__init__)
    _clear_caches()
    plain = _exact_pass()
    _clear_caches()
    rec = spans.Recorder()
    rec.install()
    try:
        traced = _exact_pass()
    finally:
        rec.uninstall()
    assert (spectral.nabla, zernike.explicit_expr, algebra.DiskExpr.__init__) == originals
    assert traced == plain
    per = spans.per_function(rec.snapshot())
    for name in ("spectral.nabla", "zernike.explicit_expr", "zernike.rodrigues_expr",
                 "spectral.psi"):
        assert per[name]["calls"] > 0, name
