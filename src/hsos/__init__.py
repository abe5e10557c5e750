"""Hermitian sum-of-squares certificates for bihomogeneous forms.

Given a real bihomogeneous hermitian form f(z, z̄) that is positive away from
the origin, ||z||^(2N) f becomes a sum of squared holomorphic polynomials for
every large enough shift N.  This package computes the minimal such N exactly,
extracts and re-verifies the certificates, evaluates the published sufficient
bounds on N, and numerically audits the analytic estimates behind the
semiclassical bound.

The exports below resolve on first use (PEP 562), so `import hsos` loads no
numpy: `hsos.cli` can then cap the BLAS thread count before numpy loads,
while a library caller's BLAS settings are left alone.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exact": ("QC", "qc"),
    "forms": (
        "HermitianForm",
        "fc_form",
        "inner_power",
        "evaluate",
        "evaluate_exact",
        "quarter_laplacian",
        "lambda_min",
        "lambda_sharp",
        "lambda_tilde",
        "big_lambda",
        "big_lambda_sq",
        "q_symbol",
        "q_evaluate",
    ),
    "multiplier": (
        "MultiplierMatrix",
        "multiplier_matrix",
        "is_psd",
        "psd_decided",
        "minimal_sos_N",
        "sos_decompose",
        "verify_certificate",
        "SosCertificate",
    ),
    "bounds": ("bound_report", "certified_N", "powers_resnick_N", "to_yeung_N", "nie_schweighofer_N"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
