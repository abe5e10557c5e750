"""Hermitian sum-of-squares certificates for bihomogeneous forms.

Given a real bihomogeneous hermitian form f(z, z̄) that is positive away from
the origin, ||z||^(2N) f becomes a sum of squared holomorphic polynomials for
every large enough shift N.  This package computes the minimal such N exactly,
extracts and re-verifies the certificates, evaluates the published sufficient
bounds on N, and numerically audits the analytic estimates behind the
semiclassical bound.
"""

from .exact import QC, qc
from .forms import (
    HermitianForm,
    big_lambda,
    big_lambda_sq,
    evaluate,
    evaluate_exact,
    fc_form,
    inner_power,
    lambda_min,
    lambda_sharp,
    lambda_tilde,
    q_evaluate,
    q_symbol,
    quarter_laplacian,
)
from .multiplier import (
    MultiplierMatrix,
    SosCertificate,
    is_psd,
    minimal_sos_N,
    multiplier_matrix,
    psd_decided,
    sos_decompose,
    verify_certificate,
)
from .bounds import bound_report, certified_N, nie_schweighofer_N, powers_resnick_N, to_yeung_N

__version__ = "0.1.0"

__all__ = [
    "QC",
    "qc",
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
    "MultiplierMatrix",
    "multiplier_matrix",
    "is_psd",
    "psd_decided",
    "minimal_sos_N",
    "sos_decompose",
    "verify_certificate",
    "SosCertificate",
    "bound_report",
    "certified_N",
    "powers_resnick_N",
    "to_yeung_N",
    "nie_schweighofer_N",
    "__version__",
]
