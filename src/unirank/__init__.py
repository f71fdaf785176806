"""Exact q-series toolkit for rank-refined unimodal and partition counting.

Submodules:

* ``series``: truncated power series, coefficient rings, Pochhammer products.
* ``families``: combinatorial objects, enumeration, and rank counting.
* ``rows``: every fixed summed q-series, as data.
* ``gflib``: named generating-function builders and bilateral sums.
* ``identities``: the verification catalog of exact identities.
* ``parity``: mod-2 characterization of the even-peak unimodal counts.
* ``growth``: large-n exact counts and growth-rate calibration.
* ``cli``: the ``unirank`` command line interface.
"""

from .families import FAMILIES, count, count_by_rank, enumerate_objects
from .gflib import ANALYTIC_KEYS, SERIES_KEYS, build, default_order
from .growth import (
    COUNT_KEYS,
    asymptotic_main,
    exact_counts,
    monotonicity_check,
    ratio_report,
)
from .identities import (
    IDENTITY_KEYS,
    IdentityRecord,
    VerificationReport,
    apply_bailey_lemma,
    check_bailey_pair,
    lovejoy_pair,
    verify,
    verify_all,
)
from .parity import (
    count_parity_bits,
    ideal_count,
    norm_parity,
    odd_criterion,
    parity_agreement,
    rep_count,
)
from .series import (
    GF2,
    QQ,
    ZETA,
    ZZ,
    ComparisonResult,
    LatticeMismatchError,
    NotInvertibleError,
    OrderMismatchError,
    PrefixedSeries,
    SingularPochhammerError,
    TruncatedSeries,
    UnirankError,
    ZetaLaurent,
    pochhammer,
    pochhammer_prefixed,
)

__version__ = "0.1.0"

__all__ = [
    "GF2", "QQ", "ZETA", "ZZ",
    "ComparisonResult", "LatticeMismatchError", "NotInvertibleError",
    "OrderMismatchError", "PrefixedSeries", "SingularPochhammerError",
    "TruncatedSeries", "UnirankError", "ZetaLaurent",
    "pochhammer", "pochhammer_prefixed",
    "FAMILIES", "count", "count_by_rank", "enumerate_objects",
    "ANALYTIC_KEYS", "SERIES_KEYS", "build", "default_order",
    "IDENTITY_KEYS", "IdentityRecord", "VerificationReport",
    "verify", "verify_all",
    "check_bailey_pair", "apply_bailey_lemma", "lovejoy_pair",
    "count_parity_bits", "ideal_count", "norm_parity", "odd_criterion",
    "parity_agreement", "rep_count",
    "COUNT_KEYS", "exact_counts", "asymptotic_main", "monotonicity_check",
    "ratio_report",
    "__version__",
]
