"""Exact sure-loss detection for fractional betting odds and free coupons.

Everything is exact.  The API takes and returns Fractions; the pricing,
the stake solve and the certificate check run on Python ints over exact
common denominators (:func:`dutchbook.model.scaled`), and decimals only
appear in display helpers.

The top level re-exports the model types, the coupon rules, every error
class and the functions the README and the demos use; the rest of the
API lives in the submodules.
"""

from .choquet import (
    decompose,
    lower_event,
    lower_natural_extension,
    upper_event,
    upper_natural_extension,
)
from .coupons import (
    CouponRules,
    enumerate_coupons,
    exploitability,
    first_free_gamble,
)
from .errors import (
    BaseOddsSureLossError,
    CertificateError,
    CouponRuleError,
    DataError,
    DutchbookError,
    StakeSystemError,
    SureLossError,
)
from .io import load_fixture_market, market_to_csv, parse_market_csv
from .model import (
    FractionalOdds,
    Gamble,
    Market,
    OddsTable,
    Outcome,
    OutcomeSpace,
    format_decimal,
    format_rational,
)
from .strategy import best_strategy, strategy_for_coupon, verify_certificate
from .sureloss import (
    check_asl_market,
    check_asl_single,
    expectation_sign_check,
    max_odds,
    over_round,
    upper_pmf_from_odds,
)

__version__ = "0.1.0"

__all__ = [
    "BaseOddsSureLossError",
    "CertificateError",
    "CouponRuleError",
    "CouponRules",
    "DataError",
    "DutchbookError",
    "FractionalOdds",
    "Gamble",
    "Market",
    "OddsTable",
    "Outcome",
    "OutcomeSpace",
    "StakeSystemError",
    "SureLossError",
    "best_strategy",
    "check_asl_market",
    "check_asl_single",
    "decompose",
    "enumerate_coupons",
    "expectation_sign_check",
    "exploitability",
    "first_free_gamble",
    "format_decimal",
    "format_rational",
    "load_fixture_market",
    "lower_event",
    "lower_natural_extension",
    "market_to_csv",
    "max_odds",
    "over_round",
    "parse_market_csv",
    "strategy_for_coupon",
    "upper_event",
    "upper_natural_extension",
    "upper_pmf_from_odds",
    "verify_certificate",
]
