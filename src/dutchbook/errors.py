"""Exception hierarchy shared across the package."""

from __future__ import annotations

from fractions import Fraction


class DutchbookError(Exception):
    """Base class for all package-specific errors."""


class DataError(DutchbookError, ValueError):
    """Malformed odds data (CSV rows, headers, duplicate entries, ...)."""


class SureLossError(DutchbookError, ValueError):
    """The upper probability masses total less than 1.

    The closed-form natural-extension machinery is only valid when the
    masses total at least 1; below that the odds themselves already admit
    a guaranteed gain and no coupon is needed.
    """

    def __init__(self, total: Fraction, message: str | None = None):
        self.total = total
        self.deficit = 1 - total
        if message is None:
            message = (
                f"upper probability masses total {total} < 1 "
                f"(deficit {self.deficit}): the odds already incur sure loss"
            )
        super().__init__(message)


class BaseOddsSureLossError(SureLossError):
    """The bookmaker's plain odds already incur sure loss.

    Raised by the coupon machinery to redirect callers to the no-coupon
    arbitrage path: combining the odds gambles alone guarantees a gain,
    so evaluating free coupons is pointless.
    """

    def __init__(self, total: Fraction):
        super().__init__(
            total,
            f"the odds alone incur sure loss (mass total {total} < 1); "
            "a guaranteed gain needs no coupon",
        )


class CouponRuleError(DutchbookError, ValueError):
    """A requested coupon bet violates the promotion rules."""


class StakeSystemError(DutchbookError, RuntimeError):
    """The complementary-slackness stake system produced no verified stakes.

    ``solve_stakes`` takes alpha as the dual's objective on the gamble it
    is handed.  A dual that ``choquet.construct_dual`` built from the same
    table's caps for that gamble always yields verified stakes; a dual
    built for another gamble or other caps can raise this error.
    """


class CertificateError(DutchbookError, RuntimeError):
    """A produced strategy failed its own optimality certificate.

    This never happens on valid input; it is a bug sentinel.
    """
