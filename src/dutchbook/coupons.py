"""First-bet free coupons and their exploitability.

The promotion modelled here: a new customer's first bet earns a free
coupon of equal value, to be spent with the same bookmaker, on a single
different outcome, once.  The combined position (first bet plus coupon
bet at matched stake) is one extra gamble the bookmaker implicitly
accepts; the bookmaker stays safe exactly when its upper natural
extension is non-negative, and when it is negative its absolute value is
the customer's best guaranteed gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .choquet import upper_natural_extension
from .errors import BaseOddsSureLossError, CouponRuleError
from .model import (
    Gamble,
    OddsTable,
    Outcome,
    Rational,
    as_rational,
    scale_odds,
)
from .sureloss import check_asl_single, upper_pmf_from_odds


@dataclass(frozen=True)
class CouponRules:
    """Promotion terms.  Only the standard scheme is supported:

    - the coupon value equals the first stake (optionally capped),
    - first bet with this bookmaker only,
    - spent with the same bookmaker,
    - spent on a single outcome different from the first bet.
    """

    max_coupon_value: Rational | None = None
    first_bet_only: bool = True
    single_outcome_spend: bool = True
    same_bookmaker: bool = True

    def __post_init__(self):
        if self.max_coupon_value is not None:
            cap = as_rational(self.max_coupon_value)
            object.__setattr__(self, "max_coupon_value", cap)
            if cap <= 0:
                raise ValueError(f"coupon cap must be > 0, got {cap}")
        # relaxing any of these would mean a different promotion entirely
        # (multi-coupon, cross-bookmaker); rejected at the API level.
        if not (self.first_bet_only and self.single_outcome_spend and self.same_bookmaker):
            raise CouponRuleError(
                "only the single-bookmaker, single-outcome, first-bet-only "
                "coupon scheme is supported"
            )


DEFAULT_RULES = CouponRules()


@dataclass(frozen=True)
class FirstFreeGamble:
    """A first bet on one outcome plus the coupon spent on another.

    ``gamble`` is the bookmaker's combined payoff: -a_i on the first
    outcome, (b_j - a_j) * b_i / b_j on the coupon outcome, and b_i
    elsewhere.  ``stake_scale`` is the factor b_i / b_j by which the
    coupon odds were rescaled so their stake equals the coupon value.
    """

    first_outcome: Outcome
    coupon_outcome: Outcome
    gamble: Gamble
    stake_scale: Rational


def first_free_gamble(
    table: OddsTable,
    first: Outcome,
    coupon: Outcome,
    rules: CouponRules = DEFAULT_RULES,
) -> FirstFreeGamble:
    """Combined bookmaker payoff for first bet on ``first``, coupon on ``coupon``.

    The first bet stakes the quoted denominator b_i, so the coupon is
    worth b_i; the coupon outcome's odds are rescaled by b_i / b_j to
    spend exactly that.  The coupon bet risks no customer money, so its
    leg only ever costs the bookmaker.
    """
    if first == coupon:
        raise CouponRuleError(
            f"coupon must be spent on an outcome other than the first bet "
            f"({first.label})"
        )
    first_odds = table.odds_for(first)
    coupon_odds = table.odds_for(coupon)
    stake = first_odds.denominator
    if rules.max_coupon_value is not None and stake > rules.max_coupon_value:
        raise CouponRuleError(
            f"first stake {stake} exceeds the coupon cap "
            f"{rules.max_coupon_value}"
        )
    scale = stake / coupon_odds.denominator
    scaled = scale_odds(coupon_odds, scale)
    # the first bet keeps the stake b_i except on its own outcome; the
    # coupon bet risks no customer money, so on the coupon outcome the
    # bookmaker keeps b_i less the scaled winnings
    payoffs = [stake] * len(table.space)
    payoffs[first.index] = -first_odds.numerator
    payoffs[coupon.index] = stake - scaled.numerator
    combined = Gamble(table.space, tuple(payoffs))
    return FirstFreeGamble(first, coupon, combined, scale)


def exploitability(table: OddsTable, ffg: FirstFreeGamble) -> Rational:
    """Upper natural extension of the combined coupon gamble.

    Negative means the bookmaker's offers plus this coupon position incur
    sure loss, and the absolute value is the customer's maximum
    guaranteed gain.  The plain odds must avoid sure loss first; if they
    do not, the odds alone are exploitable and
    :class:`~dutchbook.errors.BaseOddsSureLossError` redirects the caller.
    """
    if ffg.gamble.space != table.space:
        raise ValueError("coupon gamble and table are over different spaces")
    verdict = check_asl_single(table)
    if not verdict.avoids:
        raise BaseOddsSureLossError(verdict.total)
    return upper_natural_extension(upper_pmf_from_odds(table), ffg.gamble)


def enumerate_coupons(
    table: OddsTable, rules: CouponRules = DEFAULT_RULES
) -> list[tuple[FirstFreeGamble, Rational]]:
    """Evaluate every ordered (first, coupon) pair of distinct outcomes.

    Returns [(first-free gamble, upper natural extension)] sorted by value
    ascending (best customer gain first), ties by outcome index pair.
    Pairs whose first stake exceeds the coupon cap are omitted.
    """
    verdict = check_asl_single(table)
    if not verdict.avoids:
        raise BaseOddsSureLossError(verdict.total)
    pmf = upper_pmf_from_odds(table)
    entries = []
    for first in table.space:
        if (
            rules.max_coupon_value is not None
            and table.odds_for(first).denominator > rules.max_coupon_value
        ):
            continue
        for coupon in table.space:
            if first == coupon:
                continue
            ffg = first_free_gamble(table, first, coupon, rules)
            value = upper_natural_extension(pmf, ffg.gamble)
            entries.append((ffg, value))
    entries.sort(
        key=lambda e: (e[1], e[0].first_outcome.index, e[0].coupon_outcome.index)
    )
    return entries


def capped_out_pairs(
    table: OddsTable, rules: CouponRules
) -> list[tuple[Outcome, Outcome, str]]:
    """Pairs excluded from enumeration by the coupon cap, with reasons."""
    if rules.max_coupon_value is None:
        return []
    notes = []
    for first in table.space:
        stake = table.odds_for(first).denominator
        if stake > rules.max_coupon_value:
            reason = (
                f"first stake {stake} exceeds coupon cap {rules.max_coupon_value}"
            )
            for coupon in table.space:
                if coupon != first:
                    notes.append((first, coupon, reason))
    return notes
