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
from fractions import Fraction

from .choquet import upper_natural_extension
from .errors import BaseOddsSureLossError, CouponRuleError
from .model import Gamble, OddsTable, Outcome, Rational, as_rational, scaled
from .sureloss import check_asl_single, upper_pmf_from_odds


@dataclass(frozen=True)
class CouponRules:
    """Promotion terms.  Only the standard scheme is modelled: the coupon
    value equals the first stake (optionally capped), it is earned by the
    first bet with this bookmaker only, and it is spent with the same
    bookmaker on a single outcome different from the first bet.
    """

    max_coupon_value: Rational | None = None

    def __post_init__(self):
        if self.max_coupon_value is not None:
            cap = as_rational(self.max_coupon_value)
            object.__setattr__(self, "max_coupon_value", cap)
            if cap <= 0:
                raise ValueError(f"coupon cap must be > 0, got {cap}")


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
    rules: CouponRules = CouponRules(),
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
    # the first bet keeps the stake b_i except on its own outcome; the
    # coupon bet risks no customer money, so on the coupon outcome the
    # bookmaker keeps b_i less the coupon's winnings, a_j rescaled by b_i / b_j
    payoffs = [stake] * len(table.space)
    payoffs[first.index] = -first_odds.numerator
    payoffs[coupon.index] = stake - scale * coupon_odds.numerator
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


def scaled_coupon_values(
    table: OddsTable, rules: CouponRules = CouponRules()
) -> tuple[int, list[tuple[int, int, int]], list[int]]:
    """Every admissible pair's price as an integer over one common scale.

    Returns ``(scale, [(V, first index, coupon index)], capped)``, the
    values in index order, where ``V / scale`` is the pair's upper natural
    extension, and ``capped`` the indices, ascending, of the first
    outcomes whose stake exceeds the coupon cap.  The
    combined gamble of pair (i, j) takes three values: ``b_i`` on the
    other outcomes, whose caps total ``R = T − m_i − m_j`` (``T`` the cap
    total), ``c = b_i·(b_j − a_j)/b_j`` on j (cap ``m_j``) and ``−a_i``
    on i (cap ``m_i``).  ``b_i`` is the largest of the three, so the
    greedy dual fills ``R`` first: if ``R ≥ 1`` the price is ``b_i``,
    else ``b_i·R`` plus the remaining ``1 − R`` put on the larger of
    ``c`` and ``−a_i`` up to its cap and the rest on the other, which
    ``T ≥ 1`` leaves room for.  This is the Choquet price
    :func:`~dutchbook.choquet.upper_natural_extension` gives, without
    building the gamble.  Pairs whose first stake exceeds the coupon cap
    are omitted.

    It runs on :func:`~dutchbook.model.scaled` ints: caps over ``L``, odds
    components over ``O``, rates ``(b_k − a_k)/b_k`` over ``B``.
    """
    verdict = check_asl_single(table)
    if not verdict.avoids:
        raise BaseOddsSureLossError(verdict.total)
    cap_scale, masses = upper_pmf_from_odds(table).scaled_masses
    odds_scale, wins, stakes = table.scaled_odds
    rate_scale, slopes = scaled(
        [(o.denominator - o.numerator) / o.denominator for o in table.odds]
    )
    total = sum(masses)
    cap_value = rules.max_coupon_value
    values = []
    capped = []
    for i, (first, stake_d, win) in enumerate(zip(table.odds, stakes, wins)):
        if cap_value is not None and first.denominator > cap_value:
            capped.append(i)
            continue
        loss = -win * rate_scale
        kept = stake_d * rate_scale
        whole = kept * cap_scale
        m_i = masses[i]
        outside_i = total - m_i
        for j, (m_j, slope) in enumerate(zip(masses, slopes)):
            if j == i:
                continue
            rest = outside_i - m_j
            if rest >= cap_scale:
                values.append((whole, i, j))
                continue
            coupon = stake_d * slope
            left = cap_scale - rest
            if coupon >= loss:
                high, high_cap, low = coupon, m_j, loss
            else:
                high, high_cap, low = loss, m_i, coupon
            take = min(left, high_cap)
            value = kept * rest + high * take + low * (left - take)
            values.append((value, i, j))
    return cap_scale * odds_scale * rate_scale, values, capped


def enumerate_coupons(
    table: OddsTable, rules: CouponRules = CouponRules()
) -> list[tuple[FirstFreeGamble, Rational]]:
    """Evaluate every ordered (first, coupon) pair of distinct outcomes.

    Returns [(first-free gamble, upper natural extension)] sorted by value
    ascending (best customer gain first), ties by outcome index pair.
    Pairs whose first stake exceeds the coupon cap are omitted.
    """
    scale, values, _ = scaled_coupon_values(table, rules)
    space = table.space
    return [
        (
            first_free_gamble(table, space[i], space[j], rules),
            Fraction(v, scale),
        )
        for v, i, j in sorted(values)
    ]

