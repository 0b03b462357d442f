"""Sure-loss verdicts for odds tables, single bookmaker or whole market.

A price list avoids sure loss exactly when the implied upper masses
b/(a+b) total at least 1.  For several bookmakers only the best (maximal)
odds per outcome matter: they carry the smallest masses, so the market
verdict reduces to a single-table check.  Positive verdicts come with an
explicit witness distribution under which every offered gamble has
non-negative expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .choquet import UpperPMF
from .model import (
    Gamble,
    Market,
    OddsTable,
    Rational,
    RationalLike,
    as_rational,
)


@dataclass(frozen=True)
class ASLVerdict:
    """Outcome of a sure-loss check.

    ``total`` is the sum of implied upper masses; ``avoids`` holds exactly
    when it is at least 1.  When the verdict is positive, ``witness`` is a
    probability vector (space order) giving every gamble in scope a
    non-negative expectation, which certifies the verdict.
    """

    table: OddsTable
    avoids: bool
    total: Rational
    witness: tuple[Rational, ...] | None


def upper_pmf_from_odds(table: OddsTable) -> UpperPMF:
    """Implied per-outcome upper probability bounds b/(a+b).

    Any heavier weight on an outcome would make the bookmaker's gamble on
    it a guaranteed expected loss, so the offer caps the probability.
    The table builds its caps once and every caller shares them.
    """
    return table.upper_pmf


def check_asl_single(table: OddsTable) -> ASLVerdict:
    """Does one bookmaker's price list avoid sure loss?

    Verdict: sum of b/(a+b) over all outcomes is at least 1.  A positive
    verdict ships the witness p(i) = mass(i) / total, which is a proper
    distribution dominated by the masses, hence safe for every gamble.
    """
    pmf = upper_pmf_from_odds(table)
    witness = pmf.witness  # built once per table, shared by every verdict
    return ASLVerdict(table, witness is not None, pmf.total(), witness)


def over_round(table: OddsTable) -> Rational:
    """The bookmaker's built-in margin: 100 * (mass total - 1)."""
    return 100 * (upper_pmf_from_odds(table).total() - 1)


def max_odds(market: Market) -> OddsTable:
    """Best quoted odds per outcome across the market.

    Prices are compared as exact ratios a/b; ties keep the earliest
    bookmaker's quote (any maximiser implies the same mass, which is all
    the verdict uses).
    """
    best = list(market.tables[0].odds)
    for table in market.tables[1:]:
        for i, odds in enumerate(table.odds):
            if odds.ratio > best[i].ratio:
                best[i] = odds
    return OddsTable("maximum", market.space, tuple(best))


def check_asl_market(market: Market) -> ASLVerdict:
    """Does the union of all bookmakers' offers avoid sure loss?

    Equivalent to checking the per-outcome maximal odds: those have the
    smallest implied masses, and the witness they produce is dominated by
    every bookmaker's masses, so it certifies the whole market.
    """
    return check_asl_single(max_odds(market))


def expectation_sign_check(gamble: Gamble, p: Sequence[RationalLike]) -> bool:
    """Is the gamble's expectation under distribution ``p`` non-negative?

    ``p`` must be a probability mass function over the gamble's space.
    For an odds gamble on a target outcome this is the same test as
    p(target) <= b/(a+b).
    """
    weights = [as_rational(v) for v in p]
    if len(weights) != len(gamble.space):
        raise ValueError(
            f"{len(weights)} probabilities for {len(gamble.space)} outcomes"
        )
    if any(w < 0 for w in weights):
        raise ValueError("probabilities must be non-negative")
    if sum(weights, Fraction(0)) != 1:
        raise ValueError("probabilities must sum to exactly 1")
    expectation = sum(
        (v * w for v, w in zip(gamble.payoffs, weights)), Fraction(0)
    )
    return expectation >= 0
