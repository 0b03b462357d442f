"""Optimal stake construction with exact strong-duality certificates.

Pricing a gamble against upper probability caps is a linear program; its
dual optimum is the greedy fill of :func:`~dutchbook.choquet.construct_dual`,
which pushes mass onto the highest payoffs first, capped per outcome.
Complementary slackness then pins down which stake variables can be
non-zero and which payoff rows are tight; since every odds gamble is a
constant plus one spike, the stakes follow in closed form, in exact
rationals.  Every returned strategy carries both sides of the duality,
so optimality is checkable without trusting any solver: a feasible
distribution and a feasible stake vector with equal objectives certify
each other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .choquet import DualSolution, construct_dual
from .coupons import (
    CouponRules,
    FirstFreeGamble,
    enumerate_coupons,  # noqa: F401  (bench/tracer.py wraps it here)
    first_free_gamble,
    scaled_coupon_values,
)
from .errors import BaseOddsSureLossError, CertificateError, StakeSystemError
from .model import Gamble, OddsTable, Outcome, Rational
from .sureloss import check_asl_single, upper_pmf_from_odds


@dataclass(frozen=True, slots=True)
class StrategyReport:
    """A certified betting strategy for one coupon position.

    ``stakes`` (space order) are the additional amounts to bet at the
    bookmaker's quoted odds on each outcome; ``alpha`` is the certified
    optimal value of the combined position for the bookmaker, so the
    customer's payoff is at least ``-alpha`` at every outcome and
    ``guaranteed_gain`` is positive exactly when the position is
    exploitable.
    """

    first_outcome: Outcome | None
    coupon_outcome: Outcome | None
    alpha: Rational
    stakes: tuple[Rational, ...]
    guaranteed_gain: Rational
    certificate: DualSolution


def solve_stakes(
    table: OddsTable, gamble: Gamble, dual: DualSolution
) -> StrategyReport:
    """Derive the stake vector from the dual by complementary slackness.

    Each odds gamble is ``b_i·1 − (a_i+b_i)·e_i``, a constant plus one
    spike, so with stakes ``s`` the bookmaker's combined payoff at
    outcome ``w`` is ``f(w) + B − s_w·(a_w+b_w)`` with ``B = Σ s_i·b_i``.
    Let S be the first ``k_prime`` ordered outcomes, ``c_w = α − f(w)``,
    ``m_w = b_w/(a_w+b_w)`` (the cap) and ``M_S = Σ_S m_w``.  Stakes
    vanish outside S and every row in S is tight, which reads
    ``s_w·(a_w+b_w) = B − c_w``; weighting by ``m_w`` and summing gives
    ``B·(M_S − 1) = Σ_S m_w·c_w``.  When ``M_S = 1`` that equation is
    consistent only if ``Σ_S m_w·c_w = 0``, and ``B`` is then taken as
    ``c_w`` of the last outcome in S, whose stake becomes zero.

    Why this gives optimal stakes.  The greedy dual is optimal for the
    pricing LP, so some optimal stake vector ``s*`` exists, and it
    satisfies complementary slackness with that dual: its support lies
    in S (a stake can be positive only where the dual mass sits at its
    cap) and rows 1..k are tight (the dual mass there is positive).

    * S holds whole caps of total at most 1, so ``M_S ≤ 1``.  If
      ``M_S < 1`` the S-system has exactly one solution (its matrix is
      diagonal plus rank one, with determinant a non-zero multiple of
      ``1 − M_S``), and ``s*`` is it.
    * If ``M_S = 1`` then ``k = k_prime``, and since ``c`` never falls
      along the ordering the stakes are non-negative and feasible exactly for
      ``B`` in ``[c_last, min_{w∉S} c_w]``.  That interval holds the
      ``B`` of ``s*``, so it is not empty, and its left end, where the
      last stake in S is zero, is feasible.

    The result is still checked: every stake must be non-negative and
    the combined payoff must top out at exactly ``α``; otherwise, as for
    a dual built for another gamble,
    :class:`~dutchbook.errors.StakeSystemError` is raised.
    """
    space = table.space
    odds = table.odds
    alpha = dual.expectation(gamble)
    support = dual.ordering[: dual.k_prime]
    slack = [alpha - gamble.payoffs[w] for w in support]
    spread = [odds[w].numerator + odds[w].denominator for w in support]
    caps = [odds[w].upper_mass for w in support]
    weighted = sum((m * c for m, c in zip(caps, slack)), Fraction(0))
    excess = sum(caps, Fraction(0)) - 1
    if excess:  # bank is the B above
        bank = weighted / excess
    elif weighted:
        raise StakeSystemError(
            "complementary-slackness system is inconsistent with the dual"
        )
    else:
        bank = slack[-1]
    stakes = [Fraction(0)] * len(space)
    for position, (w, c, d) in enumerate(zip(support, slack, spread), start=1):
        if bank == c:  # keep the shared zero rather than build another
            continue
        stakes[w] = (bank - c) / d
        if stakes[w] < 0:
            raise StakeSystemError(
                f"stake for ordered position {position} "
                f"({space[w].label}) is negative: {stakes[w]}"
            )
    kept = sum((s * o.denominator for s, o in zip(stakes, odds)), Fraction(0))
    combined = [
        f + kept - s * (o.numerator + o.denominator)
        for f, s, o in zip(gamble.payoffs, stakes, odds)
    ]
    if max(combined) != alpha:
        raise StakeSystemError(
            "stake solution does not attain the optimal value at its maximum"
        )
    gain = -alpha if alpha < 0 else Fraction(0)
    return StrategyReport(None, None, alpha, tuple(stakes), gain, dual)


def certificate_failures(
    table: OddsTable, gamble: Gamble, report: StrategyReport
) -> list[str]:
    """Every way the report fails to certify optimality; empty means certified.

    Checks, all in exact arithmetic: the dual distribution is feasible
    (sums to 1, within the caps), the stake vector is feasible (non-
    negative, and the bookmaker's combined payoff is at most alpha at
    every outcome), and both objectives equal alpha.  Feasible pair +
    equal objectives is a complete optimality proof by weak duality.
    """
    failures = []
    space = table.space
    pmf = upper_pmf_from_odds(table)
    p = report.certificate.p
    if len(p) != len(space):
        return [f"dual vector has {len(p)} entries for {len(space)} outcomes"]
    if len(report.stakes) != len(space):
        return [
            f"stake vector has {len(report.stakes)} entries for "
            f"{len(space)} outcomes"
        ]
    if sum(p, Fraction(0)) != 1:
        failures.append(f"dual masses sum to {sum(p, Fraction(0))}, not 1")
    for outcome in space:
        if not 0 <= p[outcome.index] <= pmf.masses[outcome.index]:
            failures.append(
                f"dual mass for {outcome.label} is {p[outcome.index]}, "
                f"outside [0, {pmf.masses[outcome.index]}]"
            )
    for outcome, stake in zip(space, report.stakes):
        if stake < 0:
            failures.append(f"stake on {outcome.label} is negative: {stake}")
    # stake s_i at odds a_i/b_i keeps b_i unless outcome i comes up, when
    # it pays a_i instead: b_i·1 − (a_i+b_i)·e_i, as in gamble_from_odds
    kept = sum(
        (s * o.denominator for s, o in zip(report.stakes, table.odds)),
        Fraction(0),
    )
    combined = [
        f + kept - s * (o.numerator + o.denominator)
        for f, s, o in zip(gamble.payoffs, report.stakes, table.odds)
    ]
    for outcome, value in zip(space, combined):
        if value > report.alpha:
            failures.append(
                f"combined payoff at {outcome.label} is {value} > alpha "
                f"{report.alpha}: stake vector is infeasible"
            )
    objective = sum(
        (w * v for w, v in zip(p, gamble.payoffs)), Fraction(0)
    )
    if objective != report.alpha:
        failures.append(
            f"dual objective {objective} differs from alpha {report.alpha}"
        )
    return failures


def verify_certificate(
    table: OddsTable, gamble: Gamble, report: StrategyReport
) -> bool:
    """True when the report is a complete, exact optimality certificate."""
    return not certificate_failures(table, gamble, report)


def strategy_for_coupon(
    table: OddsTable, ffg: FirstFreeGamble
) -> StrategyReport:
    """Certified optimal strategy for one specific coupon position.

    With a sure gain (``alpha < 0``), an outcome beyond ``k_prime`` other
    than the first-bet and coupon ones would pay the bookmaker
    ``b_first + B > 0 > alpha`` (``B`` as in :func:`solve_stakes`), so
    ``k_prime >= n - 2``.
    """
    verdict = check_asl_single(table)
    if not verdict.avoids:
        raise BaseOddsSureLossError(verdict.total)
    pmf = upper_pmf_from_odds(table)
    dual = construct_dual(pmf, ffg.gamble)
    report = solve_stakes(table, ffg.gamble, dual)
    report = replace(
        report,
        first_outcome=ffg.first_outcome,
        coupon_outcome=ffg.coupon_outcome,
    )
    failures = certificate_failures(table, ffg.gamble, report)
    if failures:
        raise CertificateError(
            "internal error, produced strategy failed verification: "
            + "; ".join(failures)
        )
    return report


def best_strategy(
    table: OddsTable, rules: CouponRules = CouponRules()
) -> StrategyReport | None:
    """Best certified coupon strategy, or None when no coupon is exploitable.

    Prices every admissible (first, coupon) pair on exact integers
    (:func:`~dutchbook.coupons.scaled_coupon_values`; the common scale is
    positive, so the order is that of the rational prices) and keeps the
    one with the most negative value; ties fall to the lexicographically
    first pair.  Only that pair's gamble is built, and its strategy
    passes :func:`certificate_failures` in rationals like any other.
    The base odds must avoid sure loss.
    """
    _, values, _ = scaled_coupon_values(table, rules)
    if not values:
        return None
    value, first, coupon = min(values)
    if value >= 0:
        return None
    space = table.space
    ffg = first_free_gamble(table, space[first], space[coupon], rules)
    return strategy_for_coupon(table, ffg)
