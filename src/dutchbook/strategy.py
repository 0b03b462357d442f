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
from .model import Gamble, OddsTable, Outcome, Rational, scaled
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
    :class:`~dutchbook.errors.StakeSystemError` is raised.  A gamble or
    dual over another outcome space is a ``ValueError``.

    On :func:`~dutchbook.model.scaled` ints (``p`` over ``P``, payoffs over
    ``D``, caps ``M_w/L``, ``G = P·D``): ``α = A/G``, ``c_w = C_w/G``, ``E =
    Σ_S M_w − L``, ``N = Σ_S M_w·C_w``, ``B = N/(G·E)`` (``C_last/G`` when
    ``E = 0``), and each stake is ``X_w·M_w/(G·E·L·b_w)``, ``X_w = N − C_w·E``.
    """
    space = table.space
    p = dual.p
    if gamble.space != space or len(p) != len(space):
        raise ValueError(
            "gamble, dual and table are over different outcome spaces"
        )
    odds = table.odds
    p_scale, dual_ints = scaled(p)
    payoff_scale, payoffs = gamble.scaled
    objective = sum(q * f for q, f in zip(dual_ints, payoffs))
    scale = p_scale * payoff_scale  # G
    alpha = Fraction(objective, scale)
    support = dual.ordering[: dual.k_prime]
    cap_scale, masses = upper_pmf_from_odds(table).scaled_masses
    slack = [objective - payoffs[w] * p_scale for w in support]
    caps = [masses[w] for w in support]
    excess = sum(caps) - cap_scale  # E
    bank = sum(m * c for m, c in zip(caps, slack))  # N, so B = N/(G·E)
    if excess < 0:
        bank, excess = -bank, -excess
    elif not excess:
        if bank:
            raise StakeSystemError(
                "complementary-slackness system is inconsistent with the dual"
            )
        bank, excess = slack[-1], 1
    stake_scale = scale * excess * cap_scale  # G·E·L
    stakes = [Fraction(0)] * len(space)
    kept = 0  # Σ s_w·b_w, times G·E·L
    for position, (w, c, m) in enumerate(zip(support, slack, caps), start=1):
        x = bank - c * excess
        if not x:  # keep the shared zero rather than build another
            continue
        b = odds[w].denominator
        stakes[w] = Fraction(x * m * b.denominator, stake_scale * b.numerator)
        if x < 0:
            raise StakeSystemError(
                f"stake for ordered position {position} "
                f"({space[w].label}) is negative: {stakes[w]}"
            )
        kept += x * m
    # rows in S pay α + kept − B; rows outside pay f_w + kept
    top = [(objective * excess - bank) * cap_scale] if support else []
    outside = dual.ordering[dual.k_prime :]
    if outside:
        top.append(max(payoffs[w] for w in outside) * p_scale * excess * cap_scale)
    if max(top) + kept != objective * excess * cap_scale:
        raise StakeSystemError(
            "stake solution does not attain the optimal value at its maximum"
        )
    gain = -alpha if objective < 0 else Fraction(0)
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
    A gamble over another outcome space certifies nothing.

    It calls :func:`~dutchbook.model.scaled` itself on ``p``, on alpha,
    the stakes and the payoffs jointly, and on the odds components; it
    reads nothing from the solve, the sweep or a view but the caps.
    """
    space = table.space
    n = len(space)
    p = report.certificate.p
    stakes = report.stakes
    if len(p) != n:
        return [f"dual vector has {len(p)} entries for {n} outcomes"]
    if len(stakes) != n:
        return [f"stake vector has {len(stakes)} entries for {n} outcomes"]
    if gamble.space != space:
        return [
            f"gamble is over another outcome space ({len(gamble.space)} "
            f"outcomes, the table's {n})"
        ]
    failures = []
    alpha = report.alpha
    pmf = upper_pmf_from_odds(table)
    cap_scale, caps = pmf.scaled_masses
    p_scale, dual = scaled(p)
    if sum(dual) != p_scale:
        failures.append(f"dual masses sum to {Fraction(sum(dual), p_scale)}, not 1")
    for outcome, q, d, mass, cap in zip(space, p, dual, pmf.masses, caps):
        if d < 0 or d * cap_scale > cap * p_scale:
            failures.append(
                f"dual mass for {outcome.label} is {q}, outside [0, {mass}]"
            )
    value_scale, values = scaled((alpha, *stakes, *gamble.payoffs))
    alpha_v, stake_ints, payoffs = values[0], values[1 : n + 1], values[n + 1 :]
    odds_scale, components = scaled(
        [q for o in table.odds for q in (o.numerator, o.denominator)]
    )
    lost_odds, kept_odds = components[::2], components[1::2]
    for outcome, stake, s in zip(space, stakes, stake_ints):
        if s < 0:
            failures.append(f"stake on {outcome.label} is negative: {stake}")
    # stake s_i at odds a_i/b_i keeps b_i unless outcome i comes up, when
    # it pays a_i instead: b_i·1 − (a_i+b_i)·e_i, as in gamble_from_odds
    kept = sum(s * b for s, b in zip(stake_ints, kept_odds))
    limit = alpha_v * odds_scale
    for outcome, f, s, a, b in zip(space, payoffs, stake_ints, lost_odds, kept_odds):
        value = f * odds_scale + kept - s * (a + b)
        if value > limit:
            failures.append(
                f"combined payoff at {outcome.label} is "
                f"{Fraction(value, value_scale * odds_scale)} > alpha "
                f"{alpha}: stake vector is infeasible"
            )
    objective = sum(q * f for q, f in zip(dual, payoffs))
    if objective != alpha_v * p_scale:
        failures.append(
            f"dual objective {Fraction(objective, p_scale * value_scale)} "
            f"differs from alpha {alpha}"
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

    Prices every admissible (first, coupon) pair as ints over one scale
    (:func:`~dutchbook.coupons.scaled_coupon_values`) and keeps the one
    with the most negative value; ties fall to the lexicographically
    first pair.  Only that pair's gamble is built, and its strategy
    passes :func:`certificate_failures` like any other.  The base odds
    must avoid sure loss.
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
