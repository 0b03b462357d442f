"""Independent brute-force oracles for the test suite.

These deliberately re-derive answers from first principles (vertex
enumeration over small polytopes, naive exact elimination, the level-set
form of the Choquet integral) without touching the library's own
algorithms, so agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from dutchbook import (
    BaseOddsSureLossError,
    Gamble,
    StakeSystemError,
    SureLossError,
    check_asl_single,
    decompose,
    upper_event,
)
from dutchbook.choquet import DualSolution
from dutchbook.strategy import StrategyReport


def solve_exact(rows, rhs):
    """Naive exact Gaussian elimination; None if singular or inconsistent."""
    n = len(rows)
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        div = a[col][col]
        a[col] = [v / div for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def choquet_by_levels(pmf, gamble):
    """Reference for ``upper_natural_extension``: the Choquet integral as a
    level-set sum, base plus each slice weight times the upper probability
    of the slice's set (the capped sum of its members' masses)."""
    if gamble.space != pmf.space:
        raise ValueError("gamble and pmf are over different outcome spaces")
    if pmf.total() < 1:
        raise SureLossError(pmf.total())
    parts = decompose(gamble)
    value = parts.base
    for level in parts.levels:
        value += level.weight * upper_event(pmf, level.members)
    return value


def gamble_from_levels(parts, space):
    """The gamble a level-set decomposition describes: at each outcome,
    the base plus the weights of the levels that contain it."""
    return Gamble(
        space,
        tuple(
            sum((lvl.weight for lvl in parts.levels if i in lvl.members), parts.base)
            for i in range(len(space))
        ),
    )


def upper_extension_vertices(masses, payoffs):
    """Max of sum(payoff * p) over {0 <= p <= masses, sum p = 1}.

    Every vertex of the box-simplex intersection puts each coordinate at a
    bound except at most one; enumerate them all.  Returns None when the
    polytope is empty (masses total < 1).
    """
    n = len(masses)
    masses = [Fraction(m) for m in masses]
    payoffs = [Fraction(v) for v in payoffs]
    best = None
    for r in range(n + 1):
        for at_cap in combinations(range(n), r):
            cap_mass = sum((masses[i] for i in at_cap), Fraction(0))
            rest = [i for i in range(n) if i not in at_cap]
            candidates = []
            if cap_mass == 1:
                p = [Fraction(0)] * n
                for i in at_cap:
                    p[i] = masses[i]
                candidates.append(p)
            for t in rest:
                resid = 1 - cap_mass
                if 0 <= resid <= masses[t]:
                    p = [Fraction(0)] * n
                    for i in at_cap:
                        p[i] = masses[i]
                    p[t] = resid
                    candidates.append(p)
            for p in candidates:
                value = sum((payoffs[i] * p[i] for i in range(n)), Fraction(0))
                if best is None or value > best:
                    best = value
    return best


def pmf_exists_for(gamble_rows):
    """Is there a distribution giving every gamble non-negative expectation?

    Feasibility of {p >= 0, sum p = 1, G p >= 0} decided by enumerating
    basic solutions: the normalisation row plus n-1 further tight
    constraints drawn from the sign constraints and the gamble rows.
    """
    rows = [[Fraction(v) for v in g] for g in gamble_rows]
    n = len(rows[0]) if rows else 0
    if n == 0:
        raise ValueError("need at least one outcome")
    # tight-constraint pool: index < n means p_i = 0, else gamble row i - n
    pool = list(range(n + len(rows)))

    def constraint_row(t):
        if t < n:
            return [Fraction(1 if i == t else 0) for i in range(n)]
        return rows[t - n]

    ones = [Fraction(1)] * n
    for tight in combinations(pool, n - 1):
        system = [ones] + [constraint_row(t) for t in tight]
        rhs = [Fraction(1)] + [Fraction(0)] * (n - 1)
        p = solve_exact(system, rhs)
        if p is None:
            continue
        if any(v < 0 for v in p):
            continue
        if all(
            sum((row[i] * p[i] for i in range(n)), Fraction(0)) >= 0
            for row in rows
        ):
            return True
    return False


def combined_payoffs(gamble_rows, payoffs, stakes):
    """``payoffs + Σ_i stakes[i]·gamble_rows[i]`` per outcome, term by term."""
    n = len(payoffs)
    return [
        payoffs[w]
        + sum((stakes[i] * gamble_rows[i][w] for i in range(n)), Fraction(0))
        for w in range(n)
    ]


def certificate_failures_by_expansion(table, gamble, report):
    """Reference for ``strategy.certificate_failures``: the same checks and
    messages, with caps b/(a+b) taken from the quotes and every odds gamble
    of the table expanded in full, O(n²)."""
    space = table.space
    p = report.certificate.p
    if len(p) != len(space):
        return [f"dual vector has {len(p)} entries for {len(space)} outcomes"]
    if len(report.stakes) != len(space):
        return [
            f"stake vector has {len(report.stakes)} entries for "
            f"{len(space)} outcomes"
        ]
    if gamble.space != space:
        return [
            f"gamble is over another outcome space ({len(gamble.space)} "
            f"outcomes, the table's {len(space)})"
        ]
    failures = []
    if sum(p, Fraction(0)) != 1:
        failures.append(f"dual masses sum to {sum(p, Fraction(0))}, not 1")
    for outcome, mass, odds in zip(space, p, table.odds):
        cap = odds.denominator / (odds.numerator + odds.denominator)
        if not 0 <= mass <= cap:
            failures.append(
                f"dual mass for {outcome.label} is {mass}, outside [0, {cap}]"
            )
    for outcome, stake in zip(space, report.stakes):
        if stake < 0:
            failures.append(f"stake on {outcome.label} is negative: {stake}")
    rows = [g.payoffs for g in table.gambles()]
    combined = combined_payoffs(rows, gamble.payoffs, report.stakes)
    for outcome, value in zip(space, combined):
        if value > report.alpha:
            failures.append(
                f"combined payoff at {outcome.label} is {value} > alpha "
                f"{report.alpha}: stake vector is infeasible"
            )
    objective = sum((w * v for w, v in zip(p, gamble.payoffs)), Fraction(0))
    if objective != report.alpha:
        failures.append(
            f"dual objective {objective} differs from alpha {report.alpha}"
        )
    return failures


def solve_stakes_by_fractions(table, gamble, dual):
    """Reference for ``strategy.solve_stakes``: the same closed form and
    checks in ``Fraction`` arithmetic on the caps, the slacks and the
    combined payoff of every outcome, without the integer scales."""
    space = table.space
    if gamble.space != space or len(dual.p) != len(space):
        raise ValueError("gamble, dual and table are over different outcome spaces")
    odds = table.odds
    alpha = sum((w * v for w, v in zip(dual.p, gamble.payoffs)), Fraction(0))
    support = dual.ordering[: dual.k_prime]
    slack = [alpha - gamble.payoffs[w] for w in support]
    spread = [odds[w].numerator + odds[w].denominator for w in support]
    caps = [odds[w].upper_mass for w in support]
    weighted = sum((m * c for m, c in zip(caps, slack)), Fraction(0))
    excess = sum(caps, Fraction(0)) - 1
    if excess:
        bank = weighted / excess
    elif weighted:
        raise StakeSystemError(
            "complementary-slackness system is inconsistent with the dual"
        )
    else:
        bank = slack[-1]
    stakes = [Fraction(0)] * len(space)
    for position, (w, c, d) in enumerate(zip(support, slack, spread), start=1):
        if bank == c:
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


def coupon_values_by_fractions(table, rules):
    """Reference for ``coupons.scaled_coupon_values``: the same three-step
    fill per (first, coupon) pair, in ``Fraction`` arithmetic on the caps
    and rates themselves.  Returns ``[(value, i, j)]`` in index order,
    without the pairs whose first stake exceeds the coupon cap."""
    verdict = check_asl_single(table)
    if not verdict.avoids:
        raise BaseOddsSureLossError(verdict.total)
    total = verdict.total
    caps = [o.upper_mass for o in table.odds]
    rates = [(o.denominator - o.numerator) / o.denominator for o in table.odds]
    cap_value = rules.max_coupon_value
    values = []
    for i, first in enumerate(table.odds):
        stake = first.denominator
        if cap_value is not None and stake > cap_value:
            continue
        loss = -first.numerator
        m_i = caps[i]
        outside_i = total - m_i
        for j, (m_j, rate) in enumerate(zip(caps, rates)):
            if j == i:
                continue
            rest = outside_i - m_j
            if rest >= 1:
                values.append((stake, i, j))
                continue
            coupon = stake * rate
            left = 1 - rest
            if coupon >= loss:
                high, high_cap, low = coupon, m_j, loss
            else:
                high, high_cap, low = loss, m_i, coupon
            take = min(left, high_cap)
            values.append(
                (stake * rest + high * take + low * (left - take), i, j)
            )
    return values


def dual_by_fractions(pmf, gamble):
    """Reference for ``choquet.construct_dual``: the same stable sort and
    greedy fill in ``Fraction`` arithmetic on the caps and payoffs
    themselves, without the integer scale."""
    if gamble.space != pmf.space:
        raise ValueError("gamble and pmf are over different outcome spaces")
    if pmf.total() < 1:
        raise SureLossError(pmf.total())
    payoffs = gamble.payoffs
    ordering = tuple(
        sorted(range(len(payoffs)), key=payoffs.__getitem__, reverse=True)
    )
    p = [Fraction(0)] * len(payoffs)
    value = Fraction(0)
    left = Fraction(1)
    for k, index in enumerate(ordering, start=1):
        cap = pmf.masses[index]
        if cap >= left:
            break
        p[index] = cap
        value += cap * payoffs[index]
        left -= cap
    p[index] = left
    k_prime = k if left == cap else k - 1
    return DualSolution(
        ordering, tuple(p), k, k_prime, value + left * payoffs[index]
    )
