"""Randomised invariants, exact arithmetic throughout."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dutchbook import (
    CouponRules,
    FractionalOdds,
    Gamble,
    Market,
    OddsTable,
    OutcomeSpace,
    StakeSystemError,
    SureLossError,
    best_strategy,
    check_asl_market,
    check_asl_single,
    decompose,
    enumerate_coupons,
    expectation_sign_check,
    first_free_gamble,
    format_rational,
    lower_event,
    lower_natural_extension,
    strategy_for_coupon,
    upper_event,
    upper_natural_extension,
    upper_pmf_from_odds,
    verify_certificate,
)
from dutchbook.choquet import UpperPMF, construct_dual
from dutchbook.coupons import scaled_coupon_values
from dutchbook.model import as_rational, gamble_from_odds
from dutchbook.strategy import certificate_failures, solve_stakes
from oracles import (
    certificate_failures_by_expansion,
    choquet_by_levels,
    combined_payoffs,
    coupon_values_by_fractions,
    dual_by_fractions,
    gamble_from_levels,
    pmf_exists_for,
    solve_exact,
    solve_stakes_by_fractions,
    upper_extension_vertices,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonneg_rationals = st.fractions(min_value=0, max_value=10, max_denominator=12)
positive_factors = st.fractions(
    min_value=Fraction(1, 8), max_value=8, max_denominator=8
).filter(lambda q: q > 0)
odds_numerators = st.fractions(min_value=0, max_value=4, max_denominator=3)
odds_denominators = st.fractions(
    min_value=Fraction(1, 2), max_value=6, max_denominator=3
)


def _space(n):
    return OutcomeSpace.from_labels([f"o{i}" for i in range(n)])


def _table(*quotes):
    return OddsTable(
        "Book", _space(len(quotes)), tuple(map(FractionalOdds.parse, quotes))
    )


@st.composite
def gambles(draw, min_size=1, max_size=8):
    n = draw(st.integers(min_size, max_size))
    space = _space(n)
    return Gamble(space, tuple(draw(rationals) for _ in range(n)))


@st.composite
def pmf_gamble_pairs(draw, min_size=1, max_size=8):
    gamble = draw(gambles(min_size, max_size))
    n = len(gamble.space)
    masses = [draw(st.fractions(min_value=0, max_value=1, max_denominator=16)) for _ in range(n)]
    deficit = 1 - sum(masses)
    for i in range(n):  # top masses up so the caps admit a distribution
        if deficit <= 0:
            break
        room = 1 - masses[i]
        bump = min(room, deficit)
        masses[i] += bump
        deficit -= bump
    return UpperPMF(gamble.space, tuple(masses)), gamble


@st.composite
def odds_tables(draw, min_size=2, max_size=5):
    n = draw(st.integers(min_size, max_size))
    space = _space(n)
    odds = tuple(
        FractionalOdds(draw(odds_numerators), draw(odds_denominators))
        for _ in range(n)
    )
    return OddsTable("Book", space, odds)


@st.composite
def solvent_tables(draw, min_size=2, max_size=5):
    table = draw(odds_tables(min_size, max_size))
    assume(check_asl_single(table).avoids)
    return table


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
LARGE_PRIMES = (1_000_003, 2_147_483_647, 2**61 - 1, 2**89 - 1)
# rationals whose denominators are large primes
large_prime_fractions = st.builds(
    Fraction, st.integers(-(10**6), 10**6), st.sampled_from(LARGE_PRIMES)
)
# coupon caps that are not whole stakes
coupon_caps = st.none() | st.fractions(
    min_value=Fraction(1, 4), max_value=8, max_denominator=7
).filter(lambda q: q.denominator > 1)


@st.composite
def sweep_tables(draw, max_size=7):
    """Solvent books for the integer sweep.  Either drawn odds with
    rational components, or caps whose denominators are distinct primes
    (so the common cap denominator is their product); then each quote is,
    half the time, rescaled by a random rational."""
    n = draw(st.integers(2, max_size))
    if draw(st.booleans()):
        primes = draw(st.permutations(PRIMES))[:n]
        caps = [Fraction(draw(st.integers(1, p - 1)), p) for p in primes]
        odds = [FractionalOdds(1 / m - 1, 1) for m in caps]
    else:
        odds = [
            FractionalOdds(draw(odds_numerators), draw(odds_denominators))
            for _ in range(n)
        ]
    for k, o in enumerate(odds):
        if draw(st.booleans()):
            q = draw(positive_factors)
            odds[k] = FractionalOdds(q * o.numerator, q * o.denominator)
    table = OddsTable("Book", _space(n), tuple(odds))
    assume(check_asl_single(table).avoids)
    return table


@st.composite
def stake_systems(draw, max_size=6):
    """A solvent book and a gamble on it; about half the time the caps of
    the gamble's leading outcomes sum to exactly 1, which makes the
    complementary-slackness system singular."""
    gamble = draw(gambles(2, max_size))
    n = len(gamble.space)
    if draw(st.booleans()):
        unit = UpperPMF(gamble.space, (1,) * n)  # the order ignores the caps
        lead = construct_dual(unit, gamble).ordering[: draw(st.integers(1, n))]
        weights = [draw(st.integers(1, 6)) for _ in lead]
        caps = [draw(st.fractions(0, 1, max_denominator=9)) for _ in range(n)]
        for w, weight in zip(lead, weights):
            caps[w] = Fraction(weight, sum(weights))
        assume(all(m > 0 for m in caps))
        odds = tuple(FractionalOdds(1 / m - 1, 1) for m in caps)
        table = OddsTable("Book", gamble.space, odds)
    else:
        table = draw(solvent_tables(n, n))
    return table, gamble


@st.composite
def markets(draw, max_outcomes=3, max_books=3):
    n = draw(st.integers(2, max_outcomes))
    m = draw(st.integers(1, max_books))
    space = _space(n)
    tables = tuple(
        OddsTable(
            f"B{k}",
            space,
            tuple(
                FractionalOdds(draw(odds_numerators), draw(odds_denominators))
                for _ in range(n)
            ),
        )
        for k in range(m)
    )
    return Market(space, tables)


@st.composite
def distributions(draw, n):
    weights = [draw(st.integers(0, 20)) for _ in range(n)]
    assume(sum(weights) > 0)
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


class TestModelProperties:
    @given(
        a=odds_numerators,
        b=odds_denominators,
        alpha=positive_factors,
        n=st.integers(2, 6),
        data=st.data(),
    )
    def test_rescaled_odds_scale_the_gamble_pointwise(self, a, b, alpha, n, data):
        space = _space(n)
        target = space[data.draw(st.integers(0, n - 1))]
        odds = FractionalOdds(a, b)
        rescaled = FractionalOdds(alpha * a, alpha * b)
        scaled = gamble_from_odds(rescaled, target, space)
        payoffs = gamble_from_odds(odds, target, space).payoffs
        assert scaled.payoffs == tuple(alpha * v for v in payoffs)

    @given(q=rationals)
    def test_rational_format_round_trip(self, q):
        assert as_rational(format_rational(q)) == q


class TestChoquetProperties:
    @given(gamble=gambles())
    def test_decomposition_reconstructs_exactly(self, gamble):
        assert gamble_from_levels(decompose(gamble), gamble.space) == gamble

    @given(pair=pmf_gamble_pairs(), data=st.data())
    def test_monotone_in_the_gamble(self, pair, data):
        pmf, gamble = pair
        bump = tuple(
            data.draw(nonneg_rationals) for _ in range(len(gamble.space))
        )
        larger = gamble + Gamble(gamble.space, bump)
        assert upper_natural_extension(pmf, gamble) <= upper_natural_extension(
            pmf, larger
        )

    @given(pair=pmf_gamble_pairs(), c=rationals)
    def test_constant_additivity(self, pair, c):
        pmf, gamble = pair
        shifted = gamble + Gamble(gamble.space, (c,) * len(gamble.space))
        assert (
            upper_natural_extension(pmf, shifted)
            == upper_natural_extension(pmf, gamble) + c
        )

    @given(pair=pmf_gamble_pairs(), alpha=positive_factors)
    def test_positive_homogeneity(self, pair, alpha):
        pmf, gamble = pair
        scaled = Gamble(gamble.space, tuple(alpha * v for v in gamble.payoffs))
        assert upper_natural_extension(
            pmf, scaled
        ) == alpha * upper_natural_extension(pmf, gamble)

    @given(pair=pmf_gamble_pairs(max_size=4))
    def test_indicator_prices_match_event_bounds(self, pair):
        pmf, _ = pair
        outcomes = list(pmf.space)
        for mask in range(2 ** len(outcomes)):
            event = [o for i, o in enumerate(outcomes) if mask >> i & 1]
            gamble = Gamble(pmf.space, tuple(int(o in event) for o in outcomes))
            assert upper_natural_extension(pmf, gamble) == upper_event(pmf, event)
            assert lower_natural_extension(pmf, gamble) == lower_event(pmf, event)

    @given(pair=pmf_gamble_pairs())
    def test_lower_dominated_by_upper(self, pair):
        pmf, gamble = pair
        assert lower_natural_extension(pmf, gamble) <= upper_natural_extension(
            pmf, gamble
        )

    @given(pair=pmf_gamble_pairs())
    def test_greedy_dual_attains_choquet_value(self, pair):
        pmf, gamble = pair
        dual = construct_dual(pmf, gamble)
        payoffs = gamble.payoffs
        assert dual.ordering == tuple(
            sorted(range(len(payoffs)), key=lambda i: (-payoffs[i], i))
        )
        assert sum(dual.p, Fraction(0)) == 1
        assert all(
            0 <= p <= m for p, m in zip(dual.p, pmf.masses)
        )
        assert dual.value == sum(w * v for w, v in zip(dual.p, gamble.payoffs))
        assert dual.value == choquet_by_levels(pmf, gamble)
        assert upper_natural_extension(pmf, gamble) == dual.value

    @settings(max_examples=60)
    @given(pair=pmf_gamble_pairs(max_size=5))
    def test_matches_vertex_enumeration_oracle(self, pair):
        pmf, gamble = pair
        expected = upper_extension_vertices(pmf.masses, gamble.payoffs)
        assert upper_natural_extension(pmf, gamble) == expected


@st.composite
def deep_fills(draw, max_size=30):
    """Caps and a gamble; half the time the caps are scaled to total
    exactly 1, so the greedy fill runs through every outcome."""
    pmf, gamble = draw(pmf_gamble_pairs(max_size=max_size))
    total = pmf.total()
    if draw(st.booleans()) and total > 1:
        pmf = UpperPMF(pmf.space, tuple(m / total for m in pmf.masses))
    return pmf, gamble


# ten primes whose product, ~6.5·10^20, is past 2**64
_PRIMES_PAST_100 = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)


def _pair(masses, payoffs):
    space = _space(len(masses))
    return UpperPMF(space, tuple(masses)), Gamble(space, tuple(payoffs))


class TestGreedyFillProperties:
    """``upper_natural_extension`` is a sorted greedy fill; it must price
    every gamble as the level-set sum and, where enumerable, as the best
    vertex of the caps' polytope."""

    @settings(max_examples=150)
    @given(pair=deep_fills())
    @example(pair=_pair([1], [Fraction(-7, 3)]))  # n = 1
    @example(pair=_pair(["1/2", "1/3", "1/2", "1/4"], [2, 5, 2, 5]))  # ties
    @example(pair=_pair(["1/2", "1/3", "1/6"], [4, -1, 3]))  # caps total 1
    @example(pair=_pair(["1/5", 1, "1/5"], [1, -2, 3]))  # a cap of 1
    @example(pair=_pair(["1/2", "2/3", "1/9"], [6, 6, 6]))  # constant gamble
    def test_greedy_fill_matches_the_level_set_sum(self, pair):
        pmf, gamble = pair
        value = upper_natural_extension(pmf, gamble)
        assert value == choquet_by_levels(pmf, gamble)
        if len(gamble.space) <= 8:
            assert value == upper_extension_vertices(pmf.masses, gamble.payoffs)
        assert lower_natural_extension(pmf, gamble) == -upper_natural_extension(
            pmf, -gamble
        )
        assert lower_natural_extension(pmf, gamble) == -choquet_by_levels(
            pmf, -gamble
        )

    @settings(max_examples=150)
    @given(pair=deep_fills())
    @example(  # payoffs over distinct prime denominators
        pair=_pair(
            ["1/2", "1/3", "1/5", "1/7"],
            [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(1, 7)],
        )
    )
    @example(  # caps whose lcm exceeds 2**64
        pair=_pair(
            [Fraction(p - 1, p) for p in _PRIMES_PAST_100],
            [Fraction(k, 11) for k in range(len(_PRIMES_PAST_100))],
        )
    )
    @example(pair=_pair(["1/2", "1/2", "1/3"], [3, 2, 1]))  # leftover = cap
    @example(  # equal payoffs from different raw fractions
        pair=_pair(
            ["1/2", "1/3", "1/2", "1/4"],
            ["2/4", Fraction(1, 2), Fraction(4, 2), 2],
        )
    )
    def test_integer_fill_equals_the_fraction_fill(self, pair):
        pmf, gamble = pair
        dual = construct_dual(pmf, gamble)
        expected = dual_by_fractions(pmf, gamble)
        assert dual.ordering == expected.ordering
        assert dual.p == expected.p
        assert dual.k == expected.k
        assert dual.k_prime == expected.k_prime
        assert dual.value == expected.value
        assert all(type(v) is Fraction for v in (*dual.p, dual.value))

    @given(pair=pmf_gamble_pairs(max_size=30), data=st.data())
    def test_caps_below_one_and_foreign_gambles_are_refused(self, pair, data):
        pmf, gamble = pair
        n = len(gamble.space)
        scale = data.draw(st.fractions(0, 1, max_denominator=16))
        thin = UpperPMF(pmf.space, tuple(m * scale for m in pmf.masses))
        foreign = Gamble(_space(n + 1), gamble.payoffs + (Fraction(0),))
        for price in (upper_natural_extension, lower_natural_extension):
            if thin.total() < 1:
                with pytest.raises(SureLossError) as err:
                    price(thin, gamble)
                assert err.value.total == thin.total()
            with pytest.raises(ValueError, match="different outcome spaces"):
                price(pmf, foreign)


class TestSureLossProperties:
    @given(table=odds_tables(max_size=5), data=st.data())
    def test_sign_check_equivalent_to_mass_comparison(self, table, data):
        target = table.space[data.draw(st.integers(0, len(table.space) - 1))]
        gamble = table.gambles()[target.index]
        p = data.draw(distributions(len(table.space)))
        mass = table.odds_for(target).upper_mass
        assert expectation_sign_check(gamble, p) == (p[target.index] <= mass)

    @given(table=odds_tables())
    def test_verdict_matches_mass_total(self, table):
        verdict = check_asl_single(table)
        assert verdict.avoids == (
            sum(upper_pmf_from_odds(table).masses, Fraction(0)) >= 1
        )
        assert verdict.total == upper_pmf_from_odds(table).total()

    @given(table=odds_tables())
    def test_positive_verdict_ships_valid_witness(self, table):
        verdict = check_asl_single(table)
        if verdict.avoids:
            assert sum(verdict.witness, Fraction(0)) == 1
            assert all(
                expectation_sign_check(g, verdict.witness)
                for g in table.gambles()
            )
        else:
            assert verdict.witness is None

    @settings(max_examples=60)
    @given(market=markets())
    def test_market_verdict_matches_feasibility_oracle(self, market):
        rows = [g.payoffs for t in market.tables for g in t.gambles()]
        assert check_asl_market(market).avoids == pmf_exists_for(rows)

    @given(market=markets(max_outcomes=4))
    def test_market_witness_covers_every_bookmaker(self, market):
        verdict = check_asl_market(market)
        if verdict.avoids:
            for table in market.tables:
                assert all(
                    expectation_sign_check(g, verdict.witness)
                    for g in table.gambles()
                )


class TestCouponProperties:
    @given(table=solvent_tables(), data=st.data())
    def test_combined_gamble_sums_first_bet_and_coupon_leg(self, table, data):
        n = len(table.space)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1).filter(lambda v: v != i))
        first, coupon = table.space[i], table.space[j]
        ffg = first_free_gamble(table, first, coupon)
        base = gamble_from_odds(table.odds_for(first), first, table.space)
        leg = [Fraction(0)] * n
        leg[j] = -table.odds_for(coupon).numerator * ffg.stake_scale
        assert ffg.gamble == base + Gamble(table.space, tuple(leg))
        assert (
            ffg.stake_scale
            == table.odds_for(first).denominator
            / table.odds_for(coupon).denominator
        )

    @given(table=solvent_tables(max_size=4))
    def test_enumeration_counts_ordered_pairs(self, table):
        n = len(table.space)
        assert len(enumerate_coupons(table)) == n * (n - 1)

    @settings(max_examples=150)
    @given(table=solvent_tables(), cap=st.none() | odds_denominators)
    @example(table=_table("1/2", "1/3"), cap=None)  # n = 2: no other outcome
    @example(table=_table("1/1", "2/1", "1/2"), cap=None)  # (0, 1): c = -a_i
    @example(table=_table("1/1", "1/1", "1/1", "1/1"), cap=None)  # R = 1
    @example(table=_table("1/1", "1/2", "1/4"), cap=Fraction(2))  # stake 4 out
    def test_closed_form_pair_values_match_the_choquet_price(self, table, cap):
        pmf = upper_pmf_from_odds(table)
        expected = [
            (
                upper_natural_extension(
                    pmf, first_free_gamble(table, first, coupon).gamble
                ),
                first.index,
                coupon.index,
            )
            for first in table.space
            if cap is None or table.odds_for(first).denominator <= cap
            for coupon in table.space
            if coupon != first
        ]
        scale, values, _ = scaled_coupon_values(
            table, CouponRules(max_coupon_value=cap)
        )
        assert [(Fraction(v, scale), i, j) for v, i, j in values] == expected

    @settings(max_examples=60)
    @given(table=solvent_tables())
    def test_best_strategy_takes_the_first_enumerated_pair(self, table):
        best, value = enumerate_coupons(table)[0]
        report = best_strategy(table)
        if value >= 0:
            assert report is None
            return
        assert (report.first_outcome, report.coupon_outcome) == (
            best.first_outcome,
            best.coupon_outcome,
        )
        assert report.alpha == value

    @settings(max_examples=40)
    @given(table=solvent_tables(max_size=4))
    def test_negative_value_iff_strictly_positive_certified_gain(self, table):
        for ffg, value in enumerate_coupons(table):
            report = strategy_for_coupon(table, ffg)
            assert verify_certificate(table, ffg.gamble, report)
            assert report.alpha == value
            if value < 0:
                assert report.guaranteed_gain == -value
            else:
                assert report.guaranteed_gain == 0


class TestIntegerSweep:
    @settings(max_examples=200)
    @given(table=sweep_tables(), cap=coupon_caps)
    @example(table=_table("2/1", "2/1", "2/1", "2/1"), cap=None)  # all tie
    @example(  # every a+b a distinct prime
        table=_table("2/1", "3/2", "4/3", "5/6", "6/7"), cap=Fraction(13, 2)
    )
    def test_integer_sweep_equals_the_fraction_sweep(self, table, cap):
        rules = CouponRules(max_coupon_value=cap)
        expected = coupon_values_by_fractions(table, rules)
        scale, values, capped = scaled_coupon_values(table, rules)
        assert capped == [
            i
            for i, o in enumerate(table.odds)
            if cap is not None and o.denominator > cap
        ]
        assert scale > 0
        assert all(type(v) is int for v, _, _ in values)
        assert [(Fraction(v, scale), i, j) for v, i, j in values] == expected
        # the integers sort like the rationals, ties and their order included
        assert [(i, j) for _, i, j in sorted(values)] == [
            (i, j) for _, i, j in sorted(expected)
        ]

    @settings(max_examples=100)
    @given(table=sweep_tables(max_size=6), cap=coupon_caps)
    @example(table=_table("2/1", "2/1", "2/1", "2/1"), cap=None)
    @example(table=_table("2/1", "3/2", "4/3", "5/6", "6/7"), cap=None)
    def test_best_strategy_takes_the_oracle_minimum(self, table, cap):
        rules = CouponRules(max_coupon_value=cap)
        expected = coupon_values_by_fractions(table, rules)
        report = best_strategy(table, rules)
        if not expected or min(expected)[0] >= 0:
            assert report is None
            return
        value, i, j = min(expected)
        assert (report.first_outcome.index, report.coupon_outcome.index) == (
            i,
            j,
        )
        assert report.alpha == value
        assert report.guaranteed_gain == -value


class TestStrategyProperties:
    @given(pair=pmf_gamble_pairs())
    def test_ordering_is_lawful(self, pair):
        pmf, gamble = pair
        ordering = construct_dual(pmf, gamble).ordering
        assert sorted(ordering) == list(range(len(gamble.space)))
        payoffs = gamble.payoffs
        narrowest = [
            frozenset(
                w for w in range(len(payoffs)) if payoffs[w] >= payoffs[i]
            )
            for i in ordering
        ]
        for earlier, later in zip(narrowest, narrowest[1:]):
            assert earlier <= later

    @settings(max_examples=60)
    @given(table=solvent_tables(max_size=5), data=st.data())
    def test_coupon_reports_realise_the_gain_everywhere(self, table, data):
        n = len(table.space)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1).filter(lambda v: v != i))
        ffg = first_free_gamble(table, table.space[i], table.space[j])
        report = strategy_for_coupon(table, ffg)
        if report.alpha < 0:
            assert report.certificate.k_prime >= n - 2
        rows = [g.payoffs for g in table.gambles()]
        for combined in combined_payoffs(rows, ffg.gamble.payoffs, report.stakes):
            assert combined <= report.alpha
            if report.alpha < 0:
                assert -combined >= report.guaranteed_gain

    @settings(max_examples=60)
    @given(pair=pmf_gamble_pairs(min_size=2, max_size=5))
    def test_stake_solver_certifies_against_synthetic_books(self, pair):
        # build a table whose implied masses are the drawn caps, then price
        # the drawn gamble against it end to end
        pmf, gamble = pair
        assume(all(m > 0 for m in pmf.masses))
        odds = tuple(
            FractionalOdds(1 / m - 1, 1) for m in pmf.masses
        )
        table = OddsTable("Synth", pmf.space, odds)
        assert upper_pmf_from_odds(table).masses == pmf.masses
        dual = construct_dual(pmf, gamble)
        report = solve_stakes(table, gamble, dual)
        assert verify_certificate(table, gamble, report)

    @settings(max_examples=150)
    @given(system=stake_systems())
    def test_stakes_match_exact_elimination_of_the_slackness_system(
        self, system
    ):
        table, gamble = system
        pmf = upper_pmf_from_odds(table)
        dual = construct_dual(pmf, gamble)
        report = solve_stakes(table, gamble, dual)
        assert verify_certificate(table, gamble, report)
        support = dual.ordering[: dual.k_prime]
        outside = set(range(len(table.space))) - set(support)
        assert all(report.stakes[w] == 0 for w in outside)
        if sum(pmf.masses[w] for w in support) == 1:
            # singular: the free last stake in S is pinned to zero
            assert report.stakes[support[-1]] == 0
            return
        gambles_ = table.gambles()
        rows = [[gambles_[i].payoffs[w] for i in support] for w in support]
        rhs = [report.alpha - gamble.payoffs[w] for w in support]
        assert solve_exact(rows, rhs) == [report.stakes[i] for i in support]

    @settings(max_examples=150)
    @given(system=stake_systems(), data=st.data())
    def test_certificate_check_matches_the_expanded_payoffs(self, system, data):
        # honest, arbitrary (often negative) and perturbed stakes, each
        # with alpha kept or shifted
        table, gamble = system
        dual = construct_dual(upper_pmf_from_odds(table), gamble)
        report = solve_stakes(table, gamble, dual)
        stakes = list(report.stakes)
        tamper = data.draw(st.sampled_from(("none", "arbitrary", "perturb")))
        if tamper == "arbitrary":
            stakes = [data.draw(rationals) for _ in stakes]
        elif tamper == "perturb":
            stakes[data.draw(st.integers(0, len(stakes) - 1))] += data.draw(
                rationals
            )
        p = list(report.certificate.p)
        n = len(p)
        tamper_p = data.draw(st.sampled_from(("none", "move", "arbitrary")))
        if tamper_p == "move":  # the sum stays 1; a cap or the sign may break
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            shift = data.draw(rationals | large_prime_fractions)
            p[i] += shift
            p[j] -= shift
        elif tamper_p == "arbitrary":
            p[data.draw(st.integers(0, n - 1))] = data.draw(
                nonneg_rationals | large_prime_fractions
            )
        report = replace(
            report,
            stakes=tuple(stakes),
            alpha=report.alpha
            + data.draw(st.just(0) | rationals | large_prime_fractions),
            certificate=replace(report.certificate, p=tuple(p)),
        )
        assert certificate_failures(
            table, gamble, report
        ) == certificate_failures_by_expansion(table, gamble, report)

    @settings(max_examples=150)
    @given(
        system=stake_systems(),
        other=st.none() | st.lists(rationals, min_size=6, max_size=6),
    )
    @example(  # rational odds components
        system=(
            OddsTable(
                "Book",
                _space(3),
                (
                    FractionalOdds(Fraction(1, 2), Fraction(2, 3)),
                    FractionalOdds(Fraction(3, 2), Fraction(5, 3)),
                    FractionalOdds(Fraction(7, 3), Fraction(1, 2)),
                ),
            ),
            Gamble(_space(3), (5, -13, Fraction(-11, 3))),
        ),
        other=None,
    )
    @example(  # caps 3/7, 5/11 and 4/13: distinct prime denominators
        system=(_table("4/3", "6/5", "9/4"), Gamble(_space(3), (1, -2, 3))),
        other=None,
    )
    @example(  # the caps of S sum to exactly 1: the degenerate branch
        system=(_table("1/1", "1/1", "2/1"), Gamble(_space(3), (3, 2, 1))),
        other=None,
    )
    @example(  # a dual built for another gamble
        system=(_table("3/4", "13/5", "16/5"), Gamble(_space(3), (5, -13, -11))),
        other=[-20, 4, 4, 0, 0, 0],
    )
    def test_integer_stakes_equal_the_fraction_stakes(self, system, other):
        # alpha, every stake and the gain, or the StakeSystemError message
        table, gamble = system
        priced = gamble
        if other is not None:
            priced = Gamble(gamble.space, tuple(other[: len(gamble.space)]))
        dual = construct_dual(upper_pmf_from_odds(table), priced)

        def outcome(solve):
            try:
                report = solve(table, gamble, dual)
            except StakeSystemError as error:
                return str(error)
            return report.alpha, report.stakes, report.guaranteed_gain

        result = outcome(solve_stakes)
        assert result == outcome(solve_stakes_by_fractions)
        if not isinstance(result, str):
            assert all(type(s) is Fraction for s in result[1])
