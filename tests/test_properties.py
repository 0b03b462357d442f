"""Randomised invariants, exact arithmetic throughout."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dutchbook import (
    FractionalOdds,
    Gamble,
    Market,
    OddsTable,
    OutcomeSpace,
    UpperPMF,
    as_rational,
    check_asl_market,
    check_asl_single,
    construct_dual,
    decompose,
    enumerate_coupons,
    expectation_sign_check,
    first_free_gamble,
    format_rational,
    gamble_from_odds,
    indicator,
    lower_event,
    lower_natural_extension,
    order_outcomes,
    scale_odds,
    solve_stakes,
    strategy_for_coupon,
    upper_event,
    upper_natural_extension,
    upper_pmf_from_odds,
    verify_certificate,
)
from oracles import pmf_exists_for, solve_exact, upper_extension_vertices

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


@st.composite
def stake_systems(draw, max_size=6):
    """A solvent book and a gamble on it; about half the time the caps of
    the gamble's leading outcomes sum to exactly 1, which makes the
    complementary-slackness system singular."""
    gamble = draw(gambles(2, max_size))
    n = len(gamble.space)
    if draw(st.booleans()):
        lead = order_outcomes(gamble)[: draw(st.integers(1, n))]
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
        scaled = gamble_from_odds(scale_odds(odds, alpha), target, space)
        assert scaled == alpha * gamble_from_odds(odds, target, space)

    @given(q=rationals)
    def test_rational_format_round_trip(self, q):
        assert as_rational(format_rational(q)) == q


class TestChoquetProperties:
    @given(gamble=gambles())
    def test_decomposition_reconstructs_exactly(self, gamble):
        assert decompose(gamble).reconstruct(gamble.space) == gamble

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
        shifted = gamble + Gamble.constant(gamble.space, c)
        assert (
            upper_natural_extension(pmf, shifted)
            == upper_natural_extension(pmf, gamble) + c
        )

    @given(pair=pmf_gamble_pairs(), alpha=positive_factors)
    def test_positive_homogeneity(self, pair, alpha):
        pmf, gamble = pair
        assert upper_natural_extension(
            pmf, alpha * gamble
        ) == alpha * upper_natural_extension(pmf, gamble)

    @given(pair=pmf_gamble_pairs(max_size=4))
    def test_indicator_prices_match_event_bounds(self, pair):
        pmf, _ = pair
        outcomes = list(pmf.space)
        for mask in range(2 ** len(outcomes)):
            event = [o for i, o in enumerate(outcomes) if mask >> i & 1]
            gamble = indicator(pmf.space, event)
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
        assert sum(dual.p, Fraction(0)) == 1
        assert all(
            0 <= p <= m for p, m in zip(dual.p, pmf.masses)
        )
        assert dual.expectation(gamble) == upper_natural_extension(pmf, gamble)

    @settings(max_examples=60)
    @given(pair=pmf_gamble_pairs(max_size=5))
    def test_matches_vertex_enumeration_oracle(self, pair):
        pmf, gamble = pair
        expected = upper_extension_vertices(pmf.masses, gamble.payoffs)
        assert upper_natural_extension(pmf, gamble) == expected


class TestSureLossProperties:
    @given(table=odds_tables(max_size=5), data=st.data())
    def test_sign_check_equivalent_to_mass_comparison(self, table, data):
        target = table.space[data.draw(st.integers(0, len(table.space) - 1))]
        gamble = table.gamble(target)
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


class TestStrategyProperties:
    @given(gamble=gambles())
    def test_ordering_is_lawful(self, gamble):
        ordering = order_outcomes(gamble)
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
        gambles_ = table.gambles()
        for w in range(n):
            combined = ffg.gamble.payoffs[w] + sum(
                report.stakes[k] * gambles_[k].payoffs[w] for k in range(n)
            )
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
