from dataclasses import replace
from fractions import Fraction

import pytest

from dutchbook import (
    BaseOddsSureLossError,
    Gamble,
    OutcomeSpace,
    StakeSystemError,
    SureLossError,
    best_strategy,
    first_free_gamble,
    strategy_for_coupon,
    upper_natural_extension,
    upper_pmf_from_odds,
    verify_certificate,
)
from dutchbook.choquet import UpperPMF, construct_dual
from dutchbook.coupons import scaled_coupon_values
from dutchbook.strategy import certificate_failures, solve_stakes
from oracles import (
    certificate_failures_by_expansion,
    choquet_by_levels,
    combined_payoffs,
    dual_by_fractions,
    solve_stakes_by_fractions,
)

WDL = OutcomeSpace.from_labels(["W", "D", "L"])
G_DL = Gamble(WDL, (5, -13, -11))


def order_of(gamble):
    """The greedy dual's ordering, which the caps do not affect."""
    unit = UpperPMF(gamble.space, (1,) * len(gamble.space))
    return construct_dual(unit, gamble).ordering


class TestOrderOutcomes:
    def test_coupon_combination_order(self):
        # highest payoff first: W (5), then L (-11), then D (-13)
        assert order_of(G_DL) == (0, 2, 1)

    def test_constant_gamble_keeps_index_order(self):
        assert order_of(Gamble(WDL, (3, 3, 3))) == (0, 1, 2)

    def test_wide_field_order(self, bet2):
        space = bet2.space
        ffg = first_free_gamble(
            bet2, space.outcome("France"), space.outcome("Spain")
        )
        ordering = construct_dual(upper_pmf_from_odds(bet2), ffg.gamble).ordering
        labels = [space[i].label for i in ordering]
        assert labels[0] == "Germany"
        assert labels[1] == "England"
        assert labels[22] == "France"
        assert labels[23] == "Spain"
        # ties within the even-payoff block resolve by outcome index
        block = ordering[:22]
        assert list(block) == sorted(block)

    def test_order_nests_level_sets(self):
        for payoffs in [(5, -13, -11), (1, 1, 0), (2, 2, 2), (-1, 3, 0)]:
            gamble = Gamble(WDL, payoffs)
            ordering = order_of(gamble)
            sets = [
                {w for w in range(3) if gamble.payoffs[w] >= gamble.payoffs[i]}
                for i in ordering
            ]
            for earlier, later in zip(sets, sets[1:]):
                assert earlier <= later


class TestConstructDual:
    def test_forest_example(self, forest):
        pmf = upper_pmf_from_odds(forest)
        dual = construct_dual(pmf, G_DL)
        assert dual.p == (Fraction(4, 7), Fraction(4, 21), Fraction(5, 21))
        assert dual.k == 3
        assert dual.k_prime == 2
        assert sum(w * v for w, v in zip(dual.p, G_DL.payoffs)) == Fraction(-47, 21)

    def test_constant_gamble_fills_greedily_in_index_order(self):
        pmf = UpperPMF(WDL, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)))
        ones = Gamble(WDL, (1, 1, 1))
        dual = construct_dual(pmf, ones)
        assert dual.p == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        assert sum(w * v for w, v in zip(dual.p, ones.payoffs)) == 1

    def test_wide_field_dual(self, bet2):
        space = bet2.space
        pmf = upper_pmf_from_odds(bet2)
        ffg = first_free_gamble(
            bet2, space.outcome("France"), space.outcome("Spain")
        )
        dual = construct_dual(pmf, ffg.gamble)
        assert dual.k == 24
        assert dual.k_prime == 23
        spain = space.outcome("Spain")
        for outcome in space:
            if outcome == spain:
                leftover = 1 - (pmf.total() - pmf.masses[spain.index])
                assert dual.p[outcome.index] == leftover
            else:
                assert dual.p[outcome.index] == pmf.masses[outcome.index]

    def test_attains_choquet_value(self, forest):
        pmf = upper_pmf_from_odds(forest)
        for payoffs in [(5, -13, -11), (0, 1, -1), (3, 3, 3), (-2, 5, 0)]:
            gamble = Gamble(WDL, payoffs)
            dual = construct_dual(pmf, gamble)
            assert dual.value == sum(w * v for w, v in zip(dual.p, gamble.payoffs))
            assert dual.value == choquet_by_levels(pmf, gamble)
            assert upper_natural_extension(pmf, gamble) == dual.value

    def test_integer_fill_equals_the_fraction_fill_on_the_euro_books(
        self, euro_market, bet2
    ):
        space = bet2.space
        pmf = upper_pmf_from_odds(bet2)
        gambles = [
            (pmf, first_free_gamble(bet2, first, coupon).gamble)
            for first in space
            for coupon in space
            if first != coupon
        ]
        assert len(gambles) == 552
        for table in euro_market.tables:
            book = upper_pmf_from_odds(table)
            gambles += [(book, gamble) for gamble in table.gambles()]
        for caps, gamble in gambles:
            assert construct_dual(caps, gamble) == dual_by_fractions(caps, gamble)

    def test_mass_total_boundary(self):
        pmf = UpperPMF(WDL, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        dual = construct_dual(pmf, G_DL)
        assert dual.p == pmf.masses
        assert dual.k == 3
        assert dual.k_prime == 3

    def test_deficient_masses_rejected(self):
        thin = UpperPMF(WDL, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))
        with pytest.raises(SureLossError):
            construct_dual(thin, G_DL)


class TestSolveStakes:
    def test_forest_stake_vector(self, forest):
        pmf = upper_pmf_from_odds(forest)
        dual = construct_dual(pmf, G_DL)
        report = solve_stakes(forest, G_DL, dual)
        assert report.alpha == Fraction(-47, 21)
        assert report.stakes == (Fraction(18, 7), 0, Fraction(2, 21))
        assert report.guaranteed_gain == Fraction(47, 21)
        assert verify_certificate(forest, G_DL, report)

    def test_zero_gain_boundary_with_degenerate_system(self, table_of):
        # a fair book prices one of its own gambles at exactly zero; the
        # slackness system is rank deficient but still yields stakes
        table = table_of({"A": "1/1", "B": "1/1"})
        gamble = table.gambles()[0]
        pmf = upper_pmf_from_odds(table)
        assert upper_natural_extension(pmf, gamble) == 0
        dual = construct_dual(pmf, gamble)
        report = solve_stakes(table, gamble, dual)
        assert report.alpha == 0
        assert report.guaranteed_gain == 0
        assert verify_certificate(table, gamble, report)

    def test_mismatched_dual_raises(self, forest):
        pmf = upper_pmf_from_odds(forest)
        other = Gamble(WDL, (-20, 4, 4))
        dual = construct_dual(pmf, other)
        with pytest.raises(StakeSystemError):
            solve_stakes(forest, G_DL, dual)


    def test_integer_stakes_equal_the_fraction_stakes_on_the_euro_books(
        self, euro_market, bet2
    ):
        space = bet2.space
        cases = [
            (bet2, first_free_gamble(bet2, first, coupon).gamble)
            for first in space
            for coupon in space
            if first != coupon
        ]
        assert len(cases) == 552
        for table in euro_market.tables:  # each book's best pair
            _, values, _ = scaled_coupon_values(table)
            _, i, j = min(values)
            ffg = first_free_gamble(table, table.space[i], table.space[j])
            cases.append((table, ffg.gamble))
        for table, gamble in cases:
            dual = construct_dual(upper_pmf_from_odds(table), gamble)
            report = solve_stakes(table, gamble, dual)
            assert report == solve_stakes_by_fractions(table, gamble, dual)
            assert all(type(s) is Fraction for s in report.stakes)


class TestOtherOutcomeSpace:
    """Bet12's strategy for first bet France, coupon Albania, against a
    gamble holding only the first 23 of its 24 payoffs."""

    @pytest.fixture
    def case(self, euro_market):
        table = euro_market.table("Bet12")
        space = table.space
        ffg = first_free_gamble(
            table, space.outcome("France"), space.outcome("Albania")
        )
        report = strategy_for_coupon(table, ffg)
        short = Gamble(OutcomeSpace(space.outcomes[:23]), ffg.gamble.payoffs[:23])
        return table, short, report

    def test_certificate_fails(self, case):
        table, short, report = case
        expected = [
            "gamble is over another outcome space (23 outcomes, the table's 24)"
        ]
        assert certificate_failures(table, short, report) == expected
        assert certificate_failures_by_expansion(table, short, report) == expected
        assert not verify_certificate(table, short, report)

    def test_stake_solve_refuses(self, case):
        table, short, report = case
        for solve in (solve_stakes, solve_stakes_by_fractions):
            with pytest.raises(ValueError, match="different outcome spaces"):
                solve(table, short, report.certificate)


class TestVerifyCertificate:
    def test_forest_report_verifies(self, forest):
        report = solve_stakes(
            forest, G_DL, construct_dual(upper_pmf_from_odds(forest), G_DL)
        )
        assert verify_certificate(forest, G_DL, report)
        assert certificate_failures(forest, G_DL, report) == []

    def test_perturbed_stake_fails(self, forest):
        report = solve_stakes(
            forest, G_DL, construct_dual(upper_pmf_from_odds(forest), G_DL)
        )
        stakes = list(report.stakes)
        stakes[0] += 1
        tampered = replace(report, stakes=tuple(stakes))
        assert not verify_certificate(forest, G_DL, tampered)

    def test_shifted_alpha_fails(self, forest):
        report = solve_stakes(
            forest, G_DL, construct_dual(upper_pmf_from_odds(forest), G_DL)
        )
        tampered = replace(report, alpha=report.alpha - 1)
        failures = certificate_failures(forest, G_DL, tampered)
        assert failures  # dual objective no longer matches alpha
        assert not verify_certificate(forest, G_DL, tampered)

    def test_alpha_below_by_one_part_in_a_large_prime_fails(self, table_of):
        # integer stakes and payoffs: every combined payoff exceeds the
        # shifted alpha by exactly one unit of the certificate's scale
        table = table_of({"A": "1/1", "B": "1/1"})
        gamble = table.gambles()[0]
        report = solve_stakes(
            table, gamble, construct_dual(upper_pmf_from_odds(table), gamble)
        )
        tampered = replace(report, alpha=report.alpha - Fraction(1, 2**61 - 1))
        failures = certificate_failures(table, gamble, tampered)
        assert failures == certificate_failures_by_expansion(table, gamble, tampered)
        assert [f.split(" is ")[0] for f in failures[:2]] == [
            "combined payoff at A",
            "combined payoff at B",
        ]

    def test_tampered_dual_fails(self, forest):
        report = solve_stakes(
            forest, G_DL, construct_dual(upper_pmf_from_odds(forest), G_DL)
        )
        bad_p = (Fraction(1), Fraction(0), Fraction(0))
        tampered = replace(report, certificate=replace(report.certificate, p=bad_p))
        assert not verify_certificate(forest, G_DL, tampered)


class TestStrategyForCoupon:
    def test_forest_pair_report(self, forest):
        space = forest.space
        ffg = first_free_gamble(forest, space.outcome("D"), space.outcome("L"))
        report = strategy_for_coupon(forest, ffg)
        assert report.first_outcome.label == "D"
        assert report.coupon_outcome.label == "L"
        assert report.alpha == Fraction(-47, 21)
        assert report.certificate.k_prime >= len(space) - 2

    def test_customer_gain_realised_at_every_outcome(self, forest):
        space = forest.space
        ffg = first_free_gamble(forest, space.outcome("D"), space.outcome("L"))
        report = strategy_for_coupon(forest, ffg)
        rows = [g.payoffs for g in forest.gambles()]
        combined = combined_payoffs(rows, ffg.gamble.payoffs, report.stakes)
        assert all(-v >= report.guaranteed_gain for v in combined)

    def test_degenerate_boundary_coupon(self, table_of):
        # fair two-outcome book: the coupon is exploitable and the
        # slackness system is singular, exercising the pinned-free-variable
        # path end to end
        table = table_of({"A": "1/1", "B": "1/1"})
        ffg = first_free_gamble(
            table, table.space.outcome("A"), table.space.outcome("B")
        )
        report = strategy_for_coupon(table, ffg)
        assert report.alpha == Fraction(-1, 2)
        assert report.guaranteed_gain == Fraction(1, 2)
        assert verify_certificate(table, ffg.gamble, report)


class TestBestStrategy:
    def test_forest_best_pair(self, forest):
        report = best_strategy(forest)
        assert report is not None
        assert (report.first_outcome.label, report.coupon_outcome.label) == ("D", "L")
        assert report.guaranteed_gain == Fraction(47, 21)

    def test_heavy_margin_table_has_no_strategy(self, table_of):
        table = table_of({"A": "1/10", "B": "1/10", "C": "1/10"})
        assert best_strategy(table) is None

    def test_failing_base_odds_redirects(self, table_of):
        with pytest.raises(BaseOddsSureLossError):
            best_strategy(table_of({"A": "2/1", "B": "2/1"}))

    def test_wide_field_best_pair(self, bet2):
        report = best_strategy(bet2)
        assert (report.first_outcome.label, report.coupon_outcome.label) == (
            "France",
            "Germany",
        )
        assert abs(report.guaranteed_gain - Fraction(2093, 10000)) <= Fraction(1, 1000)
