from dataclasses import replace
from fractions import Fraction

import pytest

from dutchbook import (
    BaseOddsSureLossError,
    Gamble,
    OutcomeSpace,
    StakeSystemError,
    SureLossError,
    UpperPMF,
    best_strategy,
    certificate_failures,
    construct_dual,
    first_free_gamble,
    order_outcomes,
    solve_stakes,
    strategy_for_coupon,
    upper_natural_extension,
    upper_pmf_from_odds,
    verify_certificate,
)

WDL = OutcomeSpace.from_labels(["W", "D", "L"])
G_DL = Gamble(WDL, (5, -13, -11))


def combined_payoffs(table, gamble, stakes):
    gambles = table.gambles()
    return [
        gamble.payoffs[w]
        + sum(stakes[i] * gambles[i].payoffs[w] for i in range(len(stakes)))
        for w in range(len(stakes))
    ]


class TestOrderOutcomes:
    def test_coupon_combination_order(self):
        # highest payoff first: W (5), then L (-11), then D (-13)
        assert order_outcomes(G_DL) == (0, 2, 1)

    def test_constant_gamble_keeps_index_order(self):
        assert order_outcomes(Gamble.constant(WDL, 3)) == (0, 1, 2)

    def test_wide_field_order(self, bet2):
        space = bet2.space
        ffg = first_free_gamble(
            bet2, space.outcome("France"), space.outcome("Spain")
        )
        ordering = order_outcomes(ffg.gamble)
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
            ordering = order_outcomes(gamble)
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
        assert dual.expectation(G_DL) == Fraction(-47, 21)

    def test_constant_gamble_fills_greedily_in_index_order(self):
        pmf = UpperPMF(WDL, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)))
        dual = construct_dual(pmf, Gamble.constant(WDL, 1))
        assert dual.p == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        assert dual.expectation(Gamble.constant(WDL, 1)) == 1

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
                leftover = 1 - (pmf.total() - pmf.mass(spain))
                assert dual.p[outcome.index] == leftover
            else:
                assert dual.p[outcome.index] == pmf.mass(outcome)

    def test_attains_choquet_value(self, forest):
        pmf = upper_pmf_from_odds(forest)
        for payoffs in [(5, -13, -11), (0, 1, -1), (3, 3, 3), (-2, 5, 0)]:
            gamble = Gamble(WDL, payoffs)
            dual = construct_dual(pmf, gamble)
            assert dual.expectation(gamble) == upper_natural_extension(pmf, gamble)

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
        gamble = table.gamble(table.space.outcome("A"))
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
        combined = combined_payoffs(forest, ffg.gamble, list(report.stakes))
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
