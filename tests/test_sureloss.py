from fractions import Fraction

import pytest

from dutchbook import (
    FractionalOdds,
    Gamble,
    Market,
    check_asl_market,
    check_asl_single,
    expectation_sign_check,
    max_odds,
    over_round,
    upper_pmf_from_odds,
)
from oracles import pmf_exists_for


def witness_covers_all_gambles(verdict, gambles):
    assert verdict.witness is not None
    assert sum(verdict.witness, Fraction(0)) == 1
    assert all(w >= 0 for w in verdict.witness)
    return all(expectation_sign_check(g, verdict.witness) for g in gambles)


class TestUpperPmfFromOdds:
    def test_forest_masses(self, forest):
        assert upper_pmf_from_odds(forest).masses == (
            Fraction(4, 7),
            Fraction(5, 18),
            Fraction(5, 21),
        )

    def test_zero_numerator_mass_is_one(self, table_of):
        table = table_of({"A": "0/1", "B": "1"})
        assert upper_pmf_from_odds(table).masses[0] == 1

    def test_bet2_france(self, bet2):
        pmf = upper_pmf_from_odds(bet2)
        france = bet2.space.outcome("France")
        assert pmf.masses[france.index] == Fraction(1, 4)


class TestCheckASLSingle:
    def test_forest_avoids(self, forest):
        verdict = check_asl_single(forest)
        assert verdict.avoids
        assert verdict.total == Fraction(137, 126)
        assert witness_covers_all_gambles(verdict, forest.gambles())

    def test_boundary_total_exactly_one_avoids(self, table_of):
        verdict = check_asl_single(table_of({"A": "1/1", "B": "1/1"}))
        assert verdict.avoids
        assert verdict.total == 1
        assert verdict.witness == (Fraction(1, 2), Fraction(1, 2))

    def test_generous_odds_incur_sure_loss(self, table_of):
        table = table_of({"A": "2/1", "B": "2/1"})
        verdict = check_asl_single(table)
        assert not verdict.avoids
        assert verdict.total == Fraction(2, 3)
        assert verdict.witness is None
        # unit stakes on both bets lose the bookmaker 1 whatever happens
        g1, g2 = table.gambles()
        combined = g1 + g2
        assert max(combined.payoffs) == -1


class TestOverRound:
    def test_forest_margin(self, forest):
        assert over_round(forest) == Fraction(550, 63)

    def test_fair_table_has_zero_margin(self, table_of):
        assert over_round(table_of({"A": "1/1", "B": "1/1"})) == 0

    def test_negative_margin_when_exploitable(self, table_of):
        assert over_round(table_of({"A": "2/1", "B": "2/1"})) < 0

    def test_euro_best_quote_margin(self, euro_market):
        from dutchbook import format_decimal

        margin = over_round(max_odds(euro_market))
        assert format_decimal(margin, 2) == "3.49"


class TestMaxOdds:
    def test_three_bookmaker_market(self, three_market):
        best = max_odds(three_market)
        assert best.odds == (
            FractionalOdds(17, 20),
            FractionalOdds(14, 5),
            FractionalOdds(10, 3),
        )

    def test_single_bookmaker_market_returns_own_odds(self, forest):
        market = Market(forest.space, (forest,))
        assert max_odds(market).odds == forest.odds

    def test_tie_keeps_first_bookmaker_quote(self, table_of):
        first = table_of({"A": "2/1", "B": "1/1"}, "first")
        second = table_of({"A": "4/2", "B": "1/1"}, "second")
        best = max_odds(Market(first.space, (first, second)))
        assert best.odds[0] == FractionalOdds(2, 1)

    def test_euro_maxima(self, euro_market):
        best = max_odds(euro_market)
        ratios = {o.label: best.odds_for(o).ratio for o in euro_market.space}
        assert ratios["France"] == Fraction(10, 3)
        assert ratios["Germany"] == Fraction(23, 5)
        assert ratios["Hungary"] == 566
        assert ratios["Albania"] == 531


class TestCheckASLMarket:
    def test_three_bookmaker_verdict(self, three_market):
        verdict = check_asl_market(three_market)
        assert verdict.avoids
        assert verdict.total == Fraction(20, 37) + Fraction(5, 19) + Fraction(3, 13)
        all_gambles = [g for t in three_market.tables for g in t.gambles()]
        assert witness_covers_all_gambles(verdict, all_gambles)

    def test_dominated_bookmaker_still_covered_by_witness(self, three_market):
        # Forest's odds are all below the others'; the market witness must
        # still give its gambles non-negative expectation
        verdict = check_asl_market(three_market)
        forest = three_market.table("Forest")
        assert all(
            expectation_sign_check(g, verdict.witness) for g in forest.gambles()
        )

    def test_cross_book_combination_can_fail_when_each_table_passes(
        self, table_of
    ):
        one = table_of({"A": "2/1", "B": "1/2"}, "one")
        two = table_of({"A": "1/2", "B": "2/1"}, "two")
        assert check_asl_single(one).avoids
        assert check_asl_single(two).avoids
        verdict = check_asl_market(Market(one.space, (one, two)))
        assert not verdict.avoids
        assert verdict.total == Fraction(2, 3)

    @pytest.mark.parametrize(
        "quotes",
        [
            {"one": {"A": "2/1", "B": "1/2"}, "two": {"A": "1/2", "B": "2/1"}},
            {"one": {"A": "1/1", "B": "1/1"}, "two": {"A": "1/2", "B": "1/3"}},
            {
                "one": {"A": "3/4", "B": "13/5", "C": "16/5"},
                "two": {"A": "17/20", "B": "14/5", "C": "3"},
                "three": {"A": "4/5", "B": "13/5", "C": "10/3"},
            },
        ],
    )
    def test_verdict_matches_feasibility_oracle(self, quotes, table_of):
        tables = tuple(table_of(odds, name) for name, odds in quotes.items())
        market = Market(tables[0].space, tables)
        rows = [g.payoffs for t in tables for g in t.gambles()]
        assert check_asl_market(market).avoids == pmf_exists_for(rows)


class TestExpectationSignCheck:
    def test_uniform_distribution_rejects_draw_gamble(self, forest):
        g_d = forest.gambles()[1]
        uniform = [Fraction(1, 3)] * 3
        assert not expectation_sign_check(g_d, uniform)
        # equivalent mass comparison: 1/3 > 5/18
        assert Fraction(1, 3) > forest.odds[1].upper_mass

    def test_nonnegative_gamble_always_passes(self, forest):
        g = Gamble(forest.space, (0, 1, 2))
        assert expectation_sign_check(g, [Fraction(1, 3)] * 3)
        assert expectation_sign_check(g, [1, 0, 0])

    def test_boundary_mass_passes_exactly(self, forest):
        g_d = forest.gambles()[1]
        p = [Fraction(1, 2), Fraction(5, 18), Fraction(2, 9)]
        assert sum(p) == 1
        assert expectation_sign_check(g_d, p)

    def test_invalid_distribution_rejected(self, forest):
        g = forest.gambles()[0]
        with pytest.raises(ValueError):
            expectation_sign_check(g, [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(ValueError):
            expectation_sign_check(g, [Fraction(3, 2), Fraction(-1, 2), 0])
        with pytest.raises(ValueError):
            expectation_sign_check(g, [Fraction(1, 2), Fraction(1, 2)])
