from fractions import Fraction

import pytest

from dutchbook import (
    BaseOddsSureLossError,
    CouponRuleError,
    CouponRules,
    enumerate_coupons,
    exploitability,
    first_free_gamble,
    upper_natural_extension,
    upper_pmf_from_odds,
)
from dutchbook.coupons import scaled_coupon_values
from dutchbook.model import gamble_from_odds
from oracles import coupon_values_by_fractions

# independently recomputed by vertex enumeration over the dual polytope
FOREST_PAIR_VALUES = {
    ("W", "D"): Fraction(-208, 105),
    ("W", "L"): Fraction(-608, 315),
    ("D", "W"): Fraction(-4, 7),
    ("D", "L"): Fraction(-47, 21),
    ("L", "W"): Fraction(-13, 42),
    ("L", "D"): Fraction(-16, 9),
}


class TestCouponRules:
    def test_default_rules(self):
        assert CouponRules().max_coupon_value is None

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            CouponRules(max_coupon_value=Fraction(0))


class TestFirstFreeGamble:
    def test_forest_first_draw_coupon_loss(self, forest):
        space = forest.space
        ffg = first_free_gamble(forest, space.outcome("D"), space.outcome("L"))
        assert ffg.gamble.payoffs == (5, -13, -11)
        assert ffg.stake_scale == 1

    def test_wide_field_first_favourite_coupon_second(self, bet2):
        space = bet2.space
        ffg = first_free_gamble(
            bet2, space.outcome("France"), space.outcome("Spain")
        )
        expected = [Fraction(1)] * 24
        expected[space.outcome("France").index] = Fraction(-3)
        expected[space.outcome("Spain").index] = Fraction(-4)
        assert ffg.gamble.payoffs == tuple(expected)

    def test_evens_coupon_leg_cancels(self, table_of):
        table = table_of({"A": "2/1", "B": "3/3", "C": "1/2"})
        ffg = first_free_gamble(
            table, table.space.outcome("A"), table.space.outcome("B")
        )
        assert ffg.gamble.payoffs[table.space.outcome("B").index] == 0

    def test_coupon_stake_rescaled_to_first_stake(self, forest):
        space = forest.space
        ffg = first_free_gamble(forest, space.outcome("W"), space.outcome("D"))
        # first stake 4, coupon odds 13/5 rescaled by 4/5
        assert ffg.stake_scale == Fraction(4, 5)
        assert ffg.gamble.payoffs == (-3, Fraction(4) - Fraction(52, 5), 4)

    def test_composition_is_first_bet_plus_coupon_leg(self, forest):
        space = forest.space
        for first in space:
            for coupon in space:
                if first == coupon:
                    continue
                ffg = first_free_gamble(forest, first, coupon)
                base = gamble_from_odds(forest.odds_for(first), first, space)
                leg = ffg.gamble + (-base)
                # the coupon leg only ever pays out on the coupon outcome
                for outcome, value in leg.items():
                    if outcome == coupon:
                        scaled = forest.odds_for(coupon)
                        assert value == -scaled.numerator * ffg.stake_scale
                    else:
                        assert value == 0

    def test_same_outcome_rejected(self, forest):
        w = forest.space.outcome("W")
        with pytest.raises(CouponRuleError):
            first_free_gamble(forest, w, w)

    def test_cap_violation_rejected(self, forest):
        rules = CouponRules(max_coupon_value=Fraction(9, 2))
        space = forest.space
        with pytest.raises(CouponRuleError):
            first_free_gamble(forest, space.outcome("D"), space.outcome("L"), rules)
        # W only stakes 4, under the cap
        ffg = first_free_gamble(forest, space.outcome("W"), space.outcome("L"), rules)
        assert ffg.first_outcome.label == "W"


class TestExploitability:
    def test_forest_draw_loss_pair(self, forest):
        space = forest.space
        ffg = first_free_gamble(forest, space.outcome("D"), space.outcome("L"))
        assert exploitability(forest, ffg) == Fraction(-47, 21)

    def test_nonnegative_combined_gamble_never_exploitable(self, table_of):
        table = table_of({"A": "0/1", "B": "1/2", "C": "1/2"})
        ffg = first_free_gamble(
            table, table.space.outcome("A"), table.space.outcome("B")
        )
        assert min(ffg.gamble.payoffs) >= 0
        assert exploitability(table, ffg) >= 0

    def test_failing_base_odds_redirects(self, table_of):
        table = table_of({"A": "2/1", "B": "2/1"})
        ffg_payload = first_free_gamble(
            table, table.space.outcome("A"), table.space.outcome("B")
        )
        with pytest.raises(BaseOddsSureLossError):
            exploitability(table, ffg_payload)

    def test_space_mismatch_rejected(self, forest, bet2):
        ffg = first_free_gamble(
            bet2, bet2.space.outcome("France"), bet2.space.outcome("Spain")
        )
        with pytest.raises(ValueError):
            exploitability(forest, ffg)


class TestEnumerateCoupons:
    def test_forest_all_six_pairs(self, forest):
        entries = enumerate_coupons(forest)
        assert len(entries) == 6
        values = {
            (f.first_outcome.label, f.coupon_outcome.label): v
            for f, v in entries
        }
        assert values == FOREST_PAIR_VALUES
        # sorted ascending: best customer gain first
        assert [v for _, v in entries] == sorted(values.values())
        best, best_value = entries[0]
        assert (best.first_outcome.label, best.coupon_outcome.label) == ("D", "L")
        assert best_value == Fraction(-47, 21)

    def test_two_outcome_table(self, table_of):
        entries = enumerate_coupons(table_of({"A": "1/2", "B": "1/2"}))
        assert len(entries) == 2

    def test_count_is_ordered_pairs(self, bet2):
        assert len(enumerate_coupons(bet2)) == 24 * 23

    def test_closed_form_matches_choquet_price_on_every_bet2_pair(self, bet2):
        pmf = upper_pmf_from_odds(bet2)
        space = bet2.space
        scale, values, capped = scaled_coupon_values(bet2)
        assert capped == []
        assert [(i, j) for _, i, j in values] == [
            (i, j) for i in range(24) for j in range(24) if i != j
        ]
        for value, i, j in values:
            ffg = first_free_gamble(bet2, space[i], space[j])
            assert Fraction(value, scale) == upper_natural_extension(
                pmf, ffg.gamble
            )

    def test_integer_sweep_matches_the_fractions_on_every_euro_book(
        self, euro_market
    ):
        for table in euro_market.tables:
            scale, values, _ = scaled_coupon_values(table)
            expected = coupon_values_by_fractions(table, CouponRules())
            assert [(Fraction(v, scale), i, j) for v, i, j in values] == expected

    def test_ties_break_lexicographically(self, table_of):
        table = table_of({"A": "1/2", "B": "1/2"})
        entries = enumerate_coupons(table)
        values = [v for _, v in entries]
        assert values[0] == values[1]  # symmetric table
        assert entries[0][0].first_outcome.index == 0

    def test_base_sure_loss_redirects(self, table_of):
        with pytest.raises(BaseOddsSureLossError):
            enumerate_coupons(table_of({"A": "2/1", "B": "2/1"}))

    def test_cap_omits_pairs_with_notes(self, forest):
        rules = CouponRules(max_coupon_value=Fraction(9, 2))
        entries = enumerate_coupons(forest, rules)
        # D and L both stake 5 > 9/2; only W-first pairs remain
        assert len(entries) == 2
        assert all(f.first_outcome.label == "W" for f, _ in entries)
        # the sweep names the capped first outcomes, D and L, by index
        _, values, capped = scaled_coupon_values(forest, rules)
        assert capped == [1, 2]
        assert {i for _, i, _ in values} == {0}
        assert scaled_coupon_values(forest, CouponRules())[2] == []
