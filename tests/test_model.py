from fractions import Fraction

import pytest

from dutchbook import (
    FractionalOdds,
    Gamble,
    Market,
    OddsTable,
    Outcome,
    OutcomeSpace,
    as_rational,
    format_decimal,
    format_rational,
    gamble_from_odds,
    scale_odds,
)


class TestRationalHelpers:
    def test_as_rational_accepts_int_str_fraction(self):
        assert as_rational(3) == Fraction(3)
        assert as_rational("13/5") == Fraction(13, 5)
        assert as_rational(Fraction(-47, 21)) == Fraction(-47, 21)

    def test_as_rational_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.1)

    def test_format_round_trip_reduces(self):
        assert format_rational("14/21") == "2/3"
        assert as_rational(format_rational("-6/4")) == Fraction(-3, 2)

    def test_format_rational_always_shows_denominator(self):
        assert format_rational(5) == "5/1"
        assert format_rational(Fraction(0)) == "0/1"

    def test_format_decimal_examples(self):
        assert format_decimal(Fraction(137, 126), 3) == "1.087"
        assert format_decimal(Fraction(-19, 200)) == "-0.0950"
        assert format_decimal(Fraction(2), 4) == "2.0000"

    def test_format_decimal_half_even(self):
        assert format_decimal(Fraction(1, 20000), 4) == "0.0000"
        assert format_decimal(Fraction(3, 20000), 4) == "0.0002"
        assert format_decimal(Fraction(-1, 20000), 4) == "0.0000"


class TestOutcomeSpace:
    def test_from_labels_assigns_dense_indices(self):
        space = OutcomeSpace.from_labels(["W", "D", "L"])
        assert [o.index for o in space] == [0, 1, 2]
        assert space.labels == ("W", "D", "L")
        assert space.outcome("D") == Outcome(1, "D")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            OutcomeSpace.from_labels(["W", "W"])

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            OutcomeSpace.from_labels([])

    def test_unknown_label_lookup(self):
        space = OutcomeSpace.from_labels(["W", "L"])
        with pytest.raises(KeyError):
            space.outcome("D")

    def test_membership_is_by_value(self):
        space = OutcomeSpace.from_labels(["W", "L"])
        assert Outcome(0, "W") in space
        assert Outcome(0, "L") not in space


class TestFractionalOdds:
    def test_parse_pair_and_shorthand(self):
        assert FractionalOdds.parse("13/5") == FractionalOdds(13, 5)
        assert FractionalOdds.parse("3") == FractionalOdds(3, 1)

    @pytest.mark.parametrize("bad", ["", "a/b", "1.5", "1/2/3", "-1/2"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            FractionalOdds.parse(bad)

    def test_invariants(self):
        with pytest.raises(ValueError):
            FractionalOdds(-1, 2)
        with pytest.raises(ValueError):
            FractionalOdds(1, 0)

    def test_components_stored_verbatim(self):
        # 18/4 quotes the same price as 9/2 but a different stake
        assert FractionalOdds(18, 4) != FractionalOdds(9, 2)
        assert FractionalOdds(18, 4).ratio == FractionalOdds(9, 2).ratio

    def test_upper_mass(self):
        assert FractionalOdds(3, 4).upper_mass == Fraction(4, 7)
        assert FractionalOdds(0, 1).upper_mass == 1

    def test_str(self):
        assert str(FractionalOdds(13, 5)) == "13/5"
        assert str(FractionalOdds(Fraction(15, 4), 5)) == "(15/4)/5"


class TestGambleFromOdds:
    def test_draw_bet_payoffs(self):
        space = OutcomeSpace.from_labels(["W", "D", "L"])
        g = gamble_from_odds(FractionalOdds(13, 5), space.outcome("D"), space)
        assert g.payoffs == (5, -13, 5)

    def test_zero_numerator_gives_nonnegative_gamble(self):
        space = OutcomeSpace.from_labels(["W", "L"])
        g = gamble_from_odds(FractionalOdds(0, 1), space.outcome("W"), space)
        assert g.payoffs == (0, 1)

    def test_long_shot_bet(self):
        space = OutcomeSpace.from_labels(["W", "D", "L"])
        g = gamble_from_odds(FractionalOdds(16, 5), space.outcome("L"), space)
        assert g.payoffs == (5, 5, -16)

    def test_target_outside_space_rejected(self):
        space = OutcomeSpace.from_labels(["W", "L"])
        with pytest.raises(ValueError):
            gamble_from_odds(FractionalOdds(1, 1), Outcome(5, "X"), space)


class TestScaleOdds:
    def test_match_stake_example(self):
        scaled = scale_odds(FractionalOdds(3, 4), Fraction(5, 4))
        assert scaled == FractionalOdds(Fraction(15, 4), 5)

    def test_identity(self):
        odds = FractionalOdds(9, 2)
        assert scale_odds(odds, 1) == odds

    def test_components_scale_without_pair_reduction(self):
        assert scale_odds(FractionalOdds(9, 2), 2) == FractionalOdds(18, 4)

    def test_scaled_gamble_is_scaled_pointwise(self):
        space = OutcomeSpace.from_labels(["A", "B", "C"])
        odds = FractionalOdds(9, 2)
        target = space.outcome("B")
        scaled = gamble_from_odds(scale_odds(odds, 2), target, space)
        assert scaled == 2 * gamble_from_odds(odds, target, space)

    @pytest.mark.parametrize("alpha", [0, -1, Fraction(-1, 3)])
    def test_nonpositive_factor_rejected(self, alpha):
        with pytest.raises(ValueError):
            scale_odds(FractionalOdds(1, 1), alpha)


class TestGamble:
    def test_negate(self):
        space = OutcomeSpace.from_labels(["W", "D", "L"])
        assert (-Gamble(space, (5, -13, 5))).payoffs == (-5, 13, -5)
        zero = Gamble.constant(space, 0)
        assert -zero == zero
        assert (-Gamble(space, (-3, -4, 1))).payoffs == (3, 4, -1)

    def test_length_must_match_space(self):
        space = OutcomeSpace.from_labels(["W", "L"])
        with pytest.raises(ValueError):
            Gamble(space, (1, 2, 3))

    def test_float_payoffs_rejected(self):
        space = OutcomeSpace.from_labels(["W", "L"])
        with pytest.raises(TypeError):
            Gamble(space, (0.5, 1))

    def test_addition_requires_same_space(self):
        a = Gamble(OutcomeSpace.from_labels(["W", "L"]), (1, 2))
        b = Gamble(OutcomeSpace.from_labels(["X", "Y"]), (1, 2))
        with pytest.raises(ValueError):
            a + b

    def test_arithmetic(self):
        space = OutcomeSpace.from_labels(["W", "L"])
        g = Gamble(space, (1, -2))
        assert (g + g).payoffs == (2, -4)
        assert (Fraction(1, 2) * g).payoffs == (Fraction(1, 2), -1)


class TestOddsTable:
    def test_from_mapping_and_lookup(self, forest):
        assert forest.bookmaker == "Forest"
        assert forest.odds_for(forest.space.outcome("D")) == FractionalOdds(13, 5)
        gambles = forest.gambles()
        assert gambles[1].payoffs == (5, -13, 5)

    def test_from_mapping_missing_outcome(self):
        space = OutcomeSpace.from_labels(["W", "D", "L"])
        with pytest.raises(ValueError):
            OddsTable.from_mapping("B", space, {"W": "1/1", "D": "1/1"})

    def test_from_mapping_unknown_outcome(self):
        space = OutcomeSpace.from_labels(["W", "L"])
        with pytest.raises(ValueError):
            OddsTable.from_mapping("B", space, {"W": "1", "L": "1", "X": "1"})


class TestMarket:
    def test_tables_must_share_space(self, forest):
        other = OutcomeSpace.from_labels(["A", "B"])
        stray = OddsTable.from_mapping("S", other, {"A": "1", "B": "1"})
        with pytest.raises(ValueError):
            Market(forest.space, (forest, stray))

    def test_bookmaker_names_unique(self, forest):
        with pytest.raises(ValueError):
            Market(forest.space, (forest, forest))

    def test_lookup(self, three_market):
        assert three_market.bookmakers == ("River", "Mountain", "Forest")
        with pytest.raises(KeyError):
            three_market.table("Nowhere")
