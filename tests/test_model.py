import dataclasses
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dutchbook import (
    FractionalOdds,
    Gamble,
    Market,
    OddsTable,
    Outcome,
    OutcomeSpace,
    format_decimal,
    format_rational,
)
from dutchbook.model import as_rational, gamble_from_odds, scaled

RATIONALS = st.fractions(max_denominator=10**6) | st.integers(-(10**30), 10**30)


class TestRationalHelpers:
    def test_as_rational_accepts_int_str_fraction(self):
        assert as_rational(3) == Fraction(3)
        assert as_rational("13/5") == Fraction(13, 5)
        assert as_rational(Fraction(-47, 21)) == Fraction(-47, 21)

    def test_as_rational_ints_inside_and_outside_the_shared_range(self):
        for i in range(-300, 301):
            q = as_rational(i)
            assert type(q) is Fraction and q == i
        assert as_rational(256) is as_rational(256)
        assert as_rational(True) == 1 and as_rational(False) == 0

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


class TestScaled:
    @given(st.lists(RATIONALS, max_size=12))
    def test_ints_over_the_least_common_denominator(self, values):
        scale, ints = scaled(values)
        assert len(ints) == len(values)
        assert all(type(v) is int for v in ints)
        assert all(Fraction(v, scale) == q for v, q in zip(ints, values))
        # the least common denominator: every value's denominator divides
        # the scale, and no smaller positive scale keeps every value whole
        assert scale >= 1
        assert all(scale % Fraction(q).denominator == 0 for q in values)
        assert gcd(scale, *ints) == 1

    @given(st.lists(RATIONALS, min_size=1, max_size=12))
    def test_order_ties_and_sign_are_kept(self, values):
        _, ints = scaled(values)
        for v, q in zip(ints, values):
            assert (v > 0) == (q > 0) and (v < 0) == (q < 0)
            for w, r in zip(ints, values):
                assert (v < w) == (q < r) and (v == w) == (q == r)
        by_ints = sorted(range(len(ints)), key=ints.__getitem__)
        assert by_ints == sorted(range(len(values)), key=values.__getitem__)

    def test_empty_and_whole_values(self):
        assert scaled(()) == (1, ())
        assert scaled((Fraction(3), -2)) == (1, (3, -2))


def _observable(obj):
    return obj, hash(obj), repr(obj), str(obj)


class TestCachedIntegerViews:
    def test_gamble_scaled_changes_nothing_else(self, forest):
        gamble = Gamble(forest.space, (Fraction(1, 2), -13, Fraction(5, 3)))
        twin = Gamble(forest.space, (Fraction(1, 2), -13, Fraction(5, 3)))
        before = _observable(gamble)
        assert gamble.scaled == (6, (3, -78, 10))
        assert gamble.scaled is gamble.scaled  # computed once
        assert _observable(gamble) == before
        assert gamble == twin and hash(gamble) == hash(twin)
        assert repr(gamble) == repr(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            gamble.scaled = (1, (0, 0, 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            gamble.payoffs = ()

    def test_odds_table_scaled_odds_changes_nothing_else(self):
        space = OutcomeSpace.from_labels(["W", "D", "L"])
        odds = (
            FractionalOdds.parse("13/5"),
            FractionalOdds(Fraction(15, 4), 5),
            FractionalOdds.parse("2"),
        )
        table = OddsTable("Book", space, odds)
        twin = OddsTable("Book", space, odds)
        before = _observable(table)
        assert table.scaled_odds == (4, (52, 15, 8), (20, 20, 4))
        assert table.scaled_odds is table.scaled_odds
        assert _observable(table) == before
        assert table == twin and hash(table) == hash(twin)
        assert repr(table) == repr(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.scaled_odds = (1, (), ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.odds = ()


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

    @pytest.mark.parametrize(
        "bad",
        ["", "a/b", "1.5", "1/2/3", "-1/2"]
        # int() reads these, as 3/1, 30/1, 3/1, 12/5 and 7/2
        + ["3/0_1", "3_0", "+3", "\uff11\uff12/\uff15", " 7 / 2 "],
    )
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


class TestGamble:
    def test_negate(self):
        space = OutcomeSpace.from_labels(["W", "D", "L"])
        assert (-Gamble(space, (5, -13, 5))).payoffs == (-5, 13, -5)
        zero = Gamble(space, (0, 0, 0))
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


class TestOddsTable:
    def test_from_mapping_and_lookup(self, forest):
        assert forest.bookmaker == "Forest"
        assert forest.odds_for(forest.space.outcome("D")) == FractionalOdds(13, 5)
        gambles = forest.gambles()
        assert gambles[1].payoffs == (5, -13, 5)

    def test_odds_count_must_match_space(self):
        space = OutcomeSpace.from_labels(["W", "D", "L"])
        with pytest.raises(ValueError):
            OddsTable("B", space, (FractionalOdds(1, 1),) * 2)


class TestMarket:
    def test_tables_must_share_space(self, forest):
        other = OutcomeSpace.from_labels(["A", "B"])
        stray = OddsTable("S", other, (FractionalOdds(1, 1),) * 2)
        with pytest.raises(ValueError):
            Market(forest.space, (forest, stray))

    def test_bookmaker_names_unique(self, forest):
        with pytest.raises(ValueError):
            Market(forest.space, (forest, forest))

    def test_lookup(self, three_market):
        assert three_market.bookmakers == ("River", "Mountain", "Forest")
        with pytest.raises(KeyError):
            three_market.table("Nowhere")
