import gc
import importlib
import re
import sys
import weakref
from fractions import Fraction
from itertools import combinations

import pytest

from dutchbook import (
    Gamble,
    OutcomeSpace,
    SureLossError,
    decompose,
    lower_event,
    lower_natural_extension,
    upper_event,
    upper_natural_extension,
    upper_pmf_from_odds,
)
from dutchbook.choquet import Level, LevelSetDecomposition, UpperPMF
from oracles import gamble_from_levels, upper_extension_vertices

WDL = OutcomeSpace.from_labels(["W", "D", "L"])
FOREST_PMF = UpperPMF(WDL, (Fraction(4, 7), Fraction(5, 18), Fraction(5, 21)))
G_DL = Gamble(WDL, (5, -13, -11))


def all_events(space):
    for size in range(len(space) + 1):
        yield from combinations(space.outcomes, size)


class TestUpperPMF:
    def test_mass_bounds_enforced(self):
        with pytest.raises(ValueError):
            UpperPMF(WDL, (Fraction(4, 3), 0, 0))
        with pytest.raises(ValueError):
            UpperPMF(WDL, (Fraction(-1, 3), 1, 1))

    def test_total_and_verdict(self):
        assert FOREST_PMF.total() == Fraction(137, 126)
        assert FOREST_PMF.avoids_sure_loss
        thin = UpperPMF(WDL, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 4)))
        assert not thin.avoids_sure_loss


class TestDecompose:
    def test_coupon_combination(self):
        parts = decompose(G_DL)
        assert parts.base == -13
        assert [(lvl.weight, set(lvl.members)) for lvl in parts.levels] == [
            (2, {0, 2}),
            (16, {0}),
        ]

    def test_constant_gamble_has_no_levels(self):
        parts = decompose(Gamble(WDL, (Fraction(7, 3),) * 3))
        assert parts.base == Fraction(7, 3)
        assert parts.levels == ()

    def test_wide_field_with_two_special_outcomes(self):
        space = OutcomeSpace.from_labels([f"c{i}" for i in range(24)])
        payoffs = [Fraction(1)] * 24
        payoffs[0] = Fraction(-3)
        payoffs[2] = Fraction(-4)
        parts = decompose(Gamble(space, tuple(payoffs)))
        assert parts.base == -4
        assert [(lvl.weight, lvl.members) for lvl in parts.levels] == [
            (1, frozenset(range(24)) - {2}),
            (4, frozenset(range(24)) - {0, 2}),
        ]

    def test_reconstruction_round_trip(self):
        for payoffs in [(5, -13, -11), (1, 1, 1), (0, -2, 7), (3, 3, -3)]:
            g = Gamble(WDL, payoffs)
            assert gamble_from_levels(decompose(g), WDL) == g

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            LevelSetDecomposition(
                Fraction(0),
                (Level(Fraction(1), frozenset({0})), Level(Fraction(1), frozenset({1}))),
            )
        with pytest.raises(ValueError):
            LevelSetDecomposition(Fraction(0), (Level(Fraction(-1), frozenset({0})),))
        with pytest.raises(ValueError):
            LevelSetDecomposition(Fraction(0), (Level(Fraction(1), frozenset()),))


class TestEventBounds:
    def test_upper_event_examples(self):
        assert upper_event(FOREST_PMF, [WDL.outcome("W"), WDL.outcome("L")]) == Fraction(17, 21)
        assert upper_event(FOREST_PMF, WDL.outcomes) == 1
        assert upper_event(FOREST_PMF, []) == 0

    def test_lower_event_examples(self):
        assert lower_event(FOREST_PMF, [WDL.outcome("W")]) == Fraction(61, 126)
        assert lower_event(FOREST_PMF, WDL.outcomes) == 1
        assert lower_event(FOREST_PMF, []) == 0

    def test_event_conjugacy_exhaustive(self):
        spaces = [
            FOREST_PMF,
            UpperPMF(
                OutcomeSpace.from_labels(["a", "b", "c", "d"]),
                (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)),
            ),
        ]
        for pmf in spaces:
            for event in all_events(pmf.space):
                complement = [o for o in pmf.space if o not in event]
                assert lower_event(pmf, event) == 1 - upper_event(pmf, complement)

    def test_indices_accepted_and_validated(self):
        assert upper_event(FOREST_PMF, [0, 2]) == Fraction(17, 21)
        with pytest.raises(ValueError):
            upper_event(FOREST_PMF, [7])

    @pytest.mark.parametrize("member", [1.9, 0.5, True, False, "1", Fraction(1)])
    def test_member_that_is_not_an_index_is_named(self, member):
        # int() would read 1.9 and True as outcome 1 and 0.5 as outcome 0
        for bound in (upper_event, lower_event):
            with pytest.raises(ValueError, match=re.escape(repr(member))):
                bound(FOREST_PMF, [member])


class TestUpperNaturalExtension:
    def test_forest_coupon_value(self):
        assert upper_natural_extension(FOREST_PMF, G_DL) == Fraction(-47, 21)

    def test_bet2_first_free_value(self, bet2):
        pmf = upper_pmf_from_odds(bet2)
        space = bet2.space
        payoffs = [Fraction(1)] * len(space)
        payoffs[space.outcome("France").index] = Fraction(-3)
        payoffs[space.outcome("Spain").index] = Fraction(-4)
        value = upper_natural_extension(pmf, Gamble(space, tuple(payoffs)))
        assert value < 0
        assert abs(value - Fraction(-95, 1000)) <= Fraction(1, 100)

    def test_nonnegative_gamble_prices_nonnegative(self):
        assert upper_natural_extension(FOREST_PMF, Gamble(WDL, (0, 2, 1))) >= 0

    def test_deficient_masses_rejected_with_deficit(self):
        thin = UpperPMF(WDL, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))
        with pytest.raises(SureLossError) as err:
            upper_natural_extension(thin, G_DL)
        assert err.value.total == Fraction(3, 4)
        assert err.value.deficit == Fraction(1, 4)
        assert "1/4" in str(err.value)

    def test_space_mismatch_rejected(self):
        other = Gamble(OutcomeSpace.from_labels(["x", "y"]), (1, 2))
        with pytest.raises(ValueError):
            upper_natural_extension(FOREST_PMF, other)

    def test_matches_vertex_oracle(self):
        gambles = [(5, -13, -11), (1, 0, 0), (-2, 3, 3), (7, 7, 7), (0, -1, 2)]
        for payoffs in gambles:
            expected = upper_extension_vertices(FOREST_PMF.masses, payoffs)
            got = upper_natural_extension(FOREST_PMF, Gamble(WDL, payoffs))
            assert got == expected


class TestLowerNaturalExtension:
    def test_conjugate_of_forest_value(self):
        assert lower_natural_extension(FOREST_PMF, -G_DL) == Fraction(47, 21)

    def test_constant_additivity_at_constants(self):
        c = Gamble(WDL, (Fraction(7, 4),) * 3)
        assert lower_natural_extension(FOREST_PMF, c) == Fraction(7, 4)
        assert upper_natural_extension(FOREST_PMF, c) == Fraction(7, 4)

    def test_indicator_agrees_with_event_bound_exhaustively(self):
        pmfs = [
            FOREST_PMF,
            UpperPMF(
                OutcomeSpace.from_labels(["a", "b", "c", "d"]),
                (Fraction(2, 5), Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)),
            ),
        ]
        for pmf in pmfs:
            for event in all_events(pmf.space):
                gamble = Gamble(pmf.space, tuple(int(o in event) for o in pmf.space))
                assert lower_natural_extension(pmf, gamble) == lower_event(pmf, event)
                assert upper_natural_extension(pmf, gamble) == upper_event(pmf, event)

    def test_dominated_by_upper(self):
        for payoffs in [(5, -13, -11), (1, 2, 3), (-1, -1, 4)]:
            g = Gamble(WDL, payoffs)
            assert lower_natural_extension(FOREST_PMF, g) <= upper_natural_extension(FOREST_PMF, g)


def _fresh_choquet():
    for name in [m for m in sys.modules if m.partition(".")[0] == "dutchbook"]:
        del sys.modules[name]
    return importlib.import_module("dutchbook.choquet")


def _outcome_class_of_a_dropped_import():
    first = _fresh_choquet()
    ref = weakref.ref(first.Outcome)
    _fresh_choquet()
    return ref


def test_reimport_frees_the_previous_package():
    # a long-lived process that imports the package afresh (the benchmark
    # does, every set-up) must not keep the old modules alive
    saved = {
        name: module
        for name, module in sys.modules.items()
        if name.partition(".")[0] == "dutchbook"
    }
    try:
        ref = _outcome_class_of_a_dropped_import()
        gc.collect()
        assert ref() is None
    finally:
        for name in [m for m in sys.modules if m.partition(".")[0] == "dutchbook"]:
            del sys.modules[name]
        sys.modules.update(saved)
