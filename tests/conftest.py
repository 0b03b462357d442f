import os

import pytest
from hypothesis import settings

from dutchbook import FractionalOdds, OddsTable, OutcomeSpace, load_fixture_market

# on a shared CI runner a slow example would fail on Hypothesis's 200 ms
# deadline, which says nothing about correctness; CI sets $CI, local runs
# keep the defaults
settings.register_profile("ci", deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def three_market():
    return load_fixture_market("three_bookmakers.csv")


@pytest.fixture(scope="session")
def forest(three_market):
    return three_market.table("Forest")


@pytest.fixture(scope="session")
def euro_market():
    return load_fixture_market("euro2016.csv")


@pytest.fixture(scope="session")
def bet2(euro_market):
    return euro_market.table("Bet2")


@pytest.fixture
def table_of():
    """Build a one-bookmaker table from {outcome label: odds text}."""

    def build(odds, bookmaker="Book"):
        space = OutcomeSpace.from_labels(odds)
        return OddsTable(
            bookmaker, space, tuple(FractionalOdds.parse(v) for v in odds.values())
        )

    return build
