from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dutchbook import (
    DataError,
    FractionalOdds,
    Market,
    OddsTable,
    OutcomeSpace,
    load_fixture_market,
    market_to_csv,
    parse_market_csv,
)
from dutchbook.io import (
    decode_csv,
    fixture_names,
    load_market,
    parse_wide_market_csv,
    read_fixture,
    wide_to_long_csv,
)

SAMPLE = """\
# comment line
outcome,bookmaker,odds

W,River,4/5
W,Forest,3/4
D,River,13/5
D,Forest,13/5
L,River,10/3
L,Forest,16/5
"""


class TestParseMarketCSV:
    def test_orders_follow_first_appearance(self):
        market = parse_market_csv(SAMPLE)
        assert market.space.labels == ("W", "D", "L")
        assert market.bookmakers == ("River", "Forest")
        river = market.table("River")
        assert river.odds_for(market.space.outcome("L")) == FractionalOdds(10, 3)

    def test_comments_and_blank_lines_ignored(self):
        market = parse_market_csv(SAMPLE)
        assert len(market.tables) == 2

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            parse_market_csv("")

    def test_header_only_rejected(self):
        with pytest.raises(DataError):
            parse_market_csv("outcome,bookmaker,odds\n")

    def test_wrong_header_names_line(self):
        with pytest.raises(DataError, match="line 1"):
            parse_market_csv("outcome,odds\nW,1\n")

    def test_wrong_column_count_names_line(self):
        with pytest.raises(DataError, match="line 3"):
            parse_market_csv("outcome,bookmaker,odds\nW,B,1/1\nD,B\n")

    def test_duplicate_pair_rejected(self):
        text = "outcome,bookmaker,odds\nW,B,1/1\nW,B,2/1\n"
        with pytest.raises(DataError, match="duplicate"):
            parse_market_csv(text)

    def test_bad_odds_cell_names_line(self):
        text = "outcome,bookmaker,odds\nW,B,1/1\nD,B,1.5\n"
        with pytest.raises(DataError, match="line 3"):
            parse_market_csv(text)

    @pytest.mark.parametrize(
        "cell", ["3/0_1", "3_0", "+3", "\uff11\uff12/\uff15", " 7 / 2 ", "3/0"]
    )
    def test_odds_cell_outside_the_grammar_names_line(self, cell):
        text = f"outcome,bookmaker,odds\nW,B,1/1\nD,B,{cell}\n"
        with pytest.raises(DataError, match="line 3"):
            parse_market_csv(text)
        wide = f"outcome,B\nW,1/1\nD,{cell}\n"
        with pytest.raises(DataError, match="line 3"):
            parse_wide_market_csv(wide)

    def test_outcome_sets_must_match_across_bookmakers(self):
        text = (
            "outcome,bookmaker,odds\n"
            "W,B1,1/1\nD,B1,1/1\n"
            "W,B2,1/1\n"
        )
        with pytest.raises(DataError, match="B2"):
            parse_market_csv(text)


# Labels the parser can hand back: stripped, non-empty, and free of the
# characters str.splitlines breaks lines at.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
labels = st.one_of(
    st.text(alphabet=' ,"#ab', min_size=1, max_size=6),
    st.text(
        st.characters(
            blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS
        ),
        min_size=1,
        max_size=8,
    ),
).map(str.strip).filter(bool)


@st.composite
def csv_markets(draw):
    outcomes = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    bookmakers = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    space = OutcomeSpace.from_labels(outcomes)
    tables = tuple(
        OddsTable(
            bookmaker,
            space,
            tuple(
                FractionalOdds(draw(st.integers(0, 40)), draw(st.integers(1, 9)))
                for _ in space
            ),
        )
        for bookmaker in bookmakers
    )
    return Market(space, tables)


class TestRoundTrip:
    @given(market=csv_markets())
    def test_any_parsable_market_round_trips(self, market):
        assert parse_market_csv(market_to_csv(market)) == market

    def test_label_with_comma_round_trips(self):
        text = 'outcome,bookmaker,odds\n"Korea, Rep",Bet1,3\nJapan,Bet1,1/2\n'
        market = parse_market_csv(text)
        assert market_to_csv(market) == text
        assert parse_market_csv(market_to_csv(market)) == market

    @pytest.mark.parametrize(
        "name", ["three_bookmakers.csv", "euro2016.csv"]
    )
    def test_parse_serialize_parse_is_identity(self, name):
        market = load_fixture_market(name)
        assert parse_market_csv(market_to_csv(market)) == market

    def test_integer_odds_serialize_without_denominator(self):
        market = parse_market_csv("outcome,bookmaker,odds\nW,B,3\nL,B,13/5\n")
        text = market_to_csv(market)
        assert "W,B,3" in text
        assert "L,B,13/5" in text

    def test_rational_components_cannot_serialize(self, forest):
        # W's 3/4 rescaled by 5/4, as a coupon stake match would give
        scaled = FractionalOdds(Fraction(15, 4), 5)
        broken = type(forest)(
            "scaled", forest.space, (scaled,) + forest.odds[1:]
        )
        from dutchbook import Market

        with pytest.raises(DataError):
            market_to_csv(Market(forest.space, (broken,)))


class TestWideFormat:
    def test_wide_parses_to_same_market_as_long(self):
        wide = "outcome,River,Forest\nW,4/5,3/4\nD,13/5,13/5\nL,10/3,16/5\n"
        market = parse_wide_market_csv(wide)
        assert market == parse_market_csv(SAMPLE)

    def test_converter_output_matches_bundled_long_fixture(self):
        converted = wide_to_long_csv(read_fixture("euro2016_wide.csv"))
        assert parse_market_csv(converted) == load_fixture_market("euro2016.csv")

    def test_bad_wide_header(self):
        with pytest.raises(DataError):
            parse_wide_market_csv("team,B1\nW,1\n")
        # an empty or blank bookmaker cell would write rows the long parser
        # refuses
        for header in ("outcome,,B", "outcome,B,  "):
            with pytest.raises(DataError, match="line 1: empty bookmaker"):
                parse_wide_market_csv(f"{header}\nW,1,2\n")

    def test_duplicate_bookmaker_column(self):
        with pytest.raises(DataError):
            parse_wide_market_csv("outcome,B,B\nW,1,2\n")

    def test_duplicate_outcome_row(self):
        with pytest.raises(DataError, match="line 3"):
            parse_wide_market_csv("outcome,B\nW,1\nW,2\n")

    def test_ragged_row(self):
        with pytest.raises(DataError, match="line 3"):
            parse_wide_market_csv("outcome,B1,B2\nW,1,2\nL,1\n")


class TestFixtures:
    def test_bundled_names(self):
        names = fixture_names()
        assert "euro2016.csv" in names
        assert "euro2016_wide.csv" in names
        assert "three_bookmakers.csv" in names

    def test_unknown_fixture(self):
        with pytest.raises(DataError):
            read_fixture("missing.csv")

    def test_load_market_reads_files(self, tmp_path):
        target = tmp_path / "odds.csv"
        target.write_text(SAMPLE, encoding="utf-8")
        assert load_market(target) == parse_market_csv(SAMPLE)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        bom = b"\xef\xbb\xbf"
        target = tmp_path / "odds.csv"
        target.write_bytes(bom + SAMPLE.encode("utf-8"))
        assert load_market(target) == parse_market_csv(SAMPLE)
        wide = read_fixture("euro2016_wide.csv")
        assert parse_wide_market_csv(
            decode_csv(bom + wide.encode("utf-8"), "wide.csv")
        ) == parse_wide_market_csv(wide)

    def test_euro_dimensions(self, euro_market):
        assert len(euro_market.space) == 24
        assert len(euro_market.tables) == 27
