"""Odds ingestion and serialization.

The canonical interchange format is a long CSV with header
``outcome,bookmaker,odds``; odds cells are bookmaker notation (``13/5``
or ``3``).  ``#`` comment lines and blank lines are ignored.  A converter
is provided for wide sheets (one row per outcome, one column per
bookmaker), which is how published odds tables are usually laid out.
"""

from __future__ import annotations

import csv
from importlib import resources
from io import StringIO
from pathlib import Path

from .errors import DataError
from .model import FractionalOdds, Market, OddsTable, OutcomeSpace

LONG_HEADER = ("outcome", "bookmaker", "odds")


def _data_lines(text: str) -> list[tuple[int, list[str]]]:
    """(line number, parsed fields) for every non-blank, non-comment line."""
    rows = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = next(csv.reader([raw]))
        rows.append((number, [f.strip() for f in fields]))
    return rows


def _parse_odds_cell(cell: str, line: int) -> FractionalOdds:
    try:
        return FractionalOdds.parse(cell)
    except ValueError as exc:
        raise DataError(f"line {line}: {exc}") from None


def parse_market_csv(text: str) -> Market:
    """Parse long-format odds CSV into a Market.

    Outcome and bookmaker order follow first appearance.  Every
    (outcome, bookmaker) pair may occur at most once and all bookmakers
    must quote the identical outcome set.
    """
    rows = _data_lines(text)
    if not rows:
        raise DataError("no data: expected header 'outcome,bookmaker,odds'")
    header_line, header = rows[0]
    if tuple(h.lower() for h in header) != LONG_HEADER:
        raise DataError(
            f"line {header_line}: header must be 'outcome,bookmaker,odds', "
            f"got {','.join(header)!r}"
        )
    if len(rows) == 1:
        raise DataError("no odds rows after the header")
    outcomes: list[str] = []
    bookmakers: list[str] = []
    cells: dict[tuple[str, str], FractionalOdds] = {}
    for line, fields in rows[1:]:
        if len(fields) != 3:
            raise DataError(
                f"line {line}: expected 3 columns, got {len(fields)}"
            )
        outcome, bookmaker, odds_text = fields
        if not outcome or not bookmaker:
            raise DataError(f"line {line}: empty outcome or bookmaker")
        key = (outcome, bookmaker)
        if key in cells:
            raise DataError(
                f"line {line}: duplicate odds for outcome {outcome!r} "
                f"and bookmaker {bookmaker!r}"
            )
        if outcome not in outcomes:
            outcomes.append(outcome)
        if bookmaker not in bookmakers:
            bookmakers.append(bookmaker)
        cells[key] = _parse_odds_cell(odds_text, line)
    space = OutcomeSpace.from_labels(outcomes)
    tables = []
    for bookmaker in bookmakers:
        missing = [o for o in outcomes if (o, bookmaker) not in cells]
        if missing:
            raise DataError(
                f"bookmaker {bookmaker!r} has no odds for {missing}: "
                "all bookmakers must quote the same outcomes"
            )
        tables.append(
            OddsTable(
                bookmaker,
                space,
                tuple(cells[(o, bookmaker)] for o in outcomes),
            )
        )
    return Market(space, tuple(tables))


def _odds_cell(odds: FractionalOdds) -> str:
    a, b = odds.numerator, odds.denominator
    if a.denominator != 1 or b.denominator != 1:
        raise DataError(
            f"odds {odds} have non-integer components and cannot be "
            "written to CSV"
        )
    return str(a.numerator) if b == 1 else f"{a.numerator}/{b.numerator}"


def market_to_csv(market: Market) -> str:
    """Serialize a market to canonical long-format CSV.

    Fields are quoted only where CSV needs it, and on rows whose outcome
    label starts with ``#``, which would otherwise read back as comments.
    """
    out = StringIO()
    plain = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(LONG_HEADER)
    for outcome in market.space:
        writer = quoted if outcome.label.startswith("#") else plain
        for table in market.tables:
            cell = _odds_cell(table.odds_for(outcome))
            writer.writerow((outcome.label, table.bookmaker, cell))
    return out.getvalue()


def parse_wide_market_csv(text: str) -> Market:
    """Parse a wide odds sheet: header ``outcome,<bookmaker>,...``."""
    rows = _data_lines(text)
    if not rows:
        raise DataError("no data: expected header 'outcome,<bookmaker>,...'")
    header_line, header = rows[0]
    if len(header) < 2 or header[0].lower() != "outcome":
        raise DataError(
            f"line {header_line}: wide header must start with 'outcome' "
            "followed by bookmaker names"
        )
    bookmakers = header[1:]
    if "" in bookmakers:  # cells are stripped, so a blank one reads as ""
        raise DataError(f"line {header_line}: empty bookmaker name in the header")
    if len(set(bookmakers)) != len(bookmakers):
        raise DataError(f"line {header_line}: duplicate bookmaker columns")
    outcomes: list[str] = []
    columns: dict[str, list[FractionalOdds]] = {b: [] for b in bookmakers}
    for line, fields in rows[1:]:
        if len(fields) != len(header):
            raise DataError(
                f"line {line}: expected {len(header)} columns, got {len(fields)}"
            )
        outcome = fields[0]
        if not outcome:
            raise DataError(f"line {line}: empty outcome")
        if outcome in outcomes:
            raise DataError(f"line {line}: duplicate outcome {outcome!r}")
        outcomes.append(outcome)
        for bookmaker, cell in zip(bookmakers, fields[1:]):
            columns[bookmaker].append(_parse_odds_cell(cell, line))
    if not outcomes:
        raise DataError("no odds rows after the header")
    space = OutcomeSpace.from_labels(outcomes)
    tables = tuple(
        OddsTable(b, space, tuple(columns[b])) for b in bookmakers
    )
    return Market(space, tables)


def wide_to_long_csv(text: str) -> str:
    """Convert a wide odds sheet to the canonical long format."""
    return market_to_csv(parse_wide_market_csv(text))


def decode_csv(data: bytes, source: str) -> str:
    """The text of an odds file, without the byte-order mark that
    spreadsheet exports write.  Bytes that are not UTF-8 raise a
    :class:`~dutchbook.errors.DataError` naming ``source`` and the line,
    counted as the parser counts lines."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the data after any byte-order mark, and it is
        # valid UTF-8 up to exc.start
        before = exc.object[: exc.start].decode("utf-8")
        line = len((before + "x").splitlines())
        raise DataError(
            f"cannot read {source!r}: line {line} is not UTF-8 "
            f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
        ) from None


def load_market(path: str | Path) -> Market:
    """Read a long-format odds CSV from disk."""
    return parse_market_csv(decode_csv(Path(path).read_bytes(), str(path)))


def fixture_names() -> list[str]:
    """Names of the odds files bundled with the package."""
    root = resources.files("dutchbook").joinpath("data")
    return sorted(
        entry.name for entry in root.iterdir() if entry.name.endswith(".csv")
    )


def read_fixture(name: str) -> str:
    """Text of a bundled odds file, e.g. ``euro2016.csv``."""
    entry = resources.files("dutchbook").joinpath("data", name)
    if not entry.is_file():
        raise DataError(
            f"no bundled odds file {name!r}; available: {fixture_names()}"
        )
    return decode_csv(entry.read_bytes(), name)


def load_fixture_market(name: str) -> Market:
    """Parse a bundled odds file into a Market."""
    return parse_market_csv(read_fixture(name))
