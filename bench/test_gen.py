"""Tests for the synthetic-book generator.  Run: python3 -m pytest bench"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
from dutchbook import check_asl_single, market_to_csv, parse_market_csv  # noqa: E402
from run import HELD_OUT_SEED  # noqa: E402

SEEDS = [0, 1, 2, 3, HELD_OUT_SEED]


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_gives_identical_csv_bytes(seed):
    first = gen.wide_inputs(seed)
    again = gen.wide_inputs(seed)
    assert [b.encode() for b in first.books] == [b.encode() for b in again.books]
    assert first.positions == again.positions
    assert first.books != gen.wide_inputs(seed + 1).books


@pytest.mark.parametrize("seed", SEEDS)
def test_every_book_avoids_sure_loss_with_cap_total_in_range(seed):
    for text in gen.wide_inputs(seed).books:
        verdict = check_asl_single(parse_market_csv(text).tables[0])
        assert verdict.avoids
        assert 1 < verdict.total <= Fraction(11, 10)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_book_round_trips_through_the_parser(seed):
    for text in gen.wide_inputs(seed).books:
        assert market_to_csv(parse_market_csv(text)) == text


@pytest.mark.parametrize("seed", SEEDS)
def test_books_cover_the_size_strata_and_positions_fit_them(seed):
    inputs = gen.wide_inputs(seed)
    sizes = [len(parse_market_csv(text).space) for text in inputs.books]
    for b, n in enumerate(sizes):
        low = gen.MIN_OUTCOMES + gen.STRATUM * b
        assert low <= n <= low + gen.STRATUM
    assert len(inputs.positions) == gen.BOOKS * gen.PAIRS_PER_BOOK
    for i, position in enumerate(inputs.positions):
        n = sizes[position.book]
        assert position.first != position.coupon
        assert 0 <= position.first < n and 0 <= position.coupon < n
        assert all(len(g) == n for g in position.gambles)
    # every block of BOOKS consecutive requests visits each book once
    for start in range(0, len(inputs.positions), gen.BOOKS):
        block = inputs.positions[start : start + gen.BOOKS]
        assert sorted(p.book for p in block) == list(range(gen.BOOKS))


def test_cap_total_repair_keeps_quotes_valid():
    rng = random.Random(5)
    for n in (2, 3, 40, 64):
        odds = gen.synthetic_odds(rng, n)
        assert all(a >= 1 and b in gen.STAKES for a, b in odds)
        assert 1 < gen.cap_total(odds) <= gen.CAP_TOTAL_MAX
