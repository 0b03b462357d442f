"""Seeded synthetic inputs for the ``wide-positions`` workload.

Stdlib only, and independent of the package: the benchmark hands the
program CSV text and index lists, never the generator's own objects.
The same seed always gives byte-identical CSV.

Each book is one bookmaker quoting ``n`` outcomes at fractional odds
``a/b`` with small integer parts, and its caps ``b/(a+b)`` total in
(1, 11/10], so it avoids sure loss with a realistic over-round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

BOOKS = 8  # one per stratum of n, so every block of requests has the same mix
PAIRS_PER_BOOK = 6  # enough positions that the latency median is steady across seeds
GAMBLES_PER_REQUEST = 3
MIN_OUTCOMES = 40
STRATUM = 3  # book b has n in [MIN_OUTCOMES + 3b, MIN_OUTCOMES + 3b + 3]
CAP_TOTAL_MAX = Fraction(11, 10)
STAKES = (1, 1, 1, 2, 4, 5)  # quoted odds denominators b


@dataclass(frozen=True)
class Position:
    """One request's inputs: a coupon pair and some many-valued gambles."""

    book: int
    first: int
    coupon: int
    gambles: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class WideInputs:
    books: tuple[str, ...]  # long CSV text, one bookmaker each
    positions: tuple[Position, ...]  # request i uses positions[i % len]


def cap_total(odds: list[tuple[int, int]]) -> Fraction:
    return sum((Fraction(b, a + b) for a, b in odds), Fraction(0))


def synthetic_odds(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """``n`` quotes (a, b) whose caps total in (1, 11/10]."""
    target = 1 + rng.uniform(0.015, 0.085)
    weights = [rng.random() ** 3 + 0.02 for _ in range(n)]
    scale = target / sum(weights)
    odds = []
    for w in weights:
        b = rng.choice(STAKES)
        p = w * scale
        odds.append((max(1, round(b * (1 - p) / p)), b))
    # rounding moves the total a little; nudge single quotes until it fits
    total = cap_total(odds)
    while not 1 < total <= CAP_TOTAL_MAX:
        i = rng.randrange(n)
        a, b = odds[i]
        step = 1 if total > 1 else -1
        if a + step < 1:
            continue
        total += Fraction(b, a + step + b) - Fraction(b, a + b)
        odds[i] = (a + step, b)
    return odds


def book_csv(odds: list[tuple[int, int]], bookmaker: str = "Synth") -> str:
    """Canonical long CSV, as ``market_to_csv`` would write it."""
    lines = ["outcome,bookmaker,odds"]
    for i, (a, b) in enumerate(odds):
        cell = str(a) if b == 1 else f"{a}/{b}"
        lines.append(f"T{i:02d},{bookmaker},{cell}")
    return "\n".join(lines) + "\n"


def wide_inputs(seed: int) -> WideInputs:
    """Books with n stratified over 40..64, and the positions to price."""
    rng = random.Random(seed)
    books = []
    per_book = []
    for b in range(BOOKS):
        low = MIN_OUTCOMES + STRATUM * b
        n = rng.randint(low, low + STRATUM)
        odds = synthetic_odds(rng, n)
        books.append(book_csv(odds))
        # every other pair among the four favourites, where coupons tend to
        # be exploitable, and the rest anywhere in the book
        favourites = sorted(range(n), key=lambda i: Fraction(*odds[i]))[:4]
        positions = []
        for p in range(PAIRS_PER_BOOK):
            first, coupon = rng.sample(favourites if p % 2 == 0 else range(n), 2)
            gambles = tuple(
                tuple(rng.randint(-50, 50) for _ in range(n))
                for _ in range(GAMBLES_PER_REQUEST)
            )
            positions.append(Position(b, first, coupon, gambles))
        per_book.append(positions)
    # each block of BOOKS requests visits every book, largest and smallest
    # in turn, so that a run cut short mid-block still has the usual mix
    order = [b for i in range(BOOKS // 2) for b in (BOOKS - 1 - i, i)]
    positions = tuple(
        per_book[b][p] for p in range(PAIRS_PER_BOOK) for b in order
    )
    return WideInputs(tuple(books), positions)
