"""Exact data model for outcomes, gambles, fractional odds and odds tables.

All quantities are `fractions.Fraction`; floats are rejected at the door so
that every downstream comparison (sure-loss verdicts, stake signs, optimal
values) is exact.  Payoffs are stated from the bookmaker's perspective: the
customer's payoff is the pointwise negation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

if TYPE_CHECKING:
    from .choquet import UpperPMF

Rational = Fraction
RationalLike = Union[Rational, int, str]

_ODDS_TEXT = re.compile(r"([0-9]+)(?:/([0-9]+))?")

# Odds components, payoffs and gamble cells are mostly small integers;
# as_rational hands out one shared Fraction for each instead of a new one.
_SMALL_LIMIT = 256
_SMALL_RATIONALS = tuple(
    Fraction(i) for i in range(-_SMALL_LIMIT, _SMALL_LIMIT + 1)
)


def as_rational(value: RationalLike) -> Rational:
    """Coerce ``value`` to an exact rational.

    Accepts Fraction, int, or strings such as ``"3"``, ``"-47/21"``.
    Floats are refused: they silently carry binary rounding error into
    sign-sensitive computations.

    >>> as_rational("13/5")
    Fraction(13, 5)
    """
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass a Fraction, int or 'a/b' string"
        )
    if isinstance(value, Fraction):
        return value
    if type(value) is int and -_SMALL_LIMIT <= value <= _SMALL_LIMIT:
        return _SMALL_RATIONALS[value + _SMALL_LIMIT]
    return Fraction(value)


def scaled(values: Sequence[Rational]) -> tuple[int, tuple[int, ...]]:
    """``(S, V)``: ``S`` the least common denominator of ``values`` and
    ``V_k = values[k]·S`` as exact ints.

    Every integer computation in the package reads its rationals through
    this view, and this is why its ints are exact.  ``S`` is positive, so
    ``V`` keeps the order, the ties and the signs of ``values``.  Sums and
    products of views are ints over the product of their scales, and
    values over different scales compare exactly cross-multiplied:
    ``x/S ≤ y/T`` exactly when ``x·T ≤ y·S``.

    >>> scaled((Fraction(1, 2), Fraction(-2, 3), 1))
    (6, (3, -4, 6))
    """
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def format_rational(value: RationalLike) -> str:
    """Canonical ``num/den`` form in lowest terms, denominator always shown.

    >>> format_rational("14/21")
    '2/3'
    """
    q = as_rational(value)
    return f"{q.numerator}/{q.denominator}"


def format_decimal(value: RationalLike, places: int = 4) -> str:
    """Fixed-point decimal rendering, round-half-even.  Display only.

    >>> format_decimal(Fraction(137, 126), 3)
    '1.087'
    >>> format_decimal(Fraction(-19, 200))
    '-0.0950'
    """
    q = as_rational(value)
    scaled = round(q * 10**places)  # Fraction.__round__ is half-even
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    if places == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


@dataclass(frozen=True)
class Outcome:
    """One possible result of the uncertain event, e.g. a match result."""

    index: int
    label: str

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class OutcomeSpace:
    """The finite set of mutually exclusive outcomes bets are placed on."""

    outcomes: tuple[Outcome, ...]

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("an outcome space needs at least one outcome")
        for i, outcome in enumerate(self.outcomes):
            if outcome.index != i:
                raise ValueError(
                    f"outcome indices must be dense: position {i} holds "
                    f"index {outcome.index}"
                )
        labels = [o.label for o in self.outcomes]
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be unique")

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "OutcomeSpace":
        return cls(tuple(Outcome(i, str(lb)) for i, lb in enumerate(labels)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.outcomes)

    def outcome(self, label: str) -> Outcome:
        for o in self.outcomes:
            if o.label == label:
                return o
        raise KeyError(f"unknown outcome {label!r}")

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[Outcome]:
        return iter(self.outcomes)

    def __getitem__(self, index: int) -> Outcome:
        return self.outcomes[index]

    def __contains__(self, outcome: Outcome) -> bool:
        return (
            isinstance(outcome, Outcome)
            and 0 <= outcome.index < len(self.outcomes)
            and self.outcomes[outcome.index] == outcome
        )


@dataclass(frozen=True)
class FractionalOdds:
    """Fractional betting odds ``a/b``: stake ``b`` to win ``a``.

    Both components may themselves be rational, but bookmakers quote
    integer components.  Rescaled odds such as (15/4)/5 arise only inside
    :func:`~dutchbook.coupons.first_free_gamble`, which matches the coupon
    stake to the first one.  The pair is stored verbatim: 18/4 and 9/2
    quote the same price but different stakes, so they are distinct values.
    """

    numerator: Rational  # a, winnings per `denominator` staked
    denominator: Rational  # b, the stake

    def __post_init__(self):
        object.__setattr__(self, "numerator", as_rational(self.numerator))
        object.__setattr__(self, "denominator", as_rational(self.denominator))
        if self.numerator < 0:
            raise ValueError(f"odds numerator must be >= 0, got {self.numerator}")
        if self.denominator <= 0:
            raise ValueError(f"odds denominator must be > 0, got {self.denominator}")

    @classmethod
    def parse(cls, text: str) -> "FractionalOdds":
        """Parse bookmaker notation: ``"13/5"`` or the shorthand ``"3"`` for 3/1.

        Only ASCII digits are read: a sign, an underscore, a space inside
        the text or another script's digits, all of which ``int`` accepts,
        are refused.
        """
        match = _ODDS_TEXT.fullmatch(text.strip())
        if match is None:
            raise ValueError(f"cannot parse odds {text!r}: expected 'a/b' or 'a'")
        numerator, denominator = match.groups()
        try:
            a, b = int(numerator), int(denominator or 1)
        except ValueError:  # int() reads at most sys.get_int_max_str_digits()
            raise ValueError(f"odds number too long: {text[:20]!r}...") from None
        return cls(a, b)

    @property
    def ratio(self) -> Rational:
        """The quoted price a/b as a single number (used to compare offers)."""
        return self.numerator / self.denominator

    @cached_property
    def upper_mass(self) -> Rational:
        """b/(a+b): the largest outcome probability consistent with the offer.

        Computed once per quote: every verdict, price and stake reads it.
        """
        return self.denominator / (self.numerator + self.denominator)

    def __str__(self) -> str:
        def part(q: Rational) -> str:
            return str(q.numerator) if q.denominator == 1 else f"({q})"

        return f"{part(self.numerator)}/{part(self.denominator)}"


@dataclass(frozen=True)
class Gamble:
    """A payoff vector over an outcome space, from the bookmaker's view."""

    space: OutcomeSpace
    payoffs: tuple[Rational, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "payoffs", tuple(as_rational(v) for v in self.payoffs)
        )
        if len(self.payoffs) != len(self.space):
            raise ValueError(
                f"gamble has {len(self.payoffs)} payoffs for "
                f"{len(self.space)} outcomes"
            )

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """``(D, P)``: the payoffs as ints over their least common
        denominator (:func:`scaled`), computed once per gamble."""
        return scaled(self.payoffs)

    def items(self) -> Iterator[tuple[Outcome, Rational]]:
        return zip(self.space, self.payoffs)

    def __add__(self, other: "Gamble") -> "Gamble":
        if self.space != other.space:
            raise ValueError("cannot add gambles over different outcome spaces")
        return Gamble(
            self.space, tuple(a + b for a, b in zip(self.payoffs, other.payoffs))
        )

    def __neg__(self) -> "Gamble":
        return Gamble(self.space, tuple(-v for v in self.payoffs))

    def __str__(self) -> str:
        entries = ", ".join(f"{o.label}: {v}" for o, v in self.items())
        return f"({entries})"


def gamble_from_odds(
    odds: FractionalOdds, target: Outcome, space: OutcomeSpace
) -> Gamble:
    """The bookmaker's payoff from accepting a stake at ``odds`` on ``target``.

    The bookmaker loses ``a`` when the target comes up and keeps the stake
    ``b`` otherwise.

    >>> space = OutcomeSpace.from_labels(["W", "D", "L"])
    >>> print(gamble_from_odds(FractionalOdds.parse("13/5"), space.outcome("D"), space))
    (W: 5, D: -13, L: 5)
    """
    if target not in space:
        raise ValueError(f"target outcome {target} not in the given space")
    payoffs = [odds.denominator] * len(space)
    payoffs[target.index] = -odds.numerator
    return Gamble(space, tuple(payoffs))


@dataclass(frozen=True)
class OddsTable:
    """One bookmaker's full price list: fractional odds for every outcome."""

    bookmaker: str
    space: OutcomeSpace
    odds: tuple[FractionalOdds, ...]

    def __post_init__(self):
        if len(self.odds) != len(self.space):
            raise ValueError(
                f"table for {self.bookmaker!r} has {len(self.odds)} odds "
                f"for {len(self.space)} outcomes"
            )

    def odds_for(self, outcome: Outcome) -> FractionalOdds:
        if outcome not in self.space:
            raise ValueError(f"outcome {outcome} not in this table's space")
        return self.odds[outcome.index]

    def gambles(self) -> tuple[Gamble, ...]:
        """The bookmaker's gamble for the odds offered on each outcome."""
        return tuple(
            gamble_from_odds(odds, o, self.space)
            for o, odds in zip(self.space, self.odds)
        )

    @cached_property
    def scaled_odds(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """``(O, A, B)``: the odds components ``a_k`` and ``b_k`` as
        :func:`scaled` ints over ``O`` (1 for quoted odds), once per table."""
        scale, ab = scaled([q for o in self.odds for q in (o.numerator, o.denominator)])
        return scale, ab[::2], ab[1::2]

    @cached_property
    def upper_pmf(self) -> UpperPMF:
        """The implied caps b/(a+b) as one :class:`~dutchbook.choquet.UpperPMF`.

        Built once per table, so every verdict, price and strategy report
        on the table shares it.
        """
        from .choquet import UpperPMF  # choquet imports this module

        return UpperPMF(self.space, tuple(o.upper_mass for o in self.odds))


@dataclass(frozen=True)
class Market:
    """Several bookmakers quoting the same outcome space."""

    space: OutcomeSpace
    tables: tuple[OddsTable, ...]

    def __post_init__(self):
        if not self.tables:
            raise ValueError("a market needs at least one bookmaker")
        for table in self.tables:
            if table.space != self.space:
                raise ValueError(
                    f"table {table.bookmaker!r} has a different outcome space"
                )
        names = [t.bookmaker for t in self.tables]
        if len(set(names)) != len(names):
            raise ValueError("bookmaker names must be unique")

    @property
    def bookmakers(self) -> tuple[str, ...]:
        return tuple(t.bookmaker for t in self.tables)

    def table(self, bookmaker: str) -> OddsTable:
        for t in self.tables:
            if t.bookmaker == bookmaker:
                return t
        raise KeyError(f"unknown bookmaker {bookmaker!r}")
