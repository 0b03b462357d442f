"""Natural extension of gambles against per-outcome upper probability bounds.

An :class:`UpperPMF` caps the probability of each single outcome.  The
least-committal selling price it induces for an arbitrary gamble is a
Choquet integral: slice the gamble into its level sets, price each slice
by capped summation, and add the slices back up.  The closed form is only
valid while the caps total at least 1; below that the bounds themselves
are exploitable and :class:`~dutchbook.errors.SureLossError` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import SureLossError
from .model import Gamble, Outcome, OutcomeSpace, Rational, as_rational

EventLike = Iterable[Union[Outcome, int]]


@dataclass(frozen=True)
class UpperPMF:
    """Per-outcome upper probability bounds (lower bounds are all zero)."""

    space: OutcomeSpace
    masses: tuple[Rational, ...]

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(as_rational(m) for m in self.masses))
        if len(self.masses) != len(self.space):
            raise ValueError(
                f"{len(self.masses)} masses for {len(self.space)} outcomes"
            )
        for outcome, mass in zip(self.space, self.masses):
            if not 0 <= mass <= 1:
                raise ValueError(
                    f"mass for {outcome.label} is {mass}, outside [0, 1]"
                )

    def mass(self, outcome: Outcome) -> Rational:
        if outcome not in self.space:
            raise ValueError(f"outcome {outcome} not in this pmf's space")
        return self.masses[outcome.index]

    def total(self) -> Rational:
        return sum(self.masses, Fraction(0))

    @property
    def avoids_sure_loss(self) -> bool:
        """True when some probability mass function fits under the caps."""
        return self.total() >= 1


@dataclass(frozen=True)
class Level:
    """One slice of a level-set decomposition: ``weight`` on ``members``."""

    weight: Rational
    members: frozenset[int]


@dataclass(frozen=True)
class LevelSetDecomposition:
    """A gamble written as base + positive weights on strictly nested sets.

    ``levels`` runs from the widest set to the narrowest; each set strictly
    contains the next and none is empty.  Adding ``base`` plus the weights
    of all sets containing an outcome reproduces the gamble exactly.
    """

    base: Rational
    levels: tuple[Level, ...]

    def __post_init__(self):
        previous: frozenset[int] | None = None
        for level in self.levels:
            if level.weight <= 0:
                raise ValueError(f"level weight {level.weight} must be > 0")
            if not level.members:
                raise ValueError("level sets must be non-empty")
            if previous is not None and not level.members < previous:
                raise ValueError("level sets must be strictly nested")
            previous = level.members

    def evaluate(self, index: int) -> Rational:
        value = self.base
        for level in self.levels:
            if index in level.members:
                value += level.weight
        return value

    def reconstruct(self, space: OutcomeSpace) -> Gamble:
        return Gamble(space, tuple(self.evaluate(i) for i in range(len(space))))


def decompose(gamble: Gamble) -> LevelSetDecomposition:
    """Slice a gamble into its level sets.

    The base is the minimum payoff; each subsequent distinct payoff value
    contributes a slice whose weight is the jump from the previous value
    and whose set collects the outcomes paying at least that much.  Equal
    payoffs share a slice, which keeps the chain strictly nested.

    >>> space = OutcomeSpace.from_labels(["W", "D", "L"])
    >>> d = decompose(Gamble(space, (5, -13, -11)))
    >>> d.base, [(lvl.weight, sorted(lvl.members)) for lvl in d.levels]
    (Fraction(-13, 1), [(Fraction(2, 1), [0, 2]), (Fraction(16, 1), [0])])
    """
    distinct = sorted(set(gamble.payoffs))
    base = distinct[0]
    levels = []
    for previous, value in zip(distinct, distinct[1:]):
        members = frozenset(
            i for i, payoff in enumerate(gamble.payoffs) if payoff >= value
        )
        levels.append(Level(value - previous, members))
    return LevelSetDecomposition(base, tuple(levels))


def _event_indices(space: OutcomeSpace, event: EventLike) -> frozenset[int]:
    indices = set()
    for member in event:
        if isinstance(member, Outcome):
            if member not in space:
                raise ValueError(f"outcome {member} not in the pmf's space")
            indices.add(member.index)
        else:
            i = int(member)
            if not 0 <= i < len(space):
                raise ValueError(f"outcome index {i} out of range")
            indices.add(i)
    return frozenset(indices)


def upper_event(pmf: UpperPMF, event: EventLike) -> Rational:
    """Upper probability of an event: capped sum of its member masses."""
    indices = _event_indices(pmf.space, event)
    return min(sum((pmf.masses[i] for i in indices), Fraction(0)), Fraction(1))


def lower_event(pmf: UpperPMF, event: EventLike) -> Rational:
    """Lower probability of an event: what the complement's caps leave over."""
    indices = _event_indices(pmf.space, event)
    outside = sum(
        (pmf.masses[i] for i in range(len(pmf.space)) if i not in indices),
        Fraction(0),
    )
    return max(Fraction(0), 1 - outside)


def _require_asl(pmf: UpperPMF) -> None:
    total = pmf.total()
    if total < 1:
        raise SureLossError(total)


def upper_natural_extension(pmf: UpperPMF, gamble: Gamble) -> Rational:
    """Least selling price for ``gamble`` consistent with the caps.

    Choquet integral over the level-set decomposition: base plus each
    slice weight times the slice's upper event probability.  Requires
    the caps to total at least 1.

    >>> space = OutcomeSpace.from_labels(["W", "D", "L"])
    >>> pmf = UpperPMF(space, (Fraction(4, 7), Fraction(5, 18), Fraction(5, 21)))
    >>> upper_natural_extension(pmf, Gamble(space, (5, -13, -11)))
    Fraction(-47, 21)
    """
    if gamble.space != pmf.space:
        raise ValueError("gamble and pmf are over different outcome spaces")
    _require_asl(pmf)
    parts = decompose(gamble)
    value = parts.base
    for level in parts.levels:
        value += level.weight * upper_event(pmf, level.members)
    return value


def lower_natural_extension(pmf: UpperPMF, gamble: Gamble) -> Rational:
    """Greatest buying price for ``gamble``: the conjugate of the upper price."""
    return -upper_natural_extension(pmf, -gamble)
