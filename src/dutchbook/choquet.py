"""Natural extension of gambles against per-outcome upper probability bounds.

An :class:`UpperPMF` caps the probability of each single outcome.  The
least-committal selling price it induces for an arbitrary gamble is a
Choquet integral.  For caps on single outcomes that integral is a greedy
fill: sort the payoffs from highest down and give each its full cap
until the mass reaches 1.  The level-set decomposition, which slices the
gamble into nested sets and prices each slice by capped summation, gives
the same number and is kept for reports.  Both are only valid while the
caps total at least 1; below that the bounds themselves are exploitable
and :class:`~dutchbook.errors.SureLossError` is raised.  The filled
distribution is also the optimal dual that :mod:`dutchbook.strategy`
derives stakes from, on :func:`~dutchbook.model.scaled` ints.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import SureLossError
from .model import Gamble, Outcome, OutcomeSpace, Rational, as_rational, scaled

if TYPE_CHECKING:
    # kept out of run time: typing caches a subscripted alias for the life
    # of the process, which would pin this import's Outcome class (and its
    # whole module) after a re-import
    from typing import Iterable, Union

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

    def total(self) -> Rational:
        return self._total

    @cached_property
    def _total(self) -> Rational:
        # every verdict, price and dual reads the total; sum the caps once
        return sum(self.masses, Fraction(0))

    @cached_property
    def scaled_masses(self) -> tuple[int, tuple[int, ...]]:
        """``(L, M)``: the caps ``M_k/L`` as :func:`~dutchbook.model.scaled`
        ints, computed once per cap set."""
        return scaled(self.masses)

    @cached_property
    def witness(self) -> tuple[Rational, ...] | None:
        """The distribution ``m_k / total`` when the caps avoid sure loss,
        else None; it fits under every cap, so it certifies the verdict."""
        total = self._total
        if total < 1:
            return None
        return tuple(mass / total for mass in self.masses)

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
            try:
                i = operator.index(member)
            except TypeError:
                i = None
            if i is None or isinstance(member, bool):  # no 1.9 -> 1, True -> 1
                raise ValueError(
                    f"event member {member!r} is neither an outcome nor an "
                    f"outcome index"
                )
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


@dataclass(frozen=True, slots=True)
class DualSolution:
    """Greedy optimal distribution for pricing a gamble under mass caps.

    ``ordering`` lists outcome indices from highest gamble payoff to
    lowest (ties by index).  ``p`` is in space order: the cap itself for
    ordered positions before ``k``, the leftover mass at position ``k``,
    zero after.  ``k_prime`` is the last ordered position still at its
    cap; stakes beyond it are forced to zero by complementary slackness.
    Both ``k`` and ``k_prime`` are 1-based positions into ``ordering``.
    ``value`` is the distribution's expectation of the priced gamble,
    its upper natural extension.
    """

    ordering: tuple[int, ...]
    p: tuple[Rational, ...]
    k: int
    k_prime: int
    value: Rational


def construct_dual(pmf: UpperPMF, gamble: Gamble) -> DualSolution:
    """Fill probability mass greedily onto the highest payoffs, up to the caps.

    Walk the outcomes from highest payoff down (a stable sort, so ties
    keep index order and each outcome's narrowest level set contains
    every earlier outcome's), giving each its full cap while the mass
    left to place exceeds it; the outcome where the mass runs out
    (position ``k``) gets the rest and later outcomes get zero.  This
    distribution attains the Choquet integral, base plus each level-set
    slice weight times the slice's upper event probability, in
    O(n log n).  Requires the caps to total at least 1.

    It runs on :func:`~dutchbook.model.scaled` ints, caps ``M_k/L`` and
    payoffs ``P_k/D``, so the price is an int over ``L·D``.
    """
    ordering, k, left, value = _fill(pmf, gamble, 1)
    masses = pmf.masses
    cap_scale, caps = pmf.scaled_masses
    p = [Fraction(0)] * len(masses)
    for index in ordering[: k - 1]:
        p[index] = masses[index]
    index = ordering[k - 1]
    p[index] = Fraction(left, cap_scale)
    k_prime = k if left == caps[index] else k - 1
    return DualSolution(ordering, tuple(p), k, k_prime, value)


def _fill(
    pmf: UpperPMF, gamble: Gamble, sign: int
) -> tuple[tuple[int, ...], int, int, Rational]:
    """The greedy fill of :func:`construct_dual` on ``sign·gamble``:
    ``(ordering, k, left, price)``, ``left`` the mass left for position
    ``k`` over ``L``.  ``sign = −1`` negates the cached payoff ints."""
    if gamble.space != pmf.space:
        raise ValueError("gamble and pmf are over different outcome spaces")
    if not pmf.avoids_sure_loss:
        raise SureLossError(pmf.total())
    payoff_scale, payoffs = gamble.scaled
    if sign < 0:
        payoffs = [-v for v in payoffs]
    ordering = tuple(
        sorted(range(len(payoffs)), key=payoffs.__getitem__, reverse=True)
    )
    cap_scale, caps = pmf.scaled_masses
    value = 0
    left = cap_scale
    for k, index in enumerate(ordering, start=1):
        cap = caps[index]
        if cap >= left:  # caps total at least 1, so this is always reached
            break
        value += cap * payoffs[index]
        left -= cap
    value = Fraction(value + left * payoffs[index], cap_scale * payoff_scale)
    return ordering, k, left, value


def upper_natural_extension(pmf: UpperPMF, gamble: Gamble) -> Rational:
    """Least selling price for ``gamble`` consistent with the caps: the
    value of the greedy dual, :func:`construct_dual`, without its masses.

    >>> space = OutcomeSpace.from_labels(["W", "D", "L"])
    >>> pmf = UpperPMF(space, (Fraction(4, 7), Fraction(5, 18), Fraction(5, 21)))
    >>> upper_natural_extension(pmf, Gamble(space, (5, -13, -11)))
    Fraction(-47, 21)
    """
    return _fill(pmf, gamble, 1)[3]


def lower_natural_extension(pmf: UpperPMF, gamble: Gamble) -> Rational:
    """Greatest buying price for ``gamble``: the conjugate of the upper
    price, ``−upper(−gamble)``, filled on the negated scaled payoffs."""
    return -_fill(pmf, gamble, -1)[3]
