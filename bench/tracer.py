"""Spans and counters taken from outside the package.

The package looks most functions up as module attributes at call time
(``strategy.best_strategy`` calls ``enumerate_coupons`` through
``dutchbook.strategy``'s globals, the CLI calls ``io.parse_market_csv``
through the ``dutchbook.io`` module, and so on).  :class:`Tracer`
replaces those attributes with timing wrappers while a traced request
runs and puts the originals back afterwards, so the untraced run
executes the package exactly as shipped.

A span is ``(request, span, parent, name, start_ns, end_ns)``; every
span of one request carries that request's id, and each request (or
set-up) is one root span.  A layer's self time is its spans' durations
minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _count_rows(counts, args, market, parent):
    counts["io.rows"] += len(market.space) * len(market.tables)


def _count_verdict(counts, args, result, parent):
    counts["sureloss.verdicts"] += 1


def _count_sweep(counts, args, entries, parent):
    counts["coupons.pairs"] += len(entries)
    counts["coupons.exploitable_pairs"] += sum(1 for _, v in entries if v < 0)


def _count_priced_pair(counts, args, value, parent):
    counts["coupons.pairs"] += 1
    counts["coupons.exploitable_pairs"] += value < 0


def _count_price(counts, args, value, parent):
    if parent != "choquet.price":  # lower = -upper(-g) prices once, not twice
        counts["choquet.prices"] += 1


def _count_levels(counts, args, parts, parent):
    counts["choquet.levels"] += len(parts.levels)


def _count_strategy(counts, args, report, parent):
    counts["strategy.strategies"] += 1


def _count_stake_system(counts, args, report, parent):
    k_prime = args[2].k_prime
    counts["strategy.stake_rows"] += k_prime
    counts["strategy.stake_ops"] += k_prime**3


def _count_certificate(counts, args, failures, parent):
    # only the check strategy_for_coupon makes before returning a strategy;
    # verify_certificate calls from reports and the benchmark are extra
    if parent == "strategy.strategy":
        counts["strategy.certificate_checks"] += 1


# (module, attribute, span name, counter): every call site that crosses a
# layer boundary, at the module whose globals the caller reads.
WRAPS = (
    ("dutchbook.io", "parse_market_csv", "io.parse", _count_rows),
    ("dutchbook.io", "parse_wide_market_csv", "io.parse", _count_rows),
    ("dutchbook.io", "market_to_csv", "io.serialize", None),
    ("dutchbook.cli", "check_asl_single", "sureloss.verdict", _count_verdict),
    ("dutchbook.cli", "check_asl_market", "sureloss.verdict", _count_verdict),
    ("dutchbook.cli", "over_round", "sureloss.verdict", None),
    ("dutchbook.cli", "upper_pmf_from_odds", "sureloss.verdict", None),
    ("dutchbook.coupons", "check_asl_single", "sureloss.verdict", _count_verdict),
    ("dutchbook.coupons", "upper_pmf_from_odds", "sureloss.verdict", None),
    ("dutchbook.strategy", "check_asl_single", "sureloss.verdict", _count_verdict),
    ("dutchbook.strategy", "upper_pmf_from_odds", "sureloss.verdict", None),
    ("dutchbook.sureloss", "upper_pmf_from_odds", "sureloss.verdict", None),
    ("dutchbook.cli", "enumerate_coupons", "coupons.sweep", _count_sweep),
    ("dutchbook.strategy", "enumerate_coupons", "coupons.sweep", _count_sweep),
    ("dutchbook.coupons", "first_free_gamble", "coupons.gamble", None),
    ("dutchbook.coupons", "exploitability", "coupons.price", _count_priced_pair),
    ("dutchbook.coupons", "upper_natural_extension", "choquet.price", _count_price),
    ("dutchbook.choquet", "upper_natural_extension", "choquet.price", _count_price),
    ("dutchbook.choquet", "lower_natural_extension", "choquet.price", _count_price),
    ("dutchbook.cli", "upper_natural_extension", "choquet.price", _count_price),
    ("dutchbook.cli", "lower_natural_extension", "choquet.price", _count_price),
    ("dutchbook.choquet", "decompose", "choquet.decompose", _count_levels),
    ("dutchbook.cli", "decompose", "choquet.decompose", _count_levels),
    ("dutchbook.strategy", "best_strategy", "strategy.best", None),
    ("dutchbook.strategy", "strategy_for_coupon", "strategy.strategy", _count_strategy),
    ("dutchbook.cli", "strategy_for_coupon", "strategy.strategy", _count_strategy),
    ("dutchbook.strategy", "construct_dual", "strategy.dual", None),
    ("dutchbook.strategy", "solve_stakes", "strategy.stakes", _count_stake_system),
    ("dutchbook.strategy", "certificate_failures", "strategy.certificate", _count_certificate),
    ("dutchbook.strategy", "verify_certificate", "strategy.verify", None),
    ("dutchbook.cli", "verify_certificate", "strategy.verify", None),
    ("dutchbook.cli", "main", "cli.main", None),
)


# a solve_stakes error sends strategy_for_coupon to its fallback
ERRORS = {"strategy.stakes": "strategy.stake_retries"}


class Tracer:
    """In-memory spans and counters for one benchmark run."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)
        self._stack: list[tuple[int, str]] = []
        self._request = 0
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count):
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent_id, parent_name = stack[-1]
            span_id = self._next_id
            self._next_id += 1
            stack.append((span_id, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[self._request][ERRORS.get(name, name + ".errors")] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((self._request, span_id, parent_id, name, start, end))
            if count is not None:
                count(counts[self._request], args, result, parent_name)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer boundary in :data:`WRAPS`; restore on exit."""
        try:
            for module_name, attr, name, count in WRAPS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, count))
            yield self
        finally:
            while self._originals:
                module, attr, original = self._originals.pop()
                setattr(module, attr, original)

    @contextmanager
    def root(self, request: int, name: str):
        """The root span of one request (or of set-up, as request -1)."""
        self._request = request
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((request, span_id, -1, name, start, end))

    def self_times(self) -> dict[int, dict[str, int]]:
        """Per request, each span name's self time in nanoseconds."""
        covered: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for request, span, _, name, start, end in self.spans:
            out[request][name] += end - start - covered[span]
        return out

    def root_times(self) -> dict[int, int]:
        """Per request, the root span's duration in nanoseconds."""
        return {
            request: end - start
            for request, _, parent, _, start, end in self.spans
            if parent == -1
        }

    def write(self, path: Path) -> None:
        """All spans as CSV: request,span,parent,name,start_ns,end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("request,span,parent,name,start_ns,end_ns\n")
            for row in sorted(self.spans, key=lambda s: (s[4], s[1])):
                out.write(",".join(map(str, row)) + "\n")
