"""The benchmark's workloads: their inputs, requests and exact answer checks.

Every workload is a closed loop with one caller.  ``setup`` imports the
package afresh and builds the inputs; ``request(i)`` is the timed work
for input ``i`` (taken modulo ``items()``); ``check(i, answer)`` runs
after the timed loop and returns what is wrong with an answer;
``finish()`` checks the published figures that need the whole run.
``inprocess(i)`` is the call the traced run wraps: the request itself,
except for ``cli``, where it is ``cli.main(argv)`` inside this process.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io as textio
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import gen

OUT_DIR = ".bench_out"


def digest(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def fresh_import(*names: str):
    """Drop every loaded ``dutchbook`` module, then import ``names``.

    Set-up time then includes the package import on every repetition.
    """
    for loaded in [m for m in sys.modules if m.split(".")[0] == "dutchbook"]:
        del sys.modules[loaded]
    return [importlib.import_module(name) for name in names]


def rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def strategy_text(report) -> str:
    """Every exact value of a strategy report, in one canonical line."""
    if report is None:
        return "none"
    return "|".join(
        [
            getattr(report.first_outcome, "label", "-"),
            getattr(report.coupon_outcome, "label", "-"),
            rational(report.alpha),
            ",".join(rational(s) for s in report.stakes),
            rational(report.guaranteed_gain),
        ]
    )


def reference_upper(caps, payoffs) -> Fraction:
    """Largest expectation of ``payoffs`` over distributions under ``caps``.

    The linear program's greedy optimum (fill the highest payoffs first),
    written independently of the package as an exact cross-check.
    """
    left = Fraction(1)
    value = Fraction(0)
    for payoff, cap in sorted(zip(payoffs, caps), key=lambda pc: -pc[0]):
        take = min(cap, left)
        value += take * payoff
        left -= take
    return value


class EuroMarket:
    """``best_strategy`` plus ``verify_certificate`` for each Euro 2016 book."""

    name = "euro-market"
    # published figures pinned by the acceptance suite
    EXPLOITABLE_BOOKS = 26
    BET2_PAIRS = 552
    BET2_EXPLOITABLE = {
        ("France", "Spain"),
        ("France", "Germany"),
        ("Germany", "France"),
        ("Germany", "Spain"),
    }
    FRANCE_SPAIN_STAKES = {
        "Germany": Fraction(1),
        "England": Fraction(1, 2),
        "Belgium": Fraction(5, 11),
        "Italy": Fraction(5, 17),
        "Portugal": Fraction(5, 19),
        "Croatia": Fraction(5, 26),
        "Austria": Fraction(5, 41),
        "Poland": Fraction(5, 51),
        "Switzerland": Fraction(5, 41),
        "Russia": Fraction(5, 67),
        "Turkey": Fraction(5, 81),
        "Wales": Fraction(5, 81),
        "Ukraine": Fraction(5, 67),
        "Sweden": Fraction(5, 81),
        "Czech Republic": Fraction(5, 101),
        "Slovakia": Fraction(5, 101),
        "Rep of Ireland": Fraction(5, 151),
        "Iceland": Fraction(5, 151),
        "Romania": Fraction(5, 101),
        "N Ireland": Fraction(5, 251),
        "Albania": Fraction(5, 251),
        "Hungary": Fraction(5, 251),
        "France": Fraction(1, 4),
        "Spain": Fraction(0),
    }

    def __init__(self, root: Path, seed: int, answers: dict):
        self.seed = seed
        self.expected = answers.get(self.name, {})
        self.results: dict[str, object] = {}

    def setup(self) -> None:
        self.io, self.coupons, self.strategy = fresh_import(
            "dutchbook.io", "dutchbook.coupons", "dutchbook.strategy"
        )
        self.prepare()

    def prepare(self) -> None:
        tables = list(self.io.load_fixture_market("euro2016.csv").tables)
        random.Random(self.seed).shuffle(tables)
        self.tables = tables

    def items(self) -> int:
        return len(self.tables)

    def request(self, i: int):
        table = self.tables[i]
        report = self.strategy.best_strategy(table)
        if report is None:
            return table, None, True
        ffg = self.coupons.first_free_gamble(
            table, report.first_outcome, report.coupon_outcome
        )
        return table, report, self.strategy.verify_certificate(
            table, ffg.gamble, report
        )

    inprocess = request

    def check(self, i: int, answer) -> list[str]:
        table, report, verified = answer
        self.results[table.bookmaker] = report
        wrong = []
        if not verified:
            wrong.append(f"{table.bookmaker}: strategy fails verify_certificate")
        if digest(strategy_text(report)) != self.expected.get(table.bookmaker):
            wrong.append(f"{table.bookmaker}: strategy differs from the record")
        return wrong

    def finish(self) -> list[str]:
        wrong = []
        for i, table in enumerate(self.tables):
            if table.bookmaker not in self.results:  # run too short to reach it
                wrong += self.check(i, self.request(i))
        exploitable = sum(r is not None for r in self.results.values())
        if exploitable != self.EXPLOITABLE_BOOKS:
            wrong.append(f"{exploitable} exploitable books, published 26")
        bet2 = next(t for t in self.tables if t.bookmaker == "Bet2")
        entries = self.coupons.enumerate_coupons(bet2)
        negative = {
            (f.first_outcome.label, f.coupon_outcome.label)
            for f, value in entries
            if value < 0
        }
        if len(entries) != self.BET2_PAIRS or negative != self.BET2_EXPLOITABLE:
            wrong.append(f"Bet2 sweep: {len(entries)} pairs, exploitable {negative}")
        space = bet2.space
        ffg = self.coupons.first_free_gamble(
            bet2, space.outcome("France"), space.outcome("Spain")
        )
        report = self.strategy.strategy_for_coupon(bet2, ffg)
        stakes = {o.label: s for o, s in zip(space, report.stakes)}
        if stakes != self.FRANCE_SPAIN_STAKES:
            wrong.append("Bet2 France/Spain stake vector differs from published")
        return wrong


class WidePositions:
    """Seeded synthetic one-book markets with n in 40..64: stake solves."""

    name = "wide-positions"

    def __init__(self, root: Path, seed: int, answers: dict):
        self.seed = seed
        self.expected = answers.get(self.name, {}).get(str(seed))
        self.priced = 0
        self.exploitable = 0

    def setup(self) -> None:
        (
            self.io,
            self.model,
            self.sureloss,
            self.choquet,
            self.coupons,
            self.strategy,
        ) = fresh_import(
            "dutchbook.io",
            "dutchbook.model",
            "dutchbook.sureloss",
            "dutchbook.choquet",
            "dutchbook.coupons",
            "dutchbook.strategy",
        )
        self.prepare()

    def prepare(self) -> None:
        inputs = gen.wide_inputs(self.seed)
        self.tables = [
            self.io.parse_market_csv(text).tables[0] for text in inputs.books
        ]
        self.positions = inputs.positions
        self.gambles = [
            tuple(
                self.model.Gamble(self.tables[p.book].space, payoffs)
                for payoffs in p.gambles
            )
            for p in self.positions
        ]

    def items(self) -> int:
        return len(self.positions)

    def request(self, i: int):
        position = self.positions[i]
        table = self.tables[position.book]
        space = table.space
        ffg = self.coupons.first_free_gamble(
            table, space[position.first], space[position.coupon]
        )
        value = self.coupons.exploitability(table, ffg)
        report = self.strategy.strategy_for_coupon(table, ffg)
        pmf = self.sureloss.upper_pmf_from_odds(table)
        prices = [
            (
                self.choquet.upper_natural_extension(pmf, gamble),
                self.choquet.lower_natural_extension(pmf, gamble),
            )
            for gamble in self.gambles[i]
        ]
        return table, ffg, value, report, prices

    inprocess = request

    def check(self, i: int, answer) -> list[str]:
        table, ffg, value, report, prices = answer
        caps = [o.upper_mass for o in table.odds]
        self.priced += 1
        self.exploitable += value < 0
        wrong = []
        if not self.strategy.verify_certificate(table, ffg.gamble, report):
            wrong.append(f"position {i}: strategy fails verify_certificate")
        if value != report.alpha or value != reference_upper(
            caps, ffg.gamble.payoffs
        ):
            wrong.append(f"position {i}: coupon price {value} is not the optimum")
        for gamble, (upper, lower) in zip(self.gambles[i], prices):
            if upper != reference_upper(caps, gamble.payoffs) or lower != -(
                reference_upper(caps, [-v for v in gamble.payoffs])
            ):
                wrong.append(f"position {i}: natural extension is not the optimum")
        if self.expected is not None and self.expected[i : i + 1] != [
            digest(self.answer_text(answer))
        ]:
            wrong.append(f"position {i}: answer differs from the record")
        return wrong

    @staticmethod
    def answer_text(answer) -> str:
        _, _, value, report, prices = answer
        return "|".join(
            [rational(value), strategy_text(report)]
            + [f"{rational(u)},{rational(lo)}" for u, lo in prices]
        )

    def finish(self) -> list[str]:
        return []


class Cli:
    """``python -m dutchbook`` as a subprocess, four commands in rotation."""

    name = "cli"
    COMMANDS = (
        ("check-asl", ("check-asl", "euro2016.csv")),
        (
            "find-coupon-arbitrage",
            ("find-coupon-arbitrage", "euro2016.csv", "--bookmaker", "Bet2", "--all"),
        ),
        (
            "natural-extension",
            (
                "natural-extension",
                "three_bookmakers.csv",
                "--bookmaker",
                "Forest",
                "--gamble",
                "5,-13,-11",
            ),
        ),
        ("convert-odds", ("convert-odds", "euro2016_wide.csv", "--out")),
    )

    def __init__(self, root: Path, seed: int, answers: dict):
        self.root = root
        self.expected = answers.get(self.name, {})
        start = seed % len(self.COMMANDS)
        self.commands = self.COMMANDS[start:] + self.COMMANDS[:start]
        self.out = root / OUT_DIR / "cli" / "converted.csv"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    def setup(self) -> None:
        (self.cli,) = fresh_import("dutchbook.cli")
        self.prepare()

    def prepare(self) -> None:
        self.out.parent.mkdir(parents=True, exist_ok=True)

    def items(self) -> int:
        return len(self.commands)

    def argv(self, i: int) -> list[str]:
        name, argv = self.commands[i]
        return list(argv) + ([str(self.out)] if name == "convert-odds" else [])

    def _written(self) -> bytes:
        try:
            return self.out.read_bytes()
        except FileNotFoundError:
            return b""

    def request(self, i: int):
        self.out.unlink(missing_ok=True)
        done = subprocess.run(
            [sys.executable, "-m", "dutchbook", *self.argv(i)],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            timeout=120,
        )
        return done.returncode, done.stdout, self._written()

    def inprocess(self, i: int):
        self.out.unlink(missing_ok=True)
        stdout = textio.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(self.argv(i))
        return code, stdout.getvalue().encode("utf-8"), self._written()

    @staticmethod
    def answer_digest(answer) -> str:
        code, stdout, written = answer
        return digest(b"%d\0" % code + stdout + b"\0" + written)

    def check(self, i: int, answer) -> list[str]:
        name = self.commands[i][0]
        if self.answer_digest(answer) != self.expected.get(name):
            return [f"{name}: exit code or output bytes differ from the record"]
        return []

    def finish(self) -> list[str]:
        self.out.unlink(missing_ok=True)
        return []


WORKLOADS = {w.name: w for w in (EuroMarket, WidePositions, Cli)}
