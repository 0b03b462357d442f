"""Acceptance suite.

Every criterion is checked at its stated tolerance in exact arithmetic
and reports one PASS/FAIL line on stdout (run with ``pytest -s`` to see
them).  The bundled odds files are the data under test.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from dutchbook import (
    FractionalOdds,
    Gamble,
    Market,
    OddsTable,
    OutcomeSpace,
    check_asl_market,
    check_asl_single,
    enumerate_coupons,
    expectation_sign_check,
    first_free_gamble,
    format_decimal,
    max_odds,
    strategy_for_coupon,
    upper_event,
    upper_natural_extension,
    upper_pmf_from_odds,
    verify_certificate,
)
from dutchbook.choquet import UpperPMF, construct_dual

MILLI = Fraction(1, 1000)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_single_bookmaker_total(forest):
    with criterion(1, "single-bookmaker mass total 137/126, shown 1.087, avoids"):
        verdict = check_asl_single(forest)
        assert verdict.total == Fraction(137, 126)
        assert format_decimal(verdict.total, 3) == "1.087"
        assert verdict.avoids


def test_criterion_2_market_maximum_odds(three_market):
    with criterion(2, "market maxima (17/20, 14/5, 10/3), total shown 1.034, avoids"):
        best = max_odds(three_market)
        assert best.odds == (
            FractionalOdds(17, 20),
            FractionalOdds(14, 5),
            FractionalOdds(10, 3),
        )
        verdict = check_asl_market(three_market)
        assert format_decimal(verdict.total, 3) == "1.034"
        assert verdict.avoids


def test_criterion_3_choquet_values(forest):
    with criterion(3, "upper masses, event bounds and coupon price, exact"):
        pmf = upper_pmf_from_odds(forest)
        assert pmf.masses == (Fraction(4, 7), Fraction(5, 18), Fraction(5, 21))
        space = forest.space
        w, l = space.outcome("W"), space.outcome("L")
        assert upper_event(pmf, [w, l]) == Fraction(17, 21)
        assert upper_event(pmf, [w]) == Fraction(4, 7)
        g_dl = Gamble(space, (5, -13, -11))
        assert upper_natural_extension(pmf, g_dl) == Fraction(-47, 21)


def test_criterion_4_certified_stakes(forest):
    with criterion(4, "dual, stakes and certified gain for the (D, L) coupon, exact"):
        space = forest.space
        ffg = first_free_gamble(forest, space.outcome("D"), space.outcome("L"))
        report = strategy_for_coupon(forest, ffg)
        assert report.certificate.p == (
            Fraction(4, 7),
            Fraction(4, 21),
            Fraction(5, 21),
        )
        assert report.stakes == (Fraction(18, 7), 0, Fraction(2, 21))
        assert report.alpha == Fraction(-47, 21)
        assert verify_certificate(forest, ffg.gamble, report)
        gambles = forest.gambles()
        customer = [
            -(
                ffg.gamble.payoffs[w]
                + sum(report.stakes[i] * gambles[i].payoffs[w] for i in range(3))
            )
            for w in range(3)
        ]
        assert min(customer) == Fraction(47, 21)


EXPECTED_EURO_MAXIMA = {
    "France": Fraction(10, 3),
    "Germany": Fraction(23, 5),
    "Spain": Fraction(5),
    "England": Fraction(9),
    "Belgium": Fraction(57, 5),
    "Italy": Fraction(91, 5),
    "Portugal": Fraction(20),
    "Croatia": Fraction(27),
    "Austria": Fraction(45),
    "Poland": Fraction(50),
    "Switzerland": Fraction(66),
    "Russia": Fraction(85),
    "Turkey": Fraction(94),
    "Wales": Fraction(100),
    "Ukraine": Fraction(100),
    "Sweden": Fraction(104),
    "Czech Republic": Fraction(135),
    "Slovakia": Fraction(150),
    "Rep of Ireland": Fraction(170),
    "Iceland": Fraction(180),
    "Romania": Fraction(275),
    "N Ireland": Fraction(400),
    "Hungary": Fraction(566),
    "Albania": Fraction(531),
}


def test_criterion_5_euro_market(euro_market):
    with criterion(5, "tournament market maxima total to 1.0349 and avoid sure loss"):
        best = max_odds(euro_market)
        for outcome in euro_market.space:
            assert best.odds_for(outcome).ratio == EXPECTED_EURO_MAXIMA[outcome.label]
        verdict = check_asl_market(euro_market)
        rounded = round(verdict.total, 4)
        assert abs(rounded - Fraction(10349, 10000)) <= Fraction(5, 100000)
        assert format_decimal(verdict.total, 4) == "1.0349"
        assert verdict.avoids


def test_criterion_6_coupon_sweep(bet2):
    with criterion(6, "552-pair coupon sweep: exactly four sure gains at stated values"):
        entries = enumerate_coupons(bet2)
        assert len(entries) == 552
        negatives = {
            (f.first_outcome.label, f.coupon_outcome.label): value
            for f, value in entries
            if value < 0
        }
        expected = {
            ("France", "Spain"): Fraction(-950, 10000),
            ("France", "Germany"): Fraction(-2093, 10000),
            ("Germany", "France"): Fraction(-117, 10000),
            ("Germany", "Spain"): Fraction(-950, 10000),
        }
        assert set(negatives) == set(expected)
        for pair, target in expected.items():
            assert abs(negatives[pair] - target) <= MILLI
        pmf = upper_pmf_from_odds(bet2)
        space = bet2.space
        not_spain = [o for o in space if o.label != "Spain"]
        neither = [o for o in not_spain if o.label != "France"]
        assert abs(upper_event(pmf, not_spain) - Fraction(9810, 10000)) <= MILLI
        assert abs(upper_event(pmf, neither) - Fraction(7310, 10000)) <= MILLI


TABLE_STAKES = {
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


def test_criterion_7_published_stake_vector(bet2):
    with criterion(7, "first-favourite coupon strategy matches the published stakes"):
        space = bet2.space
        ffg = first_free_gamble(
            bet2, space.outcome("France"), space.outcome("Spain")
        )
        report = strategy_for_coupon(bet2, ffg)
        stakes = {o.label: s for o, s in zip(space, report.stakes)}
        assert stakes == TABLE_STAKES
        assert abs(report.guaranteed_gain - Fraction(95, 1000)) <= MILLI
        assert verify_certificate(bet2, ffg.gamble, report)


def _random_masses(rng, n):
    while True:
        masses = [Fraction(rng.randint(0, 16), 16) for _ in range(n)]
        if sum(masses) >= 1:
            return masses


def _random_gamble_values(rng, n):
    return [Fraction(rng.randint(-60, 60), rng.randint(1, 6)) for _ in range(n)]


def _random_pmf_gamble(rng, max_size=8):
    n = rng.randint(1, max_size)
    space = OutcomeSpace.from_labels([f"o{i}" for i in range(n)])
    pmf = UpperPMF(space, tuple(_random_masses(rng, n)))
    gamble = Gamble(space, tuple(_random_gamble_values(rng, n)))
    return pmf, gamble


def _random_table(rng, n):
    space = OutcomeSpace.from_labels([f"o{i}" for i in range(n)])
    odds = tuple(
        FractionalOdds(
            Fraction(rng.randint(0, 8), rng.randint(1, 3)),
            Fraction(rng.randint(1, 12), rng.randint(1, 3)),
        )
        for _ in range(n)
    )
    return OddsTable("Book", space, odds)


def test_criterion_8a_duality_identity():
    with criterion(
        8, "(a) greedy dual equals the Choquet price on 1000 random instances"
    ):
        rng = random.Random(1601)
        for _ in range(1000):
            pmf, gamble = _random_pmf_gamble(rng)
            dual = construct_dual(pmf, gamble)
            expectation = sum(w * v for w, v in zip(dual.p, gamble.payoffs))
            assert expectation == upper_natural_extension(pmf, gamble)


def test_criterion_8b_choquet_operator_laws():
    with criterion(
        8, "(b) monotonicity, constant additivity and positive homogeneity"
    ):
        rng = random.Random(1602)
        for _ in range(200):
            pmf, gamble = _random_pmf_gamble(rng)
            space = gamble.space
            value = upper_natural_extension(pmf, gamble)

            bump = Gamble(
                space,
                tuple(Fraction(rng.randint(0, 40), 4) for _ in space),
            )
            assert value <= upper_natural_extension(pmf, gamble + bump)

            c = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
            shifted = gamble + Gamble(space, (c,) * len(space))
            assert upper_natural_extension(pmf, shifted) == value + c

            alpha = Fraction(rng.randint(1, 24), rng.randint(1, 6))
            scaled = Gamble(space, tuple(alpha * v for v in gamble.payoffs))
            assert upper_natural_extension(pmf, scaled) == alpha * value


def test_criterion_8c_sign_equivalence():
    with criterion(
        8, "(c) expectation sign equals the mass comparison on random books"
    ):
        rng = random.Random(1603)
        for _ in range(300):
            n = rng.randint(2, 5)
            table = _random_table(rng, n)
            target = table.space[rng.randrange(n)]
            gamble = table.gambles()[target.index]
            weights = [rng.randint(0, 10) for _ in range(n)]
            if sum(weights) == 0:
                weights[rng.randrange(n)] = 1
            total = sum(weights)
            p = [Fraction(w, total) for w in weights]
            mass = table.odds_for(target).upper_mass
            assert expectation_sign_check(gamble, p) == (p[target.index] <= mass)


def test_criterion_8de_certified_strategies():
    with criterion(
        8,
        "(d,e) every strategy certifies, realises its gain, and keeps "
        "k' >= n-2 when exploitable",
    ):
        rng = random.Random(1604)
        tables = 0
        exploitable_runs = 0
        while tables < 120:
            n = rng.randint(2, 5)
            table = _random_table(rng, n)
            verdict = check_asl_single(table)
            # thin margins keep a healthy share of exploitable coupons
            if not verdict.avoids or verdict.total >= Fraction(4, 3):
                continue
            tables += 1
            gambles = table.gambles()
            for ffg, value in enumerate_coupons(table):
                report = strategy_for_coupon(table, ffg)
                assert report.alpha == value
                assert verify_certificate(table, ffg.gamble, report)
                for w in range(n):
                    combined = ffg.gamble.payoffs[w] + sum(
                        report.stakes[i] * gambles[i].payoffs[w]
                        for i in range(n)
                    )
                    assert combined <= report.alpha
                if value < 0:
                    exploitable_runs += 1
                    assert report.guaranteed_gain == -value
                    assert report.certificate.k_prime >= n - 2
        assert exploitable_runs > 50


def test_criterion_8f_witness_validity():
    with criterion(8, "(f) every positive verdict carries a checkable witness"):
        rng = random.Random(1605)
        avoided = 0
        for _ in range(150):
            n = rng.randint(2, 4)
            m = rng.randint(1, 3)
            space = OutcomeSpace.from_labels([f"o{i}" for i in range(n)])
            tables = tuple(
                OddsTable(
                    f"B{k}",
                    space,
                    tuple(
                        FractionalOdds(
                            Fraction(rng.randint(0, 8), rng.randint(1, 3)),
                            Fraction(rng.randint(1, 12), rng.randint(1, 3)),
                        )
                        for _ in range(n)
                    ),
                )
                for k in range(m)
            )
            market = Market(space, tables)
            verdict = check_asl_market(market)
            if not verdict.avoids:
                continue
            avoided += 1
            assert sum(verdict.witness, Fraction(0)) == 1
            assert all(w >= 0 for w in verdict.witness)
            for table in market.tables:
                for gamble in table.gambles():
                    assert expectation_sign_check(gamble, verdict.witness)
        assert avoided > 30
