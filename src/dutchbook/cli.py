"""Command-line workflows over odds CSV files.

Commands: ``check-asl`` (sure-loss verdict for a market or one
bookmaker), ``find-coupon-arbitrage`` (scan first-bet coupon positions
and report the best certified strategy), ``natural-extension`` (price an
arbitrary gamble against one bookmaker's odds) and ``convert-odds``
(wide sheet to canonical long CSV).

Exit codes: 0 success, 1 usage or parse error, 2 the base odds already
incur sure loss (no coupon needed), 3 internal certificate failure
(never expected on valid input).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import io
from .choquet import (
    decompose,
    lower_natural_extension,
    upper_natural_extension,
)
from .coupons import (
    CouponRules,
    enumerate_coupons,  # noqa: F401  (bench/tracer.py wraps it here)
    first_free_gamble,
    scaled_coupon_values,
)
from .errors import (
    CertificateError,
    CouponRuleError,
    DataError,
    SureLossError,
)
from .model import Gamble, OddsTable, format_decimal, format_rational
from .strategy import StrategyReport, strategy_for_coupon, verify_certificate
from .sureloss import (
    ASLVerdict,
    check_asl_market,
    check_asl_single,
    over_round,
    upper_pmf_from_odds,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SURE_LOSS = 2
EXIT_CERTIFICATE = 3


# the odds cells' ASCII 'a/b'-or-integer grammar plus a sign: Fraction's own
# grammar reads exponents, and 1e400000 alone builds a 1.3-Mbit integer
_NUMBER_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(f"{self.prog}: error: {message}")


def _read_input(value: str) -> str:
    path = Path(value)
    if path.exists():
        return io.decode_csv(path.read_bytes(), value)
    try:
        return io.read_fixture(value)
    except DataError:
        raise DataError(
            f"cannot read {value!r}: no such file, and no bundled odds "
            f"file of that name (bundled: {io.fixture_names()})"
        ) from None


def _verdict_fields(verdict: ASLVerdict) -> dict:
    margin = over_round(verdict.table)
    fields = {
        "avoids_sure_loss": verdict.avoids,
        "total": format_rational(verdict.total),
        "total_decimal": format_decimal(verdict.total),
        "over_round": format_rational(margin),
        "over_round_decimal": format_decimal(margin),
    }
    if verdict.witness is None:
        fields["witness"] = None
    else:
        fields["witness"] = {
            o.label: format_rational(w)
            for o, w in zip(verdict.table.space, verdict.witness)
        }
    return fields


def _strategy_fields(
    table: OddsTable, gamble: Gamble, report: StrategyReport
) -> dict:
    space = table.space
    certificate = report.certificate
    return {
        "first": report.first_outcome.label if report.first_outcome else None,
        "coupon": (
            report.coupon_outcome.label if report.coupon_outcome else None
        ),
        "alpha": format_rational(report.alpha),
        "alpha_decimal": format_decimal(report.alpha),
        "guaranteed_gain": format_rational(report.guaranteed_gain),
        "gain_decimal": format_decimal(report.guaranteed_gain),
        "stakes": {
            o.label: format_rational(s) for o, s in zip(space, report.stakes)
        },
        "certificate": {
            "verified": verify_certificate(table, gamble, report),
            "dual": {o.label: format_rational(p) for o, p in zip(space, certificate.p)},
            "ordering": [space[i].label for i in certificate.ordering],
            "k": certificate.k,
            "k_prime": certificate.k_prime,
        },
    }


def _cmd_check_asl(args) -> dict:
    market = io.parse_market_csv(_read_input(args.file))
    report = {
        "command": "check-asl",
        "source": args.file,
        "outcomes": list(market.space.labels),
    }
    if args.bookmaker:
        table = market.table(args.bookmaker)
        verdict = check_asl_single(table)
        report["scope"] = "bookmaker"
        report["bookmaker"] = args.bookmaker
        report["odds"] = {
            o.label: str(table.odds_for(o)) for o in market.space
        }
    else:
        verdict = check_asl_market(market)
        table = verdict.table
        report["scope"] = "market"
        report["bookmakers"] = list(market.bookmakers)
        report["max_odds"] = {
            o.label: str(table.odds_for(o)) for o in market.space
        }
    report.update(_verdict_fields(verdict))
    pmf = upper_pmf_from_odds(table)
    report["upper_pmf"] = {
        o.label: format_rational(m) for o, m in zip(market.space, pmf.masses)
    }
    return report


def _flag_number(flag: str, text: str, expected: str, positive: bool) -> Fraction:
    match = _NUMBER_TEXT.fullmatch(text.strip())
    if match is not None:
        try:
            numerator, denominator = int(match[1]), int(match[2] or 1)
        except ValueError:  # int() reads at most sys.get_int_max_str_digits()
            raise DataError(f"{flag} number too long: {text[:20]!r}...") from None
        if denominator and (numerator > 0 or not positive):
            return Fraction(numerator, denominator)
    raise DataError(f"{flag} must be {expected}, got {text!r}")


def _coupon_rules(text: str | None) -> CouponRules:
    if not text:
        return CouponRules()
    expected = "a positive 'a/b' or integer"
    return CouponRules(_flag_number("--max-coupon", text, expected, True))


def _cmd_find_coupon_arbitrage(args) -> dict:
    market = io.parse_market_csv(_read_input(args.file))
    table = market.table(args.bookmaker)
    rules = _coupon_rules(args.max_coupon)
    cap = rules.max_coupon_value
    base = check_asl_single(table)
    # raises on base sure loss; sorted, the best pair comes first
    scale, values, capped = scaled_coupon_values(table, rules)
    values.sort()
    space = table.space
    report = {
        "command": "find-coupon-arbitrage",
        "source": args.file,
        "bookmaker": args.bookmaker,
        "outcomes": list(market.space.labels),
        "base": _verdict_fields(base),
        "rules": {
            "max_coupon_value": format_rational(cap) if cap is not None else None
        },
        "pair_count": len(values),
        "exploitable_count": sum(1 for v, _, _ in values if v < 0),
        "excluded_pairs": [
            {
                "first": space[i].label,
                "coupon": coupon.label,
                "reason": f"first stake {table.odds[i].denominator} "
                f"exceeds coupon cap {cap}",
            }
            for i in capped
            for coupon in space
            if coupon.index != i
        ],
    }
    if args.all:
        priced = ((Fraction(v, scale), i, j) for v, i, j in values)
        report["evaluations"] = [
            {
                "first": space[i].label,
                "coupon": space[j].label,
                "value": format_rational(value),
                "value_decimal": format_decimal(value),
                "exploitable": value < 0,
            }
            for value, i, j in priced
        ]
    if values and values[0][0] < 0:
        _, i, j = values[0]
        ffg = first_free_gamble(table, space[i], space[j], rules)
        strategy = strategy_for_coupon(table, ffg)
        report["strategy"] = _strategy_fields(table, ffg.gamble, strategy)
    else:
        report["strategy"] = None
        report["message"] = "no exploitable coupon"
    return report


def _cmd_natural_extension(args) -> dict:
    market = io.parse_market_csv(_read_input(args.file))
    table = market.table(args.bookmaker)
    pieces = [p.strip() for p in args.gamble.split(",")]
    if len(pieces) != len(market.space):
        raise DataError(
            f"gamble has {len(pieces)} values for {len(market.space)} "
            f"outcomes ({', '.join(market.space.labels)})"
        )
    expected = "comma-separated 'a/b' or integers, each optionally negative"
    values = tuple(_flag_number("--gamble", p, expected, False) for p in pieces)
    gamble = Gamble(market.space, values)
    pmf = upper_pmf_from_odds(table)
    upper = upper_natural_extension(pmf, gamble)
    lower = lower_natural_extension(pmf, gamble)
    parts = decompose(gamble)
    return {
        "command": "natural-extension",
        "source": args.file,
        "bookmaker": args.bookmaker,
        "outcomes": list(market.space.labels),
        "gamble": {o.label: format_rational(v) for o, v in gamble.items()},
        "upper": format_rational(upper),
        "upper_decimal": format_decimal(upper),
        "lower": format_rational(lower),
        "lower_decimal": format_decimal(lower),
        "decomposition": {
            "base": format_rational(parts.base),
            "levels": [
                {
                    "weight": format_rational(level.weight),
                    "members": sorted(
                        (market.space[i].label for i in level.members),
                        key=market.space.labels.index,
                    ),
                }
                for level in parts.levels
            ],
        },
    }


def _cmd_convert_odds(args) -> str:
    return io.wide_to_long_csv(_read_input(args.file))


def _render_table(report: dict) -> str:
    lines = []
    command = report["command"]
    if command == "check-asl":
        if report["scope"] == "bookmaker":
            lines.append(f"sure-loss check: bookmaker {report['bookmaker']}")
            odds = report["odds"]
        else:
            lines.append(
                "sure-loss check: market of "
                + ", ".join(report["bookmakers"])
            )
            odds = report["max_odds"]
            lines.append("(using the maximal odds per outcome)")
        lines.append(
            "avoids sure loss: " + ("yes" if report["avoids_sure_loss"] else "no")
        )
        lines.append(
            f"mass total: {report['total']} ({report['total_decimal']})"
        )
        lines.append(
            f"over-round margin: {report['over_round']} "
            f"({report['over_round_decimal']})"
        )
        lines.append("")
        width = max(len(o) for o in report["outcomes"])
        lines.append(f"{'outcome':<{width}}  odds      upper mass")
        for outcome in report["outcomes"]:
            lines.append(
                f"{outcome:<{width}}  {odds[outcome]:<8}  "
                f"{report['upper_pmf'][outcome]}"
            )
    elif command == "find-coupon-arbitrage":
        lines.append(f"coupon arbitrage scan: bookmaker {report['bookmaker']}")
        base = report["base"]
        lines.append(
            "base odds avoid sure loss: "
            + ("yes" if base["avoids_sure_loss"] else "no")
            + f" (total {base['total_decimal']})"
        )
        lines.append(
            f"pairs evaluated: {report['pair_count']}, "
            f"exploitable: {report['exploitable_count']}"
        )
        if report.get("evaluations"):
            lines.append("")
            lines.append("first -> coupon: value")
            for entry in report["evaluations"]:
                mark = "  <- sure gain" if entry["exploitable"] else ""
                lines.append(
                    f"{entry['first']} -> {entry['coupon']}: "
                    f"{entry['value_decimal']}{mark}"
                )
        strategy = report["strategy"]
        if strategy is None:
            lines.append(report["message"])
        else:
            lines.append("")
            lines.append(
                f"best strategy: first bet on {strategy['first']}, "
                f"coupon on {strategy['coupon']}"
            )
            lines.append(
                f"guaranteed gain: {strategy['guaranteed_gain']} "
                f"({strategy['gain_decimal']})"
            )
            lines.append("additional stakes:")
            width = max(len(o) for o in report["outcomes"])
            for outcome in report["outcomes"]:
                stake = strategy["stakes"][outcome]
                if stake != "0/1":
                    lines.append(f"  {outcome:<{width}}  {stake}")
            certificate = strategy["certificate"]
            lines.append(
                "certificate: "
                + ("verified" if certificate["verified"] else "FAILED")
                + f" (k={certificate['k']}, k'={certificate['k_prime']})"
            )
    elif command == "natural-extension":
        lines.append(f"natural extension: bookmaker {report['bookmaker']}")
        gamble = ", ".join(
            f"{o} {report['gamble'][o]}" for o in report["outcomes"]
        )
        lines.append(f"gamble: {gamble}")
        lines.append(f"upper: {report['upper']} ({report['upper_decimal']})")
        lines.append(f"lower: {report['lower']} ({report['lower_decimal']})")
        parts = report["decomposition"]
        pieces = [f"base {parts['base']}"] + [
            f"+{level['weight']} on {{{', '.join(level['members'])}}}"
            for level in parts["levels"]
        ]
        lines.append("decomposition: " + "; ".join(pieces))
    else:  # pragma: no cover - commands above are exhaustive
        raise ValueError(f"no table rendering for {command!r}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dutchbook",
        description=(
            "Detect sure loss in fractional betting odds and compute "
            "certified guaranteed-gain strategies for first-bet free "
            "coupons.  FILE arguments may also name a bundled odds file "
            "(euro2016.csv, three_bookmakers.csv)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write the report to FILE instead of stdout")
        p.add_argument(
            "--format",
            choices=("json", "table"),
            default="json",
            help="report format (default json)",
        )

    p = sub.add_parser(
        "check-asl",
        help="check whether odds avoid sure loss (whole market or one bookmaker)",
    )
    p.add_argument("file", help="long-format odds CSV")
    p.add_argument("--bookmaker", help="check this bookmaker only")
    add_common(p)
    p.set_defaults(handler=_cmd_check_asl)

    p = sub.add_parser(
        "find-coupon-arbitrage",
        help="scan first-bet coupon positions for a guaranteed gain",
    )
    p.add_argument("file", help="long-format odds CSV")
    p.add_argument("--bookmaker", required=True, help="coupon-issuing bookmaker")
    p.add_argument(
        "--max-coupon",
        help="coupon value cap as 'a/b' or integer; capped pairs are skipped",
    )
    p.add_argument(
        "--all",
        action="store_true",
        help="list every coupon pair, not just the best strategy",
    )
    add_common(p)
    p.set_defaults(handler=_cmd_find_coupon_arbitrage)

    p = sub.add_parser(
        "natural-extension",
        help="price a payoff vector against one bookmaker's odds",
    )
    p.add_argument("file", help="long-format odds CSV")
    p.add_argument("--bookmaker", required=True)
    p.add_argument(
        "--gamble",
        required=True,
        help="comma-separated payoffs in the file's outcome order, e.g. '5,-13,-11'",
    )
    add_common(p)
    p.set_defaults(handler=_cmd_natural_extension)

    p = sub.add_parser(
        "convert-odds",
        help="convert a wide odds sheet (outcome,<bookmaker>,...) to long CSV",
    )
    p.add_argument("file", help="wide-format odds CSV")
    p.add_argument("--out", help="write the CSV to FILE instead of stdout")
    p.set_defaults(handler=_cmd_convert_odds, format=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        result = args.handler(args)
    except SureLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SURE_LOSS
    except CertificateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (DataError, CouponRuleError, KeyError, ValueError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(result, str):
        text = result
    elif args.format == "table":
        text = _render_table(result)
    else:
        text = json.dumps(result, indent=2) + "\n"
    try:
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except OSError as exc:  # --out names a directory, or one that is missing
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
