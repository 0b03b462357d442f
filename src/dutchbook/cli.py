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
import sys
from pathlib import Path

from . import io
from .choquet import (
    decompose,
    lower_natural_extension,
    upper_natural_extension,
)
from .coupons import CouponRules, capped_out_pairs, enumerate_coupons
from .errors import (
    CertificateError,
    CouponRuleError,
    DataError,
    SureLossError,
)
from .model import (
    Gamble,
    Market,
    OddsTable,
    as_rational,
    format_decimal,
    format_rational,
)
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(f"{self.prog}: error: {message}")


def _rat(value) -> str:
    return format_rational(value)


def _dec(value) -> str:
    return format_decimal(value, 4)


def _read_input(value: str) -> str:
    path = Path(value)
    if path.exists():
        return path.read_text(encoding="utf-8")
    try:
        return io.read_fixture(value)
    except DataError:
        raise DataError(
            f"cannot read {value!r}: no such file, and no bundled odds "
            f"file of that name (bundled: {io.fixture_names()})"
        ) from None


def _load_market(value: str) -> Market:
    return io.parse_market_csv(_read_input(value))


def _verdict_fields(verdict: ASLVerdict) -> dict:
    margin = over_round(verdict.table)
    fields = {
        "avoids_sure_loss": verdict.avoids,
        "total": _rat(verdict.total),
        "total_decimal": _dec(verdict.total),
        "over_round": _rat(margin),
        "over_round_decimal": _dec(margin),
    }
    if verdict.witness is None:
        fields["witness"] = None
    else:
        fields["witness"] = {
            o.label: _rat(w) for o, w in zip(verdict.table.space, verdict.witness)
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
        "alpha": _rat(report.alpha),
        "alpha_decimal": _dec(report.alpha),
        "guaranteed_gain": _rat(report.guaranteed_gain),
        "gain_decimal": _dec(report.guaranteed_gain),
        "stakes": {
            o.label: _rat(s) for o, s in zip(space, report.stakes)
        },
        "certificate": {
            "verified": verify_certificate(table, gamble, report),
            "dual": {o.label: _rat(p) for o, p in zip(space, certificate.p)},
            "ordering": [space[i].label for i in certificate.ordering],
            "k": certificate.k,
            "k_prime": certificate.k_prime,
        },
    }


def _cmd_check_asl(args) -> dict:
    market = _load_market(args.file)
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
        o.label: _rat(m) for o, m in zip(market.space, pmf.masses)
    }
    return report


def _cmd_find_coupon_arbitrage(args) -> dict:
    market = _load_market(args.file)
    table = market.table(args.bookmaker)
    cap = as_rational(args.max_coupon) if args.max_coupon else None
    rules = CouponRules(max_coupon_value=cap)
    base = check_asl_single(table)
    entries = enumerate_coupons(table, rules)  # raises on base sure loss
    exploitable = [(ffg, value) for ffg, value in entries if value < 0]
    report = {
        "command": "find-coupon-arbitrage",
        "source": args.file,
        "bookmaker": args.bookmaker,
        "outcomes": list(market.space.labels),
        "base": _verdict_fields(base),
        "rules": {"max_coupon_value": _rat(cap) if cap is not None else None},
        "pair_count": len(entries),
        "exploitable_count": len(exploitable),
        "excluded_pairs": [
            {"first": first.label, "coupon": coupon.label, "reason": reason}
            for first, coupon, reason in capped_out_pairs(table, rules)
        ],
    }
    if args.all:
        report["evaluations"] = [
            {
                "first": ffg.first_outcome.label,
                "coupon": ffg.coupon_outcome.label,
                "value": _rat(value),
                "value_decimal": _dec(value),
                "exploitable": value < 0,
            }
            for ffg, value in entries
        ]
    if exploitable:
        ffg, _ = entries[0]
        strategy = strategy_for_coupon(table, ffg)
        report["strategy"] = _strategy_fields(table, ffg.gamble, strategy)
    else:
        report["strategy"] = None
        report["message"] = "no exploitable coupon"
    return report


def _cmd_natural_extension(args) -> dict:
    market = _load_market(args.file)
    table = market.table(args.bookmaker)
    pieces = [p.strip() for p in args.gamble.split(",")]
    if len(pieces) != len(market.space):
        raise DataError(
            f"gamble has {len(pieces)} values for {len(market.space)} "
            f"outcomes ({', '.join(market.space.labels)})"
        )
    try:
        values = tuple(as_rational(p) for p in pieces)
    except (ValueError, ZeroDivisionError) as exc:
        raise DataError(f"bad gamble value: {exc}") from None
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
        "gamble": {o.label: _rat(v) for o, v in gamble.items()},
        "upper": _rat(upper),
        "upper_decimal": _dec(upper),
        "lower": _rat(lower),
        "lower_decimal": _dec(lower),
        "decomposition": {
            "base": _rat(parts.base),
            "levels": [
                {
                    "weight": _rat(level.weight),
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


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


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
    except (DataError, CouponRuleError, KeyError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(result, str):
        _emit(result, args.out)
    elif args.format == "table":
        _emit(_render_table(result), args.out)
    else:
        _emit(json.dumps(result, indent=2) + "\n", args.out)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
