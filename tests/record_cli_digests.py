"""Record SHA-256 digests of every pinned CLI and demo output.

``tests/test_cli_digests.py`` re-runs each case in ``cli_digests.json``
and compares digests, so a one-byte change to any report fails tier-1.
Re-record only when an output is meant to change, and say why:

    PYTHONPATH=src python tests/record_cli_digests.py --overwrite

Usage errors that argparse words itself pin only the exit code and the
empty stdout: its wording differs across the supported Python versions.
Errors the package words pin stderr too.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"

MAX_COUPONS = ("9/2", "1/3", "1", "2")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``dutchbook argv``, in-process."""
    from dutchbook.cli import main

    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_demo(script: str) -> str:
    """Stdout of one demo script, run as its own process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / script)],
        capture_output=True,
        check=True,
        cwd=ROOT,
        env=env,
        encoding="utf-8",
    )
    return result.stdout


def cli_entry(argv: list[str], pin_stderr: bool) -> dict:
    code, out, err = run_cli(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": digest(out),
        "stderr": digest(err) if pin_stderr else None,
    }


def cli_cases() -> list[tuple[list[str], bool]]:
    """``(argv, pin stderr)`` for every pinned invocation."""
    from dutchbook import load_fixture_market

    euro = load_fixture_market("euro2016.csv").bookmakers
    cases = [
        ["check-asl", "euro2016.csv"],
        ["check-asl", "euro2016.csv", "--format", "table"],
        ["check-asl", "euro2016.csv", "--bookmaker", "Bet2"],
        ["check-asl", "euro2016.csv", "--bookmaker", "Bet2", "--format", "table"],
        ["check-asl", "three_bookmakers.csv"],
        ["check-asl", "three_bookmakers.csv", "--format", "table"],
        ["check-asl", "three_bookmakers.csv", "--bookmaker", "Forest"],
        ["check-asl", "three_bookmakers.csv", "--bookmaker", "Forest", "--format", "table"],
    ]
    forest = ["find-coupon-arbitrage", "three_bookmakers.csv", "--bookmaker", "Forest"]
    cases += [forest, forest + ["--all"], forest + ["--format", "table"]]
    cases += [forest + ["--all", "--format", "table"]]
    for bookmaker in euro:
        scan = ["find-coupon-arbitrage", "euro2016.csv", "--bookmaker", bookmaker]
        cases += [scan, scan + ["--format", "table"]]
    bet2 = ["find-coupon-arbitrage", "euro2016.csv", "--bookmaker", "Bet2"]
    cases += [bet2 + ["--all"], bet2 + ["--all", "--format", "table"]]
    for cap in MAX_COUPONS:
        cases += [bet2 + ["--max-coupon", cap], bet2 + ["--max-coupon", cap, "--all"]]
    cases += [bet2 + ["--max-coupon", "2", "--all", "--format", "table"]]
    pricing = ["natural-extension", "three_bookmakers.csv", "--bookmaker", "Forest"]
    for gamble in ("5,-13,-11", "-47/21, 3 ,0", "0,0,0", "1/3,-2/7,5"):
        cases += [pricing + ["--gamble", gamble]]
        cases += [pricing + ["--gamble", gamble, "--format", "table"]]
    cases += [["convert-odds", "euro2016_wide.csv"]]
    cases = [(argv, True) for argv in cases]
    # errors the package words: unknown bookmaker, missing file, bad flags,
    # wrong gamble length
    cases += [
        (argv, True)
        for argv in (
            ["check-asl", "three_bookmakers.csv", "--bookmaker", "Nowhere"],
            ["check-asl", "no_such_file.csv"],
            bet2 + ["--max-coupon", "0"],
            bet2 + ["--max-coupon", "1e9"],
            bet2 + ["--max-coupon", "1/0"],
            pricing + ["--gamble", "1,2"],
            pricing + ["--gamble", "1,2,0.5"],
            ["find-coupon-arbitrage", "three_bookmakers.csv", "--bookmaker", "Nowhere"],
        )
    ]
    # errors argparse words: exit code and empty stdout only
    cases += [
        (argv, False)
        for argv in (
            [],
            ["no-such-command"],
            ["check-asl"],
            ["find-coupon-arbitrage", "euro2016.csv"],
            ["natural-extension", "three_bookmakers.csv", "--bookmaker", "Forest"],
            ["check-asl", "euro2016.csv", "--format", "xml"],
            ["check-asl", "euro2016.csv", "--bogus"],
        )
    ]
    return cases


def demo_scripts() -> list[str]:
    return sorted(
        path.relative_to(ROOT).as_posix() for path in (ROOT / "demos").glob("*.py")
    )


def record() -> dict:
    return {
        "cli": [cli_entry(argv, pin) for argv, pin in cli_cases()],
        "demos": [
            {"script": script, "stdout": digest(run_demo(script))}
            for script in demo_scripts()
        ],
    }


def main(argv: list[str]) -> int:
    if DIGESTS.exists() and "--overwrite" not in argv:
        print(
            f"{DIGESTS.name} exists; pass --overwrite to re-record it",
            file=sys.stderr,
        )
        return 1
    # one case a line, so a re-record diffs case by case
    sections = [
        f' "{key}": [\n  ' + ",\n  ".join(map(json.dumps, entries)) + "\n ]"
        for key, entries in record().items()
    ]
    DIGESTS.write_text("{\n" + ",\n".join(sections) + "\n}\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
