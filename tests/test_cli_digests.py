"""Every pinned CLI report and demo output is byte-identical to its record.

The digests live in ``cli_digests.json``; ``record_cli_digests.py`` says
how they were taken and how to re-record them.
"""

import json

import pytest

from record_cli_digests import (
    DIGESTS,
    demo_scripts,
    digest,
    main,
    run_cli,
    run_demo,
)

RECORD = json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry", RECORD["cli"], ids=lambda entry: " ".join(entry["argv"]) or "(none)"
)
def test_cli_output_matches_its_digest(entry):
    code, out, err = run_cli(entry["argv"])
    assert code == entry["exit"], err
    assert digest(out) == entry["stdout"], out[:2000]
    if entry["stderr"] is not None:
        assert digest(err) == entry["stderr"], err


@pytest.mark.parametrize(
    "entry", RECORD["demos"], ids=lambda entry: entry["script"]
)
def test_demo_output_matches_its_digest(entry):
    assert digest(run_demo(entry["script"])) == entry["stdout"]


def test_the_record_covers_every_demo_and_every_euro_bookmaker(euro_market):
    assert [entry["script"] for entry in RECORD["demos"]] == demo_scripts()
    scanned = {
        entry["argv"][3]
        for entry in RECORD["cli"]
        if entry["argv"][:3]
        == ["find-coupon-arbitrage", "euro2016.csv", "--bookmaker"]
    }
    assert scanned >= set(euro_market.bookmakers)


def test_recording_refuses_to_overwrite_without_the_flag(capsys):
    before = DIGESTS.read_bytes()
    assert main([]) == 1
    assert "--overwrite" in capsys.readouterr().err
    assert DIGESTS.read_bytes() == before
