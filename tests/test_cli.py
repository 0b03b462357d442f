import csv
import json
import sys
from io import StringIO

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dutchbook import CertificateError
from dutchbook.cli import main
from dutchbook.io import read_fixture

# values outside the flags' 'a/b'-or-integer grammar: exponents, decimals,
# a plus sign, digit grouping, another script's digits and no digits at all
BAD_NUMBERS = ["1/0", "abc", "2/", "1e9", "0.5", "+2", "1_0", "\u0663"]
BET2_SCAN = ["find-coupon-arbitrage", "euro2016.csv", "--bookmaker", "Bet2"]
FOREST_PRICING = ["natural-extension", "three_bookmakers.csv", "--bookmaker", "Forest"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCheckASL:
    def test_euro_market_verdict(self, capsys):
        report = run_json(capsys, "check-asl", "euro2016.csv")
        assert report["scope"] == "market"
        assert report["avoids_sure_loss"] is True
        assert report["total_decimal"] == "1.0349"
        assert report["max_odds"]["France"] == "10/3"
        assert len(report["witness"]) == 24

    def test_three_bookmaker_market(self, capsys):
        report = run_json(capsys, "check-asl", "three_bookmakers.csv")
        assert report["avoids_sure_loss"] is True
        assert report["total_decimal"] == "1.0345"

    def test_single_bookmaker_scope(self, capsys):
        report = run_json(
            capsys, "check-asl", "three_bookmakers.csv", "--bookmaker", "Forest"
        )
        assert report["scope"] == "bookmaker"
        assert report["total"] == "137/126"
        assert report["upper_pmf"] == {"W": "4/7", "D": "5/18", "L": "5/21"}

    def test_empty_file_is_a_parse_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "check-asl", str(empty))
        assert code == 1
        assert "error" in err

    def test_unknown_bookmaker(self, capsys):
        code, _, err = run(
            capsys, "check-asl", "three_bookmakers.csv", "--bookmaker", "Nowhere"
        )
        assert code == 1
        assert "Nowhere" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check-asl", "no_such_file.csv")
        assert code == 1
        assert "no_such_file.csv" in err

    def test_directory_as_file_names_the_path(self, capsys, tmp_path):
        code, out, err = run(capsys, "check-asl", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert str(tmp_path) in err

    @pytest.mark.parametrize(
        "command, fixture",
        [("check-asl", "euro2016.csv"), ("convert-odds", "euro2016_wide.csv")],
    )
    def test_byte_order_mark_reads_as_the_plain_file(
        self, capsys, tmp_path, command, fixture
    ):
        text = read_fixture(fixture).encode("utf-8")
        target = tmp_path / "odds.csv"
        reports = []
        for data in (text, b"\xef\xbb\xbf" + text):
            target.write_bytes(data)
            code, out, err = run(capsys, command, str(target))
            assert code == 0, err
            reports.append(out)
        assert reports[0] == reports[1]

    def test_bytes_that_are_not_utf8_name_the_file_and_line(
        self, capsys, tmp_path
    ):
        target = tmp_path / "odds.csv"
        target.write_bytes(b"outcome,bookmaker,odds\r\nA,B,1/2\r\nB,B,1/\xff2\r\n")
        code, out, err = run(capsys, "check-asl", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert str(target) in err
        assert "line 3" in err

    def test_table_format(self, capsys):
        code, out, _ = run(
            capsys,
            "check-asl",
            "three_bookmakers.csv",
            "--bookmaker",
            "Forest",
            "--format",
            "table",
        )
        assert code == 0
        assert "avoids sure loss: yes" in out
        assert "137/126" in out


class TestFindCouponArbitrage:
    def test_euro_full_scan(self, capsys):
        report = run_json(
            capsys,
            "find-coupon-arbitrage",
            "euro2016.csv",
            "--bookmaker",
            "Bet2",
            "--all",
        )
        assert report["pair_count"] == 552
        assert len(report["evaluations"]) == 552
        assert report["exploitable_count"] == 4
        negatives = [e for e in report["evaluations"] if e["exploitable"]]
        assert {(e["first"], e["coupon"]) for e in negatives} == {
            ("France", "Spain"),
            ("France", "Germany"),
            ("Germany", "France"),
            ("Germany", "Spain"),
        }
        strategy = report["strategy"]
        assert (strategy["first"], strategy["coupon"]) == ("France", "Germany")
        assert strategy["certificate"]["verified"] is True

    def test_forest_best_report(self, capsys):
        report = run_json(
            capsys,
            "find-coupon-arbitrage",
            "three_bookmakers.csv",
            "--bookmaker",
            "Forest",
        )
        assert "evaluations" not in report
        strategy = report["strategy"]
        assert (strategy["first"], strategy["coupon"]) == ("D", "L")
        assert strategy["guaranteed_gain"] == "47/21"
        assert strategy["stakes"] == {"W": "18/7", "D": "0/1", "L": "2/21"}
        assert strategy["certificate"]["dual"] == {
            "W": "4/7",
            "D": "4/21",
            "L": "5/21",
        }

    def test_no_exploitable_coupon(self, capsys, tmp_path):
        odds = tmp_path / "short.csv"
        odds.write_text(
            "outcome,bookmaker,odds\nA,B,1/2\nB,B,1/2\n", encoding="utf-8"
        )
        report = run_json(
            capsys, "find-coupon-arbitrage", str(odds), "--bookmaker", "B"
        )
        assert report["strategy"] is None
        assert report["message"] == "no exploitable coupon"

    def test_base_sure_loss_exits_2(self, capsys, tmp_path):
        odds = tmp_path / "loose.csv"
        odds.write_text(
            "outcome,bookmaker,odds\nA,B,2/1\nB,B,2/1\n", encoding="utf-8"
        )
        code, _, err = run(
            capsys, "find-coupon-arbitrage", str(odds), "--bookmaker", "B"
        )
        assert code == 2
        assert "sure loss" in err

    def test_coupon_cap_excludes_pairs(self, capsys):
        report = run_json(
            capsys,
            "find-coupon-arbitrage",
            "three_bookmakers.csv",
            "--bookmaker",
            "Forest",
            "--max-coupon",
            "9/2",
        )
        assert report["pair_count"] == 2
        # D and L both stake 5 > 9/2: every pair they open is excluded, in
        # index order
        reason = "first stake 5 exceeds coupon cap 9/2"
        assert report["excluded_pairs"] == [
            {"first": first, "coupon": coupon, "reason": reason}
            for first, coupon in [("D", "W"), ("D", "L"), ("L", "W"), ("L", "D")]
        ]
        assert report["rules"]["max_coupon_value"] == "9/2"

    @pytest.mark.parametrize("cap", [*BAD_NUMBERS, "0"])
    def test_bad_coupon_cap_names_the_flag(self, capsys, cap):
        code, out, err = run(
            capsys,
            "find-coupon-arbitrage",
            "euro2016.csv",
            "--bookmaker",
            "Bet2",
            "--max-coupon",
            cap,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --max-coupon ")
        assert repr(cap) in err

    def test_table_format_lists_stakes(self, capsys):
        code, out, _ = run(
            capsys,
            "find-coupon-arbitrage",
            "three_bookmakers.csv",
            "--bookmaker",
            "Forest",
            "--format",
            "table",
        )
        assert code == 0
        assert "guaranteed gain: 47/21" in out
        assert "certificate: verified" in out

    def test_certificate_failure_exits_3(self, capsys, monkeypatch):
        import dutchbook.cli as cli_module

        def explode(table, ffg):
            raise CertificateError("sentinel")

        monkeypatch.setattr(cli_module, "strategy_for_coupon", explode)
        code, _, err = run(
            capsys,
            "find-coupon-arbitrage",
            "three_bookmakers.csv",
            "--bookmaker",
            "Forest",
        )
        assert code == 3
        assert "sentinel" in err


class TestNaturalExtension:
    def test_forest_coupon_gamble(self, capsys):
        report = run_json(
            capsys,
            "natural-extension",
            "three_bookmakers.csv",
            "--bookmaker",
            "Forest",
            "--gamble",
            "5,-13,-11",
        )
        assert report["upper"] == "-47/21"
        assert report["upper_decimal"] == "-2.2381"
        assert report["decomposition"]["base"] == "-13/1"
        assert report["decomposition"]["levels"] == [
            {"weight": "2/1", "members": ["W", "L"]},
            {"weight": "16/1", "members": ["W"]},
        ]

    def test_constant_gamble(self, capsys):
        report = run_json(
            capsys,
            "natural-extension",
            "three_bookmakers.csv",
            "--bookmaker",
            "Forest",
            "--gamble",
            "2,2,2",
        )
        assert report["upper"] == "2/1"
        assert report["lower"] == "2/1"

    def test_indicator_bounds(self, capsys):
        report = run_json(
            capsys,
            "natural-extension",
            "three_bookmakers.csv",
            "--bookmaker",
            "Forest",
            "--gamble",
            "1,0,0",
        )
        assert report["upper"] == "4/7"
        assert report["lower"] == "61/126"

    def test_length_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            "natural-extension",
            "three_bookmakers.csv",
            "--bookmaker",
            "Forest",
            "--gamble",
            "1,2",
        )
        assert code == 1
        assert "3 outcomes" in err

    @pytest.mark.parametrize("value", BAD_NUMBERS)
    def test_bad_gamble_value_names_the_flag(self, capsys, value):
        code, out, err = run(
            capsys,
            "natural-extension",
            "three_bookmakers.csv",
            "--bookmaker",
            "Forest",
            "--gamble",
            f"1,{value},-2",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --gamble ")
        assert repr(value) in err

    def test_sure_loss_base_exits_2(self, capsys, tmp_path):
        odds = tmp_path / "loose.csv"
        odds.write_text(
            "outcome,bookmaker,odds\nA,B,2/1\nB,B,2/1\n", encoding="utf-8"
        )
        code, _, err = run(
            capsys,
            "natural-extension",
            str(odds),
            "--bookmaker",
            "B",
            "--gamble",
            "1,0",
        )
        assert code == 2


class TestConvertOdds:
    def test_wide_converts_to_long(self, capsys):
        code, out, _ = run(capsys, "convert-odds", "euro2016_wide.csv")
        assert code == 0
        assert out.splitlines()[0] == "outcome,bookmaker,odds"
        assert "France,Bet17,10/3" in out

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "long.csv"
        code, out, _ = run(
            capsys, "convert-odds", "euro2016_wide.csv", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("outcome,bookmaker,odds")

    def test_long_input_rejected(self, capsys):
        code, _, err = run(capsys, "convert-odds", "three_bookmakers.csv")
        assert code == 1

    @pytest.mark.parametrize("header", ["outcome,,B", "outcome,B, "])
    def test_empty_bookmaker_header_cell_rejected(self, capsys, tmp_path, header):
        sheet = tmp_path / "wide.csv"
        sheet.write_text(f"{header}\nW,1,2\nL,2,1\n", encoding="utf-8")
        code, out, err = run(capsys, "convert-odds", str(sheet))
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 1")


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_bad_flag_value(self, capsys):
        code, _, err = run(
            capsys, "check-asl", "three_bookmakers.csv", "--format", "yaml"
        )
        assert code == 1

    def test_out_flag_writes_report(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "check-asl", "three_bookmakers.csv", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["avoids_sure_loss"]

    def test_out_into_a_missing_directory_names_the_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(
            capsys, "check-asl", "three_bookmakers.csv", "--out", str(target)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert str(target) in err

    @pytest.mark.parametrize(
        "where, argv",
        [
            ("line 2", ["check-asl", "{path}"]),
            ("line 3", ["convert-odds", "{wide}"]),
            ("--max-coupon", [*BET2_SCAN, "--max-coupon", "1/{digits}"]),
            ("--gamble", [*FOREST_PRICING, "--gamble", "0,-{digits},1/2"]),
        ],
    )
    def test_a_number_too_long_for_int_is_named_not_echoed(
        self, capsys, tmp_path, where, argv
    ):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int() reads any number of digits here")
        digits = "7" * (limit + 1)
        path, wide = tmp_path / "long.csv", tmp_path / "wide.csv"
        path.write_text(f"outcome,bookmaker,odds\nA,B,{digits}/2\nC,B,1\n")
        wide.write_text(f"outcome,B\nA,1\nC,{digits}\n")
        argv = [a.format(path=path, wide=wide, digits=digits) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {where}")
        assert "too long" in err
        assert "sys." not in err
        assert len(err) < 150


ODD_LABELS = ['"', "#x", " ", ""]
GOOD_ODDS = ["2/1", "1/2", "5/4", "1/1", "3", "0", "11/10"]
BAD_ODDS = ["1/0", "-1", "1e9", "x", ""]
GOOD_NUMBERS = ["3", "9/2", "-47/21", "0", "-1"]
COMMANDS = ["check-asl", "find-coupon-arbitrage", "natural-extension", "convert-odds"]

# Hypothesis leans towards the first entries of a sampled list
rarely = st.sampled_from([False] * 5 + [True])


def _csv_line(row):
    out = StringIO()
    csv.writer(out, lineterminator="").writerow(row)
    return out.getvalue()


@st.composite
def malformed_books(draw, wide):
    """Bytes of a long (or, if ``wide``, a wide) three-outcome odds sheet
    over bookmakers B and C, often broken: the other layout, another
    outcome count, bad odds or odds of up to 6,000 digits, commas and
    quotes in labels (written raw or through a CSV writer), a missing row,
    a BOM, stray bytes, and CR, LF or CRLF line ends."""
    good = st.sampled_from(GOOD_ODDS)
    long_odds = st.integers(1, 6000).map(lambda n: "9" * n)
    odds = st.one_of(good, good, good, st.sampled_from(BAD_ODDS), long_odds)
    label = st.sampled_from(["W", "D", "L", "a,b", 'say "hi"'])
    if draw(rarely):
        label = st.sampled_from(ODD_LABELS) | st.text(max_size=4)
    size = draw(st.integers(1, 4)) if draw(rarely) else 3
    labels = draw(st.lists(label, min_size=size, max_size=size, unique=True))
    books = draw(st.sampled_from([["B"], ["B", "C"], ["B", "B"], ["B", ""]]))
    if wide == draw(rarely):
        rows = [["outcome", "bookmaker", "odds"]]
        rows += [[label, book, draw(odds)] for label in labels for book in books]
    else:
        rows = [["outcome", *books]]
        rows += [[label, *(draw(odds) for _ in books)] for label in labels]
    if draw(rarely):
        del rows[draw(st.integers(0, len(rows) - 1))]
    join = draw(st.sampled_from([_csv_line, ",".join]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(join(row) for row in rows) + end
    prefix = draw(st.sampled_from([b"\xef\xbb\xbf", b"\xff"])) if draw(rarely) else b""
    return prefix + text.encode("utf-8")


@st.composite
def command_lines(draw, command, path, out_dir):
    """``command`` on ``path`` with good and bad flag values, writing to
    standard output, to a file, to a directory or into a missing one."""
    bad = st.sampled_from([*BAD_NUMBERS, "1e400000", "9" * 5000])
    number = st.sampled_from(GOOD_NUMBERS) | bad
    argv = [command, path]
    if command != "convert-odds":
        argv += ["--bookmaker", draw(st.sampled_from(["B", "C", "Z"]))]
        argv += draw(st.sampled_from([[], ["--format", "table"]]))
    if command == "check-asl" and draw(st.booleans()):
        del argv[2:4]  # the whole market
    elif command == "find-coupon-arbitrage":
        argv += draw(st.sampled_from([[], ["--all"]]))
        if draw(st.booleans()):
            argv.append(f"--max-coupon={draw(number)}")
    elif command == "natural-extension":
        size = draw(st.integers(1, 4)) if draw(rarely) else 3
        values = draw(st.lists(number, min_size=size, max_size=size))
        argv.append("--gamble=" + ",".join(values))
    target = draw(st.sampled_from([None, out_dir / "r", out_dir, out_dir / "no" / "r"]))
    if target is not None:
        argv += ["--out", str(target)]
    return argv


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_malformed_input_exits_cleanly(capsys, tmp_path, data):
    command = data.draw(st.sampled_from(COMMANDS))
    path = tmp_path / "book.csv"
    path.write_bytes(data.draw(malformed_books(command == "convert-odds")))
    code = main(data.draw(command_lines(command, str(path), tmp_path)))
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code:
        assert "error:" in err
