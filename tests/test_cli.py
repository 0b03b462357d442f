import json

import pytest

from dutchbook import CertificateError
from dutchbook.cli import main


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
        assert len(report["excluded_pairs"]) == 4
        assert report["rules"]["max_coupon_value"] == "9/2"

    @pytest.mark.parametrize("cap", ["1/0", "abc", "0", "2/"])
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
