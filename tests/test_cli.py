import json
import time
from math import comb

import pytest

from wpcalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicInvocations:
    def test_hom_kronecker_pair(self, capsys):
        code, out, _ = run(
            capsys, "hom", "--weights", "2,2,2,2", "O(-c+x1+x2+x3+x4)", "O(0)"
        )
        assert code == 0
        assert out.strip() == "hom=0 ext1=2"

    def test_tube_enumerate_count(self, capsys):
        code, out, _ = run(capsys, "tube", "enumerate", "3", "--count")
        assert code == 0
        assert out.strip() == "20"

    def test_count_big(self, capsys):
        code, out, _ = run(capsys, "count-big", "--weights", "2,3")
        assert code == 0
        assert out.strip() == "30"


class TestJson:
    def test_hom_json_matches_text(self, capsys):
        _, text_out, _ = run(
            capsys, "hom", "--weights", "2,2,2,2", "O(-c+x1+x2+x3+x4)", "O(0)"
        )
        code, json_out, _ = run(
            capsys, "hom", "--weights", "2,2,2,2", "O(-c+x1+x2+x3+x4)", "O(0)", "--json"
        )
        assert code == 0
        doc = json.loads(json_out)
        assert doc == {"hom": 0, "ext1": 2}
        assert f"hom={doc['hom']} ext1={doc['ext1']}" == text_out.strip()

    def test_enumerate_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "tube", "enumerate", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 6
        assert len(doc["subcategories"]) == 6
        for entry in doc["subcategories"]:
            assert set(entry) == {
                "signature",
                "relative_simples",
                "has_cycle_factor",
                "line_lengths",
            }
        # canonical ordering is stable
        _, out2, _ = run(capsys, "tube", "enumerate", "2", "--json")
        assert out == out2

    def test_count_modes_agree(self, capsys):
        _, text_out, _ = run(capsys, "line", "enumerate", "3", "--count")
        _, json_out, _ = run(capsys, "line", "enumerate", "3", "--count", "--json")
        assert json.loads(json_out)["count"] == int(text_out.strip()) == 14

    def test_error_document(self, capsys):
        code, out, _ = run(capsys, "hom", "--weights", "2", "O(bogus)", "O(0)", "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["code"] == "ParseError"
        assert "bogus" in doc["error"]["message"]


class TestCommands:
    def test_euler(self, capsys):
        code, out, _ = run(capsys, "euler", "--weights", "2,3", "O(0)", "O(c)")
        assert code == 0
        assert out.strip() == "2"

    def test_tau(self, capsys):
        code, out, _ = run(capsys, "tau", "--weights", "3,3,3,3", "S(1,1)")
        assert code == 0
        assert out.strip() == "S(1,0)"

    def test_twist(self, capsys):
        code, out, _ = run(capsys, "twist", "sigma", "x1", "O(0)", "--weights", "2,3")
        assert code == 0
        assert out.strip() == "O(x1)"
        code, out, _ = run(capsys, "twist", "c", "x1", "S(2,1)[2]", "--weights", "2,3")
        assert out.strip() == "S(2,1)[2]"

    def test_top(self, capsys):
        code, out, _ = run(capsys, "top", "x1", "2x1", "1", "--weights", "3,3")
        assert code == 0
        assert out.strip() == "S(1,2)"

    def test_extquiver_text_format(self, capsys):
        code, out, _ = run(
            capsys,
            "extquiver",
            "--weights",
            "2,2,2,2",
            "O(-c+x1+x2+x3+x4)",
            "O(0)",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("vertices: ")
        assert lines[1:] == ["arrow: O(0) O(-c+x1+x2+x3+x4)"] * 2

    def test_check(self, capsys):
        code, out, _ = run(capsys, "check", "exceptional", "--weights", "2,3", "O(0)", "O(c)")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(
            capsys, "check", "vertexlike", "--weights", "2,3", "O(0)", "O(c)"
        )
        assert code == 0 and out.strip() == "false"

    def test_perp_serial(self, capsys):
        code, out, _ = run(capsys, "perp", "U(3):arc(0,1)", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ambient"] == "U(3)"
        assert [f["kind"] for f in doc["factors"]] == ["cycle", "line"]
        assert doc["factors"][0]["rank"] == 2

    def test_perp_serial_line_literal(self, capsys):
        code, out, _ = run(capsys, "perp", "A(4):arc(2,3)", "--json")
        assert code == 0
        doc = json.loads(out)
        assert [(f["kind"], f["rank"]) for f in doc["factors"]] == [("line", 2), ("line", 1)]
        assert doc["factors"][0]["simples"] == ["A(4):arc(1,3)", "A(4):arc(4,4)"]

    def test_tube_enumerate_text_listing(self, capsys):
        code, out, _ = run(capsys, "tube", "enumerate", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "U(1): 2 thick subcategories"
        assert lines[1] == "sig=- shape=zero"
        assert lines[2] == "sig=(0,1) shape=cycle+"

    def test_perp_sheaf(self, capsys):
        code, out, _ = run(capsys, "perp", "--weights", "3,3,3,3", "S(1,1)", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["new_weights"] == [2, 3, 3, 3]
        assert doc["line_factor"] == []

    def test_classify(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--weights", "2,2,2,2", "O(0)", "S(1,1)[2]", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "big"
        assert doc["witnesses"] == ["O(0)", "S(1,1)[2]"]

    def test_canonical(self, capsys):
        code, out, _ = run(capsys, "canonical", "--weights", "2,3")
        assert code == 0
        assert out.split() == ["O(0)", "O(x1)", "O(x2)", "O(2x2)", "O(c)"]

    def test_star(self, capsys):
        code, out, _ = run(capsys, "star", "--weights", "3,3,3,3", "--tops", "1,1,1,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["dual_family"] == ["S(1,1)", "S(2,1)", "S(3,1)", "S(4,1)", "O(0)"]
        assert doc["line_bundles"] == ["O(0)", "O(x1)", "O(x2)", "O(x3)", "O(x4)"]

    def test_ordinary_points(self, capsys):
        code, out, _ = run(
            capsys, "hom", "--weights", "2", "--ordinary", "y,z", "O(0)", "T(y)[2]"
        )
        assert code == 0
        assert out.strip() == "hom=2 ext1=0"

    def test_weight_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"weights": [2, 2, 2, 2], "ordinary": ["y"]}))
        code, out, _ = run(
            capsys, "hom", "--config", str(cfg), "O(-c+x1+x2+x3+x4)", "O(0)"
        )
        assert code == 0
        assert out.strip() == "hom=0 ext1=2"
        # explicit flags override the file
        code, out, _ = run(
            capsys, "count-big", "--config", str(cfg), "--weights", "2,3"
        )
        assert out.strip() == "30"
        code, _, err = run(capsys, "hom", "--config", str(tmp_path / "nope.json"), "O(0)", "O(0)")
        assert code == 2 and "ParseError" in err


class TestLongInputs:
    @pytest.mark.parametrize(
        "f, g, expected",
        [
            ("O(0)", "S(2,1)[3000000]", "hom=1000000 ext1=0"),
            ("S(2,1)[3000000]", "O(0)", "hom=0 ext1=1000000"),
        ],
    )
    def test_long_arc_hom(self, capsys, f, g, expected):
        start = time.perf_counter()
        code, out, _ = run(capsys, "hom", "--weights", "2,3", f, g)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert out.strip() == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["--weights", "7200"],
            ["--weights", "3000,3000,3000"],
            ["--weights", "7200", "--json"],
            ["--weights", "50000000"],
        ],
    )
    def test_count_big_too_many_digits_exit_2(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "count-big", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        if "--json" in argv:
            assert json.loads(out)["error"]["code"] == "BoundExceeded"
        else:
            assert out == ""
            assert len(err.strip().splitlines()) == 1 and "BoundExceeded" in err

    def test_count_big_below_digit_limit_is_exact(self, capsys):
        code, out, _ = run(capsys, "count-big", "--weights", "7100")
        assert code == 0
        assert int(out) == comb(14200, 7100) // 2


class TestErrors:
    @pytest.mark.parametrize(
        "document",
        [
            [2, 3],  # not an object
            {"weights": "ab"},  # weights not a list
            {"weights": [2, 2.5]},  # non-integer weight
            {"weights": [2], "ordinary": "y"},  # labels not a list
            {"weights": [2], "ordinary": [["y"]]},  # non-string label
        ],
    )
    def test_malformed_config_exit_2(self, capsys, tmp_path, document):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(document))
        code, out, err = run(capsys, "hom", "--config", str(cfg), "O(0)", "O(0)")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "ParseError" in err

    def test_input_error_exit_2(self, capsys):
        code, out, err = run(capsys, "tube", "enumerate", "9")
        assert code == 2
        assert "BoundExceeded" in err
        assert out == ""

    def test_unknown_point_exit_2(self, capsys):
        code, _, err = run(capsys, "twist", "sigma", "x5", "O(0)", "--weights", "2")
        assert code == 2
        assert "UnknownPoint" in err

    def test_no_traceback_in_text_mode(self, capsys):
        code, out, err = run(capsys, "hom", "--weights", "2", "O(xx)", "O(0)")
        assert code == 2
        assert "Traceback" not in err and "Traceback" not in out
