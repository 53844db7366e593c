import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpcalc
from wpcalc import cli, serial, wpl
from wpcalc.cli import MAX_OUTPUT_OBJECTS, main
from wpcalc.errors import NonNegativityViolation

ONES = "1" * 5000  # past the default int/str conversion limit of 4300 digits
NINES = "9" * 4300  # convertible, but one addition away from the limit


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

    @pytest.mark.parametrize(
        "weights, objects, once, want",
        [
            ("2,3", ["O(0)", "O(0)"], ["O(0)"], "quiver_like\nvertices: O(0)"),
            # equal once normalized: S(1,2) is S(1,0) at weight 2
            ("2", ["S(1,0)", "S(1,2)"], ["S(1,0)"], "quiver_like\nvertices: S(1,0)"),
            (
                "2",
                ["S(1,1)", "O(0)", "S(1,3)", "O(x1-x1)"],
                ["S(1,1)", "O(0)"],
                "quiver_like\nvertices: S(1,1) O(0)\narrow: O(0) S(1,1)",
            ),
        ],
        ids=["literal", "normalized", "mixed"],
    )
    def test_classify_repeats_generate_nothing_new(self, capsys, weights, objects, once, want):
        # a repeated class, literally or after normalization, leaves the
        # generated subcategory and so the answer as without the repeat
        code, out, _ = run(capsys, "classify", "--weights", weights, *objects)
        assert (code, out.strip()) == (0, want)
        assert run(capsys, "classify", "--weights", weights, *once)[1] == out
        code, out, _ = run(capsys, "classify", "--weights", weights, *objects, "--json")
        assert (code, out) == (0, run(capsys, "classify", "--weights", weights, *once, "--json")[1])

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

    def test_padded_ordinary_labels(self, capsys, tmp_path):
        # T(...) strips its label, so a declared label is stripped too
        code, out, _ = run(capsys, "hom", "--ordinary", "y, z", "T(z)", "T(z)")
        assert (code, out.strip()) == (0, "hom=1 ext1=1")
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"ordinary": [" z"]}))
        code, out, _ = run(capsys, "hom", "--config", str(cfg), "T(z)", "T(z)")
        assert (code, out.strip()) == (0, "hom=1 ext1=1")
        # a blank entry is dropped like an empty one
        code, out, _ = run(capsys, "hom", "--ordinary", "y, ,z", "T(z)", "T(y)")
        assert (code, out.strip()) == (0, "hom=0 ext1=0")
        # padding does not declare a second point
        code, out, err = run(capsys, "hom", "--ordinary", "y,y ", "T(y)", "T(y)")
        assert code == 2 and not out and "ParseError" in err

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


def test_cli_does_not_load_the_matrix_oracle():
    """``wpc`` runs closed forms only: importing the CLI and running
    commands loads neither ``nilrep``/``linalg`` nor ``fractions``."""
    script = (
        "import sys, wpcalc.cli as c\n"
        "c.main(['tube', 'enumerate', '3', '--count'])\n"
        "c.main(['hom', '--weights', '2,3', 'O(0)', 'S(2,1)[3]'])\n"
        "print(sorted({'wpcalc.nilrep', 'wpcalc.linalg', 'fractions'} & set(sys.modules)))"
    )
    src = str(Path(wpcalc.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split("\n")[-2] == "[]"


def test_plain_queries_load_no_json_dataclasses_or_quiver():
    """``hom``, ``tau`` and ``--count`` start without ``dataclasses``,
    ``json`` or ``wpcalc.quiver``; ``--json`` loads ``json`` on demand."""
    script = (
        "import sys, wpcalc.cli as c\n"
        "c.main(['hom', '--weights', '2,3', 'O(0)', 'O(c)'])\n"
        "c.main(['tau', '--weights', '2,3', 'S(2,1)[2]'])\n"
        "c.main(['tube', 'enumerate', '3', '--count'])\n"
        "print(sorted({'dataclasses', 'json', 'wpcalc.quiver'} & set(sys.modules)))\n"
        "c.main(['hom', '--json', '--weights', '2,3', 'O(0)', 'O(c)'])"
    )
    src = str(Path(wpcalc.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[:4] == ["hom=2 ext1=0", "S(2,0)[2]", "20", "[]"]
    assert len(lines) == 5 and json.loads(lines[4]) == {"hom": 2, "ext1": 0}


def engines_loaded(argvs):
    """Exit codes of ``main`` on each argv, run in one fresh process, and
    the engine modules that process loaded."""
    engines = ["wpcalc.lgroup", "wpcalc.serial", "wpcalc.wpl"]
    script = (
        "import contextlib, io, sys, wpcalc.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [c.main(argv) for argv in {argvs!r}]\n"
        f"print(codes, sorted(set({engines!r}) & set(sys.modules)))"
    )
    src = str(Path(wpcalc.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


def test_sheaf_commands_load_no_serial():
    """The sheaf commands run on ``wpl`` and ``lgroup`` alone.  ``perp`` on
    a sheaf loads ``serial`` only to cut an exceptional arc's tube, so its
    refusals load none."""
    argvs = [
        ["hom", "--weights", "2,3", "O(0)", "S(2,1)[2]"],
        ["hom", "--json", "--weights", "2,3", "S(1,0)", "S(1,1)"],
        ["euler", "--weights", "2,3", "--ordinary", "y", "O(c)", "T(y)[2]"],
        ["tau", "--weights", "2,3", "S(2,1)[2]"],
        ["twist", "sigma", "x1", "O(0)", "--weights", "2,3"],
        ["top", "x1", "0", "2", "--weights", "2,3"],
        ["check", "exceptional", "O(0)", "O(c)", "--weights", "2,3"],
        ["classify", "--weights", "2,3", "S(1,0)", "O(x1)"],
        ["classify", "--weights", "2,3", "O(0)", "S(2,0)[3]"],
        ["canonical", "--weights", "2,3"],
        ["star", "--weights", "2,3", "--tops", "1,2"],
        ["count-big", "--weights", "2,3"],
        ["perp", "--weights", "2,3", "S(2,0)[3]"],
        ["perp", "--weights", "2,3", "O(0)"],
    ]
    want_codes = [0] * 12 + [2, 2]
    assert engines_loaded(argvs) == f"{want_codes} ['wpcalc.lgroup', 'wpcalc.wpl']"


def test_serial_commands_load_no_sheaf_model():
    """``tube``/``line enumerate`` and ``perp`` on a serial arc run on
    ``serial`` alone."""
    argvs = [
        ["tube", "enumerate", "3"],
        ["tube", "enumerate", "4", "--json"],
        ["tube", "enumerate", "6", "--count"],
        ["line", "enumerate", "3"],
        ["line", "enumerate", "8", "--count", "--json"],
        ["perp", "U(3):arc(0,1)"],
        ["perp", "--json", "A(6):arc(3,4)"],
    ]
    assert engines_loaded(argvs) == f"{[0] * 7} ['wpcalc.serial']"


@pytest.mark.parametrize(
    "argv, first_line, code",
    [
        # the listing is far longer than a pipe holds, so the writer is
        # still writing when the pipe closes
        (["line", "enumerate", "8"], b"A(8): 4862 thick subcategories\n", 0),
        # a bad literal is still an input error when its JSON error
        # document finds the pipe closed
        (["hom", "--json", "--weights", "2", "Q", "O(0)"], None, 2),
    ],
    ids=["listing", "error document"],
)
def test_closed_pipe_ends_quietly(argv, first_line, code):
    """A reader that closes the pipe early ends the output, not the input:
    the exit code is the command's, with nothing on stderr rather than a
    BrokenPipeError traceback."""
    src = str(Path(wpcalc.__file__).parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "wpcalc.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if first_line is not None:
        assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (code, b"")


CONFIG_DOC = b'{"weights": [2, 3]}'


@pytest.mark.parametrize("kind", ["fifo", "directory", "oversize"])
def test_config_must_be_a_small_regular_file(tmp_path, kind):
    """A config path is refused before it is opened unless it names a
    regular file of at most 1 MiB: a FIFO would block the read forever
    and a device such as /dev/zero would read without end."""
    path = tmp_path / "model.json"
    if kind == "fifo":
        os.mkfifo(path)
    elif kind == "directory":
        path.mkdir()
    else:  # valid JSON, one byte over the bound
        path.write_bytes(CONFIG_DOC + b" " * ((1 << 20) + 1 - len(CONFIG_DOC)))
    src = str(Path(wpcalc.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "wpcalc.cli", "hom", "--config", str(path), "O(0)", "O(0)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"error [ParseError]: weight config {str(path)!r} is not a regular file of at most 1 MiB"
    ]


def test_config_of_exactly_one_mib_is_read(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(CONFIG_DOC + b" " * ((1 << 20) - len(CONFIG_DOC)))
    assert run(capsys, "count-big", "--config", str(path)) == (0, "30\n", "")


def test_digit_bounds_hold_without_an_interpreter_limit():
    """With the interpreter's int/str digit limit switched off, as on
    Python 3.10, long numbers are refused at CPython's default of 4,300."""
    src = str(Path(wpcalc.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "0"}
    for argv in (
        ["count-big", "--weights", "50000000"],
        ["hom", "--weights", "2,3", "O(0)", f"S(2,1)[{ONES}]"],
    ):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "wpcalc.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.perf_counter() - start < 5, argv
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert len(proc.stderr.strip().splitlines()) == 1, argv


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["hom", "--weights", "2,3", "O(0)", f"S(2,1)[{ONES}]"],
            ["hom", "--weights", "2,3", f"O({ONES}c)", "O(0)"],
            ["hom", "--weights", "2,3", f"O({ONES}c)", "O(0)", "--json"],
            ["perp", f"U({ONES}):arc(0,1)"],
            ["perp", "--weights", "2,3", f"S({ONES},1)"],
            ["twist", "sigma", f"x{ONES}", "O(0)", "--weights", "2"],
            ["hom", "--config", "{config}", "O(0)", "O(0)"],
            ["hom", "--weights", "2", "O(0)", f"O({NINES}c)"],
            ["tau", "--weights", "2", f"O(-{NINES}c)"],
            ["twist", "c", "x1", f"O({NINES}c)", "--weights", "2"],
            ["count-big", "--weights", "9" * 400],
            ["count-big", "--weights", "9" * 400, "--json"],
        ],
    )
    def test_integer_past_digit_limit_exit_2(self, capsys, tmp_path, argv):
        cfg = tmp_path / "model.json"
        cfg.write_text('{"weights": [%s]}' % ONES)
        code, out, err = run(capsys, *(str(cfg) if a == "{config}" else a for a in argv))
        assert code == 2
        if "--json" in argv:
            assert json.loads(out)["error"]["code"] in ("ParseError", "BoundExceeded")
        else:
            assert out == ""
            assert len(err.strip().splitlines()) == 1
            assert "ParseError" in err or "BoundExceeded" in err


class TestOutputBound:
    """Commands whose output is linear in a rank or weight stop at MAX_OUTPUT_OBJECTS."""

    @pytest.mark.parametrize(
        "at_bound, above",
        [
            (["perp", "U(100001):arc(0,1)"], ["perp", "U(100002):arc(0,1)"]),
            (["perp", "A(100001):arc(2,3)"], ["perp", "A(100002):arc(2,3)"]),
            (
                ["perp", "--weights", "100001", "S(1,0)"],
                ["perp", "--weights", "100002", "S(1,0)"],
            ),
            (["canonical", "--weights", "99999"], ["canonical", "--weights", "100000"]),
            (
                ["star", "--weights", "50000", "--tops", "49999"],
                ["star", "--weights", "50001", "--tops", "50000"],
            ),
        ],
        ids=["perp-tube", "perp-line", "perp-sheaf", "canonical", "star"],
    )
    def test_at_and_just_above_the_bound(self, capsys, at_bound, above):
        code, out, _ = run(capsys, *at_bound, "--json")
        assert code == 0
        doc = json.loads(out)
        objects = [a for f in doc.get("factors", []) for a in f["simples"]]
        for key in ("line_factor", "tube_factor", "objects", "line_bundles", "dual_family"):
            objects += doc.get(key, [])
        assert len(objects) == MAX_OUTPUT_OBJECTS
        start = time.perf_counter()
        code, out, err = run(capsys, *above)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "BoundExceeded" in err

    @staticmethod
    def count_index_builds(monkeypatch):
        """A list that gets one entry per ``_ArcIndex`` built from now on."""
        built = []
        real_index = serial._ArcIndex

        def counted(cat):
            built.append(cat)
            return real_index(cat)

        monkeypatch.setattr(serial, "_ArcIndex", counted)
        return built

    def test_enumeration_listing_is_bounded_by_its_count(self, capsys, monkeypatch):
        # U(3) has 20 thick subcategories and A(3) 14; --count lists none.
        # The closed-form count refuses a listing before any index is built
        monkeypatch.setattr(cli, "MAX_OUTPUT_OBJECTS", 10)
        built = self.count_index_builds(monkeypatch)
        for kind in ("tube", "line"):
            code, out, err = run(capsys, kind, "enumerate", "3")
            assert (code, out) == (2, "")
            assert len(err.strip().splitlines()) == 1 and "BoundExceeded" in err
        assert built == []
        assert run(capsys, "tube", "enumerate", "3", "--count") == (0, "20\n", "")
        code, out, _ = run(capsys, "line", "enumerate", "2")  # 5, within the bound
        assert (code, out.splitlines()[0]) == (0, "A(2): 5 thick subcategories")

    def test_enumeration_builds_one_index(self, capsys, monkeypatch):
        # a listing walks the states once, in enumerate_thick; --count
        # prints the closed form and builds no index
        built = self.count_index_builds(monkeypatch)
        for kind in ("tube", "line"):
            for extra in ([], ["--count"], ["--json"], ["--count", "--json"]):
                built.clear()
                assert run(capsys, kind, "enumerate", "3", *extra)[0] == 0
                assert len(built) == (0 if "--count" in extra else 1), (kind, extra)


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

    @pytest.mark.parametrize("label", ["", " "])
    def test_empty_ordinary_label_exit_2(self, capsys, tmp_path, label):
        # the label is stripped first, so a blank one is empty too
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"weights": [2], "ordinary": [label]}))
        code, out, err = run(capsys, "hom", "--config", str(cfg), "O(0)", "O(0)")
        assert (code, out) == (2, "")
        assert err.strip().splitlines() == ["error [ParseError]: empty ordinary label"]

    def test_tops_error_names_the_flag(self, capsys):
        code, out, err = run(capsys, "star", "--weights", "3,3", "--tops", "1,a")
        assert (code, out) == (2, "")
        assert err.strip().splitlines() == ["error [ParseError]: bad --tops value '1,a'"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unnameable_ordinary_label_exit_2(self, capsys, tmp_path, source):
        # no T(...) literal can name a label that contains ')', nor one with
        # a digit run that literals may not hold
        for label, message in [("a)", "ordinary label 'a)'"), ("y" + ONES, "literal has a run of")]:
            if source == "flag":
                model = ["--weights", "2", "--ordinary", label]
            else:
                cfg = tmp_path / "model.json"
                cfg.write_text(json.dumps({"weights": [2], "ordinary": [label]}))
                model = ["--config", str(cfg)]
            code, out, err = run(capsys, "hom", *model, "O(0)", "O(0)")
            assert (code, out) == (2, "")
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error [ParseError]: " + message)

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["count-big", "--weights", "2_3"], "error [ParseError]: bad --weights value '2_3'"),
            (["star", "--weights", "3,3", "--tops", "0_1,1"], "error [ParseError]: bad --tops value '0_1,1'"),
            (["tube", "enumerate", "0_4"], "wpc tube: error: argument rank: invalid int value: '0_4'"),
            (["top", "x1", "0", "1_0", "--weights", "3"], "wpc top: error: argument m: invalid int value: '1_0'"),
        ],
        ids=repr,
    )
    def test_typed_integers_refuse_underscores(self, argv, line):
        # literals refuse "2_3" (O(2_3c) exits 2), where int() alone reads 23
        assert _outcome(main, argv) == (2, "", line + "\n")

    def test_typed_integers_read_as_int_does(self):
        assert _outcome(main, ["count-big", "--weights", " 2, 3"]) == (0, "30\n", "")
        assert _outcome(main, ["tube", "enumerate", " 2", "--count"]) == (0, "6\n", "")

    def test_input_error_exit_2(self, capsys):
        code, out, err = run(capsys, "tube", "enumerate", "9")
        assert code == 2
        assert "BoundExceeded" in err
        assert out == ""

    def test_unknown_point_exit_2(self, capsys):
        code, _, err = run(capsys, "twist", "sigma", "x5", "O(0)", "--weights", "2")
        assert code == 2
        assert "UnknownPoint" in err

    def test_unsigned_or_split_terms_exit_2(self, capsys):
        for literal in ("O(1 2)", "O(x1x2)", "O(cc)", "O(2c3x1)", "O(3*)", "O(*c)", "O(*x1)"):
            code, out, err = run(capsys, "twist", "c", "x1", literal, "--weights", "2,3")
            assert code == 2 and out == ""
            assert len(err.strip().splitlines()) == 1 and "ParseError" in err

    def test_internal_error_exit_1(self, capsys, monkeypatch):
        # the README's contract for a broken invariant: exit 1 with one
        # stderr line, or one JSON error document on stdout under --json
        def broken(*args):
            raise NonNegativityViolation("negative dimension -1")

        monkeypatch.setattr(wpl, "hom_ext", broken)
        argv = ["hom", "--weights", "2,3", "O(0)", "O(c)"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error [NonNegativityViolation]: negative dimension -1"]
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (1, "")
        assert len(out.splitlines()) == 1
        assert json.loads(out) == {
            "error": {"code": "NonNegativityViolation", "message": "negative dimension -1"}
        }

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("outcome", ["answer", "InputError", "InternalError"])
    def test_one_outcome_is_one_emit(self, monkeypatch, outcome, mode):
        # answers and errors reach the one writer once: the document goes to
        # stdout under --json, an error's text to stderr
        calls = []
        monkeypatch.setattr(cli, "_emit", lambda args, *rest: calls.append((args.json, *rest)))
        argv = ["hom", "--weights", "2,3", "O(0)", "O(c)"]
        if outcome == "InputError":
            argv[-1] = "S(3,1)"
        elif outcome == "InternalError":
            def broken(*args):
                raise NonNegativityViolation("negative dimension -1")

            monkeypatch.setattr(wpl, "hom_ext", broken)
        code = main(argv + mode)
        if outcome == "answer":
            want = (0, {"hom": 2, "ext1": 0}, "hom=2 ext1=0")
        else:
            name, message = {
                "InputError": ("ParseError", "bad torsion literal 'S(3,1)': no weighted point x3"),
                "InternalError": ("NonNegativityViolation", "negative dimension -1"),
            }[outcome]
            doc = {"error": {"code": name, "message": message}}
            want = (2 if outcome == "InputError" else 1, doc, f"error [{name}]: {message}", sys.stderr)
        assert [(code, *call[1:]) for call in calls] == [want]
        assert calls[0][0] == bool(mode)

    def test_no_traceback_in_text_mode(self, capsys):
        code, out, err = run(capsys, "hom", "--weights", "2", "O(xx)", "O(0)")
        assert code == 2
        assert "Traceback" not in err and "Traceback" not in out


# -- fuzzing the cli.main boundary ----------------------------------------------

_NUMBER = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from([300, 4298, 4299, 4300, 5000]).flatmap(
        lambda k: st.sampled_from(["1" * k, "9" * k])
    ),
    st.sampled_from(["", "-", "007", "1.5", "1e3", "٣", "10000000"]),
)
_FRAGMENT = st.sampled_from(
    ["", " ", "(", ")", "[", "]", ",", "O(", "S(1", "xx", "c+", "+-", "x", "\x00", "é"]
)
_TERM = st.builds(
    lambda sign, coef, gen: sign + coef + gen,
    st.sampled_from(["", "+", "-"]),
    _NUMBER,
    st.sampled_from(["", "c", "x1", "x2", "*c"]) | _NUMBER.map(lambda n: "x" + n),
)
_ELEMENT = st.lists(_TERM, max_size=3).map("".join) | _FRAGMENT
_SHEAF = st.one_of(
    _ELEMENT.map(lambda e: f"O({e})"),
    st.builds(lambda i, j: f"S({i},{j})", _NUMBER, _NUMBER),
    st.builds(lambda i, j, n: f"S({i},{j})[{n}]", _NUMBER, _NUMBER, _NUMBER),
    st.builds(lambda y, n: f"T({y})[{n}]", st.sampled_from(["y", "z", "x1", ""]), _NUMBER),
    _FRAGMENT,
)
_ARC = st.builds(
    lambda kind, n, a, b: f"{kind}({n}):arc({a},{b})",
    st.sampled_from(["U", "A", "B"]),
    _NUMBER,
    _NUMBER,
    _NUMBER,
)
_POINT = st.sampled_from(["x1", "x2", "x0", "y", "z", ""]) | _NUMBER.map(lambda n: "x" + n)
_JSON_NUMBER = st.sampled_from(
    ["2", "3", "0", "-1", "2.0", "1e400", "NaN", "true", '"2"', "1" * 5000, "9" * 300, "10000000"]
)
_CONFIG = st.one_of(
    st.builds(
        lambda ws, ys: '{"weights": [%s], "ordinary": [%s]}' % (",".join(ws), ",".join(ys)),
        st.lists(_JSON_NUMBER, max_size=3),
        st.lists(st.sampled_from(['"y"', '"x1"', '""', '"3"', "1", "[]"]), max_size=2),
    ),
    st.sampled_from(["", "{", "[]", "null", '{"weights": "2"}', "[" * 100000, "\udcff"]),
)
_POSITIONALS = {
    "hom": st.lists(_SHEAF, min_size=2, max_size=2),
    "euler": st.lists(_SHEAF, min_size=2, max_size=2),
    "tau": st.lists(_SHEAF, min_size=1, max_size=1),
    "twist": st.tuples(st.sampled_from(["sigma", "c", "rho"]), _POINT, _SHEAF).map(list),
    "top": st.tuples(_POINT, _ELEMENT, _NUMBER).map(list),
    "extquiver": st.lists(_SHEAF, min_size=1, max_size=3),
    "check": st.tuples(st.sampled_from(["exceptional", "vertexlike"]), _SHEAF).map(list),
    "perp": st.lists(_ARC | _SHEAF, min_size=1, max_size=1),
    "tube": st.tuples(st.just("enumerate"), st.integers(-1, 7).map(str) | _NUMBER).map(list),
    "line": st.tuples(st.just("enumerate"), st.integers(-1, 7).map(str) | _NUMBER).map(list),
    "count-big": st.just([]),
    "classify": st.lists(_SHEAF, min_size=1, max_size=3),
    "canonical": st.just([]),
    "star": st.lists(_NUMBER.map(lambda n: "--tops=" + n), max_size=1),
}
_MODEL_FREE = ("tube", "line")


@st.composite
def _invocations(draw):
    """(argv, config text or None): a subcommand with drawn flags and literals."""
    command = draw(st.sampled_from(sorted(_POSITIONALS)))
    argv = [command] + draw(_POSITIONALS[command])
    if command not in _MODEL_FREE:
        if draw(st.booleans()):
            argv.append("--weights=" + ",".join(draw(st.lists(_NUMBER, max_size=4))))
        if draw(st.booleans()):
            argv.append("--ordinary=" + draw(st.sampled_from(["y", "y,z", "x1", "y,y", "3", ""])))
    if command in _MODEL_FREE and draw(st.booleans()):
        argv.append("--count")
    if draw(st.booleans()):
        argv.append("--json")
    config = draw(st.none() | _CONFIG) if command not in _MODEL_FREE else None
    return argv, config


class TestFuzz:
    @settings(max_examples=300, deadline=2000, derandomize=True)
    @given(_invocations())
    def test_main_exits_0_or_2_without_traceback(self, invocation):
        argv, config = invocation
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if config is not None:
                path = Path(tmp) / "model.json"
                path.write_bytes(config.encode("utf-8", "surrogateescape"))
                argv = argv + ["--config", str(path)]
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the flags
                    code = exc.code
        assert code in (0, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2 and "--json" not in argv:
            assert out.getvalue() == ""


def _outcome(call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _has_positional(name):
    _, _, _, arguments = cli.COMMANDS[name]
    return any(not names[0].startswith("-") for names, _ in arguments)


PARSER_ERRORS = (
    [[], ["nosuch"], ["hom", "O(0)", "O(0)", "--bogus"], ["tube", "enumerate", "x"]]
    + [[name] for name in cli.COMMANDS if _has_positional(name)]  # missing arguments
)


@pytest.mark.parametrize(
    "argv",
    [["-h"]] + PARSER_ERRORS + [[name, "-h"] for name in cli.COMMANDS],
    ids=" ".join,
)
def test_parser_matches_full_build(argv):
    """``main`` builds only the subparser that ``argv[0]`` names; help and
    argparse errors (stdout, stderr, exit code) are those of the parser
    with every subcommand."""
    full = _outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert full[0] in (0, 2)
    if argv == ["-h"] or argv[1:] == ["-h"]:
        assert full[0] == 0 and full[1]
    assert _outcome(main, argv) == full


@pytest.mark.parametrize(
    "argv",
    PARSER_ERRORS
    + [["hom", "--weights", "2", "O(0)"], ["hom", "O(0)", "O(0)", "--bo\ngus"]]
    + [argv + ["--json"] for argv in PARSER_ERRORS if argv and argv[0] in cli.COMMANDS],
    ids=repr,
)
def test_usage_error_is_one_line(argv):
    code, out, err = _outcome(main, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("wpc") and ": error: " in err


def test_help_lists_every_command():
    code, out, _ = _outcome(main, ["-h"])
    assert code == 0 and len(cli.COMMANDS) == 14
    for name, (_, help_text, _, _) in cli.COMMANDS.items():
        assert f"    {name}" in out and help_text in out


VALID_ARGV = {
    "hom": ["--weights", "2,3", "O(0)", "S(2,1)[2]"],
    "euler": ["--weights", "2,3", "O(0)", "O(c)"],
    "tau": ["--weights", "2,3", "O(x1)"],
    "twist": ["sigma", "x1", "O(0)", "--weights", "2,3"],
    "top": ["x1", "2x1", "1", "--weights", "3,3"],
    "extquiver": ["--weights", "2,3", "S(1,0)", "O(x1)"],
    "check": ["exceptional", "--weights", "2,3", "O(0)", "O(c)"],
    "perp": ["U(3):arc(0,1)"],
    "tube": ["enumerate", "2"],
    "line": ["enumerate", "3", "--count"],
    "count-big": ["--weights", "2,3"],
    "classify": ["--weights", "2,3", "S(1,0)", "O(x1)"],
    "canonical": ["--weights", "2,3"],
    "star": ["--weights", "3,3", "--tops", "1,1"],
}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_handler_returns_what_main_prints(name, capsys):
    """Every handler returns its (document, text) pair and prints nothing;
    ``main`` prints the text, or under ``--json`` the document with sorted
    keys."""
    argv = [name, *VALID_ARGV[name]]
    args = cli.build_parser(name).parse_args(argv)
    result = args.fn(args)
    assert capsys.readouterr() == ("", "")
    assert isinstance(result, tuple) and len(result) == 2
    doc, text = result
    assert isinstance(doc, dict) and isinstance(text, str)
    assert run(capsys, *argv) == (0, text + "\n", "")
    assert run(capsys, *argv, "--json") == (0, json.dumps(doc, sort_keys=True) + "\n", "")


def test_readme_layout_names_exist():
    """Every backticked name in README's "Library layout" table exists in
    the module of its row."""
    import importlib
    import re

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^\| `(wpcalc\.\w+)` \| (.*) \|$", table, re.M)
    modules = {f"wpcalc.{m}" for m in ("quiver", "nilrep", "linalg", "tube", "serial", "lgroup", "wpl", "cli")}
    assert {m for m, _ in rows} == modules
    for module, contents in rows:
        mod = importlib.import_module(module)
        for name in re.findall(r"`([^`]+)`", contents):
            assert hasattr(mod, name), f"README lists {module}.{name}"
