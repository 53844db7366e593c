"""Smoke tests for the benchmark's own code: tiny passes, digests, spans."""

import os
import shutil
import subprocess
import sys

import pytest

import run
import worker
from spans import Tracer

SMOKE_TIMEOUT_S = 60


def smoke_pass(workload, mode="plain", seed=3):
    job = {"workload": workload, "seed": seed, "size": "smoke", "mode": mode, "full_check": True}
    _, result = run.run_worker(job, SMOKE_TIMEOUT_S)
    assert result is not None, f"{workload} smoke pass timed out"
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_pass_is_correct(workload):
    result = smoke_pass(workload)
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] * result["group"] == len(result["lat_s"]) > 0
    # the cli times one bare interpreter start before each wpc process
    assert len(result["floor_s"]) == (result["attempted"] if workload == "cli" else 0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_call_counts_repeat_exactly(workload):
    first, second = (smoke_pass(workload, "traced")["trace"]["layers"] for _ in range(2))
    calls = {name: row["calls"] for name, row in first.items()}
    assert calls == {name: row["calls"] for name, row in second.items()}
    assert sum(calls.values()) > 0


def test_inputs_depend_on_the_seed_only():
    assert worker.table_classes(1, "full") == worker.table_classes(1, "full")
    assert worker.table_classes(1, "full") != worker.table_classes(2, "full")
    assert worker.cli_commands(5, "full") == worker.cli_commands(5, "full")
    lengths = [f[-1] for f in worker.table_classes(7, "full") if f[0] != "O"]
    assert sum(x for x in lengths if x > worker.LONG_ARC) == worker.TABLE_LONG_SUM["full"]


def test_enum_check_catches_a_missing_subcategory():
    out = worker.Pass()
    results = worker.enum_pass(1, "smoke", out)
    assert worker.enum_check(1, "smoke", results, out, True) == worker.ENUM_DIGEST["smoke"]
    assert out.failed == 0
    results[-1] = results[-1][:-1]
    worker.enum_check(1, "smoke", results, out, True)
    assert any("thick subcategories" in e for e in out.errors)
    assert any("digest" in e for e in out.errors)


def test_table_check_catches_a_wrong_entry():
    out = worker.Pass()
    classes, table = worker.table_pass(worker.TABLE_REFERENCE_SEED, "smoke", out)
    worker.table_check(0, "smoke", (classes, table), out, True)
    assert out.failed == 0, out.errors
    a = next(k for k, f in enumerate(classes) if f[0] == "O")
    b = next(k for k, f in enumerate(classes) if f[0] == "S")
    hom, ext1 = table[a][b]
    table[a][b] = (hom + 1, ext1)
    table[b][a] = (table[b][a][0], table[b][a][1] + 1)
    worker.table_check(0, "smoke", (classes, table), out, True)
    assert out.failed == 2, out.errors


def test_cli_verdicts():
    assert worker._cli_verdict("2", 0, "2\n", "") is None
    assert worker._cli_verdict("2", 0, "3\n", "")
    assert worker._cli_verdict("exit2", 2, "", "error [ParseError]: bad\n") is None
    assert worker._cli_verdict("exit2", 1, "", "error [X]: bad\n")
    assert worker._cli_verdict("exit2", 2, "", "Traceback (most recent call last):\n")


def test_self_time_excludes_children():
    class Box:
        @staticmethod
        def outer():
            return Box.inner() + Box.inner()

        @staticmethod
        def inner():
            return 1

    tr = Tracer()
    tr.wrap(Box, "outer", "outer")
    tr.wrap(Box, "inner", "inner")
    assert Box.outer() == 2
    tr.restore()
    rows = tr.summary()
    assert rows["outer"]["calls"] == 1 and rows["inner"]["calls"] == 2
    outer = tr.top_level("outer")[0]
    total = tr.end[outer] - tr.start[outer]
    assert rows["outer"]["self_s"] + rows["inner"]["self_s"] == pytest.approx(total)
    assert Box.outer() == 2 and len(tr.name) == 3


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "enum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=SMOKE_TIMEOUT_S,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
