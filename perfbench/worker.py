"""One pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts it as ``python3 perfbench/worker.py`` with ``src/`` on
PYTHONPATH (which the ``wpc`` processes of the cli workload inherit): the
process imports wpcalc from ``src/`` next to this directory, prints
``ready``, reads one JSON job line from stdin, runs it and prints one JSON
result line.  A job is ``{"workload", "seed", "size", "mode", "full_check"}``;
the job ``null`` exits at once, which is how ``run.py`` times start-up
alone.  Each pass runs in its own process so that the engine's caches
start cold.

Inputs come only from the seed.  Every op runs under a deadline; an op
that raises, times out or gives a wrong answer counts as failed.  Answers
are checked after the timed loop, against routes that do not share the
engine's code (``reference.py``, the matrix oracle, committed digests).
"""

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import wpcalc  # noqa: E402
from wpcalc import cli, lgroup, linalg, nilrep, serial, wpl  # noqa: E402

import reference  # noqa: E402
from spans import Tracer  # noqa: E402

if os.path.dirname(os.path.abspath(wpcalc.__file__)) != os.path.join(SRC, "wpcalc"):
    raise ImportError(f"wpcalc was imported from {wpcalc.__file__}, not from {SRC}")

OP_TIMEOUT_S = 30.0
LONG_ARC = 24  # torsion arcs longer than this are the table's long tail

# -- sizes -----------------------------------------------------------------------

# Sizes keep every op under ~0.2 s: the machine's speed changes every few
# seconds, and an op's fastest time over a run only settles when the run
# holds dozens of passes.
ENUM_CATS = {
    "full": [("cycle", n) for n in range(1, 5)] + [("line", n) for n in range(1, 6)],
    "smoke": [("cycle", n) for n in range(1, 4)] + [("line", n) for n in range(1, 5)],
}
# sha256 of every signature of ENUM_CATS[size], as wpcalc 0.1.0 computes them
ENUM_DIGEST = {
    "full": "2047b4f999799d499fc007f8947ab1608fa3c6fd02d47c142ae76c8b1a3b7457",
    "smoke": "d9b049076292b381be9711e74424352b3cba8ae8df9d02449bb5fafeadb1b076",
}

TABLE_WEIGHTS = (2, 3, 5)
TABLE_ORDINARY = ("y",)
# total length of the table's one pair of long arcs
TABLE_LONG_SUM = {"full": 400, "smoke": 60}
TABLE_REFERENCE_SEED = 0
# sha256 of the smoke-size table at TABLE_REFERENCE_SEED, as wpcalc 0.1.0 computes it
TABLE_REFERENCE_DIGEST = "21c5c74573cac9686c632823929b13825d8d1ba88e46b09f22d518ceb8a34c80"

ORACLE_SIZE = {
    # (kind, rank, max arc length, top pairs drawn per pair of lengths; 0 = all pairs)
    "full": [("cycle", 4, 12, 4), ("cycle", 5, 10, 5), ("line", 8, None, 0)],
    "smoke": [("cycle", 2, 4, 2), ("line", 3, None, 0)],
}

CLI_SIZE = {"full": {"queries": 10, "malformed": 3}, "smoke": {"queries": 3, "malformed": 2}}

# -- deadlines -------------------------------------------------------------------


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


@contextlib.contextmanager
def deadline():
    """Raise OpTimeout in the body once it has run for OP_TIMEOUT_S."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Pass:
    """What one pass hands back: per-op latencies, failures, answers."""

    def __init__(self):
        self.attempted = 0
        self.lat = []
        self.failed = 0
        self.errors = []
        self.wall = 0.0
        self.prep = 0.0  # work a pass does before its first op, outside any op's time
        self.floor = []  # bare interpreter starts timed between the cli's wpc processes
        self.group = 1  # timed calls per op

    def fail(self, message, count=1):
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- enum --------------------------------------------------------------------------


def _category(kind, rank):
    return serial.cycle(rank) if kind == "cycle" else serial.line(rank)


def enum_pass(seed, size, out):
    cats = ENUM_CATS[size]
    out.attempted = len(cats)
    results = []
    t_pass = time.perf_counter()
    for kind, rank in cats:
        try:
            with deadline():
                t0 = time.perf_counter()
                descs = serial.enumerate_thick(_category(kind, rank))
                out.lat.append(time.perf_counter() - t0)
        except Exception as exc:  # noqa: BLE001 - an op failure is recorded, the pass goes on
            out.fail(f"enumerate_thick {kind} {rank}: {exc!r}")
            out.lat.append(None)
            descs = None
        results.append(descs)
    out.wall = time.perf_counter() - t_pass
    return results


def enum_check(seed, size, results, out, full):
    rng = random.Random(f"enum:{seed}")
    lines = []
    for (kind, rank), descs in zip(ENUM_CATS[size], results):
        if descs is None:
            continue
        if len(descs) != reference.thick_count(kind, rank):
            out.fail(f"{kind} {rank}: {len(descs)} thick subcategories")
        for t in descs:
            lines.append(f"{kind}{rank} " + " ".join(f"{a.top}:{a.length}" for a in t.signature))
        # seeded probes: the double-orthogonal membership test agrees with the signature
        arcs = serial.all_arcs(_category(kind, rank))
        for _ in range(20):
            t, x = rng.choice(descs), rng.choice(arcs)
            if serial.membership(t, x) != (x in t.signature):
                out.fail(f"membership of {x} in a subcategory of {kind} {rank}")
    digest = _digest(lines)
    if digest != ENUM_DIGEST[size]:
        out.fail("signature digest changed")
    return digest


# -- sheaf_table -------------------------------------------------------------------


def table_classes(seed, size):
    """Seeded classes on weights (2,3,5) with ordinary point y.

    The shapes are fixed (one arc per point and length up to twice the
    weight, a pair of long arcs of fixed total length, as many bundles as
    arcs); the seed draws tops, gradings, the long lengths and the order.
    So every seed costs the same, and the long tail is always there.
    """
    rng = random.Random(f"sheaf_table:{seed}")
    torsion = []
    for i, r in enumerate(TABLE_WEIGHTS, start=1):
        torsion += [("S", i, rng.randrange(r), length) for length in range(1, 2 * r + 1)]
    torsion += [("T", "y", length) for length in (1, 2)]
    total = TABLE_LONG_SUM[size]
    first = rng.randrange(total // 4, total // 2)
    for length in (first, total - first):
        i = rng.randrange(1, len(TABLE_WEIGHTS) + 1)
        torsion.append(("S", i, rng.randrange(TABLE_WEIGHTS[i - 1]), length))
    bundles = [
        ("O", rng.randrange(-3, 4), tuple(rng.randrange(r) for r in TABLE_WEIGHTS))
        for _ in torsion
    ]
    classes = torsion + bundles
    rng.shuffle(classes)
    return classes


def _to_wpl(f):
    if f[0] == "O":
        return wpl.LineBundle(lgroup.LElement(f[1], f[2]))
    if f[0] == "S":
        return wpl.TorsionW(f[1], f[2], f[3])
    return wpl.TorsionO(f[1], f[2])


def table_pass(seed, size, out):
    classes = table_classes(seed, size)
    model = wpl.WplData(TABLE_WEIGHTS, TABLE_ORDINARY)
    objs = [_to_wpl(f) for f in classes]
    # An op is one row, hom_ext from one class to every class.  Each pair is
    # timed on its own (``group``): run.py sums the pairs' fastest times.
    out.attempted = len(objs)
    out.group = len(objs)
    table = []
    clock = time.perf_counter
    t_pass = clock()
    for f in objs:
        row = []
        try:
            with deadline():
                for g in objs:
                    t0 = clock()
                    he = wpl.hom_ext(model, f, g)
                    out.lat.append(clock() - t0)
                    row.append((he.hom, he.ext1))
        except Exception as exc:  # noqa: BLE001
            out.fail(f"hom_ext row of {f}: {exc!r}")
            out.lat += [None] * (len(objs) - len(row))
            row = None
        table.append(row)
    out.wall = clock() - t_pass
    return classes, table


def _table_digest(classes, table):
    return _digest([reference.literal(f) for f in classes] + [repr(row) for row in table])


def table_check(seed, size, result, out, full):
    """Every entry against the closed forms of ``reference.py`` (only when
    ``full``; a row with a wrong entry is one failed op), and the committed
    reference digest."""
    classes, table = result
    if not full:
        return _table_digest(classes, table)
    for f, row in zip(classes, table):
        for g, got in zip(classes, row or ()):
            want = (reference.hom(TABLE_WEIGHTS, f, g), reference.ext1(TABLE_WEIGHTS, f, g))
            if got != want:
                pair = f"{reference.literal(f)}, {reference.literal(g)}"
                out.fail(f"hom_ext({pair}) = {got}, closed form {want}")
                break
    if _table_digest(*table_pass(TABLE_REFERENCE_SEED, "smoke", Pass())) != TABLE_REFERENCE_DIGEST:
        out.fail("reference table digest changed")
    return _table_digest(classes, table)


# -- oracle ------------------------------------------------------------------------


def oracle_pairs(seed, size):
    """Pairs of arcs; on tubes, a seeded draw of top pairs for every pair of lengths."""
    rng = random.Random(f"oracle:{seed}")
    pairs = []
    for kind, rank, max_length, draws in ORACLE_SIZE[size]:
        cat = _category(kind, rank)
        arcs = serial.all_arcs(cat, max_length)
        if not draws:
            pairs += [(x, y) for x in arcs for y in arcs]
            continue
        by_length = {}
        for a in arcs:
            by_length.setdefault(a.length, []).append(a)
        for lx in sorted(by_length):
            for ly in sorted(by_length):
                combos = [(x, y) for x in by_length[lx] for y in by_length[ly]]
                pairs += rng.sample(combos, draws)
    rng.shuffle(pairs)
    return pairs


def oracle_pass(seed, size, out):
    pairs = oracle_pairs(seed, size)
    arcs = list(dict.fromkeys(a for pair in pairs for a in pair))
    out.attempted = len(pairs)
    answers = []
    clock = time.perf_counter
    t_pass = clock()
    reps = {a: serial.realize(a) for a in arcs}
    out.prep = clock() - t_pass
    for x, y in pairs:
        try:
            with deadline():
                t0 = clock()
                matrix = (nilrep.hom_dim(reps[x], reps[y]), nilrep.ext1_dim(reps[x], reps[y]))
                closed = tuple(serial.dims(x, y))
                out.lat.append(clock() - t0)
        except Exception as exc:  # noqa: BLE001
            out.fail(f"oracle on ({x}, {y}): {exc!r}")
            out.lat.append(None)
            continue
        answers.append((x, y, matrix, closed))
    out.wall = clock() - t_pass
    return answers


def oracle_check(seed, size, answers, out, full):
    for x, y, matrix, closed in answers:
        if matrix != closed:
            out.fail(f"({x}, {y}): matrix route {matrix}, closed form {closed}")
    return _digest(f"{x} {y} {m}" for x, y, m, _ in answers)


# -- cli ---------------------------------------------------------------------------

# The README's examples, with the output it documents or, where it shows
# none, the output of wpcalc 0.1.0.
README_EXAMPLES = [
    (["hom", "--weights", "2,2,2,2", "O(-c+x1+x2+x3+x4)", "O(0)"], "hom=0 ext1=2"),
    (["euler", "--weights", "2,3", "O(0)", "O(c)"], "2"),
    (["tau", "--weights", "3,3,3,3", "S(1,1)"], "S(1,0)"),
    (["twist", "sigma", "x1", "O(0)", "--weights", "2,3"], "O(x1)"),
    (["top", "x1", "2x1", "1", "--weights", "3,3"], "S(1,2)"),
    (
        ["extquiver", "--weights", "3,3,3,3", "S(1,1)", "S(2,1)", "S(3,1)", "S(4,1)", "O(0)"],
        "vertices: S(1,1) S(2,1) S(3,1) S(4,1) O(0)\narrow: O(0) S(1,1)\n"
        "arrow: O(0) S(2,1)\narrow: O(0) S(3,1)\narrow: O(0) S(4,1)",
    ),
    (["check", "exceptional", "--weights", "2,3", "O(0)", "O(c)"], "true"),
    (["perp", "U(3):arc(0,1)"], "cycle(2): U(3):arc(0,2), U(3):arc(1,1) x line(0): -"),
    (["perp", "--weights", "3,3,3,3", "S(1,1)"], "weights=2,3,3,3 line_factor=-"),
    (["tube", "enumerate", "3", "--count"], "20"),
    (["line", "enumerate", "4"], ("first_line", "A(4): 42 thick subcategories")),
    (["count-big", "--weights", "2,3"], "30"),
    (["classify", "--weights", "2,2,2,2", "O(0)", "S(1,1)[2]"], "big"),
    (["canonical", "--weights", "2,3"], "O(0) O(x1) O(x2) O(2x2) O(c)"),
    (
        ["star", "--weights", "3,3,3,3", "--tops", "1,1,1,1"],
        "line_bundles: O(0) O(x1) O(x2) O(x3) O(x4)\n"
        "dual_family: S(1,1) S(2,1) S(3,1) S(4,1) O(0)",
    ),
]

SMALL_ENUMERATIONS = [
    (["tube", "enumerate", "4", "--json"], ("json_count", 70)),
    (["line", "enumerate", "5"], ("first_line", "A(5): 132 thick subcategories")),
]

CLI_WEIGHTS = [(2, 3), (2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 5)]


def _random_class(rng, weights):
    kind = rng.choice("OST")
    if kind == "O":
        return ("O", rng.randrange(-3, 4), tuple(rng.randrange(r) for r in weights))
    if kind == "S":
        i = rng.randrange(1, len(weights) + 1)
        return ("S", i, rng.randrange(weights[i - 1]), rng.randrange(1, 2 * weights[i - 1] + 1))
    return ("T", "y", rng.randrange(1, 4))


def _malformed(rng, p):
    """A command whose literal is wrong; wpcalc must exit 2 with one line."""
    w = ",".join("3" * p) if p else "2"
    p = max(p, 1)
    pick = rng.randrange(10)
    if pick == 0:
        return ["hom", "--weights", w, f"O(x{p + rng.randrange(1, 4)})", "O(0)"]
    if pick == 1:
        return ["hom", "--weights", w, "O(0)", f"S({p + rng.randrange(1, 4)},1)"]
    if pick == 2:
        return ["euler", "--weights", f"2,{rng.choice('abq')}", "O(0)", "O(0)"]
    if pick == 3:
        return ["hom", "--weights", w, "O(0)", f"S(1,{rng.randrange(3)})[0]"]
    if pick == 4:
        return ["perp", f"U({rng.randrange(2, 6)}):arc({rng.randrange(3)},0)"]
    if pick == 5:
        return ["tau", "--weights", w, rng.choice(["O(", "O(1", "S(1,", "O(c+)"])]
    if pick == 6:
        return ["tau", "--weights", w, f"Q({rng.randrange(5)})"]
    if pick == 7:
        return ["hom", "--weights", w, "O(0)", f"T({rng.choice('yzw')})"]
    if pick == 8:
        return ["count-big", "--weights", f"1,{rng.randrange(2, 6)}"]
    return rng.choice(
        [
            ["tube", "enumerate", str(rng.randrange(7, 12)), "--count"],
            ["line", "enumerate", str(rng.randrange(9, 14)), "--count"],
        ]
    )


def cli_commands(seed, size):
    """(argv, expected) in a seeded order; expected "exit2" marks a malformed command."""
    spec = CLI_SIZE[size]
    rng = random.Random(f"cli:{seed}")
    commands = list(README_EXAMPLES) + list(SMALL_ENUMERATIONS)
    if size == "smoke":
        commands = commands[:3] + commands[-2:-1]
    for _ in range(spec["queries"]):
        weights = rng.choice(CLI_WEIGHTS)
        flags = ["--weights", ",".join(map(str, weights)), "--ordinary", "y"]
        f, g = _random_class(rng, weights), _random_class(rng, weights)
        op = rng.choice(["hom", "euler", "tau"])
        if op == "tau":
            want = reference.literal(reference.tau(weights, f))
            commands.append((["tau", *flags, reference.literal(f)], want))
            continue
        h, e = reference.hom(weights, f, g), reference.ext1(weights, f, g)
        want = f"hom={h} ext1={e}" if op == "hom" else str(h - e)
        commands.append(([op, *flags, reference.literal(f), reference.literal(g)], want))
    for _ in range(spec["malformed"]):
        commands.append((_malformed(rng, rng.randrange(0, 4)), "exit2"))
    rng.shuffle(commands)
    return commands


def _cli_verdict(expected, code, stdout, stderr):
    """None when the command behaved as documented, else what went wrong."""
    if "Traceback" in stderr:
        return "traceback"
    if expected == "exit2":
        if code != 2 or stdout or len(stderr.strip().splitlines()) != 1:
            lines = len(stderr.strip().splitlines())
            return f"exit {code} with {lines} stderr lines, expected exit 2 and one line"
        return None
    if code != 0:
        return f"exit {code}: {stderr.strip()}"
    text = stdout.rstrip("\n")
    if isinstance(expected, str):
        return None if text == expected else f"printed {text[:80]!r}"
    kind, value = expected
    if kind == "first_line":
        return None if text.split("\n", 1)[0] == value else f"printed {text[:80]!r}"
    return None if json.loads(text)["count"] == value else "wrong JSON count"


def run_python(args):
    """One ``python3 <args>`` process: (exit code, stdout, stderr, seconds)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            timeout=OP_TIMEOUT_S,
            cwd=HERE,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {OP_TIMEOUT_S} s", time.perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def run_wpc(argv):
    return run_python(["-m", "wpcalc.cli", *argv])


def _main_in_process(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            with deadline():
                code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - what a traceback would have been
            code, stderr = 1, io.StringIO(f"Traceback: {exc!r}")
    return code, stdout.getvalue(), stderr.getvalue()


def cli_pass(seed, size, out, in_process):
    """Each command as a ``wpc`` process, or (for tracing) through ``cli.main``
    in this process, where commands of the pass share the engine's caches.

    Before each ``wpc`` process the pass times a bare interpreter start, the
    floor that ``run.py`` scales the command times by."""
    commands = cli_commands(seed, size)
    out.attempted = len(commands)
    t_pass = time.perf_counter()
    for argv, expected in commands:
        if in_process:
            t0 = time.perf_counter()
            code, stdout, stderr = _main_in_process(argv)
            seconds = time.perf_counter() - t0
        else:
            out.floor.append(run_python(["-c", "pass"])[3])
            code, stdout, stderr, seconds = run_wpc(argv)
        out.lat.append(None if code is None else seconds)
        verdict = _cli_verdict(expected, code, stdout, stderr)
        if verdict:
            out.fail(f"wpc {' '.join(argv)}: {verdict}")
    out.wall = time.perf_counter() - t_pass
    return commands


# -- tracing -----------------------------------------------------------------------

ARITH = ("add", "sub", "neg", "scale", "xbar", "cbar", "omega")


def install_tracer():
    """Wrap the public entry points of every layer (module attributes, so
    calls from inside a module are caught too)."""
    tr = Tracer()
    for fn in ("dims", "enumerate_thick", "perp_arc", "realize"):
        tr.wrap(serial, fn, f"serial.{fn}")
    tr.wrap(wpl, "tube_dims", "wpl.tube_dims")
    tr.wrap(wpl, "hom_ext", "wpl.hom_ext", tag=lambda w, f, g: max(_wpl_length(f), _wpl_length(g)))
    tr.wrap(wpl, "parse_sheaf", "wpl.parse_sheaf")
    tr.wrap(lgroup, "normalize", "lgroup.normalize")
    for fn in ARITH:
        tr.wrap(lgroup, fn, "lgroup.arith")
    tr.wrap(lgroup, "parse_element", "lgroup.parse_element")
    tr.wrap(nilrep.Rep, "__init__", "nilrep.Rep.init")
    tr.wrap(nilrep, "hom_dim", "nilrep.hom_dim")
    tr.wrap(linalg, "kernel_dimension", "linalg.kernel_dimension")
    tr.wrap(cli, "build_parser", "cli.build_parser")
    tr.wrap(cli, "main", "cli.main")
    return tr


def _wpl_length(f):
    return getattr(f, "length", 0)


def trace_report(tr):
    rows = tr.summary()
    buckets = {"short": [0, 0.0], "long": [0, 0.0]}
    for i in tr.top_level("wpl.hom_ext"):
        b = buckets["long" if tr.tag[i] > LONG_ARC else "short"]
        b[0] += 1
        b[1] += tr.end[i] - tr.start[i]
    return {"layers": rows, "hom_ext_buckets": buckets}


# -- entry -------------------------------------------------------------------------

PASSES = {
    "enum": (enum_pass, enum_check),
    "sheaf_table": (table_pass, table_check),
    "oracle": (oracle_pass, oracle_check),
}


def run_job(job):
    """Run one pass; ``mode`` is "plain", "traced" or (cli only) "inprocess".

    ``full_check`` adds the checks that cost as much as the pass itself;
    later passes of a run compare their digest with the first pass's.
    """
    workload, seed, size, mode = job["workload"], job["seed"], job["size"], job["mode"]
    out = Pass()
    tracer = install_tracer() if mode == "traced" else None
    try:
        if workload == "cli":
            cli_pass(seed, size, out, in_process=mode != "plain")
        else:
            run_pass, check = PASSES[workload]
            answers = run_pass(seed, size, out)
    finally:
        if tracer:
            tracer.restore()
    result = {"attempted": out.attempted, "wall_s": out.wall, "prep_s": out.prep, "lat_s": out.lat,
              "group": out.group, "floor_s": out.floor}
    if workload == "enum":
        result["subcategories"] = sum(len(d) for d in answers if d is not None)
    if workload == "cli":
        who = resource.RUSAGE_CHILDREN if mode == "plain" else resource.RUSAGE_SELF
        usage = resource.getrusage(who)
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["digest"] = check(seed, size, answers, out, job["full_check"])
    result["rss_mb"] = usage.ru_maxrss / 1024
    if tracer:
        result["trace"] = trace_report(tracer)
        if workload == "cli":
            malformed = [argv for argv, want in cli_commands(seed, size) if want == "exit2"]
            result["exit2_lat_s"] = [run_wpc(argv)[3] for argv in malformed for _ in range(3)]
    result["failed"] = out.failed
    result["errors"] = out.errors
    return result


def main():
    print("ready", flush=True)
    job = json.loads(sys.stdin.readline() or "null")
    if job is None:
        return 0
    print(json.dumps(run_job(job)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
