"""Command-line frontend.

One subcommand per engine capability; ``--json`` switches every command
to a single JSON document on stdout.  Exit codes: 0 success, 2 input
error (bad flags, unparseable literals, out-of-range requests), 1
internal invariant violation.  Text-mode errors are one-line messages,
never tracebacks.  A command whose output grows with a rank or weight
refuses, before building its output, an output of more than
``MAX_OUTPUT_OBJECTS`` objects.  Each command imports only the engine
it runs: the sheaf commands :mod:`wpcalc.wpl` and :mod:`wpcalc.lgroup`,
``tube``/``line`` and ``perp`` on a serial arc :mod:`wpcalc.serial`.
``json`` and :mod:`wpcalc.quiver` are likewise imported by the code
paths that use them, so a plain query starts without them.
"""

import argparse
import os
import sys

from .errors import (
    BoundExceeded,
    InputError,
    InternalError,
    ParseError,
    _digit_limit,
    check_digit_runs,
    read_int,
)

MAX_OUTPUT_OBJECTS = 10**5


def _weights_arg(text: str, flag: str = "--weights"):
    try:
        return [read_int(t) for t in text.split(",") if t != ""]
    except ValueError as exc:
        raise ParseError(f"bad {flag} value {text!r}") from exc


def _int_arg(text: str) -> int:
    """argparse type of an integer argument: read_int, with argparse's usage line."""
    try:
        return read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _read_config(path: str):
    """(weights, ordinary labels) of a JSON weight config file."""
    # ValueError covers bad JSON and bad UTF-8; RecursionError, arrays
    # nested too deeply.  Integers face the digit-run bound of literals,
    # also where the interpreter has no int/str digit limit.  A FIFO or a
    # device would block or read without end, so only a regular file of
    # at most 1 MiB is opened
    import json
    import stat

    try:
        info = os.stat(path)
        if not stat.S_ISREG(info.st_mode) or info.st_size > 1 << 20:
            raise ParseError(f"weight config {path!r} is not a regular file of at most 1 MiB")
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_int=lambda t: check_digit_runs(t) or int(t))
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read weight config {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"weight config {path!r} is not a JSON object")
    weights = data.get("weights", [])
    ordinary = data.get("ordinary", [])
    # bool is a subclass of int, but true/false are not weights
    if not isinstance(weights, list) or not all(type(r) is int for r in weights):
        raise ParseError(f"weight config {path!r}: weights must be a list of integers")
    if not isinstance(ordinary, list) or not all(isinstance(y, str) for y in ordinary):
        raise ParseError(f"weight config {path!r}: ordinary must be a list of strings")
    return weights, ordinary


def _model(args):
    from . import lgroup, wpl

    weights = _weights_arg(args.weights)
    ordinary = [t for t in args.ordinary.split(",") if t.strip()]
    if args.config:
        file_weights, file_ordinary = _read_config(args.config)
        if not args.weights:
            weights = file_weights
        if not args.ordinary:
            ordinary = file_ordinary
    return wpl.WplData(lgroup.Weights(weights), ordinary)


def _add_model_flags(p):
    p.add_argument("--weights", default="", help="comma-separated weights r1,r2,...")
    p.add_argument("--ordinary", default="", help="comma-separated ordinary point labels")
    p.add_argument(
        "--config",
        default="",
        help='JSON weight config {"weights": [...], "ordinary": [...]}; '
        "explicit flags win",
    )


def _bound_output(count: int):
    """Refuse an output that would list more than MAX_OUTPUT_OBJECTS objects."""
    if count > MAX_OUTPUT_OBJECTS:
        raise BoundExceeded(f"the output would list more than {MAX_OUTPUT_OBJECTS} objects")


def _emit(args, payload: dict, text: str, file=None):
    """Print the document under --json, else the text to ``file`` (None: stdout)."""
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        print(text, file=file)


def _cmd_hom(args):
    from . import wpl

    w = _model(args)
    f = wpl.parse_sheaf(w, args.f)
    g = wpl.parse_sheaf(w, args.g)
    he = wpl.hom_ext(w, f, g)
    return {"hom": he.hom, "ext1": he.ext1}, f"hom={he.hom} ext1={he.ext1}"


def _cmd_euler(args):
    from . import wpl

    w = _model(args)
    val = wpl.euler(w, wpl.parse_sheaf(w, args.f), wpl.parse_sheaf(w, args.g))
    return {"euler": val}, str(val)


def _cmd_tau(args):
    from . import wpl

    w = _model(args)
    out = wpl.tau_sheaf(w, wpl.parse_sheaf(w, args.f))
    return {"class": str(out)}, str(out)


def _cmd_twist(args):
    from . import wpl

    w = _model(args)
    f = wpl.parse_sheaf(w, args.f)
    op = wpl.sigma_twist if args.functor == "sigma" else wpl.c_twist
    out = op(w, args.point, f)
    return {"class": str(out)}, str(out)


def _cmd_top(args):
    from . import lgroup, wpl

    w = _model(args)
    lam = lgroup.parse_element(w.weights, args.element)
    out = wpl.top_m(w, args.point, lam, args.m)
    return {"class": str(out)}, str(out)


def _cmd_extquiver(args):
    from . import wpl
    from .quiver import quiver_to_json_dict, quiver_to_text

    w = _model(args)
    q = wpl.ext_quiver_of(w, [wpl.parse_sheaf(w, t) for t in args.objects])
    return quiver_to_json_dict(q), quiver_to_text(q).rstrip("\n")


def _cmd_check(args):
    from . import wpl

    w = _model(args)
    family = [wpl.parse_sheaf(w, t) for t in args.objects]
    if args.property == "exceptional":
        ok = wpl.is_exceptional_sequence(w, family)
    else:
        ok = wpl.is_vertex_like(w, family)
    return {args.property: ok}, "true" if ok else "false"


def _cmd_perp(args):
    if args.target.lstrip().startswith(("U(", "A(")):
        from . import serial

        arc = serial.parse_arc(args.target)
        _bound_output(arc.cat.rank - 1)  # the factors' simples
        emb = serial.perp_arc(arc)
        factors = [
            {"kind": f.cat.kind, "rank": f.cat.rank, "simples": [str(a) for a in f.simple_images]}
            for f in emb.factors
        ]
        text = " x ".join(
            f"{f['kind']}({f['rank']}): " + (", ".join(f["simples"]) or "-")
            for f in factors
        )
        return {"ambient": str(emb.ambient), "factors": factors}, text
    from . import wpl

    w = _model(args)
    e = wpl.parse_sheaf(w, args.target)
    if isinstance(e, wpl.TorsionW):
        _bound_output(w.weight_of(e.i) - 1)  # line and tube generators
    res = wpl.perp_exceptional_torsion(w, e)
    payload = {
        "new_weights": list(res.new_weights.r),
        "dropped_point": res.dropped_point,
        "line_factor": [str(f) for f in res.line_generators],
        "tube_factor": [str(f) for f in res.tube_generators],
    }
    text = (
        f"weights={','.join(map(str, res.new_weights.r)) or '-'}"
        f" line_factor={','.join(payload['line_factor']) or '-'}"
    )
    return payload, text


def _cmd_enumerate(args):
    """``tube`` or ``line enumerate``: one JSON entry and one text line per subcategory."""
    from . import serial

    cat = (serial.cycle if args.command == "tube" else serial.line)(args.rank)
    n = serial.count_thick(cat)
    if args.count:
        return {"category": str(cat), "count": n}, str(n)
    _bound_output(n)  # the listing has one entry per subcategory; --count lists none
    entries = []
    lines = [f"{cat}: {n} thick subcategories"]
    for t in serial.enumerate_thick(cat):
        has_cycle, lengths = serial.shape_of_thick(t)
        entries.append(
            {
                "signature": [[a.top, a.length] for a in t.signature],
                "relative_simples": [[a.top, a.length] for a in t.relative_simples()],
                "has_cycle_factor": has_cycle,
                "line_lengths": lengths,
            }
        )
        sig = " ".join(f"({a.top},{a.length})" for a in t.signature) or "-"
        shape = ("cycle+" if has_cycle else "") + ",".join(f"A{k}" for k in lengths)
        lines.append(f"sig={sig} shape={shape or 'zero'}")
    return {"category": str(cat), "count": n, "subcategories": entries}, "\n".join(lines)


def _cmd_count_big(args):
    """Refuses a count with more digits than int-to-str conversion allows.

    Each factor C(2r, r) / 2 is at least 2^(r-1), and 2^3.322 > 10, so
    weights with 1000 * sum(r - 1) >= 3322 * limit are refused before any
    binomial is computed; below that the exact count decides.
    """
    from . import wpl

    w = _model(args)
    limit = _digit_limit()
    if 1000 * sum(r - 1 for r in w.weights.r) < 3322 * limit:
        n = wpl.count_big(w)
        if n < 10**limit:
            return {"count": n}, str(n)
    raise BoundExceeded(f"count-big has more than {limit} decimal digits")


def _cmd_classify(args):
    from . import wpl
    from .quiver import quiver_to_json_dict, quiver_to_text

    w = _model(args)
    res = wpl.classify_generated(w, [wpl.parse_sheaf(w, t) for t in args.objects])
    payload = {"kind": res.kind.value}
    text = res.kind.value
    if res.witnesses:
        payload["witnesses"] = [str(x) for x in res.witnesses]
    if res.quiver is not None:
        payload["quiver"] = quiver_to_json_dict(res.quiver)
        text += "\n" + quiver_to_text(res.quiver).rstrip("\n")
    return payload, text


def _cmd_canonical(args):
    from . import wpl

    w = _model(args)
    _bound_output(2 + sum(r - 1 for r in w.weights.r))
    labels = [str(f) for f in wpl.canonical_collection(w)]
    return {"objects": labels}, " ".join(labels)


def _cmd_star(args):
    from . import wpl

    w = _model(args)
    tops = _weights_arg(args.tops, "--tops") if args.tops else [0] * w.weights.p
    _bound_output(2 + 2 * sum(max(b, 0) for b in tops))  # bundles and dual family
    bundles, dual = ([str(f) for f in family] for family in wpl.star_collection(w, tops))
    payload = {"line_bundles": bundles, "dual_family": dual}
    return payload, "line_bundles: " + " ".join(bundles) + "\ndual_family: " + " ".join(dual)


def _arg(*names, **kwargs):
    return names, kwargs


_CLASS_PAIR = [_arg("f"), _arg("g")]
_OBJECTS = [_arg("objects", nargs="+")]
_ENUMERATE = [
    _arg("action", choices=["enumerate"]),
    _arg("rank", type=_int_arg),
    _arg("--count", action="store_true", help="print only the count"),
]

# name -> (handler, help, takes the model flags, further arguments); a handler
# returns the (document, text) pair that `_emit` prints
COMMANDS = {
    "hom": (_cmd_hom, "Hom and Ext^1 dimensions between two classes", True, _CLASS_PAIR),
    "euler": (_cmd_euler, "Euler pairing hom - ext1", True, _CLASS_PAIR),
    "tau": (_cmd_tau, "Serre translate of a class", True, [_arg("f")]),
    "twist": (
        _cmd_twist,
        "sigma or c twist at a point",
        True,
        [
            _arg("functor", choices=["sigma", "c"]),
            _arg("point", help="x<i> for a weighted point, else an ordinary label"),
            _arg("f"),
        ],
    ),
    "top": (
        _cmd_top,
        "m-step top of O(<element>) at a point",
        True,
        [_arg("point"), _arg("element"), _arg("m", type=_int_arg)],
    ),
    "extquiver": (_cmd_extquiver, "Ext-quiver of a vertex-like collection", True, _OBJECTS),
    "check": (
        _cmd_check,
        "test a collection property",
        True,
        [_arg("property", choices=["exceptional", "vertexlike"])] + _OBJECTS,
    ),
    "perp": (
        _cmd_perp,
        "perpendicular of a serial arc or torsion class",
        True,
        [_arg("target", help="U(n):arc(top,len), A(n):arc(i,j), or a sheaf literal")],
    ),
    "tube": (_cmd_enumerate, "tube thick subcategories", False, _ENUMERATE),
    "line": (_cmd_enumerate, "A_n thick subcategories", False, _ENUMERATE),
    "count-big": (_cmd_count_big, "number of big subcategories", True, []),
    "classify": (
        _cmd_classify,
        "classify the subcategory generated by classes",
        True,
        _OBJECTS,
    ),
    "canonical": (_cmd_canonical, "the canonical line-bundle collection", True, []),
    "star": (
        _cmd_star,
        "star subcollection and its dual torsion family",
        True,
        [_arg("--tops", default="", help="comma-separated arm lengths b1,...,bp")],
    ),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 2 with one stderr line, no usage."""

    def error(self, message):
        # an unrecognized argument is echoed as given, so escape line breaks
        self.exit(2, f"{self.prog}: error: {message}".replace("\n", "\\n") + "\n")


def build_parser(only=None) -> argparse.ArgumentParser:
    """The ``wpc`` parser with every subcommand, or with ``only`` that one.

    Subparsers inherit the parser class, so every usage error is one line.
    """
    parser = _Parser(
        prog="wpc",
        description="Hom/Ext tables and thick-subcategory combinatorics for "
        "tubes, linear quivers and weighted projective lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS if only is None else [only]:
        fn, help_text, model_flags, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        p.set_defaults(fn=fn)
        if model_flags:
            _add_model_flags(p)
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    code = 0
    try:
        try:
            _emit(args, *args.fn(args))
        except (InputError, InternalError) as exc:
            code = 2 if isinstance(exc, InputError) else 1
            name = type(exc).__name__
            error = {"error": {"code": name, "message": str(exc)}}
            _emit(args, error, f"error [{name}]: {exc}", sys.stderr)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader ended the output, not the input: point stdout at
        # devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
