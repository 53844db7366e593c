"""Command-line frontend.

One subcommand per engine capability; ``--json`` switches every command
to a single JSON document on stdout.  Exit codes: 0 success, 2 input
error (bad flags, unparseable literals, out-of-range requests), 1
internal invariant violation.  Text-mode errors are one-line messages,
never tracebacks.  A command whose output grows linearly with a rank or
weight refuses, before building anything, an output of more than
``MAX_OUTPUT_OBJECTS`` objects.  ``json`` and :mod:`wpcalc.quiver` are
imported by the code paths that use them, so a plain query starts
without them.
"""

import argparse
import sys
from math import lgamma, log, log10

from . import lgroup, serial, wpl
from .errors import BoundExceeded, InputError, InternalError, ParseError, _digit_limit

MAX_OUTPUT_OBJECTS = 10**5


def _weights_arg(text: str, flag: str = "--weights"):
    if not text:
        return []
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError as exc:
        raise ParseError(f"bad {flag} value {text!r}") from exc


def _read_config(path: str):
    """(weights, ordinary labels) of a JSON weight config file."""
    # ValueError covers bad JSON, bad UTF-8 and integers past the digit
    # limit; RecursionError, arrays nested too deeply
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
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


def _model(args) -> wpl.WplData:
    weights = _weights_arg(args.weights or "")
    ordinary = [t for t in (args.ordinary or "").split(",") if t.strip()]
    if getattr(args, "config", None):
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


def _emit(args, payload: dict, text: str):
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_hom(args):
    w = _model(args)
    f = wpl.parse_sheaf(w, args.f)
    g = wpl.parse_sheaf(w, args.g)
    he = wpl.hom_ext(w, f, g)
    _emit(args, {"hom": he.hom, "ext1": he.ext1}, f"hom={he.hom} ext1={he.ext1}")


def _cmd_euler(args):
    w = _model(args)
    val = wpl.euler(w, wpl.parse_sheaf(w, args.f), wpl.parse_sheaf(w, args.g))
    _emit(args, {"euler": val}, str(val))


def _cmd_tau(args):
    w = _model(args)
    out = wpl.tau_sheaf(w, wpl.parse_sheaf(w, args.f))
    _emit(args, {"class": str(out)}, str(out))


def _cmd_twist(args):
    w = _model(args)
    f = wpl.parse_sheaf(w, args.f)
    op = wpl.sigma_twist if args.functor == "sigma" else wpl.c_twist
    out = op(w, args.point, f)
    _emit(args, {"class": str(out)}, str(out))


def _cmd_top(args):
    w = _model(args)
    lam = lgroup.parse_element(w.weights, args.element)
    out = wpl.top_m(w, args.point, lam, args.m)
    _emit(args, {"class": str(out)}, str(out))


def _cmd_extquiver(args):
    from .quiver import quiver_to_json_dict, quiver_to_text

    w = _model(args)
    coll = wpl.Collection([wpl.parse_sheaf(w, t) for t in args.objects])
    q = wpl.ext_quiver_of(w, coll)
    _emit(args, quiver_to_json_dict(q), quiver_to_text(q).rstrip("\n"))


def _cmd_check(args):
    w = _model(args)
    coll = wpl.Collection([wpl.parse_sheaf(w, t) for t in args.objects])
    if args.property == "exceptional":
        ok = wpl.is_exceptional_sequence(w, coll)
    else:
        ok = wpl.is_vertex_like(w, coll)
    _emit(args, {args.property: ok}, "true" if ok else "false")


def _factor_payload(emb: serial.Embedding) -> list:
    return [
        {
            "kind": f.cat.kind,
            "rank": f.cat.rank,
            "simples": [str(a) for a in f.simple_images],
        }
        for f in emb.factors
    ]


def _cmd_perp(args):
    if args.target.lstrip().startswith(("U(", "A(")):
        arc = serial.parse_arc(args.target)
        _bound_output(arc.cat.rank - 1)  # the factors' simples
        emb = serial.perp_arc(arc)
        factors = _factor_payload(emb)
        text = " x ".join(
            f"{f['kind']}({f['rank']}): " + (", ".join(f["simples"]) or "-")
            for f in factors
        )
        _emit(args, {"ambient": str(emb.ambient), "factors": factors}, text)
        return
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
    _emit(args, payload, text)


def _enumerate_payload(descs) -> list:
    out = []
    for t in descs:
        has_cycle, lines = serial.shape_of_thick(t)
        out.append(
            {
                "signature": [[a.top, a.length] for a in t.signature],
                "relative_simples": [[a.top, a.length] for a in t.relative_simples()],
                "has_cycle_factor": has_cycle,
                "line_lengths": lines,
            }
        )
    return out


def _cmd_enumerate(args, kind):
    cat = serial.cycle(args.rank) if kind == "cycle" else serial.line(args.rank)
    if args.count:
        n = serial.count_thick(cat)
        _emit(args, {"category": str(cat), "count": n}, str(n))
        return
    descs = serial.enumerate_thick(cat)
    payload = {
        "category": str(cat),
        "count": len(descs),
        "subcategories": _enumerate_payload(descs),
    }
    lines = [f"{str(cat)}: {len(descs)} thick subcategories"]
    for entry in payload["subcategories"]:
        sig = " ".join(f"({t},{l})" for t, l in entry["signature"]) or "-"
        shape = ("cycle+" if entry["has_cycle_factor"] else "") + ",".join(
            f"A{n}" for n in entry["line_lengths"]
        )
        lines.append(f"sig={sig} shape={shape or 'zero'}")
    _emit(args, payload, "\n".join(lines))


def _cmd_count_big(args):
    """Refuses a count with more digits than int-to-str conversion allows.

    A log-gamma estimate of the digit count rejects large weights before
    any binomial is computed; near the limit the exact count decides.
    """
    w = _model(args)
    limit = _digit_limit()
    try:
        # log10 of each factor C(2r, r) / 2; the float error is far below the margin of 1
        digits = sum(
            (lgamma(2 * r + 1) - 2 * lgamma(r + 1)) / log(10) - log10(2)
            for r in w.weights.r
        )
    except OverflowError:  # a weight past the float range, or its lgamma
        raise BoundExceeded("count-big weight is past the float range") from None
    if not limit or digits <= limit + 1:
        n = wpl.count_big(w)
        if not limit or n < 10**limit:
            _emit(args, {"count": n}, str(n))
            return
    raise BoundExceeded(f"count-big has more than {limit} decimal digits")


def _cmd_classify(args):
    from .quiver import quiver_to_json_dict, quiver_to_text

    w = _model(args)
    coll = wpl.Collection([wpl.parse_sheaf(w, t) for t in args.objects])
    res = wpl.classify_generated(w, coll)
    payload = {"kind": res.kind.value}
    text = res.kind.value
    if res.witnesses:
        payload["witnesses"] = [str(x) for x in res.witnesses]
    if res.quiver is not None:
        payload["quiver"] = quiver_to_json_dict(res.quiver)
        text += "\n" + quiver_to_text(res.quiver).rstrip("\n")
    _emit(args, payload, text)


def _cmd_canonical(args):
    w = _model(args)
    _bound_output(2 + sum(r - 1 for r in w.weights.r))
    coll = wpl.canonical_collection(w)
    _emit(args, {"objects": list(coll.labels())}, " ".join(coll.labels()))


def _cmd_star(args):
    w = _model(args)
    tops = _weights_arg(args.tops, "--tops") if args.tops else [0] * w.weights.p
    _bound_output(2 + 2 * sum(max(b, 0) for b in tops))  # bundles and dual family
    bundles, dual = wpl.star_collection(w, tops)
    payload = {"line_bundles": list(bundles.labels()), "dual_family": list(dual.labels())}
    _emit(
        args,
        payload,
        "line_bundles: " + " ".join(bundles.labels()) + "\ndual_family: " + " ".join(dual.labels()),
    )


def _arg(*names, **kwargs):
    return names, kwargs


_CLASS_PAIR = [_arg("f"), _arg("g")]
_OBJECTS = [_arg("objects", nargs="+")]
_ENUMERATE = [
    _arg("action", choices=["enumerate"]),
    _arg("rank", type=int),
    _arg("--count", action="store_true", help="print only the count"),
]

# name -> (handler, help, takes the model flags, further arguments)
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
        [_arg("point"), _arg("element"), _arg("m", type=int)],
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
    "tube": (lambda a: _cmd_enumerate(a, "cycle"), "tube thick subcategories", False, _ENUMERATE),
    "line": (lambda a: _cmd_enumerate(a, "line"), "A_n thick subcategories", False, _ENUMERATE),
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


def build_parser(only=None) -> argparse.ArgumentParser:
    """The ``wpc`` parser with every subcommand, or with ``only`` that one.

    With ``only``, the usage line still lists every command, so a
    top-level error (an unrecognized argument) reads the same.
    """
    parser = argparse.ArgumentParser(
        prog="wpc",
        description="Hom/Ext tables and thick-subcategory combinatorics for "
        "tubes, linear quivers and weighted projective lines",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if only is None else "{" + ",".join(COMMANDS) + "}",
    )
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
    try:
        args.fn(args)
    except InputError as exc:
        _report_error(args, exc)
        return 2
    except InternalError as exc:
        _report_error(args, exc)
        return 1
    return 0


def _report_error(args, exc):
    code = type(exc).__name__
    if getattr(args, "json", False):
        import json

        print(json.dumps({"error": {"code": code, "message": str(exc)}}))
    else:
        print(f"error [{code}]: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
