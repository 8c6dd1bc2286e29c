"""Command-line interface: evaluate, transform, certify, and reproduce the
full identity suite as deterministic reports.

All numeric output is either an exact rational rendered as a decimal string
("p/q") or a decimal at an explicitly requested precision, so report files
are byte-stable across runs.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .cf import _limit, cf_from_json, cf_to_json, convergents
from .errors import HypothesisViolation, PolycfError
from .families import build_preset
from .poly import json_list, json_value, ratfn_from_string


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail(2, "InvalidInput", message)


# the int <-> str digit limit, which interpreters before 3.10.7 do not have
_get_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def _error(obj):
    sys.stderr.write(json.dumps(obj, sort_keys=True) + "\n")


def _fail(code, kind, detail):
    _error({"error": kind, "detail": str(detail)})
    raise SystemExit(code)


def _emit(fmt, build, *args, **kwargs):
    """Write build(*args, **kwargs) as JSON or a table, lifting the limit on
    int-to-str conversion, which guards the inputs parsed before, for it."""
    limit = _get_digits()
    _set_digits(0)
    try:
        obj = build(*args, **kwargs)
    finally:
        _set_digits(limit)
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    else:
        for line in _table_lines(obj, ""):
            sys.stdout.write(line + "\n")


def _table_lines(obj, prefix):
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                yield f"{prefix}{k}:"
                yield from _table_lines(v, prefix + "  ")
            else:
                yield f"{prefix}{k}: {v}"
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                yield from _table_lines(v, prefix + "  ")
            else:
                yield f"{prefix}- {v}"
    else:
        yield f"{prefix}{obj}"


def _collect_params(extras):
    params = {}
    i = 0
    while i < len(extras):
        tok = extras[i]
        if not tok.startswith("--"):
            _fail(2, "InvalidInput", f"unexpected argument {tok!r}")
        name = tok[2:]
        if "=" in name:
            name, value = name.split("=", 1)
        else:
            i += 1
            if i >= len(extras):
                _fail(2, "InvalidInput", f"missing value for --{name}")
            value = extras[i]
        if name in params:
            _fail(2, "InvalidInput", f"parameter --{name} given more than once")
        params[name] = value
        i += 1
    return params


def _load_json_arg(raw, params):
    if params:  # no preset is built to read them
        _fail(2, "InvalidInput", f"unknown parameters for --input: {', '.join(sorted(params))}")
    try:
        if raw == "-":
            return json.loads(sys.stdin.read())
        if raw.lstrip().startswith(("{", "[")):
            return json.loads(raw)
        with open(raw, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        _fail(2, "InvalidInput", "--input is nested too deeply")


def _resolve_cf(args, params):
    if args.input is None:
        return build_preset(args.preset, params).cf
    return cf_from_json(_load_json_arg(args.input, params))


def _parse_w(raw):
    if "n" in raw:
        return ratfn_from_string(raw)
    return [json_value(part, "--w", "rational") for part in raw.split(",")]


def _member_json(member):
    return {
        "cf": cf_to_json(member.cf),
        "limit": member.limit.to_json(),
        "hypotheses": [
            {"name": h.name, "holds": h.holds, "detail": h.detail}
            for h in member.hypotheses
        ],
        "verified": member.verified,
    }


def _cmd_eval(args, params):
    from .dyadic import round_rational, to_str

    cf = _resolve_cf(args, params)
    tol = json_value(args.tol, "--tol", "rational")
    bits = args.precision_bits
    value, gap, terms_used, converged, _ = _limit(cf, tol, args.terms, bits, "auto", False)
    _emit(
        args.format,
        dict,
        value=to_str(round_rational(value, bits), bits),
        error_bound=to_str(round_rational(gap, bits), bits),
        terms_used=terms_used,
        converged=converged,
    )
    return 0


def _convergent_rows(cf, terms):
    rows = [{"n": c.index, "A": str(c.A), "B": str(c.B), "value": str(c.value)}
            for c in convergents(cf, terms)]  # str(UNDEFINED) is "Undefined"
    return {"convergents": rows}


def _cmd_convergents(args, params):
    _emit(args.format, _convergent_rows, _resolve_cf(args, params), args.terms)
    return 0


def _cmd_transform(args, params):
    from . import transforms

    op = args.op
    if (args.w is None) == (op in ("bauer-muir", "extend")):
        verb = "requires" if args.w is None else "does not read"
        _fail(2, "InvalidInput", f"transform {op} {verb} --w")
    if op in ("euler", "gen-euler", "product", "gen-product"):
        if not args.input:
            _fail(2, "InvalidInput", f"transform {op} requires --input")
        data = json_value(_load_json_arg(args.input, params), "$", "object")
        if "terms" in args.given:  # the output has as many terms as the input
            _fail(2, "InvalidInput", f"transform {op} does not read --terms")

        def rationals(key):
            return json_list(data.get(key), f"$.{key}", "rational")

        if op == "euler":
            out = transforms.euler_from_series(rationals("terms"))
        elif op == "gen-euler":
            out = transforms.generalized_euler(rationals("terms"), rationals("weights"))
        elif op == "product":
            out = transforms.product_to_cf(rationals("factors"))
        else:
            out = transforms.generalized_product(rationals("factors"), rationals("weights"))
        _emit(args.format, cf_to_json, out)
        return 0
    cf = _resolve_cf(args, params)
    if op == "even":
        _emit(args.format, cf_to_json, transforms.even_part(cf, args.terms))
    elif op == "odd":
        _emit(args.format, cf_to_json, transforms.odd_part(cf, args.terms))
    elif op == "bauer-muir":
        res = transforms.bauer_muir(cf, _parse_w(args.w), args.terms)
        _emit(
            args.format,
            lambda: {
                "cf": cf_to_json(res.cf),
                "w": [str(x) for x in res.w],
                "existence_margin": [str(x) for x in res.existence_margin],
            },
        )
    else:
        out = transforms.extension_bmoe(cf, _parse_w(args.w), args.terms)
        _emit(args.format, cf_to_json, out)
    return 0


def _cmd_family(args, params):
    _emit(args.format, _member_json, build_preset(args.preset, params))
    return 0


def _cmd_tietze(args, params):
    from . import analysis

    cf = _resolve_cf(args, params)
    _emit(args.format, analysis.tietze_check(cf, args.terms).to_json)
    return 0


def _cmd_verify(args, params):
    from . import analysis

    member = build_preset(args.preset, params)
    report = analysis.verify_limit(
        member,
        args.terms,
        args.precision_bits,
        json_value(args.tol, "--tol", "rational"),
        preset=args.preset,
        params=params,
    )
    _emit(args.format, report.to_json)
    return 0 if report.verdict == "Pass" else 1


# one row per verified identity, mirroring the stated tolerances exactly
_REPRODUCE_ROWS = [("brouncker", {}, 10000, "2.5e-4", 128)]
_REPRODUCE_ROWS += [("ex1.1", {"f": f, "m": str(m)}, 100, "1e-8", 128)
                    for f in ("1", "n", "n^2") for m in (1, 2, 3)]
_REPRODUCE_ROWS += [(preset, {}, 100, "1e-8", 128) for preset in ("ex2.2", "ex2.4", "ex2.5")]
_REPRODUCE_ROWS += [("ex3.3", {"A": str(a)}, 10000, "1e-3", 128) for a in range(1, 6)]
_REPRODUCE_ROWS += [
    ("ex3.4", {"k": str(k), "A": str(a)}, terms, tol, bits)
    for (k, terms, tol, bits) in ((2, 200, "1e-4", 128), (3, 400, "1e-6", 128), (11, 200, "1e-20", 192))
    for a in (1, 2, 3)
]
_REPRODUCE_ROWS += [("ex3.5", {"A": str(a)}, 120, "1e-12", 128) for a in (1, 2, 3)]
_REPRODUCE_ROWS += [("ex4.2", {"A": str(a)}, 10000, "1e-3", 128) for a in (-1, 0, 1)]
_REPRODUCE_ROWS += [("ex5.6", {"A": str(a)}, 60, "1e-10", 128) for a in (0, 1, 2, 3)]
_REPRODUCE_ROWS += [("entry13", {"a": "1", "b": "1", "d": "1"}, 200, "1e-6", 128)]


def _cmd_reproduce(args, params):
    if params:
        _fail(2, "InvalidInput", f"unknown parameters for reproduce-paper: {', '.join(sorted(params))}")
    from . import analysis

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    grouped = {}
    lines = []
    for preset, row_params, terms, tol, bits in _REPRODUCE_ROWS:
        member = build_preset(preset, dict(row_params))
        report = analysis.verify_limit(
            member, terms, bits, Fraction(tol), preset=preset, params=row_params
        )
        grouped.setdefault(preset, []).append(report.to_json())
        label = ",".join(f"{k}={row_params[k]}" for k in sorted(row_params)) or "-"
        lines.append(f"{preset} [{label}] terms={terms} tol={tol} {report.verdict}")
    for preset, rows in grouped.items():
        path = os.path.join(out_dir, f"{preset.replace('.', '_')}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps({"example": preset, "rows": rows}, sort_keys=True, indent=2)
                + "\n"
            )
    passed = sum(1 for line in lines if line.endswith(" Pass"))
    lines.append(f"{passed}/{len(_REPRODUCE_ROWS)} rows passed")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if passed == len(_REPRODUCE_ROWS) else 1


# 16 times the widest benchmark row; 10^10 bits would not fit in memory
_MAX_PRECISION_BITS = 1 << 16

_OPTIONS = {
    "preset": {"required": True},
    "op": {"required": True, "choices": ["euler", "gen-euler", "product", "gen-product",
                                         "even", "odd", "bauer-muir", "extend"]},
    "w": {},
    "terms": {"type": int, "default": 64},
    "tol": {"default": "1e-10"},
    "precision-bits": {"type": int, "default": 128},
    "format": {"choices": ["json", "table"], "default": "json"},
    "out": {"default": "paper_reports"},
}

# command -> (handler, the options it reads), where "source" is one of --preset
# and --input; an option it does not declare reaches it as a preset parameter
_COMMANDS = {
    "eval": (_cmd_eval, ("source", "terms", "tol", "precision-bits", "format")),
    "convergents": (_cmd_convergents, ("source", "terms", "format")),
    "transform": (_cmd_transform, ("op", "w", "source", "terms", "format")),
    "family": (_cmd_family, ("preset", "format")),
    "tietze": (_cmd_tietze, ("source", "terms", "format")),
    "verify": (_cmd_verify, ("preset", "terms", "tol", "precision-bits", "format")),
    "reproduce-paper": (_cmd_reproduce, ("out",)),
}


def _build_parser():
    parser = _Parser(prog="polycf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        # abbreviation matching would swallow preset params like --f as --format
        p = sub.add_parser(name, allow_abbrev=False)
        for option in options:
            if option == "source":
                group = p.add_mutually_exclusive_group(required=True)
                group.add_argument("--preset")
                group.add_argument("--input")
            else:
                p.add_argument("--" + option, **_OPTIONS[option])
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args, extras = _build_parser().parse_known_args(argv)
    # the option names given, read from argv: argparse keeps a repeat's last value
    args.given = [tok[2:].partition("=")[0] for tok in argv if tok.startswith("--")]
    for option in _COMMANDS[args.command][1]:
        for name in ("preset", "input") if option == "source" else (option,):
            if args.given.count(name) > 1:
                _fail(2, "InvalidInput", f"option --{name} given more than once")
    if getattr(args, "precision_bits", 0) > _MAX_PRECISION_BITS:
        _fail(2, "InvalidInput", f"--precision-bits must be at most {_MAX_PRECISION_BITS}")
    params = _collect_params(extras)
    try:
        return _COMMANDS[args.command][0](args, params)
    except HypothesisViolation as e:
        _error({"error": "HypothesisViolation", "condition": e.name, "detail": e.detail})
        return 1
    except PolycfError as e:
        _error({"error": type(e).__name__, "detail": str(e)})
        return 1
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as e:
        _fail(2, "InvalidInput", e)


if __name__ == "__main__":
    sys.exit(main())
