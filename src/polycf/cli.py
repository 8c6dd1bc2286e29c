"""Command-line interface: evaluate, transform, certify, and reproduce the
full identity suite as deterministic reports.

All numeric output is either an exact rational rendered as a decimal string
("p/q") or a decimal at an explicitly requested precision, so report files
are byte-stable across runs.
"""

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import transforms
from .cf import _limit, approximants, cf_from_json, convergents
from .errors import HypothesisViolation, PolycfError
from .families import build_preset
from .poly import json_list, json_value, ratfn_from_string


# the int <-> str digit limit, which interpreters before 3.10.7 do not have
_get_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def _error(obj):
    sys.stderr.write(json.dumps(obj, sort_keys=True) + "\n")


def _fail(detail):
    _error({"error": "InvalidInput", "detail": str(detail)})
    raise SystemExit(2)


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
    """A dict's or list's lines; each list item follows a "-", or a nested one its own line."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                yield f"{prefix}{k}:"
                yield from _table_lines(v, prefix + "  ")
            else:
                yield f"{prefix}{k}: {v}"
    else:
        for v in obj:
            if isinstance(v, list) and not any(isinstance(x, (dict, list)) for x in v):
                v = f"[{', '.join(map(str, v))}]"  # an innermost list, such as a pair, on one line
            if isinstance(v, (dict, list)):
                yield f"{prefix}-"
                yield from _table_lines(v, prefix + "  ")
            else:
                yield f"{prefix}- {v}"


def _load_json_arg(raw, params):
    if params:  # no preset is built to read them
        _fail(f"unknown parameters for --input: {', '.join(sorted(params))}")
    try:
        if raw == "-":
            return json.loads(sys.stdin.read())
        if raw.lstrip().startswith(("{", "[")):
            return json.loads(raw)
        with open(raw, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        _fail("--input is nested too deeply")


def _resolve_cf(args, params):
    if args.input is None:
        return build_preset(args.preset, params).cf
    return cf_from_json(_load_json_arg(args.input, params))


def _parse_w(raw):
    if "n" in raw:
        return ratfn_from_string(raw)
    return [json_value(part, "--w", "rational") for part in raw.split(",")]


def _cmd_eval(args, params):
    from .dyadic import round_rational, to_str

    cf = _resolve_cf(args, params)
    tol = json_value(args.tol, "--tol", "rational")
    bits = args.precision_bits
    value, gap, terms_used, converged, _ = _limit(cf, tol, args.terms, bits, False)
    _emit(args.format, dict, value=to_str(round_rational(value, bits), bits),
          error_bound=to_str(round_rational(gap and Fraction(*gap), bits), bits),
          terms_used=terms_used, converged=converged)
    return 0


def _convergent_rows(cf, terms):
    # each value is reduced from the gaps kernel's stripped pair; str(UNDEFINED) is "Undefined"
    rows = [{"n": c.index, "A": str(c.A), "B": str(c.B), "value": str(v)}
            for c, v in zip(convergents(cf, terms), approximants(cf, terms))]
    return {"convergents": rows}


def _cmd_convergents(args, params):
    _emit(args.format, _convergent_rows, _resolve_cf(args, params), args.terms)
    return 0


# transform op -> (its transforms function, what it reads): the keys of its
# --input object, "w" for a CF and --w, or None for a CF alone
_TRANSFORMS = {
    "euler": (transforms.euler_from_series, ("terms",)),
    "gen-euler": (transforms.generalized_euler, ("terms", "weights")),
    "product": (transforms.product_to_cf, ("factors",)),
    "gen-product": (transforms.generalized_product, ("factors", "weights")),
    "even": (transforms.even_part, None),
    "odd": (transforms.odd_part, None),
    "bauer-muir": (transforms.bauer_muir, "w"),
    "extend": (transforms.extension_bmoe, "w"),
}


def _cmd_transform(args, params):
    op = args.op
    build, reads = _TRANSFORMS[op]
    if (args.w is None) == (reads == "w"):
        verb = "requires" if args.w is None else "does not read"
        _fail(f"transform {op} {verb} --w")
    if isinstance(reads, tuple):
        if not args.input:
            _fail(f"transform {op} requires --input")
        data = json_value(_load_json_arg(args.input, params), "$", "object")
        if "terms" in args.given:  # the output has as many terms as the input
            _fail(f"transform {op} does not read --terms")
        out = build(*[json_list(data.get(key), f"$.{key}", "rational") for key in reads])
    else:
        cf = _resolve_cf(args, params)
        out = build(cf, args.terms) if reads is None else build(cf, _parse_w(args.w), args.terms)
    _emit(args.format, out.to_json)
    return 0


def _cmd_family(args, params):
    member = build_preset(args.preset, params)
    _emit(args.format, lambda: dict(member.to_json(), verified=member.verified))
    return 0


def _cmd_tietze(args, params):
    from . import analysis

    cf = _resolve_cf(args, params)
    _emit(args.format, analysis.tietze_check(cf, args.terms).to_json)
    return 0


def _cmd_verify(args, params):
    from . import analysis

    member = build_preset(args.preset, params)
    report = analysis.verify_limit(member, args.terms, args.precision_bits,
                                   json_value(args.tol, "--tol", "rational"),
                                   preset=args.preset, params=params)
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
        _fail(f"unknown parameters for reproduce-paper: {', '.join(sorted(params))}")
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
            fh.write(json.dumps({"example": preset, "rows": rows}, sort_keys=True, indent=2) + "\n")
    passed = sum(1 for line in lines if line.endswith(" Pass"))
    lines.append(f"{passed}/{len(_REPRODUCE_ROWS)} rows passed")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if passed == len(_REPRODUCE_ROWS) else 1


# 16 times the widest benchmark row; 10^10 bits would not fit in memory
_MAX_PRECISION_BITS = 1 << 16

# option -> (kind, default), where a kind is int, a tuple of the allowed values, or str
_OPTIONS = {
    "preset": (str, None), "input": (str, None), "op": (tuple(_TRANSFORMS), None),
    "w": (str, None), "terms": (int, 64), "tol": (str, "1e-10"), "precision-bits": (int, 128),
    "format": (("json", "table"), "json"), "out": (str, "paper_reports"),
}

# command -> (handler, the options it reads)
_COMMANDS = {
    "eval": (_cmd_eval, ("preset", "input", "terms", "tol", "precision-bits", "format")),
    "convergents": (_cmd_convergents, ("preset", "input", "terms", "format")),
    "transform": (_cmd_transform, ("op", "w", "preset", "input", "terms", "format")),
    "family": (_cmd_family, ("preset", "format")),
    "tietze": (_cmd_tietze, ("preset", "input", "terms", "format")),
    "verify": (_cmd_verify, ("preset", "terms", "tol", "precision-bits", "format")),
    "reproduce-paper": (_cmd_reproduce, ("out",)),
}
_RULES = """--op is required, and so is exactly one of --preset and --input where a command
reads both, else --preset. Any other --name value is a preset parameter. A value
follows "=" or is the next argument, which may begin with "-"."""


def _usage(commands):
    """Print the commands' options, each with its default, choices or name, and exit 0."""
    lines = ["usage: polycf COMMAND [--name value | --name=value ...]", ""]
    for command in commands:
        shown = [f"--{name} " + ("|".join(kind) if isinstance(kind, tuple)
                                 else str(default or name.upper()))
                 for name in _COMMANDS[command][1] for kind, default in [_OPTIONS[name]]]
        lines.append(f"  {command} {' '.join(shown)}")
    sys.stdout.write("\n".join(lines + ["", _RULES]) + "\n")
    raise SystemExit(0)


def _choose(what, value, choices):
    if value not in choices:
        _fail(f"argument {what}: invalid choice: {value!r} "
              f"(choose from {', '.join(map(repr, choices))})")


def _parse(argv):
    """The command's options, typed by _OPTIONS, and its preset parameters, as
    (args, params), by _RULES. Where argparse worded an error, its words are kept."""
    if argv and argv[0] in ("-h", "--help"):
        _usage(_COMMANDS)
    if not argv:
        _fail("the following arguments are required: command")
    _choose("command", argv[0], _COMMANDS)
    declared = _COMMANDS[argv[0]][1]
    args = SimpleNamespace(command=argv[0], given=[],
                           **{name.replace("-", "_"): _OPTIONS[name][1] for name in declared})
    params, rest = {}, iter(argv[1:])
    for tok in rest:
        if tok in ("-h", "--help"):
            _usage([args.command])
        name, eq, value = tok[2:].partition("=")
        if not tok.startswith("--") or not name:
            _fail(f"unexpected argument {tok!r}")
        value = value if eq else next(rest, None)
        if value is None:
            _fail(f"argument --{name}: expected one argument" if name in declared
                  else f"missing value for --{name}")
        if name in args.given:
            _fail(f"{'option' if name in declared else 'parameter'} --{name} given more than once")
        args.given.append(name)
        if name not in declared:
            params[name] = value
            continue
        kind = _OPTIONS[name][0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(f"argument --{name}: invalid int value: {value!r}")
        elif kind is not str:
            _choose(f"--{name}", value, kind)
        other = {"preset": "input", "input": "preset"}.get(name)
        if other in declared and other in args.given:
            _fail(f"argument --{name}: not allowed with argument --{other}")
        setattr(args, name.replace("-", "_"), value)
    if "op" in declared and args.op is None:
        _fail("the following arguments are required: --op")
    if "preset" in declared and args.preset is None and getattr(args, "input", None) is None:
        _fail("one of the arguments --preset --input is required" if "input" in declared
              else "the following arguments are required: --preset")
    return args, params


def main(argv=None):
    args, params = _parse(sys.argv[1:] if argv is None else argv)
    if getattr(args, "precision_bits", 0) > _MAX_PRECISION_BITS:
        _fail(f"--precision-bits must be at most {_MAX_PRECISION_BITS}")
    try:
        return _COMMANDS[args.command][0](args, params)
    except HypothesisViolation as e:
        _error({"error": "HypothesisViolation", "condition": e.name, "detail": e.detail})
        return 1
    except PolycfError as e:
        _error({"error": type(e).__name__, "detail": str(e)})
        return 1
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as e:
        _fail(e)


if __name__ == "__main__":
    sys.exit(main())
