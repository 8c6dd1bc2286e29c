"""Seeded inputs of the four workloads, as plain data.

The seed picks parameter values from sets whose members cost about the same
and shuffles the order; it never changes which operations or layers a pass
exercises, so passes of different seeds do the same amount of work.
"""

import random

# (preset, {param: choices}) drawn from the README preset table
PARAM_CHOICES = {
    "brouncker": {},
    "e": {},
    "ex1.1": {"f": ["1", "n", "n^2"], "m": ["1", "2", "3"]},
    "ex2.2": {},
    "ex2.4": {},
    "ex2.5": {},
    "ex3.3": {"A": ["1", "2", "3", "4", "5"]},
    "ex3.4": {"k": ["2", "3"], "A": ["1", "2", "3"]},
    "ex3.5": {"A": ["1", "2", "3"]},
    "ex4.2": {"A": ["-1", "0", "1"]},
    "ex5.6": {"A": ["0", "1", "2", "3"]},
    "entry13": {"a": ["1"], "b": ["1"], "d": ["1"]},
}

# The 38-row grid of the paper, as published: (preset, params, terms, tol, bits).
PAPER_GRID = (
    [("brouncker", {}, 10000, "2.5e-4", 128)]
    + [("ex1.1", {"f": f, "m": str(m)}, 100, "1e-8", 128)
       for f in ("1", "n", "n^2") for m in (1, 2, 3)]
    + [(p, {}, 100, "1e-8", 128) for p in ("ex2.2", "ex2.4", "ex2.5")]
    + [("ex3.3", {"A": str(a)}, 10000, "1e-3", 128) for a in range(1, 6)]
    + [("ex3.4", {"k": str(k), "A": str(a)}, terms, tol, bits)
       for (k, terms, tol, bits) in ((2, 200, "1e-4", 128), (3, 400, "1e-6", 128),
                                     (11, 200, "1e-20", 192))
       for a in (1, 2, 3)]
    + [("ex3.5", {"A": str(a)}, 120, "1e-12", 128) for a in (1, 2, 3)]
    + [("ex4.2", {"A": str(a)}, 10000, "1e-3", 128) for a in (-1, 0, 1)]
    + [("ex5.6", {"A": str(a)}, 60, "1e-10", 128) for a in (0, 1, 2, 3)]
    + [("entry13", {"a": "1", "b": "1", "d": "1"}, 200, "1e-6", 128)]
)

# exact-core: op -> {preset: size}; every pair is valid for every seed's params
EXACT_OPS = {
    "convergents": {"brouncker": 1000, "e": 400, "ex1.1": 600, "ex2.2": 400,
                    "ex2.4": 400, "ex2.5": 400, "ex3.3": 1000, "ex3.4": 300,
                    "ex3.5": 600, "ex4.2": 1000, "ex5.6": 400, "entry13": 500},
    "evaluate": {p: 300 for p in PARAM_CHOICES},
    "even_part": {p: 150 for p in PARAM_CHOICES},
    "odd_part": {p: 150 for p in PARAM_CHOICES},
    "bauer_muir": {p: 150 for p in PARAM_CHOICES if p != "entry13"},
    "extension_bmoe": {p: 150 for p in PARAM_CHOICES if p != "entry13"},
    "to_integer_cf": {p: 150 for p in PARAM_CHOICES},
    "tietze_check": {p: 200 for p in PARAM_CHOICES if p != "entry13"},
    "growth_diagnostics": {"brouncker": 200, "e": 200, "ex2.2": 200,
                           "ex2.4": 200, "ex2.5": 200},
}
EXACT_REPS = 2            # slots per (op, preset), each with its own params
# parameters that change an op's cost a lot are fixed per slot, not drawn
EXACT_SLOT_PARAMS = {"ex3.4": ("k", ["2", "3"])}
# even_part divides by b_2 = 4 - 2A, which vanishes for ex3.3 at A = 2
INVALID = {("even_part", "ex3.3"): {"A": "2"}}
EULER_SERIES = 16         # euler_from_series ops per pass
EULER_TERMS = 300
EVALUATE_TOL = "1e-60"    # small enough that the exact path runs many terms

# high-precision
HP_BITS = (256, 1024, 4096)
HP_PRESETS = ("e", "ex5.6", "ex3.5", "ex1.1", "ex2.2", "ex2.4", "ex2.5")
HP_TERMS = 2000
# f sets the degree of ex1.1's terms, and so the cost of its 256-bit
# verification, which sits at the median latency: only m varies
HP_FIXED_PARAMS = {"ex1.1": {"f": "n"}}
ZETA_BITS = (128, 192, 256)
ZETA_PROBE = {"name": "Zeta", "params": {"k": 3}, "bits": 1024}

# cold-cli: command -> requests per pass (100 fresh processes in all)
CLI_MIX = {"eval": 17, "verify": 17, "family": 16, "tietze": 16,
           "convergents": 17, "transform": 17}
CLI_VERIFY_ROWS = [  # (preset, terms, tol): rows that converge within their budget
    ("e", 60, "1e-10"), ("ex5.6", 60, "1e-10"), ("ex3.5", 120, "1e-12"),
    ("ex1.1", 100, "1e-8"), ("ex2.2", 100, "1e-8"), ("ex2.4", 100, "1e-8"),
    ("ex2.5", 100, "1e-8"), ("ex3.4", 200, "1e-4"),
]
CLI_TRANSFORMS = {"even": "even_part", "odd": "odd_part", "bauer-muir": "bauer_muir",
                  "extend": "extension_bmoe"}
CLI_INTEGER_PRESETS = ["brouncker", "e", "ex1.1", "ex2.2", "ex2.4", "ex2.5",
                       "ex3.3", "ex3.5", "ex4.2", "ex5.6"]


def pick_params(rng, preset, op=None):
    while True:
        params = {k: rng.choice(v) for k, v in sorted(PARAM_CHOICES[preset].items())}
        if params != INVALID.get((op, preset)):
            return params


def exact_core(seed):
    rng = random.Random(seed)
    ops = []
    for op, sizes in sorted(EXACT_OPS.items()):
        for preset, size in sorted(sizes.items()):
            for rep in range(EXACT_REPS):
                params = pick_params(rng, preset, op)
                if preset in EXACT_SLOT_PARAMS:
                    key, values = EXACT_SLOT_PARAMS[preset]
                    params[key] = values[rep]
                ops.append({"op": op, "preset": preset, "params": params, "size": size})
    for _ in range(EULER_SERIES):
        ops.append({"op": "euler_from_series", "k": rng.choice([2, 3, 4]),
                    "offset": rng.randint(1, 9), "size": EULER_TERMS})
    rng.shuffle(ops)
    return ops


def high_precision(seed):
    """Oracle calls for the constants of the presets, then verifications.

    The oracle calls keep one order: every miss rewrites the whole cache
    file, so a miss costs more the later it comes, and these calls sit at
    the median latency.  The seed orders the verifications and picks their
    parameters.
    """
    rng = random.Random(seed)
    constants = []
    for bits in HP_BITS:
        constants += [
            {"name": "PiOver4", "params": {}, "bits": bits},
            {"name": "E", "params": {}, "bits": bits},
            {"name": "BrounckerPi", "params": {}, "bits": bits},
            {"name": "Root", "params": {"p": 12, "q": 7, "r": 1, "s": 5}, "bits": bits},
            {"name": "SineProduct", "params": {"m": 3}, "bits": bits},
        ]
    constants += [{"name": "Zeta", "params": {"k": 3}, "bits": bits} for bits in ZETA_BITS]
    verifies = [{"preset": p, "params": dict(pick_params(rng, p), **HP_FIXED_PARAMS.get(p, {})),
                 "bits": bits, "terms": HP_TERMS} for p in HP_PRESETS for bits in HP_BITS]
    rng.shuffle(verifies)
    return {"constants": constants, "verifies": verifies, "probe": ZETA_PROBE}


def _preset_args(preset, params):
    args = ["--preset", preset]
    for k, v in sorted(params.items()):
        args += [f"--{k}", v]
    return args


def _w_list(count, first):
    return ",".join([first] + ["1/2"] * (count - 1))


def cold_cli(seed):
    """argv lists for the fresh polycf processes of one pass."""
    rng = random.Random(seed)
    reqs = []
    for cmd, count in sorted(CLI_MIX.items()):
        for i in range(count):
            if cmd == "verify":
                preset, terms, tol = CLI_VERIFY_ROWS[i % len(CLI_VERIFY_ROWS)]
                params = pick_params(rng, preset)
                if preset == "ex3.4":
                    params = {"k": "2", "A": "1"}
                argv = ["verify"] + _preset_args(preset, params) + [
                    "--terms", str(terms), "--tol", tol]
            elif cmd == "eval":
                preset = rng.choice(sorted(PARAM_CHOICES))
                argv = ["eval"] + _preset_args(preset, pick_params(rng, preset)) + [
                    "--terms", "64", "--tol", "1e-30"]
            elif cmd == "family":
                preset = rng.choice(sorted(PARAM_CHOICES))
                argv = ["family"] + _preset_args(preset, pick_params(rng, preset))
            elif cmd == "tietze":
                preset = rng.choice(CLI_INTEGER_PRESETS)
                argv = ["tietze"] + _preset_args(preset, pick_params(rng, preset)) + [
                    "--terms", "100"]
            elif cmd == "convergents":
                preset = rng.choice(sorted(PARAM_CHOICES))
                argv = ["convergents"] + _preset_args(preset, pick_params(rng, preset)) + [
                    "--terms", "30"]
            else:
                op = ("even", "odd", "bauer-muir", "extend", "euler")[i % 5]
                if op == "euler":
                    k = rng.choice([2, 3])
                    terms = ["0"] + [f"1/{n ** k}" for n in range(1, 41)]
                    argv = ["transform", "--op", "euler", "--input",
                            '{"terms": [%s]}' % ", ".join(f'"{t}"' for t in terms)]
                else:
                    preset = rng.choice(CLI_INTEGER_PRESETS)
                    argv = ["transform", "--op", op] + _preset_args(
                        preset, pick_params(rng, preset, CLI_TRANSFORMS[op])) + ["--terms", "20"]
                    if op == "bauer-muir":
                        argv += ["--w", _w_list(21, "1/2")]
                    elif op == "extend":
                        argv += ["--w", _w_list(22, "0")]
            reqs.append(argv)
    rng.shuffle(reqs)
    return reqs
