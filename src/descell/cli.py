"""Command-line surface: validate, homology, descriptive, gauge, persist.

Exit codes: 0 success (and a clean report for validate/gauge),
1 validation or semantic failure, 2 usage or parse error. Diagnostics go
to stderr, results to stdout or --out. Output is deterministic: the same
input bytes and flags always produce the same output bytes.

A command line that names a subcommand and spells each of its options in
full is read without argparse (``_read_argv``), from the same table of
options that argparse's parser is built from. Any other command line,
help and every error go to that parser, which is imported and built
only then.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from types import SimpleNamespace

from .bundle import verify_cocycle
from .cellcomplex import CellComplex
from .descriptive import DescriptorBall, _carver
from .errors import DescellError, InvalidComplexError, TooLargeError
from .formats import (
    MAX_CELL_DIM,
    ParseDiagnostic,
    _fmt_descriptor,
    emit_signature,
    load_file,
    load_probe,
    load_scenario_file,
    parse_chart_lines,
    parse_complex,
    parse_scenario,
)
from .homology import MAX_ORACLE_CELLS, _masked_betti, homology, oracle_homology
from .persistence import signature

USAGE_ERROR = 2
SEMANTIC_ERROR = 1


def _fail(message: str, code: int) -> int:
    print(f"descell: error: {message}", file=sys.stderr)
    return code


def _print_diags(diags: list[ParseDiagnostic]) -> None:
    for d in diags:
        print(str(d), file=sys.stderr)


def _load_complex(path: str) -> CellComplex | None:
    complex, diags = load_file(path, parse_complex)
    _print_diags(diags)
    return complex


def _load_probe_for(complex: CellComplex, path: str):
    """Returns (probe, exit_code); exit_code is None on success.

    Coverage gaps are semantic failures (1); anything else about the
    file is a parse failure (2).
    """
    probe, diags = load_file(path, load_probe, complex)
    _print_diags(diags)
    if probe is None:
        only_coverage = all(d.code == "coverage" for d in diags if d.severity == "error")
        return None, SEMANTIC_ERROR if only_coverage else USAGE_ERROR
    return probe, None


def _parse_alpha(text: str) -> tuple[float, ...] | None:
    try:
        alpha = tuple(float(p) for p in text.split(";"))
    except ValueError:
        return None
    return alpha if all(math.isfinite(v) for v in alpha) else None


def _non_negative_float(text: str) -> float:
    """argparse type: a finite real number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        import argparse
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        import argparse
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _int_up_to(limit: int):
    """argparse type: an integer from 0 to ``limit``."""
    def parse(text: str) -> int:
        value = _non_negative_int(text)
        if value > limit:
            import argparse
            raise argparse.ArgumentTypeError(
                f"expected an integer from 0 to {limit}, got {text!r}")
        return value
    return parse


# Dimensions are bounded like the cells of complex files; the oracle's
# cell count like the chains it can enumerate.
_max_dim = _int_up_to(MAX_CELL_DIM)
_oracle_bound = _int_up_to(MAX_ORACLE_CELLS)


# -- commands ------------------------------------------------------------


def cmd_validate(args) -> int:
    complex = _load_complex(args.complex)
    if complex is None:
        return USAGE_ERROR
    violations = complex.validate()
    if not violations:
        print("OK")
        return 0
    for v in violations:
        print(str(v))
    return SEMANTIC_ERROR


def cmd_homology(args) -> int:
    complex = _load_complex(args.complex)
    if complex is None:
        return USAGE_ERROR
    try:
        result = homology(complex, max_p=args.max_dim)
    except InvalidComplexError as exc:
        for v in exc.violations:
            print(str(v), file=sys.stderr)
        return _fail("complex is invalid", SEMANTIC_ERROR)
    if args.oracle:
        try:
            reference = oracle_homology(complex, max_cells=args.oracle_bound)
        except TooLargeError as exc:
            return _fail(str(exc), SEMANTIC_ERROR)
        # The oracle has a record for each dimension of the complex, in
        # order from 0; the engine's stop at --max-dim.
        for dim, (eng, ref) in enumerate(zip(result.ranks(), reference.ranks())):
            if eng != ref:
                return _fail(
                    "oracle disagreement at dim {}: engine (z={}, b={}, betti={}) "
                    "vs oracle (z={}, b={}, betti={})".format(dim, *eng, *ref), SEMANTIC_ERROR)
    sys.stdout.write(result.to_text(include_generators=args.generators))
    return 0


def cmd_descriptive(args) -> int:
    complex = _load_complex(args.complex)
    if complex is None:
        return USAGE_ERROR
    # A parsed complex declares every face it names, so it is invalid
    # exactly when its sub-complex with nothing removed is.
    betti = _masked_betti(complex, complex.max_dim, args.dim)
    try:
        betti(())
    except InvalidComplexError:
        return _fail("complex is invalid", SEMANTIC_ERROR)
    probe, code = _load_probe_for(complex, args.probe)
    if probe is None:
        return code
    alphas, carve = _carver(probe, args.dim, args.mode)
    if not args.spectrum:
        alpha = _parse_alpha(args.alpha)
        if alpha is None:
            return _fail(f"malformed alpha {args.alpha!r}", USAGE_ERROR)
        if len(alpha) != probe.arity:
            return _fail(
                f"alpha has arity {len(alpha)}, probe has {probe.arity}", USAGE_ERROR)
        alphas = [alpha]
    for alpha in alphas:
        removed = carve(DescriptorBall(alpha, args.delta))
        bettis = " ".join(str(b) for b in betti(removed))
        kept = len(complex) - sum(mask.bit_count() for mask in removed)
        print(f"alpha {_fmt_descriptor(alpha)} cells {kept} betti {bettis}")
    return 0


def cmd_gauge(args) -> int:
    complex = _load_complex(args.complex)
    if complex is None:
        return USAGE_ERROR
    probe, code = _load_probe_for(complex, args.probe)
    if probe is None:
        return code
    charts, diags = load_file(args.charts, parse_chart_lines, probe)
    _print_diags(diags)
    if charts is None:
        return USAGE_ERROR
    if not charts:
        return _fail("chart file declares no charts", USAGE_ERROR)
    report = verify_cocycle(charts, tolerance=args.tolerance, probe=probe)
    sys.stdout.write(report.to_text())
    return 0 if report.clean else SEMANTIC_ERROR


def cmd_persist(args) -> int:
    # Failures to read or parse the scenario file itself are parse errors;
    # failures in files it references are scenario (semantic) errors.
    sf, diags = load_file(args.scenario, parse_scenario)
    _print_diags(diags)
    if sf is None:
        return USAGE_ERROR
    scenario, diags = load_scenario_file(sf, os.path.dirname(args.scenario), args.scenario)
    _print_diags(diags)
    if scenario is None:
        return SEMANTIC_ERROR
    try:
        sig = signature(scenario, delta=args.delta, mode=args.mode,
                        max_p=args.max_dim)
    except DescellError as exc:
        return _fail(str(exc), SEMANTIC_ERROR)
    text = emit_signature(sig)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(str(exc), SEMANTIC_ERROR)
        print(f"rows {len(sig)}")
    else:
        sys.stdout.write(text)
    return 0


# -- parser ------------------------------------------------------------

# Every option with its argparse keywords, stated once for all the
# subcommands that take it (its dest is argparse's, from the name). The
# argparse builders and ``_read_argv`` both read this table.
_OPTIONS = {
    "--max-dim": {"type": _max_dim},
    "--generators": {"action": "store_true"},
    "--oracle": {"action": "store_true"},
    "--oracle-bound": {"type": _oracle_bound, "default": 14},
    "--probe": {"required": True},
    "--alpha": {},
    "--spectrum": {"action": "store_true"},
    "--delta": {"type": _non_negative_float, "default": 0.0},
    "--dim": {"type": _non_negative_int, "default": 2},
    "--mode": {"choices": ("remove", "retain"), "default": "remove"},
    "--charts": {"required": True},
    "--tolerance": {"type": _non_negative_float, "default": 0.0},
    "--out": {},
}

# name -> (help, handler, its arguments in order, the positional first,
# each with its help text or None, and the names of which exactly one
# must be given)
_COMMANDS = {
    "validate": ("check structural integrity of a complex file", cmd_validate,
                 {"complex": "complex file path"}, ()),
    "homology": ("Betti numbers and ranks of a complex", cmd_homology, {
        "complex": None,
        "--max-dim": None,
        "--generators": "also print a generator line per homology class",
        "--oracle": "cross-check against the enumeration oracle",
        "--oracle-bound": "cell-count bound for the oracle, "
                          f"0 to {MAX_ORACLE_CELLS} (default %(default)s)"}, ()),
    "descriptive": ("Betti numbers of descriptor-ball sub-complexes", cmd_descriptive, {
        "complex": None,
        "--probe": "descriptor CSV path",
        "--alpha": "ball center, ';'-joined reals",
        "--spectrum": "one block per observed descriptor value",
        "--delta": "ball radius (default 0)",
        "--dim": "dimension of the cells selected by the ball (default %(default)s)",
        "--mode": None}, ("--alpha", "--spectrum")),
    "gauge": ("check the gauge identities of a chart cover", cmd_gauge, {
        "complex": None,
        "--probe": "descriptor CSV path",
        "--charts": "chart file path",
        "--tolerance": None}, ()),
    "persist": ("signature table of a scenario", cmd_persist, {
        "scenario": "scenario file path",
        "--delta": None,
        "--mode": None,
        "--max-dim": None,
        "--out": "write the CSV here and print the row count"}, ()),
}


def _add_arguments(parser, command: str) -> None:
    """Give an argparse parser the arguments and defaults of ``command``."""
    _, handler, arguments, one_of = _COMMANDS[command]
    group = parser.add_mutually_exclusive_group(required=True) if one_of else None
    for name, text in arguments.items():
        (group if name in one_of else parser).add_argument(
            name, help=text, **_OPTIONS.get(name, {}))
    parser.set_defaults(func=handler, command=command)


def build_parser():
    """The ``descell`` argument parser, with every subcommand."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="descell",
        description="Mod-2 cellular homology with descriptor-driven analysis.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, *_) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary), name)
    return parser


def _dest(name: str) -> str:
    """The attribute argparse stores an option's value in."""
    return name[2:].replace("-", "_")


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for ``argv``, read without argparse;
    None (argparse then reads ``argv`` and words its help or error)
    unless ``argv`` names a subcommand, gives its positional once and
    every required option, and spells each option in full, as
    ``--name value`` or ``--name=value``, with a value that does not
    start with '-' after a space, no value on a flag, and every value
    of its type and among its choices."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, *tokens = argv
    _, handler, arguments, one_of = _COMMANDS[command]
    positional, *names = arguments
    values = {"func": handler, "command": command}
    for name in names:
        spec = _OPTIONS[name]
        values[_dest(name)] = spec.get("default", False if "action" in spec else None)
    seen = set()
    rest = iter(tokens)
    for token in rest:
        if not token.startswith("-"):
            if positional in values:
                return None
            values[positional] = token
            continue
        name, eq, value = token.partition("=")
        if name not in names:
            return None
        spec = _OPTIONS[name]
        if "action" in spec:
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(rest, "-")     # a missing value declines too
                if value.startswith("-"):
                    return None
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except Exception:   # argparse words it, or raises it alike
                    return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        values[_dest(name)] = value
        seen.add(name)
    required = {name for name in names if _OPTIONS[name].get("required")}
    if (positional not in values or not required <= seen
            or one_of and len(seen.intersection(one_of)) != 1):
        return None
    return SimpleNamespace(**values)


def _join_alpha(argv: list[str]) -> None:
    """Join, in place, each token before any ``--`` that argparse expands
    to ``--alpha`` (a prefix of it that no other argument of
    ``descriptive`` starts with) with the next token into one
    ``--alpha=VALUE`` when ``_parse_alpha`` reads that token: argparse
    would take a separate value that starts with '-' for an option. Any
    other next token is left to argparse's messages."""
    arguments = _COMMANDS["descriptive"][2]
    end = argv.index("--") if "--" in argv else len(argv)
    for i in reversed(range(end - 1)):
        if ([name for name in arguments if name.startswith(argv[i])] == ["--alpha"]
                and _parse_alpha(argv[i + 1]) is not None):
            argv[i:i + 2] = [f"--alpha={argv[i + 1]}"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The cyclic collector is paused while the command runs: the files it
    # parses and the results it builds hold no reference cycles, so the
    # passes their allocations would trigger free nothing. The earlier
    # state is restored however the command ends.
    enabled = gc.isenabled()
    gc.disable()
    try:
        if argv and argv[0] == "descriptive":
            _join_alpha(argv)
        args = _read_argv(argv) or build_parser().parse_args(argv)
        return args.func(args)
    except DescellError as exc:
        return _fail(str(exc), SEMANTIC_ERROR)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
