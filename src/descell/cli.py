"""Command-line surface: validate, homology, descriptive, gauge, persist.

Exit codes: 0 success (and a clean report for validate/gauge),
1 validation or semantic failure, 2 usage or parse error. Diagnostics go
to stderr, results to stdout or --out. Output is deterministic: the same
input bytes and flags always produce the same output bytes.
"""

from __future__ import annotations

import argparse
import math
import sys

from .bundle import verify_cocycle
from .cellcomplex import CellComplex
from .descriptive import DescriptorBall, alpha_spectrum, removed_cells
from .errors import DescellError, InvalidComplexError, TooLargeError
from .formats import (
    MAX_CELL_DIM,
    ParseDiagnostic,
    _fmt_descriptor,
    emit_signature,
    load_probe,
    load_scenario,
    parse_charts,
    parse_complex,
    read_text,
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


def _read_file(path: str) -> str | None:
    try:
        return read_text(path)
    except OSError as exc:
        print(f"descell: error: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"descell: error: {path}: not UTF-8 text ({exc.reason} at byte {exc.start})",
              file=sys.stderr)
    return None


def _load_complex(path: str) -> CellComplex | None:
    text = _read_file(path)
    if text is None:
        return None
    complex, diags = parse_complex(text, path)
    _print_diags(diags)
    return complex


def _load_probe_for(complex: CellComplex, path: str):
    """Returns (probe, exit_code); exit_code is None on success.

    Coverage gaps are semantic failures (1); anything else about the
    file is a parse failure (2).
    """
    text = _read_file(path)
    if text is None:
        return None, USAGE_ERROR
    probe, diags = load_probe(text, complex, path)
    _print_diags(diags)
    if probe is None:
        only_coverage = all(d.code == "coverage" for d in diags if d.severity == "error")
        return None, SEMANTIC_ERROR if only_coverage else USAGE_ERROR
    return probe, None


def _parse_alpha(text: str) -> tuple[float, ...] | None:
    try:
        parts = text.split(";")
        if not parts or any(not p.strip() for p in parts):
            return None
        alpha = tuple(float(p) for p in parts)
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
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _int_up_to(limit: int):
    """argparse type: an integer from 0 to ``limit``."""
    def parse(text: str) -> int:
        value = _non_negative_int(text)
        if value > limit:
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
        # The oracle has a record for each dimension of the complex.
        for eng, ref in zip(result.records, reference.records):
            if (eng.cycle_rank, eng.boundary_rank, eng.betti) != (
                    ref.cycle_rank, ref.boundary_rank, ref.betti):
                return _fail(
                    f"oracle disagreement at dim {eng.dim}: engine "
                    f"(z={eng.cycle_rank}, b={eng.boundary_rank}, betti={eng.betti}) "
                    f"vs oracle (z={ref.cycle_rank}, b={ref.boundary_rank}, "
                    f"betti={ref.betti})", SEMANTIC_ERROR)
    sys.stdout.write(result.to_text(include_generators=args.generators))
    return 0


def cmd_descriptive(args) -> int:
    complex = _load_complex(args.complex)
    if complex is None:
        return USAGE_ERROR
    # A parsed complex declares every face it names, so it is invalid
    # exactly when its sub-complex with nothing removed is.
    betti = _masked_betti(complex, complex.max_dim)
    try:
        betti(frozenset())
    except InvalidComplexError:
        return _fail("complex is invalid", SEMANTIC_ERROR)
    probe, code = _load_probe_for(complex, args.probe)
    if probe is None:
        return code
    if args.spectrum:
        alphas = alpha_spectrum(probe, args.dim)
    else:
        alpha = _parse_alpha(args.alpha)
        if alpha is None:
            return _fail(f"malformed alpha {args.alpha!r}", USAGE_ERROR)
        if len(alpha) != probe.arity:
            return _fail(
                f"alpha has arity {len(alpha)}, probe has {probe.arity}", USAGE_ERROR)
        alphas = [alpha]
    for alpha in alphas:
        removed = removed_cells(probe, DescriptorBall(alpha, args.delta), args.dim, args.mode)
        bettis = " ".join(str(b) for b in betti(removed))
        print(f"alpha {_fmt_descriptor(alpha)} cells {len(complex) - len(removed)} betti {bettis}")
    return 0


def cmd_gauge(args) -> int:
    complex = _load_complex(args.complex)
    if complex is None:
        return USAGE_ERROR
    probe, code = _load_probe_for(complex, args.probe)
    if probe is None:
        return code
    text = _read_file(args.charts)
    if text is None:
        return USAGE_ERROR
    charts, diags = parse_charts(text, probe, args.charts)
    _print_diags(diags)
    if charts is None:
        return USAGE_ERROR
    if not charts:
        return _fail("chart file declares no charts", USAGE_ERROR)
    report = verify_cocycle(charts, tolerance=args.tolerance, probe=probe)
    sys.stdout.write(report.to_text())
    return 0 if report.clean else SEMANTIC_ERROR


def cmd_persist(args) -> int:
    scenario, diags = load_scenario(args.scenario)
    if scenario is None:
        _print_diags(diags)
        # Failures in the scenario file itself are parse errors; failures
        # in files it references are scenario (semantic) errors.
        own_file = all(d.file == args.scenario for d in diags if d.severity == "error")
        return USAGE_ERROR if own_file else SEMANTIC_ERROR
    _print_diags(diags)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descell",
        description="Mod-2 cellular homology with descriptor-driven analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structural integrity of a complex file")
    p.add_argument("complex", help="complex file path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homology", help="Betti numbers and ranks of a complex")
    p.add_argument("complex")
    p.add_argument("--max-dim", dest="max_dim", type=_max_dim, default=None)
    p.add_argument("--generators", action="store_true",
                   help="also print a generator line per homology class")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the enumeration oracle")
    p.add_argument("--oracle-bound", dest="oracle_bound", type=_oracle_bound,
                   default=14, help="cell-count bound for the oracle, "
                   f"0 to {MAX_ORACLE_CELLS} (default 14)")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("descriptive",
                       help="Betti numbers of descriptor-ball sub-complexes")
    p.add_argument("complex")
    p.add_argument("--probe", required=True, help="descriptor CSV path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", help="ball center, ';'-joined reals")
    group.add_argument("--spectrum", action="store_true",
                       help="one block per observed descriptor value")
    p.add_argument("--delta", type=_non_negative_float, default=0.0,
                   help="ball radius (default 0)")
    p.add_argument("--dim", type=_non_negative_int, default=2,
                   help="dimension of the cells selected by the ball (default 2)")
    p.add_argument("--mode", choices=("remove", "retain"), default="remove")
    p.set_defaults(func=cmd_descriptive)

    p = sub.add_parser("gauge", help="check the gauge identities of a chart cover")
    p.add_argument("complex")
    p.add_argument("--probe", required=True, help="descriptor CSV path")
    p.add_argument("--charts", required=True, help="chart file path")
    p.add_argument("--tolerance", type=_non_negative_float, default=0.0)
    p.set_defaults(func=cmd_gauge)

    p = sub.add_parser("persist", help="signature table of a scenario")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("--delta", type=_non_negative_float, default=0.0)
    p.add_argument("--mode", choices=("remove", "retain"), default="remove")
    p.add_argument("--max-dim", dest="max_dim", type=_max_dim, default=None)
    p.add_argument("--out", default=None, help="write the CSV here and print the row count")
    p.set_defaults(func=cmd_persist)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DescellError as exc:
        return _fail(str(exc), SEMANTIC_ERROR)


if __name__ == "__main__":
    sys.exit(main())
