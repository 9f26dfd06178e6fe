"""Parsers and emitters for the five text formats.

All formats are line-oriented UTF-8; emitters write LF endings and a
canonical ordering so output bytes are stable, parsers accept both LF
and CRLF. ``read_text`` reads every input file, here and in the CLI,
and drops a leading byte order mark. Parsing never raises for bad
content: each parser returns ``(artifact, diagnostics)`` where the
artifact is None whenever an error-severity diagnostic is present.

Each parser checks every value once and builds its artifact from the
rows it checked, through ``ProbeAssignment``, ``Chart`` and ``Scenario``;
``parse_descriptors`` returns the sorted rows of ``load_probe``'s probe.
The library constructors ``assign_probe``, ``make_chart``,
``with_overrides`` and ``build_scenario`` keep their own checks. The
per-row work is C-level: each line is split once, and stripped only to
quote it in a diagnostic; cell ids are looked up in the complex's
``cells`` and section values in the probe's ``values``, each fetched
once per call; a boundary face is tested against the ids of the one
dimension it may have.

Formats:
  complex      ``cell <id> <dim>`` (0 <= dim <= MAX_CELL_DIM) and
               ``bnd <id> <face>:<degree> ...`` lines, '#' comments,
               two-pass resolution.
  descriptors  CSV with header ``cell,f1,...,fn``, one row per cell,
               finite values.
  charts       ``chart <id>`` blocks of ``member <cell>`` lines plus
               optional ``override <cell> <f1> ... <fn>`` lines with
               finite values, at most one per cell and block.
  scenario     ``complex <path>`` then ``step <theta> <csv-path>`` lines
               with finite thetas.
  signature    CSV ``theta,alpha,dim,betti`` with alpha components
               joined by ';', finite values and non-negative dimensions,
               preceded by '# key value' metadata lines: mode remove or
               retain, delta >= 0, rdim >= 0, and with no rows the thetas
               and dims, ';'-joined.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable

from ._record import Record
from .bundle import Chart
from .cellcomplex import CellComplex, CellId
from .descriptive import Descriptor, ProbeAssignment
from .errors import DescellError
from .persistence import PersistenceSignature, Scenario, ScenarioStep


class ParseDiagnostic(Record):
    """A parse-time finding, tied to a file and line. ``severity`` is
    error or warning; ``code`` is syntax, reference, coverage or io."""

    __slots__ = ("file", "line", "severity", "message", "code")

    def __init__(self, file: str, line: int, severity: str, message: str,
                 code: str = "syntax"):
        super().__init__(file, line, severity, message, code)

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: {self.severity}: {self.message}"


def has_errors(diagnostics: Iterable[ParseDiagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)


def _diagnostics(filename: str):
    """An empty diagnostics list and a function that appends an error to it."""
    diags: list[ParseDiagnostic] = []

    def err(line: int, message: str, code: str = "syntax"):
        diags.append(ParseDiagnostic(filename, line, "error", message, code))
    return diags, err


def _logical_lines(text: str):
    """Yield (line number, content) with comments and blanks dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _fmt_descriptor(value: Descriptor) -> str:
    return ";".join(map(_fmt_float, value))


def read_text(path: str) -> str:
    """A UTF-8 file's text, decoded in one piece so that the offsets of a
    UnicodeDecodeError count from its first byte; a leading byte order
    mark is dropped and CRLF and CR become LF, as in text-mode ``open``."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


# -- complex format -----------------------------------------------------

MAX_CELL_DIM = 64
"""The highest cell dimension the complex format accepts. Homology keeps
and prints one record per dimension up to the top one, so without a
bound a two-line file could ask for millions of them."""


def parse_complex(text: str, filename: str = "<complex>",
                  ) -> tuple[CellComplex | None, list[ParseDiagnostic]]:
    """Parse the cell/bnd format; two passes, so declaration order is free."""
    diags, err = _diagnostics(filename)
    cells: dict[CellId, int] = {}
    ids_of_dim: dict[int, set[CellId]] = {}
    bnd_lines: list[tuple[int, list[str]]] = []
    # Each line is cut at '#' only when it holds one, split once, and
    # stripped only to quote it in a diagnostic. The loop is written out
    # here and in parse_charts, not shared through a generator, because
    # resuming one per line cost about a tenth of the chart parse.
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        words = line.split()
        if not words:
            continue
        if words[0] == "cell":
            if len(words) != 3:
                err(lineno, f"expected 'cell <id> <dim>', got {line.strip()!r}")
                continue
            _, cid, dim_s = words
            if cid in cells:
                err(lineno, f"cell {cid!r} declared twice", "reference")
                continue
            try:
                dim = int(dim_s)
            except ValueError:
                err(lineno, f"dimension {dim_s!r} is not an integer")
                continue
            if dim < 0:
                err(lineno, f"dimension {dim} is negative")
                continue
            if dim > MAX_CELL_DIM:
                err(lineno, f"dimension {dim} exceeds the bound {MAX_CELL_DIM}")
                continue
            cells[cid] = dim
            ids_of_dim.setdefault(dim, set()).add(cid)
        elif words[0] == "bnd":
            if len(words) < 3:
                err(lineno, f"expected 'bnd <id> <face>:<degree> ...', got {line.strip()!r}")
                continue
            bnd_lines.append((lineno, words))
        else:
            err(lineno, f"unknown directive {words[0]!r}")

    incidence: dict[tuple[CellId, CellId], int] = {}
    for lineno, words in bnd_lines:
        cid = words[1]
        dim = cells.get(cid)
        if dim is None:
            err(lineno, f"bnd references undeclared cell {cid!r}", "reference")
            continue
        # A face is tested against the ids one dimension down; only a
        # miss looks up whether it is undeclared or of another dimension.
        faces = ids_of_dim.get(dim - 1, ())
        for entry in words[2:]:
            fid, sep, deg_s = entry.rpartition(":")
            if not sep or not fid:
                err(lineno, f"expected '<face>:<degree>', got {entry!r}")
                continue
            try:
                deg = int(deg_s)
            except ValueError:
                err(lineno, f"degree {deg_s!r} is not an integer")
                continue
            if fid not in faces:
                if fid not in cells:
                    err(lineno, f"bnd references undeclared face {fid!r}", "reference")
                else:
                    err(lineno, f"face {fid!r} has dimension {cells[fid]}, expected {dim - 1}",
                        "reference")
                continue
            incidence[(cid, fid)] = incidence.get((cid, fid), 0) + deg

    if has_errors(diags):
        return None, diags
    return CellComplex(cells, incidence), diags


def emit_complex(complex: CellComplex) -> str:
    """Canonical text form: cells sorted by (dim, id), then bnd lines in
    the same cell order with faces sorted by id. Zero net degrees never
    appear, so parse(emit(k)) == k."""
    order = sorted(complex.cells, key=lambda c: (complex.dim_of(c), c))
    for cid in order:
        if any(ch.isspace() or ch in "#:" for ch in cid) or not cid:
            raise ValueError(f"cell id {cid!r} cannot be serialized")
    lines = [f"cell {cid} {complex.dim_of(cid)}" for cid in order]
    for cid in order:
        faces = complex.faces(cid)
        if faces:
            entries = " ".join(f"{fid}:{faces[fid]}" for fid in sorted(faces))
            lines.append(f"bnd {cid} {entries}")
    return "\n".join(lines) + "\n" if lines else ""


# -- descriptor CSV -----------------------------------------------------


def load_probe(csv_text: str, complex: CellComplex, filename: str = "<descriptors>",
               ) -> tuple[ProbeAssignment | None, list[ParseDiagnostic]]:
    """Parse a descriptor CSV against a complex and build the probe from
    the rows it checked, which pass every check ``assign_probe`` makes.

    The table must cover every cell of the complex exactly once with a
    uniform arity inferred from the header. Coverage gaps are reported
    with code "coverage" so callers can treat them as semantic rather
    than syntactic failures.
    """
    diags, err = _diagnostics(filename)
    lines = csv_text.splitlines()
    if not lines or not lines[0].strip():
        err(1, "missing header row")
        return None, diags
    header = [h.strip() for h in lines[0].split(",")]
    if header[0] != "cell" or len(header) < 2:
        err(1, f"header must be 'cell,f1,...,fn', got {lines[0].strip()!r}")
        return None, diags
    arity = len(header) - 1

    cells = complex.cells
    rows: dict[CellId, Descriptor] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.split(",")
        if len(fields) != arity + 1:
            # A blank line has one field, and the arity is at least 1.
            if raw.strip():
                err(lineno, f"expected {arity + 1} fields, got {len(fields)}")
            continue
        cid = fields[0].strip()
        if cid in rows:
            err(lineno, f"duplicate row for cell {cid!r}", "reference")
            continue
        if cid not in cells:
            err(lineno, f"unknown cell {cid!r}", "reference")
            continue
        try:
            # float() strips whitespace but not U+001F, which str.strip()
            # removes and splitlines() leaves inside a line.
            desc = tuple(map(float, map(str.strip, fields[1:])))
        except ValueError:
            err(lineno, f"non-numeric descriptor value in {raw.strip()!r}")
            continue
        if not all(map(math.isfinite, desc)):
            err(lineno, f"non-finite descriptor value in {raw.strip()!r}")
            continue
        rows[cid] = desc
    missing = sorted(cells.keys() - rows.keys())
    if missing:
        err(0, f"cells without descriptors: {', '.join(missing)}", "coverage")
    if has_errors(diags):
        return None, diags
    return ProbeAssignment(complex, rows, arity if rows else 0), diags


def emit_descriptors(table: Iterable[tuple[CellId, Descriptor]]) -> str:
    rows = sorted((str(c), tuple(float(v) for v in d)) for c, d in table)
    if not rows:
        return "cell\n"
    arity = len(rows[0][1])
    for cid, desc in rows:
        if len(desc) != arity:
            raise ValueError(f"row {cid!r} has arity {len(desc)}, expected {arity}")
        if "," in cid:
            raise ValueError(f"cell id {cid!r} cannot be serialized to CSV")
    header = "cell," + ",".join(f"f{i + 1}" for i in range(arity))
    lines = [header]
    for cid, desc in rows:
        lines.append(cid + "," + ",".join(_fmt_float(v) for v in desc))
    return "\n".join(lines) + "\n"


def parse_descriptors(text: str, complex: CellComplex,
                      filename: str = "<descriptors>",
                      ) -> tuple[list[tuple[CellId, Descriptor]] | None, list[ParseDiagnostic]]:
    """``load_probe``'s rows, sorted by cell id, and its diagnostics."""
    probe, diags = load_probe(text, complex, filename)
    return (None if probe is None else sorted(probe.values.items())), diags


# -- chart file ---------------------------------------------------------


def parse_charts(text: str, probe: ProbeAssignment, filename: str = "<charts>",
                 ) -> tuple[list[Chart] | None, list[ParseDiagnostic]]:
    """Parse chart blocks; sections default to the probe, overrides win."""
    diags, err = _diagnostics(filename)
    cells = probe.complex.cells
    arity = probe.arity
    blocks: list[tuple[int, str, set, dict]] = []
    current: tuple[int, str, set, dict] | None = None
    seen_ids: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        words = line.split()
        if not words:
            continue
        if words[0] == "chart":
            if len(words) != 2:
                err(lineno, f"expected 'chart <id>', got {line.strip()!r}")
                current = None
                continue
            cid = words[1]
            if cid in seen_ids:
                err(lineno, f"chart {cid!r} declared twice", "reference")
                current = None
                continue
            seen_ids.add(cid)
            current = (lineno, cid, set(), {})
            blocks.append(current)
        elif words[0] == "member":
            if current is None:
                err(lineno, "member line before any chart declaration")
                continue
            if len(words) != 2:
                err(lineno, f"expected 'member <cell>', got {line.strip()!r}")
                continue
            cell = words[1]
            if cell not in cells:
                err(lineno, f"unknown cell {cell!r}", "reference")
                continue
            if cell in current[2]:
                err(lineno, f"cell {cell!r} listed twice in chart {current[1]!r}",
                    "reference")
                continue
            current[2].add(cell)
        elif words[0] == "override":
            if current is None:
                err(lineno, "override line before any chart declaration")
                continue
            if len(words) != 2 + arity:
                err(lineno,
                    f"expected 'override <cell>' plus {arity} values, got {line.strip()!r}")
                continue
            cell = words[1]
            try:
                desc = tuple(map(float, words[2:]))
            except ValueError:
                err(lineno, f"non-numeric override value in {line.strip()!r}")
                continue
            if not all(map(math.isfinite, desc)):
                err(lineno, f"non-finite override value in {line.strip()!r}")
                continue
            if cell in current[3]:
                err(lineno, f"override for {cell!r} given twice in chart {current[1]!r}",
                    "reference")
                continue
            current[3][cell] = (lineno, desc)
        else:
            err(lineno, f"unknown directive {words[0]!r}")

    for lineno, cid, members, overrides in blocks:
        if not members:
            err(lineno, f"chart {cid!r} has no members", "reference")
            continue
        for cell, (oline, _) in overrides.items():
            if cell not in members:
                err(oline, f"override for {cell!r}, which is not a member of {cid!r}",
                    "reference")
    if has_errors(diags):
        return None, diags

    values = probe.values
    charts: list[Chart] = []
    for _, cid, members, overrides in blocks:
        section = {cell: values[cell] for cell in members}
        section.update((cell, desc) for cell, (_, desc) in overrides.items())
        charts.append(Chart(cid, members, section, arity))
    return sorted(charts, key=lambda c: c.id), diags


def emit_charts(charts: Iterable[Chart], probe: ProbeAssignment) -> str:
    """Canonical chart blocks: charts by id, members sorted, override
    lines only where the section deviates from the probe."""
    lines = []
    for chart in sorted(charts, key=lambda c: c.id):
        lines.append(f"chart {chart.id}")
        for cell in sorted(chart.cells):
            lines.append(f"member {cell}")
        for cell in sorted(chart.cells):
            if cell in probe.complex and chart.section[cell] != probe[cell]:
                vals = " ".join(_fmt_float(v) for v in chart.section[cell])
                lines.append(f"override {cell} {vals}")
    return "\n".join(lines) + "\n" if lines else ""


# -- scenario file --------------------------------------------------------


class ScenarioFile(Record):
    """The textual form of a scenario: paths, not loaded artifacts."""

    __slots__ = ("complex_path", "steps")

    def __init__(self, complex_path: str, steps: tuple[tuple[float, str], ...]):
        super().__init__(complex_path, steps)


def parse_scenario(text: str, filename: str = "<scenario>",
                   ) -> tuple[ScenarioFile | None, list[ParseDiagnostic]]:
    diags, err = _diagnostics(filename)
    complex_path: str | None = None
    steps: list[tuple[float, str]] = []
    for lineno, line in _logical_lines(text):
        if "\0" in line:       # no file path can hold one
            err(lineno, "line holds a NUL character")
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "complex":
            if complex_path is not None:
                err(lineno, "complex path given twice")
                continue
            if not rest:
                err(lineno, "expected 'complex <path>'")
                continue
            complex_path = rest
        elif word == "step":
            theta_s, _, path = rest.partition(" ")
            path = path.strip()
            if not theta_s or not path:
                err(lineno, f"expected 'step <theta> <path>', got {line!r}")
                continue
            try:
                theta = float(theta_s)
            except ValueError:
                err(lineno, f"theta {theta_s!r} is not a number")
                continue
            if not math.isfinite(theta):
                err(lineno, f"theta {theta_s!r} is not finite")
                continue
            steps.append((theta, path))
        else:
            err(lineno, f"unknown directive {word!r}")
    if complex_path is None:
        err(0, "missing 'complex <path>' line")
    if not steps:
        err(0, "scenario has no steps")
    if has_errors(diags):
        return None, diags
    return ScenarioFile(complex_path=complex_path, steps=tuple(steps)), diags


def emit_scenario(sf: ScenarioFile) -> str:
    lines = [f"complex {sf.complex_path}"]
    for theta, path in sf.steps:
        lines.append(f"step {_fmt_float(theta)} {path}")
    return "\n".join(lines) + "\n"


def load_scenario_file(sf: ScenarioFile, base_dir: str,
                       ) -> tuple[Scenario | None, list[ParseDiagnostic]]:
    """Resolve a parsed scenario's referenced files and build the scenario.

    Every referenced-file failure (unreadable path, bad complex, bad
    descriptor CSV, non-monotone thetas) comes back as a diagnostic
    against the file that caused it.
    """
    diags: list[ParseDiagnostic] = []

    def read(rel_path: str) -> str | None:
        try:
            return read_text(os.path.join(base_dir, rel_path))
        except (OSError, UnicodeDecodeError) as exc:
            diags.append(ParseDiagnostic(rel_path, 0, "error", str(exc), "io"))
            return None

    complex_text = read(sf.complex_path)
    if complex_text is None:
        return None, diags
    complex, cdiags = parse_complex(complex_text, sf.complex_path)
    diags.extend(cdiags)
    if complex is None:
        return None, diags

    steps = []
    for theta, rel_path in sf.steps:
        csv_text = read(rel_path)
        if csv_text is None:
            return None, diags
        probe, pdiags = load_probe(csv_text, complex, rel_path)
        diags.extend(pdiags)
        if probe is None:
            return None, diags
        steps.append(ScenarioStep(theta, probe))

    try:
        return Scenario(complex, tuple(steps)), diags
    except DescellError as exc:
        diags.append(ParseDiagnostic("<scenario>", 0, "error", str(exc), "reference"))
        return None, diags


def load_scenario(path: str) -> tuple[Scenario | None, list[ParseDiagnostic]]:
    """Read, parse and resolve a scenario file from disk."""
    try:
        text = read_text(path)
    except (OSError, UnicodeDecodeError) as exc:
        return None, [ParseDiagnostic(path, 0, "error", str(exc), "io")]
    sf, diags = parse_scenario(text, path)
    if sf is None:
        return None, diags
    scenario, more = load_scenario_file(sf, os.path.dirname(path) or ".")
    return scenario, diags + more


# -- signature CSV ------------------------------------------------------


def curve_filename(alpha: Descriptor, p: int) -> str:
    return f"curve_{_fmt_descriptor(alpha)}_dim{p}.csv"


def emit_curves(sig: PersistenceSignature) -> dict[str, str]:
    """Plot-ready export: one small CSV per (alpha, dimension) curve,
    keyed by a stable filename. Columns are theta and betti."""
    out: dict[str, str] = {}
    for alpha in sig.alphas:
        for p in sig.dims:
            lines = ["theta,betti"]
            for theta, betti in sig.curve(alpha, p):
                lines.append(f"{_fmt_float(theta)},{betti}")
            out[curve_filename(alpha, p)] = "\n".join(lines) + "\n"
    return out


def emit_signature(sig: PersistenceSignature) -> str:
    """Signature CSV with its settings as '#' metadata lines, so the
    file alone reconstructs the object; with no rows (no alphas), its
    thetas and dims go on '# thetas' and '# dims' lines as well."""
    lines = [f"# mode {sig.mode}", f"# delta {_fmt_float(sig.delta)}", f"# rdim {sig.removal_dim}"]
    rows = [f"{_fmt_float(theta)},{_fmt_descriptor(alpha)},{p},{betti}"
            for theta, alpha, p, betti in sig.rows()]
    if not rows and sig.thetas:
        lines.append(f"# thetas {_fmt_descriptor(sig.thetas)}")
    if not rows and sig.dims:
        lines.append(f"# dims {';'.join(map(str, sig.dims))}")
    lines.append("theta,alpha,dim,betti")
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def parse_signature(text: str, filename: str = "<signature>",
                    ) -> tuple[PersistenceSignature | None, list[ParseDiagnostic]]:
    """Parse the CSV ``emit_signature`` writes. Thetas, alphas and dims
    are read from the rows, or with no rows from the '# thetas' and
    '# dims' lines, which a file with rows must not have. The mode must
    be remove or retain, and delta, rdim and dims non-negative."""
    diags, err = _diagnostics(filename)
    meta: dict[str, str] = {}
    header_line = None
    rows: list[tuple[float, Descriptor, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            words = line[1:].split()
            if len(words) == 2:
                meta[words[0]] = words[1]
            else:
                err(lineno, f"expected '# key value', got {line!r}")
            continue
        if header_line is None:
            if line != "theta,alpha,dim,betti":
                err(lineno, f"expected header 'theta,alpha,dim,betti', got {line!r}")
                return None, diags
            header_line = lineno
            continue
        fields = line.split(",")
        if len(fields) != 4:
            err(lineno, f"expected 4 fields, got {len(fields)}")
            continue
        try:
            theta = float(fields[0])
            alpha = tuple(float(v) for v in fields[1].split(";"))
            p = int(fields[2])
            betti = int(fields[3])
        except ValueError:
            err(lineno, f"malformed row {line!r}")
            continue
        if not (math.isfinite(theta) and all(map(math.isfinite, alpha))):
            err(lineno, f"non-finite value in row {line!r}")
            continue
        if p < 0:
            err(lineno, f"negative dimension {p}")
            continue
        if betti < 0:
            err(lineno, f"negative betti {betti}")
            continue
        rows.append((theta, alpha, p, betti))

    if header_line is None:
        err(0, "missing header row")
    for key in ("mode", "delta", "rdim"):
        if key not in meta:
            err(0, f"missing metadata line '# {key} ...'")
    if has_errors(diags):
        return None, diags

    try:
        delta = float(meta["delta"])
        removal_dim = int(meta["rdim"])
        listed_thetas = {float(v) for v in meta["thetas"].split(";")} if "thetas" in meta else ()
        listed_dims = {int(v) for v in meta["dims"].split(";")} if "dims" in meta else ()
    except ValueError:
        err(0, "malformed metadata values")
        return None, diags
    if meta["mode"] not in ("remove", "retain"):
        err(0, f"mode must be 'remove' or 'retain', got {meta['mode']!r}")
    if not delta >= 0:
        err(0, f"delta must be non-negative, got {meta['delta']}")
    if removal_dim < 0:
        err(0, f"rdim must be non-negative, got {removal_dim}")
    if not all(map(math.isfinite, listed_thetas)):
        err(0, f"thetas must be finite, got {meta['thetas']}")
    if any(p < 0 for p in listed_dims):
        err(0, f"dims must be non-negative, got {meta['dims']}")
    if rows and (listed_thetas or listed_dims):
        err(0, "'# thetas' and '# dims' belong to a signature with no rows")
    if has_errors(diags):
        return None, diags

    thetas = tuple(sorted({r[0] for r in rows} or listed_thetas))
    alphas = tuple(sorted({r[1] for r in rows}))
    dims = tuple(sorted({r[2] for r in rows} or listed_dims))
    theta_index = {t: i for i, t in enumerate(thetas)}
    table: dict[tuple[int, Descriptor, int], int] = {}
    for theta, alpha, p, betti in rows:
        key = (theta_index[theta], alpha, p)
        if key in table:
            err(0, f"duplicate row for theta {theta!r}, alpha {alpha}, dim {p}")
            return None, diags
        table[key] = betti
    expected = len(thetas) * len(alphas) * len(dims)
    if rows and len(table) != expected:
        err(0, f"table is not rectangular: {len(table)} rows, expected {expected}")
        return None, diags
    return PersistenceSignature(
        mode=meta["mode"], delta=delta, removal_dim=removal_dim,
        thetas=thetas, alphas=alphas, dims=dims, table=table), diags
