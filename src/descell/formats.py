"""Parsers and emitters for the five text formats.

All formats are line-oriented UTF-8; emitters write LF endings and a
canonical ordering so output bytes are stable, parsers accept both LF
and CRLF. ``load_file`` reads every input file, here and in the CLI,
and hands its text to a parser. Parsing never raises for bad content:
each parser returns ``(artifact, diagnostics)`` where the artifact is
None whenever an error-severity diagnostic is present.

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
from collections.abc import Callable, Iterable
from itertools import chain, repeat

from ._record import Record
from .bundle import Chart, _ChartLines
from .cellcomplex import CellComplex, CellId
from .descriptive import Descriptor, ProbeAssignment
from .errors import DescellError
from .persistence import PersistenceSignature, Scenario, ScenarioStep


class ParseDiagnostic(Record):
    """A parse-time finding, tied to a file and line. ``severity`` is
    error or warning; ``code`` is syntax, reference, coverage or io."""

    __slots__ = ("file", "line", "severity", "message", "code")
    _defaults = ("syntax",)

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


def _uncommented(text: str) -> list[str]:
    """The text's lines, each cut at its first '#'; when the text holds
    no '#', ``splitlines`` alone."""
    lines = text.splitlines()
    if "#" in text:
        return [line.partition("#")[0] for line in lines]
    return lines


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _fmt_descriptor(value: Descriptor) -> str:
    return ";".join(map(_fmt_float, value))


def _non_negative(value: float) -> bool:
    return value >= 0


def _readable(values: Iterable[float], what: str,
              ok: Callable[[float], bool] = math.isfinite) -> None:
    """ValueError for the first value that fails ``ok``, a check that its
    parser makes: finite, by default."""
    for value in values:
        if not ok(value):
            raise ValueError(f"{what} {value!r} cannot be serialized")


def _serializable(value: str, what: str, banned: str, word: bool = True) -> str:
    """``value`` if its parser reads it back unchanged, else ValueError: it
    is not empty, holds no ``banned`` character and, as a ``word``, no
    whitespace, or else no line break and no whitespace at either end."""
    pieces = value.split() if word else value.strip().splitlines()
    if pieces != [value] or any(ch in value for ch in banned):
        raise ValueError(f"{what} {value!r} cannot be serialized")
    return value


def read_text(path: str) -> str:
    """A UTF-8 file's text, decoded in one piece so that the offsets of a
    UnicodeDecodeError count from its first byte; a leading byte order
    mark is dropped and CRLF and CR become LF, as in text-mode ``open``."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8").removeprefix("\ufeff")
    # Each replace scans the whole text; a search for CR costs far less.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_file(path: str, parse: Callable, *context):
    """``parse(text, *context, path)`` on the text ``read_text`` reads from
    ``path``. A file that cannot be read, or is not UTF-8, gives no
    artifact and one "io" error at line 0: the OSError's message, or where
    the decoding failed, counted in bytes from the start of the file."""
    try:
        text = read_text(path)
    except OSError as exc:
        message = str(exc)
    except UnicodeDecodeError as exc:
        message = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    else:
        return parse(text, *context, path)
    return None, [ParseDiagnostic(path, 0, "error", message, "io")]


# -- complex format -----------------------------------------------------

MAX_CELL_DIM = 64
"""The highest cell dimension the complex format accepts. Homology keeps
and prints one record per dimension up to the top one, so without a
bound a two-line file could ask for millions of them."""


_SMALL_INTS = {str(n): n for n in range(MAX_CELL_DIM + 1)}
"""0 .. MAX_CELL_DIM by their canonical spellings: every accepted dimension
and the usual degrees. ``int`` reads any other spelling."""


def parse_complex(text: str, filename: str = "<complex>",
                  ) -> tuple[CellComplex | None, list[ParseDiagnostic]]:
    """Parse the cell/bnd format; two passes, so declaration order is free.
    The degrees a face gets on its cell's bnd lines add up, and
    ``CellComplex._of`` drops the totals that cancel."""
    diags, err = _diagnostics(filename)
    cells: dict[CellId, int] = {}
    bnd_lines: list[tuple[int, list[str]]] = []
    # Each line is split once, and stripped only to quote it in a
    # diagnostic. A canonical line passes one combined test; the checks
    # that word an error, or read a non-canonical number, run only when
    # it fails.
    for lineno, line in enumerate(_uncommented(text), start=1):
        words = line.split()
        if not words:
            continue
        if words[0] == "cell":
            dim = _SMALL_INTS.get(words[-1])
            if dim is not None and len(words) == 3 and words[1] not in cells:
                cells[words[1]] = dim
                continue
            if len(words) != 3:
                err(lineno, f"expected 'cell <id> <dim>', got {line.strip()!r}")
                continue
            _, cid, dim_s = words
            if cid in cells:
                err(lineno, f"cell {cid!r} declared twice", "reference")
                continue
            if dim is None:
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
        elif words[0] == "bnd":
            if len(words) < 3:
                err(lineno, f"expected 'bnd <id> <face>:<degree> ...', got {line.strip()!r}")
                continue
            bnd_lines.append((lineno, words))
        else:
            err(lineno, f"unknown directive {words[0]!r}")

    # Each cell's faces, with the degrees of its bnd lines added up.
    faces: dict[CellId, dict[CellId, int]] = {}
    for lineno, words in bnd_lines:
        cid = words[1]
        dim = cells.get(cid)
        if dim is None:
            err(lineno, f"bnd references undeclared cell {cid!r}", "reference")
            continue
        below = dim - 1
        acc = faces.get(cid)
        if acc is None:
            acc = faces[cid] = {}
        for entry in words[2:]:
            fid, sep, deg_s = entry.rpartition(":")
            deg = _SMALL_INTS.get(deg_s)
            # An empty fid also stands for a missing ':'.
            if deg is None or not fid or cells.get(fid) != below:
                if not sep or not fid:
                    err(lineno, f"expected '<face>:<degree>', got {entry!r}")
                    continue
                if deg is None:
                    try:
                        deg = int(deg_s)
                    except ValueError:
                        err(lineno, f"degree {deg_s!r} is not an integer")
                        continue
                fdim = cells.get(fid)
                if fdim != below:
                    if fdim is None:
                        err(lineno, f"bnd references undeclared face {fid!r}", "reference")
                    else:
                        err(lineno, f"face {fid!r} has dimension {fdim}, expected {below}",
                            "reference")
                    continue
            acc[fid] = acc.get(fid, 0) + deg

    if has_errors(diags):
        return None, diags
    return CellComplex._of(cells, faces), diags


def emit_complex(complex: CellComplex) -> str:
    """Canonical text form: cells sorted by (dim, id), then bnd lines in
    the same cell order with faces sorted by id. Zero net degrees never
    appear, so parse(emit(k)) == k. A complex the format cannot carry
    raises ValueError: an id that is not one word or holds '#' or ':', a
    dimension over ``MAX_CELL_DIM``, or an incidence entry that is not
    (p, p-1) between declared cells."""
    order = [cid for dim in sorted(complex._by_dim) for cid in complex.cells_of_dim(dim)]
    for cid in order:
        _serializable(cid, "cell id", "#:")
    _readable([complex.max_dim], "dimension", lambda dim: dim <= MAX_CELL_DIM)
    malformed = complex._compiled[1]
    if malformed:
        cid, fid, _, _ = min(malformed)
        raise ValueError(f"incidence entry {(cid, fid)!r} cannot be serialized")
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

    The body is accepted in one pass by whole columns: blank lines are
    dropped, every other row must have arity + 1 fields, the stripped ids
    must be distinct and be the complex's cells, and every stripped value
    must parse as a finite float. Each of these fails only where a row
    check or the coverage check below fails, so a file is accepted
    exactly when the per-row walk would find no error. Otherwise the walk
    runs, only to report every failure in line order, and no probe is
    built.
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
    width = arity + 1
    # Blank lines have one field; every other row needs ``width``.
    rows = list(map(str.split, filter(str.strip, lines[1:]), repeat(",")))
    if set(map(len, rows)) <= {width}:
        # float() strips whitespace but not U+001F, which str.strip()
        # removes and splitlines() leaves inside a line.
        flat = list(map(str.strip, chain.from_iterable(rows)))
        ids = flat[::width]
        del flat[::width]
        if len(ids) == len(cells) and dict.fromkeys(ids).keys() == cells.keys():
            try:
                values = list(map(float, flat))
            except ValueError:
                pass
            else:
                if all(map(math.isfinite, values)):
                    table = dict(zip(ids, zip(*[iter(values)] * arity)))
                    return ProbeAssignment(complex, table, arity if table else 0), diags

    # Some check failed: walk the rows to word each failure.
    accepted: set[CellId] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.split(",")
        if len(fields) != width:
            # A blank line has one field, and the arity is at least 1.
            if raw.strip():
                err(lineno, f"expected {width} fields, got {len(fields)}")
            continue
        cid = fields[0].strip()
        if cid in accepted:
            err(lineno, f"duplicate row for cell {cid!r}", "reference")
            continue
        if cid not in cells:
            err(lineno, f"unknown cell {cid!r}", "reference")
            continue
        try:
            desc = tuple(map(float, map(str.strip, fields[1:])))
        except ValueError:
            err(lineno, f"non-numeric descriptor value in {raw.strip()!r}")
            continue
        if not all(map(math.isfinite, desc)):
            err(lineno, f"non-finite descriptor value in {raw.strip()!r}")
            continue
        accepted.add(cid)
    missing = sorted(cells.keys() - accepted)
    if missing:
        err(0, f"cells without descriptors: {', '.join(missing)}", "coverage")
    return None, diags


def emit_descriptors(table: Iterable[tuple[CellId, Descriptor]]) -> str:
    """Descriptor CSV, rows sorted by id. The empty table is a header of
    arity 1 alone; rows of arity 0 have no header and raise ValueError."""
    rows = sorted((str(c), tuple(float(v) for v in d)) for c, d in table)
    arity = len(rows[0][1]) if rows else 1
    if not arity:
        raise ValueError("rows of arity 0 cannot be serialized")
    for cid, desc in rows:
        if len(desc) != arity:
            raise ValueError(f"row {cid!r} has arity {len(desc)}, expected {arity}")
        _serializable(cid, "cell id", ",", word=False)
        _readable(desc, "descriptor value")
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


_ODD_SPACES = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f"
"""The ASCII characters other than space and LF that ``str.split`` or
``str.splitlines`` breaks on."""


def _checked(probe: ProbeAssignment) -> bool:
    """Whether the probe's table holds every cell of its complex, each
    value of the probe's arity, as ``assign_probe`` checks."""
    table = probe._table
    return (probe.complex.cells.keys() <= table.keys()
            and set(map(len, table.values())) <= {probe.arity})


_Block = tuple[list[CellId], frozenset[CellId], dict[CellId, Descriptor]]
"""A checked chart block's members, member set and overrides, kept under
its chart id."""


def _charts(blocks: Iterable[tuple[str, _Block]], probe: ProbeAssignment, checked: bool,
            ) -> list[Chart]:
    """The charts of checked blocks, in their order. Each section is read
    from the probe's table, the overrides win, and the charts go to
    ``Chart._of`` uncopied when the table is ``checked``. Otherwise they
    are built through ``Chart``, which raises as it would."""
    table = probe._table
    build = Chart._of if checked else Chart
    charts = []
    for cid, (members, cell_set, overrides) in blocks:
        # The list is the faster to read; a failed probe raises at the first
        # cell it lacks that no override gives, in the set's order.
        keys = members if checked else [cell for cell in cell_set if cell not in overrides]
        section = dict(zip(keys, map(table.__getitem__, keys)))
        section.update(overrides)
        charts.append(build(cid, cell_set, section, probe.arity))
    return charts


def _accept_blocks(text: str, probe: ProbeAssignment) -> list[tuple[str, _Block]] | None:
    """The blocks of a file in the form ``emit_charts`` writes, sorted by
    id, or None.

    That form is ASCII with no '#' and an LF after every line. Each line
    is ``chart <id>``, ``member <cell>`` or ``override <cell> <v1> ...
    <vn>``, single-spaced, and a block's overrides follow its members.
    A few splits per block read it; any other line, a blank one too,
    leaves a field that is empty or holds a space or an LF, and the file
    is refused. Every block must pass the checks the line walk makes,
    and the probe must pass ``_checked``; on any failure the result is
    None.
    """
    if not (text.startswith("chart ") and text.endswith("\n") and text.isascii()
            and "#" not in text and not any(map(text.__contains__, _ODD_SPACES))
            and _checked(probe)):
        return None
    # An empty id names no member, even in a complex with a cell "".
    cells = probe.complex.cells.keys() - {""}
    arity = probe.arity
    blocks = {}
    for block in text[6:-1].split("\nchart "):
        head, has_overrides, tail = block.partition("\noverride ")
        cid, _, listed = head.partition("\nmember ")
        members = listed.split("\nmember ")
        ids = cid + "".join(members)
        if not cid or " " in ids or "\n" in ids or cid in blocks:
            return None
        overrides = {}
        if has_overrides:
            rows = tail.split("\noverride ")
            if "\n" in "".join(rows):
                return None
            for row in rows:
                cell, *values = row.split(" ")
                try:
                    desc = tuple(map(float, values))
                except ValueError:
                    return None
                if len(desc) != arity or not all(map(math.isfinite, desc)) or cell in overrides:
                    return None
                overrides[cell] = desc
        cell_set = frozenset(members)
        if not (len(cell_set) == len(members) and cell_set <= cells
                and overrides.keys() <= cell_set):
            return None
        blocks[cid] = (members, cell_set, overrides)
    return sorted(blocks.items())


def parse_charts(text: str, probe: ProbeAssignment, filename: str = "<charts>",
                 ) -> tuple[list[Chart] | None, list[ParseDiagnostic]]:
    """Parse chart blocks; sections default to the probe, overrides win.
    The charts are built from the blocks ``_chart_blocks`` reads."""
    blocks, diags, accepted = _chart_blocks(text, probe, filename)
    if blocks is None:
        return None, diags
    return _charts(blocks, probe, accepted or _checked(probe)), diags


def parse_chart_lines(text: str, probe: ProbeAssignment, filename: str = "<charts>",
                      ) -> tuple[list[_ChartLines] | None, list[ParseDiagnostic]]:
    """A chart file's charts as the probe plus their override lines,
    sorted by id, for ``verify_cocycle`` given that probe; or None. No
    section is built, so the probe's table is taken to hold every cell
    at the probe's arity, as a loaded probe's does. The blocks and
    diagnostics are ``parse_charts``'."""
    blocks, diags, _ = _chart_blocks(text, probe, filename)
    if blocks is None:
        return None, diags
    return [_ChartLines(cid, cell_set, overrides, probe.arity)
            for cid, (_, cell_set, overrides) in blocks], diags


def _chart_blocks(text: str, probe: ProbeAssignment, filename: str,
                  ) -> tuple[list[tuple[str, _Block]] | None, list[ParseDiagnostic], bool]:
    """A chart file's blocks, sorted by id, or None; its diagnostics; and
    whether ``_accept_blocks`` took it, which checks the probe's table.

    A file in the form ``emit_charts`` writes is accepted whole by
    ``_accept_blocks``. Any other file, or one that fails a check, is
    walked line by line, as ``load_probe`` walks its rows: each failure
    is worded on its line, a member's too, a bad or repeated ``chart``
    line closes the open block, and the block errors follow in block
    order. With no error, the blocks are those the accept would give.
    """
    blocks = _accept_blocks(text, probe)
    if blocks is not None:
        return blocks, [], True

    diags, err = _diagnostics(filename)
    cells = probe.complex.cells.keys()
    arity = probe.arity
    blocks: dict[str, tuple[int, dict[CellId, None], dict[CellId, tuple[int, Descriptor]]]] = {}
    cid = members = overrides = None    # the open block's; no block is open at None
    for lineno, line in enumerate(_uncommented(text), start=1):
        words = line.split()
        if not words:
            continue
        head = words[0]
        if head == "member" and len(words) == 2 and cid is not None:
            cell = words[1]
            if cell not in cells:
                err(lineno, f"unknown cell {cell!r}", "reference")
            elif cell in members:
                err(lineno, f"cell {cell!r} listed twice in chart {cid!r}", "reference")
            else:
                members[cell] = None
        elif head == "chart" and len(words) == 2 and words[1] not in blocks:
            cid, members, overrides = words[1], {}, {}
            blocks[cid] = (lineno, members, overrides)
        elif head == "override" and len(words) == 2 + arity and cid is not None:
            try:
                desc = tuple(map(float, words[2:]))
            except ValueError:
                err(lineno, f"non-numeric override value in {line.strip()!r}")
                continue
            if not all(map(math.isfinite, desc)):
                err(lineno, f"non-finite override value in {line.strip()!r}")
            elif words[1] in overrides:
                err(lineno, f"override for {words[1]!r} given twice in chart {cid!r}",
                    "reference")
            else:
                overrides[words[1]] = (lineno, desc)
        elif head == "chart":
            cid = None
            if len(words) != 2:
                err(lineno, f"expected 'chart <id>', got {line.strip()!r}")
            else:
                err(lineno, f"chart {words[1]!r} declared twice", "reference")
        elif head in ("member", "override") and cid is None:
            err(lineno, f"{head} line before any chart declaration")
        elif head == "member":
            err(lineno, f"expected 'member <cell>', got {line.strip()!r}")
        elif head == "override":
            err(lineno,
                f"expected 'override <cell>' plus {arity} values, got {line.strip()!r}")
        else:
            err(lineno, f"unknown directive {head!r}")

    for cid, (lineno, members, overrides) in blocks.items():
        if not members:
            err(lineno, f"chart {cid!r} has no members", "reference")
            continue
        for cell, (oline, _) in overrides.items():
            if cell not in members:
                err(oline, f"override for {cell!r}, which is not a member of {cid!r}",
                    "reference")
    if diags:
        return None, diags, False

    return sorted((cid, (list(members), frozenset(members),
                         {cell: desc for cell, (_, desc) in overrides.items()}))
                  for cid, (_, members, overrides) in blocks.items()), diags, False


def emit_charts(charts: Iterable[Chart], probe: ProbeAssignment) -> str:
    """Canonical chart blocks: charts by id, members sorted, override
    lines only where the section deviates from the probe. A chart its
    parser rejects raises ValueError: an id given twice, no members, a
    member outside the probe's complex or an arity other than the
    probe's."""
    lines = []
    previous = None
    for chart in sorted(charts, key=lambda c: c.id):
        if chart.id == previous:
            raise ValueError(f"chart id {chart.id!r} given twice cannot be serialized")
        previous = chart.id
        if not chart.cells:
            raise ValueError(f"chart {chart.id!r} with no members cannot be serialized")
        _readable([chart.arity], "chart arity", probe.arity.__eq__)
        _readable(sorted(chart.cells), "member", probe.complex.cells.__contains__)
        lines.append(f"chart {_serializable(chart.id, 'chart id', '#')}")
        for cell in sorted(chart.cells):
            lines.append(f"member {_serializable(cell, 'cell id', '#')}")
        for cell in sorted(chart.cells):
            if chart.section[cell] != probe[cell]:
                _readable(chart.section[cell], "override value")
                vals = " ".join(_fmt_float(v) for v in chart.section[cell])
                lines.append(f"override {cell} {vals}")
    return "\n".join(lines) + "\n" if lines else ""


# -- scenario file --------------------------------------------------------


class ScenarioFile(Record):
    """The textual form of a scenario: paths, not loaded artifacts."""

    __slots__ = ("complex_path", "steps")


def parse_scenario(text: str, filename: str = "<scenario>",
                   ) -> tuple[ScenarioFile | None, list[ParseDiagnostic]]:
    diags, err = _diagnostics(filename)
    complex_path: str | None = None
    steps: list[tuple[float, str]] = []
    for lineno, line in enumerate(_uncommented(text), start=1):
        line = line.strip()
        if not line:
            continue
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
    for path in (sf.complex_path, *(path for _, path in sf.steps)):
        _serializable(path, "path", "#\0", word=False)
    _readable((theta for theta, _ in sf.steps), "theta")
    lines = [f"complex {sf.complex_path}"]
    for theta, path in sf.steps:
        lines.append(f"step {_fmt_float(theta)} {path}")
    return "\n".join(lines) + "\n"


def load_scenario_file(sf: ScenarioFile, base_dir: str, filename: str = "<scenario>",
                       ) -> tuple[Scenario | None, list[ParseDiagnostic]]:
    """Resolve a parsed scenario's referenced files and build the scenario.

    Each path is read relative to ``base_dir`` (``""`` is the working
    directory). Every referenced-file failure (unreadable path, bad
    complex, bad descriptor CSV) comes back as a diagnostic against the
    file that caused it, named by that joined path. A failed scenario
    invariant (thetas that do not increase, steps of different arities)
    comes back against ``filename``, the scenario file's path.
    """
    complex, diags = load_file(os.path.join(base_dir, sf.complex_path), parse_complex)
    if complex is None:
        return None, diags

    steps = []
    for theta, rel_path in sf.steps:
        probe, pdiags = load_file(os.path.join(base_dir, rel_path), load_probe, complex)
        diags.extend(pdiags)
        if probe is None:
            return None, diags
        steps.append(ScenarioStep(theta, probe))

    try:
        return Scenario(complex, tuple(steps)), diags
    except DescellError as exc:
        diags.append(ParseDiagnostic(filename, 0, "error", str(exc), "reference"))
        return None, diags


def load_scenario(path: str) -> tuple[Scenario | None, list[ParseDiagnostic]]:
    """Read, parse and resolve a scenario file from disk."""
    sf, diags = load_file(path, parse_scenario)
    if sf is None:
        return None, diags
    scenario, more = load_scenario_file(sf, os.path.dirname(path), path)
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
    if () in sig.alphas:
        raise ValueError("alpha () of arity 0 cannot be serialized")
    _readable(sig.thetas, "theta")
    _readable((v for alpha in sig.alphas for v in alpha), "alpha value")
    _readable([sig.delta], "delta", _non_negative)
    _readable([sig.removal_dim, *sig.dims], "dimension", _non_negative)
    _readable(sig.table.values(), "betti", _non_negative)
    lines = [f"# mode {sig.mode}", f"# delta {_fmt_float(sig.delta)}", f"# rdim {sig.removal_dim}"]
    # Each theta and alpha is formatted once and found again by position:
    # (0.0,) and (-0.0,) are equal keys that print differently.
    thetas = list(map(_fmt_float, sig.thetas))
    alphas = list(zip(sig.alphas, map(_fmt_descriptor, sig.alphas)))
    table = sig.table
    rows = [f"{theta},{alpha_s},{p},{table[ti, alpha, p]}"
            for ti, theta in enumerate(thetas) for alpha, alpha_s in alphas for p in sig.dims]
    if not rows and thetas:
        lines.append(f"# thetas {';'.join(thetas)}")
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
