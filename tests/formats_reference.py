"""The earlier parsers, kept as a differential reference.

These are ``_logical_lines``, ``parse_complex``, ``parse_descriptors``
and ``parse_charts`` as they were before the parsers stopped making a
method call per row: every line is cut at '#' and stripped, every face
is looked up in the declared-cell table, and every member goes through
``CellComplex.__contains__`` and every section value through
``ProbeAssignment.__getitem__``. They are deliberately left as they
were, so the artifacts and diagnostic lists of ``descell.formats`` can
be compared with them entry for entry.
"""

from __future__ import annotations

import math

from descell.bundle import Chart
from descell.cellcomplex import CellComplex, CellId
from descell.descriptive import Descriptor, ProbeAssignment
from descell.formats import MAX_CELL_DIM, ParseDiagnostic, _diagnostics, has_errors


def _logical_lines(text: str):
    """Yield (line number, content) with comments and blanks dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_complex(text: str, filename: str = "<complex>",
                  ) -> tuple[CellComplex | None, list[ParseDiagnostic]]:
    """Parse the cell/bnd format; two passes, so declaration order is free."""
    diags, err = _diagnostics(filename)
    cells: dict[CellId, int] = {}
    bnd_lines: list[tuple[int, list[str]]] = []
    for lineno, line in _logical_lines(text):
        words = line.split()
        if words[0] == "cell":
            if len(words) != 3:
                err(lineno, f"expected 'cell <id> <dim>', got {line!r}")
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
        elif words[0] == "bnd":
            if len(words) < 3:
                err(lineno, f"expected 'bnd <id> <face>:<degree> ...', got {line!r}")
                continue
            bnd_lines.append((lineno, words[1:]))
        else:
            err(lineno, f"unknown directive {words[0]!r}")

    incidence: dict[tuple[CellId, CellId], int] = {}
    for lineno, words in bnd_lines:
        cid = words[0]
        if cid not in cells:
            err(lineno, f"bnd references undeclared cell {cid!r}", "reference")
            continue
        for entry in words[1:]:
            fid, sep, deg_s = entry.rpartition(":")
            if not sep or not fid:
                err(lineno, f"expected '<face>:<degree>', got {entry!r}")
                continue
            try:
                deg = int(deg_s)
            except ValueError:
                err(lineno, f"degree {deg_s!r} is not an integer")
                continue
            if fid not in cells:
                err(lineno, f"bnd references undeclared face {fid!r}", "reference")
                continue
            if cells[fid] != cells[cid] - 1:
                err(lineno,
                    f"face {fid!r} has dimension {cells[fid]}, expected {cells[cid] - 1}",
                    "reference")
                continue
            incidence[(cid, fid)] = incidence.get((cid, fid), 0) + deg

    if has_errors(diags):
        return None, diags
    return CellComplex(cells, incidence), diags


def parse_descriptors(text: str, complex: CellComplex,
                      filename: str = "<descriptors>",
                      ) -> tuple[list[tuple[CellId, Descriptor]] | None, list[ParseDiagnostic]]:
    """Parse a descriptor CSV against a complex.

    The table must cover every cell of the complex exactly once with a
    uniform arity inferred from the header. Coverage gaps are reported
    with code "coverage" so callers can treat them as semantic rather
    than syntactic failures.
    """
    diags, err = _diagnostics(filename)
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        err(1, "missing header row")
        return None, diags
    header = [h.strip() for h in lines[0].split(",")]
    if header[0] != "cell" or len(header) < 2:
        err(1, f"header must be 'cell,f1,...,fn', got {lines[0].strip()!r}")
        return None, diags
    arity = len(header) - 1

    rows: dict[CellId, Descriptor] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = [f.strip() for f in raw.split(",")]
        if len(fields) != arity + 1:
            err(lineno, f"expected {arity + 1} fields, got {len(fields)}")
            continue
        cid = fields[0]
        if cid in rows:
            err(lineno, f"duplicate row for cell {cid!r}", "reference")
            continue
        if cid not in complex:
            err(lineno, f"unknown cell {cid!r}", "reference")
            continue
        try:
            desc = tuple(float(f) for f in fields[1:])
        except ValueError:
            err(lineno, f"non-numeric descriptor value in {raw.strip()!r}")
            continue
        if not all(map(math.isfinite, desc)):
            err(lineno, f"non-finite descriptor value in {raw.strip()!r}")
            continue
        rows[cid] = desc
    missing = sorted(set(complex.cells) - set(rows))
    if missing:
        err(0, f"cells without descriptors: {', '.join(missing)}", "coverage")
    if has_errors(diags):
        return None, diags
    return sorted(rows.items()), diags


def parse_charts(text: str, probe: ProbeAssignment, filename: str = "<charts>",
                 ) -> tuple[list[Chart] | None, list[ParseDiagnostic]]:
    """Parse chart blocks; sections default to the probe, overrides win."""
    diags, err = _diagnostics(filename)
    blocks: list[tuple[int, str, set, dict]] = []
    current: tuple[int, str, set, dict] | None = None
    seen_ids: set[str] = set()
    for lineno, line in _logical_lines(text):
        words = line.split()
        if words[0] == "chart":
            if len(words) != 2:
                err(lineno, f"expected 'chart <id>', got {line!r}")
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
                err(lineno, f"expected 'member <cell>', got {line!r}")
                continue
            cell = words[1]
            if cell not in probe.complex:
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
            if len(words) != 2 + probe.arity:
                err(lineno,
                    f"expected 'override <cell>' plus {probe.arity} values, got {line!r}")
                continue
            cell = words[1]
            try:
                desc = tuple(float(w) for w in words[2:])
            except ValueError:
                err(lineno, f"non-numeric override value in {line!r}")
                continue
            if not all(map(math.isfinite, desc)):
                err(lineno, f"non-finite override value in {line!r}")
                continue
            if cell in current[3]:
                err(lineno, f"override for {cell!r} given twice in chart {current[1]!r}",
                    "reference")
                continue
            current[3][cell] = (lineno, desc)
        else:
            err(lineno, f"unknown directive {words[0]!r}")

    charts: list[Chart] = []
    for lineno, cid, members, overrides in blocks:
        if not members:
            err(lineno, f"chart {cid!r} has no members", "reference")
            continue
        for cell, (oline, _) in overrides.items():
            if cell not in members:
                err(oline, f"override for {cell!r}, which is not a member of {cid!r}",
                    "reference")
        if has_errors(diags):
            continue
        section = {c: overrides[c][1] if c in overrides else probe[c] for c in members}
        charts.append(Chart(cid, members, section, probe.arity))
    if has_errors(diags):
        return None, diags
    return sorted(charts, key=lambda c: c.id), diags
