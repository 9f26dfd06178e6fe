"""The earlier structural check, kept as a differential reference.

This is ``CellComplex.validate`` as it was before the complex kept
compiled boundary columns: it sorts the whole incidence table for the
malformed entries and computes every composite boundary coefficient
over the integers. It is deliberately left as it was, reading the
complex only through its public queries, so its reports can be compared
with ``CellComplex.validate`` violation for violation.
"""

from descell.cellcomplex import CellComplex, CellId, Violation


def validate(complex: CellComplex, include_warnings: bool = False) -> list[Violation]:
    cells = complex.cells
    issues: list[Violation] = []
    for cid, fid in sorted(complex.incidence):
        cd = cells.get(cid)
        fd = cells.get(fid)
        if cd is None:
            issues.append(Violation(
                "dangling-face", "error", (cid, fid),
                f"incidence references undeclared cell {cid!r}"))
        if fd is None:
            issues.append(Violation(
                "dangling-face", "error", (cid, fid),
                f"incidence references undeclared face {fid!r}"))
        if cd is not None and fd is not None and cd != fd + 1:
            issues.append(Violation(
                "dimension-mismatch", "error", (cid, fid),
                f"incidence relates dimensions ({cd}, {fd}), expected ({fd + 1}, {fd})"))

    # Composite boundary coefficients, restricted to well-formed entries.
    for p in sorted(set(cells.values())):
        if p < 2:
            continue
        for cid in complex.cells_of_dim(p):
            composite: dict[CellId, int] = {}
            for rid, d1 in complex.faces(cid).items():
                if cells.get(rid) != p - 1:
                    continue
                for tid, d2 in complex.faces(rid).items():
                    if cells.get(tid) != p - 2:
                        continue
                    composite[tid] = composite.get(tid, 0) + d1 * d2
            for tid in sorted(composite):
                coeff = composite[tid]
                if coeff % 2:
                    issues.append(Violation(
                        "composite-odd", "error", (cid, tid),
                        f"composite boundary coefficient {coeff} is odd"))
                elif coeff != 0 and include_warnings:
                    issues.append(Violation(
                        "composite-nonzero", "warning", (cid, tid),
                        f"composite boundary coefficient {coeff} nonzero over the integers"))
    return issues
