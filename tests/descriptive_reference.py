"""The earlier ball test and cascade, kept as a differential reference.

This is ``removed_cells`` as it was before the carving grouped a probe's
p-cells by descriptor value: ``ball_members`` calls
``DescriptorBall.contains`` on every p-cell, and the ascending coface
sweep runs again for every ball. It is deliberately left as it was, so
its removed sets can be compared with ``descell.descriptive.removed_cells``.
"""

from descell.cellcomplex import CellId
from descell.descriptive import DescriptorBall, ProbeAssignment


def ball_members(probe: ProbeAssignment, ball: DescriptorBall, p: int) -> set[CellId]:
    """The p-cells whose descriptor lies inside the ball."""
    return {cid for cid in probe.complex.cells_of_dim(p) if ball.contains(probe[cid])}


def removed_cells(probe: ProbeAssignment, ball: DescriptorBall,
                  p: int = 2, mode: str = "remove") -> frozenset[CellId]:
    """The cells ``derive_subcomplex`` deletes for a descriptor ball.

    In "remove" mode these are the p-cells inside the ball; in "retain"
    mode the p-cells outside it. Cells of dimension below p always
    survive. Every higher cell whose closure meets a deleted cell is
    deleted too, so each surviving cell keeps all of its faces.
    """
    if mode not in ("remove", "retain"):
        raise ValueError(f"mode must be 'remove' or 'retain', got {mode!r}")
    if p < 0:
        raise ValueError(f"dimension must be non-negative, got {p}")
    base = probe.complex
    members = ball_members(probe, ball, p)
    removed = members if mode == "remove" else set(base.cells_of_dim(p)) - members
    # Upward cascade: one ascending sweep suffices because faces of a
    # q-cell were settled at q-1.
    for q in range(p + 1, base.max_dim + 1):
        for cid in base.cells_of_dim(q):
            if any(fid in removed for fid in base.faces(cid)):
                removed.add(cid)
    return frozenset(removed)
