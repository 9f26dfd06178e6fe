"""
Persistence of descriptive holes over time
==========================================

A square made of two triangles carries a [temperature, area] descriptor
that changes over three time steps: region J cools from hot to cold
while region I stays put. The Betti curve for the hot descriptor value
records a hole that exists only while something is actually hot, the
signature table collects every such curve, and the transition trace
shows the two regions' descriptions converging.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from descell import (
    CellComplex,
    DescriptorBall,
    betti_curve,
    build_scenario,
    compare_signatures,
    signature,
    transition_evolution,
)
from descell.formats import emit_curves, emit_signature

# ----------------------------------------------------------------------
# The base space: two triangles tI, tJ glued along the diagonal eD.

square = (CellComplex()
          .add_cell("vNW", 0).add_cell("vNE", 0).add_cell("vSW", 0).add_cell("vSE", 0)
          .add_cell("eN", 1, [("vNW", 1), ("vNE", 1)])
          .add_cell("eW", 1, [("vNW", 1), ("vSW", 1)])
          .add_cell("eS", 1, [("vSW", 1), ("vSE", 1)])
          .add_cell("eE", 1, [("vNE", 1), ("vSE", 1)])
          .add_cell("eD", 1, [("vNW", 1), ("vSE", 1)])
          .add_cell("tI", 2, [("eW", 1), ("eS", 1), ("eD", 1)])
          .add_cell("tJ", 2, [("eN", 1), ("eE", 1), ("eD", 1)]))

REGION_I = {"tI", "eW", "eS", "eD", "vNW", "vSW", "vSE"}
REGION_J = {"tJ", "eN", "eE", "eD", "vNW", "vNE", "vSE"}

COLD, COOL, HOT = 0.25, 0.5, 0.75


def step_table(temp_j):
    """Region I stays at (cold, area 0.25); region J, including the
    shared cells, carries (temp_j, area 0.75)."""
    rows = []
    for cid in square.cells:
        if cid in ("tI", "eW", "eS", "vSW"):
            rows.append((cid, (COLD, 0.25)))
        else:
            rows.append((cid, (temp_j, 0.75)))
    return rows


scenario = build_scenario(square, [
    (0.0, step_table(HOT)),
    (1.0, step_table(COOL)),
    (2.0, step_table(COLD)),
])

# ----------------------------------------------------------------------
# The hot descriptor value selects tJ only at the first step, so
# removing it opens a hole there and nowhere else.

hot_ball = DescriptorBall((HOT, 0.75), 0.0)
print("betti_1 curve for the hot value:",
      betti_curve(scenario, hot_ball, 1, "remove", removal_dim=2))

# ----------------------------------------------------------------------
# The signature collects one curve per observed descriptor value and
# dimension; its CSV form is byte-stable and ships with per-curve
# plot files.

sig = signature(scenario, delta=0.0, mode="remove", max_p=2)
print(f"\nsignature table: {len(sig)} rows")
print(emit_signature(sig))
curves = emit_curves(sig)
print("plot-ready curve files:", ", ".join(sorted(curves)[:3]), "...")

# A second run of the same scenario is identical: distance zero.
again = signature(scenario, delta=0.0, mode="remove", max_p=2)
print("distance between repeated runs:", compare_signatures(sig, again))

# ----------------------------------------------------------------------
# The transition trace between the regions: the temperature component
# of the translation shrinks to zero as region J cools, the area
# component never moves.

trace = transition_evolution(scenario, REGION_I, REGION_J)
print("\ntranslation of region I relative to region J, per step:")
for theta, vec in trace.entries:
    print(f"  theta {theta}: {vec}")
