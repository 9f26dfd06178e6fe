"""
Classical mod-2 homology on small cell complexes
================================================

Builds the standard desk-scale complexes cell by cell, computes their
Betti numbers with the column-reduction engine, and cross-checks every answer
against the brute-force enumeration oracle.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from descell import CellComplex, from_simplices, homology, oracle_homology

# ----------------------------------------------------------------------
# A complex is a list of cells with integer incidence degrees onto the
# cells one dimension down. A circle needs one vertex and one loop whose
# attaching map hits the vertex twice with net degree 1 - 1 = 0.

circle = CellComplex().add_cell("v", 0).add_cell("a", 1, [("v", 0)])

# The torus: one vertex, two loops, and a single 2-cell whose attaching
# word runs over each loop twice.

torus = (CellComplex()
         .add_cell("v", 0)
         .add_cell("a", 1, [("v", 0)])
         .add_cell("b", 1, [("v", 0)])
         .add_cell("f", 2, [("a", 2), ("b", 2)]))

# A 2-sphere in its smallest form: a vertex and a 2-cell with collapsed
# boundary. Simplicial input also works; faces are closed automatically.

sphere = CellComplex().add_cell("v", 0).add_cell("f", 2)
disk = from_simplices([("A", "B", "C"), ("B", "C", "E"), ("C", "D", "E")])

# ----------------------------------------------------------------------
# Betti numbers via column reduction over the two-element field,
# then the same numbers by enumerating every chain.

for name, k in [("circle", circle), ("torus", torus),
                ("sphere", sphere), ("triangulated disk", disk)]:
    result = homology(k)
    oracle = oracle_homology(k, max_cells=16)
    assert result.ranks() == oracle.ranks()
    euler = sum((-1) ** p * b for p, b in enumerate(result.betti_vector()))
    print(f"{name:18s} betti {result.betti_vector()}  "
          f"euler {k.euler_characteristic()} (= {euler} from betti)")

# ----------------------------------------------------------------------
# The full per-dimension record, including generator cycles.

print()
print("torus, in detail:")
print(homology(torus).to_text(include_generators=True))
