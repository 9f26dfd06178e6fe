"""Shared builders and random generators for the test suite.

Random descriptor values come from a dyadic grid (k/64) so descriptor
subtraction is exact in floating point and tolerance-0 checks are
meaningful.
"""

from itertools import combinations

from descell import CellComplex, Chain, assign_probe, from_simplices

GRID = 64


# -- canonical small complexes -------------------------------------------


def point():
    return CellComplex({"v": 0})


def two_points():
    return CellComplex({"p": 0, "q": 0})


def interval():
    return CellComplex(
        {"v0": 0, "v1": 0, "e": 1},
        {("e", "v0"): 1, ("e", "v1"): 1})


def circle():
    return CellComplex({"v": 0, "a": 1})


def wedge_of_circles(n=2):
    cells = {"v": 0}
    for i in range(n):
        cells[f"a{i}"] = 1
    return CellComplex(cells)


def sphere():
    return CellComplex({"v": 0, "f": 2})


def torus():
    return CellComplex(
        {"v": 0, "a": 1, "b": 1, "f": 2},
        {("f", "a"): 2, ("f", "b"): 2})


def disk3():
    """Triangulated disk: three triangles sharing the hub vertex C."""
    return from_simplices([("A", "B", "C"), ("B", "C", "E"), ("C", "D", "E")])


def disk3_probe():
    k = disk3()
    colors = {"A-B-C": 0.2, "B-C-E": 0.5, "C-D-E": 0.9}
    return assign_probe(k, [(cid, (colors.get(cid, 0.0),)) for cid in k.cells])


def square():
    """Two triangles glued along the diagonal eD."""
    k = CellComplex()
    for v in ("vNE", "vNW", "vSE", "vSW"):
        k = k.add_cell(v, 0)
    k = k.add_cell("eN", 1, [("vNW", 1), ("vNE", 1)])
    k = k.add_cell("eW", 1, [("vNW", 1), ("vSW", 1)])
    k = k.add_cell("eS", 1, [("vSW", 1), ("vSE", 1)])
    k = k.add_cell("eE", 1, [("vNE", 1), ("vSE", 1)])
    k = k.add_cell("eD", 1, [("vNW", 1), ("vSE", 1)])
    k = k.add_cell("tI", 2, [("eW", 1), ("eS", 1), ("eD", 1)])
    k = k.add_cell("tJ", 2, [("eN", 1), ("eE", 1), ("eD", 1)])
    return k


REGION_I = frozenset({"tI", "eW", "eS", "eD", "vNW", "vSW", "vSE"})
REGION_J = frozenset({"tJ", "eN", "eE", "eD", "vNW", "vNE", "vSE"})


def square_step_table(temp_j, area_j=0.75):
    """Descriptor table for one scenario step: region I is fixed at
    (0.25, 0.25), region J (including the shared cells) carries the
    given temperature and area."""
    k = square()
    rows = []
    for cid in k.cells:
        if cid in ("tI", "eW", "eS", "vSW"):
            rows.append((cid, (0.25, 0.25)))
        else:
            rows.append((cid, (temp_j, area_j)))
    return rows


def grid_surface(k, flip=False):
    """A k x k grid triangulation (k >= 4) with opposite sides glued:
    the torus, or with ``flip`` the Klein bottle, whose second gluing
    reverses the direction of the side. 6 k**2 cells."""
    def vertex(i, j):
        if i == k:
            i, j = 0, (-j if flip else j)
        return f"v{i}x{j % k}"

    triangles = []
    for i in range(k):
        for j in range(k):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i + 1, j + 1), vertex(i, j + 1)
            triangles += [(a, b, c), (a, c, d)]
    return from_simplices(triangles)


# -- random generators ----------------------------------------------------


def grid_value(rng):
    return rng.randrange(0, GRID + 1) / GRID


def random_simplicial_complex(rng, max_vertices=10):
    """A random abstract simplicial complex, closed under faces."""
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    simplices = [(v,) for v in verts]
    edges = [pair for pair in combinations(verts, 2) if rng.random() < 0.3]
    simplices += edges
    edge_set = {frozenset(e) for e in edges}
    tris = []
    for tri in combinations(verts, 3):
        if all(frozenset(p) in edge_set for p in combinations(tri, 2)):
            if rng.random() < 0.5:
                tris.append(tri)
    simplices += tris
    tri_set = {frozenset(t) for t in tris}
    for quad in combinations(verts, 4):
        if all(frozenset(t) in tri_set for t in combinations(quad, 3)):
            if rng.random() < 0.3:
                simplices.append(quad)
    return from_simplices(simplices)


def _odd_boundary(k, edges):
    """Mod-2 vertex boundary of an edge set, computed straight off the
    incidence table (kept independent of the library's chain ops)."""
    out = set()
    for e in edges:
        for v, deg in k.faces(e).items():
            if deg % 2:
                out ^= {v}
    return out


def random_cw_complex(rng, max_cells=12):
    """A random valid complex mixing simplicial cells with loops,
    collapsed-boundary cells and even-degree attachments."""
    k = CellComplex()
    for i in range(rng.randint(1, 3)):
        k = k.add_cell(f"v{i}", 0)
    serial = 0
    while len(k) < max_cells and rng.random() < 0.9:
        serial += 1
        verts = k.cells_of_dim(0)
        edges = k.cells_of_dim(1)
        faces2 = k.cells_of_dim(2)
        roll = rng.random()
        if roll < 0.4:
            u, v = rng.choice(verts), rng.choice(verts)
            boundary = [] if u == v else [(u, 1), (v, 1)]
            k = k.add_cell(f"e{serial}", 1, boundary)
        elif roll < 0.75 and edges:
            style = rng.random()
            if style < 0.3:
                k = k.add_cell(f"f{serial}", 2, [])
            elif style < 0.6:
                picked = rng.sample(edges, rng.randint(1, min(2, len(edges))))
                k = k.add_cell(f"f{serial}", 2, [(e, 2) for e in picked])
            else:
                # attach along a mod-2 cycle, if a few random draws find one
                for _ in range(6):
                    subset = [e for e in edges if rng.random() < 0.5]
                    if subset and not _odd_boundary(k, subset):
                        k = k.add_cell(f"f{serial}", 2, [(e, 1) for e in subset])
                        break
        elif faces2:
            pick = rng.choice(faces2)
            k = k.add_cell(f"c{serial}", 3, [(pick, 2)])
    return k


def random_chain(rng, k, dim=None):
    dims = [d for d in range(0, k.max_dim + 1) if k.cells_of_dim(d)]
    if not dims:
        return Chain(0)
    if dim is None:
        dim = rng.choice(dims)
    cells = [c for c in k.cells_of_dim(dim) if rng.random() < 0.5]
    return Chain(dim, frozenset(cells))


def random_probe_table(rng, k, arity=2):
    return [(cid, tuple(grid_value(rng) for _ in range(arity)))
            for cid in sorted(k.cells)]


def random_probe(rng, k, arity=2):
    return assign_probe(k, random_probe_table(rng, k, arity))
