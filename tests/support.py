"""Shared builders and random generators for the test suite.

Random descriptor values come from a dyadic grid (k/64) by default, so
descriptor subtraction is exact in floating point and tolerance-0 checks
are meaningful; ``decimal_value`` draws values whose differences round.
"""

from itertools import combinations

from descell import CellComplex, Chain, assign_probe, from_simplices, make_chart

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


def rp2():
    """The real projective plane on three cells: the edge meets the vertex
    twice and the face wraps twice around the edge."""
    return CellComplex({"v": 0, "e": 1, "f": 2}, {("e", "v"): 2, ("f", "e"): 2})


def product(k, l):
    """The product cell complex K x L: a cell e*f of dimension dim e +
    dim f per pair of cells. Its faces carry the degrees of (boundary e)
    x f and, with sign (-1)**dim e, those of e x (boundary f), the
    cellular boundary of a product (Hatcher, Algebraic Topology, 3.B)."""
    cells, incidence = {}, {}
    for e, de in k.cells.items():
        sign = (-1) ** de
        for f, df in l.cells.items():
            cid = f"{e}*{f}"
            cells[cid] = de + df
            for face, deg in k.faces(e).items():
                incidence[(cid, f"{face}*{f}")] = deg
            for face, deg in l.faces(f).items():
                incidence[(cid, f"{e}*{face}")] = sign * deg
    return CellComplex(cells, incidence)


def _grid_triangles(k, flip=False):
    """The triangles of ``grid_surface``, two per grid square, square
    (i, j) at positions 2 (i k + j) and 2 (i k + j) + 1."""
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
    return triangles


def grid_surface(k, flip=False):
    """A k x k grid triangulation (k >= 4) with opposite sides glued:
    the torus, or with ``flip`` the Klein bottle, whose second gluing
    reverses the direction of the side. 6 k**2 cells."""
    return from_simplices(_grid_triangles(k, flip))


# Side gluings of the k x k grid square that ``grid_surface`` cannot
# make simplicial, as pairs of maps t -> point for t in 0..k: point
# src(t) is glued to point dst(t), and the edge src(t)-src(t+1) to the
# edge dst(t)-dst(t+1).
GLUINGS = {
    "rp2": lambda k: [(lambda t: (0, t), lambda t: (k, k - t)),
                      (lambda t: (t, 0), lambda t: (k - t, k))],
    "sphere": lambda k: [(lambda t: (0, t), lambda t: (t, 0)),
                         (lambda t: (k, t), lambda t: (t, k))],
}


def glued_surface(kind, k):
    """The k x k grid, each square cut along its (i, j)-(i+1, j+1)
    diagonal, with its sides glued as ``GLUINGS[kind]`` says. Gluing can
    make two edges share both ends, so the result is a cell complex but
    not always a simplicial one; every degree is 1, or 2 where a cell
    meets one face twice. 2 k**2 triangles."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    def union(a, b):
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)

    def edge(p, q):
        return ("e",) + (p + q if p <= q else q + p)

    for src, dst in GLUINGS[kind](k):
        for t in range(k + 1):
            union(src(t), dst(t))
        for t in range(k):
            union(edge(src(t), src(t + 1)), edge(dst(t), dst(t + 1)))

    def name(x):
        return "x".join(map(str, find(x)))

    cells, incidence = {}, {}
    for i in range(k):
        for j in range(k):
            a, b, c, d = (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)
            for n, tri in enumerate(((a, b, d), (a, c, d))):
                tid = f"t{i}x{j}x{n}"
                cells[tid] = 2
                for p, q in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
                    eid = name(edge(p, q))
                    incidence[(tid, eid)] = incidence.get((tid, eid), 0) + 1
                    if eid not in cells:
                        cells[eid] = 1
                        for v in (p, q):
                            vid = "v" + name(v)
                            cells[vid] = 0
                            incidence[(eid, vid)] = incidence.get((eid, vid), 0) + 1
    return CellComplex(cells, incidence)


def grid_windows(k, grid, window):
    """Cell sets of a chart cover of the torus ``grid_surface(k)``: the
    closures of window x window blocks of grid squares, their corners on
    a cols x rows lattice, so pairwise and triple overlaps are common."""
    cols, rows = grid
    triangles = _grid_triangles(k)
    windows = []
    for n in range(cols * rows):
        x0, y0 = n % cols * k // cols, n // cols * k // rows
        cells = set()
        for idx, tri in enumerate(triangles):
            i, j = divmod(idx // 2, k)
            if (i - x0) % k < window and (j - y0) % k < window:
                verts = sorted(tri)
                cells.update("-".join(face) for r in (1, 2, 3)
                             for face in combinations(verts, r))
        windows.append(cells)
    return windows


# -- random generators ----------------------------------------------------


def grid_value(rng):
    return rng.randrange(0, GRID + 1) / GRID


def decimal_value(rng):
    """A multiple of 1/10, which floating point cannot hold exactly, so
    differences of such values round."""
    return rng.randrange(-50, 51) / 10


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


def random_incidence_complex(rng, max_cells=16):
    """A random complex whose incidence table need not be valid.

    Degrees run from -3 to 3, so they are odd, even, negative or zero
    (zero entries vanish at construction). Most entries join adjacent
    dimensions; some join other dimensions and some name undeclared
    cells. Composite boundary coefficients are often odd.
    """
    cells = {f"c{i}": rng.randint(0, 3) for i in range(rng.randint(1, max_cells))}
    ids = sorted(cells)
    incidence = {}
    for cid in ids:
        below = [f for f in ids if cells[f] == cells[cid] - 1]
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if roll < 0.8 and below:
                fid = rng.choice(below)
            elif roll < 0.92:
                fid = rng.choice(ids)
            else:
                fid = f"ghost{rng.randint(0, 1)}"
            incidence[(cid, fid)] = rng.randint(-3, 3)
    if rng.random() < 0.1:
        incidence[(f"phantom{rng.randint(0, 1)}", rng.choice(ids))] = rng.choice((-1, 2))
    return CellComplex(cells, incidence)


def random_chain(rng, k, dim=None):
    dims = [d for d in range(0, k.max_dim + 1) if k.cells_of_dim(d)]
    if not dims:
        return Chain(0)
    if dim is None:
        dim = rng.choice(dims)
    cells = [c for c in k.cells_of_dim(dim) if rng.random() < 0.5]
    return Chain(dim, frozenset(cells))


def random_probe_table(rng, k, arity=2, value=grid_value):
    return [(cid, tuple(value(rng) for _ in range(arity)))
            for cid in sorted(k.cells)]


def random_probe(rng, k, arity=2, value=grid_value):
    return assign_probe(k, random_probe_table(rng, k, arity, value))


def random_cover(rng, k, probe, n_charts):
    """Charts drawn from one probe, forced to overlap pairwise via a
    shared anchor cell."""
    cells = sorted(k.cells)
    anchor = rng.choice(cells)
    charts = []
    for i in range(n_charts):
        members = {anchor} | {c for c in cells if rng.random() < 0.5}
        charts.append(make_chart(probe, members, f"u{i}"))
    return charts
