"""Seeded input generators for the benchmark workloads.

Nothing here imports descell: the generators write the program's input
files and keep, on the side, the plain data the output checkers need
(cell dimensions, face lists, descriptor values). The program under test
only ever sees the files.

Every generator takes a ``random.Random``; the workloads seed it from
the workload name, the run seed and the operation index, so the same
seed gives byte-identical files and each operation gets its own cell
labels and descriptor draws.

Descriptor values are dyadic (multiples of 1/8 or 1/64) so sums and
differences are exact in floating point and tolerance-0 checks mean
what they say.
"""

from __future__ import annotations

from dataclasses import dataclass

# Side identifications of the k x k grid square, as pairs of maps t -> point
# for t in 0..k; point src(t) is glued to point dst(t) and the edge
# src(t)-src(t+1) to the edge dst(t)-dst(t+1).
SURFACES = {
    "torus": lambda k: [(lambda t: (0, t), lambda t: (k, t)),
                        (lambda t: (t, 0), lambda t: (t, k))],
    "klein": lambda k: [(lambda t: (0, t), lambda t: (k, t)),
                        (lambda t: (t, 0), lambda t: (k - t, k))],
    "rp2": lambda k: [(lambda t: (0, t), lambda t: (k, k - t)),
                      (lambda t: (t, 0), lambda t: (k - t, k))],
    "sphere": lambda k: [(lambda t: (0, t), lambda t: (t, 0)),
                         (lambda t: (k, t), lambda t: (t, k))],
}

# Known mod-2 Betti numbers and Euler characteristics.
BETTI = {"torus": (1, 2, 1), "klein": (1, 2, 1), "rp2": (1, 1, 1), "sphere": (1, 0, 1)}
EULER = {"torus": 0, "klein": 0, "rp2": 1, "sphere": 2}


@dataclass(frozen=True)
class Surface:
    """A triangulated closed surface with random cell labels.

    ``dims`` maps label to dimension and ``faces`` maps label to its face
    labels (every incidence degree is 1). ``triangles`` lists the
    2-cells in grid order, with ``centers`` their grid coordinates.
    """

    kind: str
    k: int
    dims: dict[str, int]
    faces: dict[str, tuple[str, ...]]
    triangles: tuple[str, ...]
    centers: tuple[tuple[float, float], ...]

    @property
    def betti(self) -> tuple[int, ...]:
        return BETTI[self.kind]

    @property
    def euler(self) -> int:
        return EULER[self.kind]

    def cells_of_dim(self, p: int) -> list[str]:
        return [c for c, d in self.dims.items() if d == p]

    def text(self, rng) -> str:
        """The complex file, its lines in an order drawn from ``rng``."""
        cells = [f"cell {c} {d}" for c, d in self.dims.items()]
        bnds = [f"bnd {c} " + " ".join(f"{f}:1" for f in fs)
                for c, fs in self.faces.items() if fs]
        rng.shuffle(cells)
        rng.shuffle(bnds)
        return "\n".join(cells + bnds) + "\n"


class _Classes:
    """Union-find over hashable keys."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def labels(rng, n: int, prefix: str = "") -> list[str]:
    """n distinct random labels, in draw order."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        label = f"{prefix}{rng.getrandbits(40):010x}"
        if label not in seen:
            seen.add(label)
            out.append(label)
    return out


def surface(kind: str, k: int, rng) -> Surface:
    """A k x k grid triangulation of a closed surface, glued along the
    sides of the square as ``SURFACES[kind]`` says.

    Each grid square (i, j) is cut along its (i, j)-(i+1, j+1) diagonal.
    The result is a Delta-complex: two edges may share their endpoints,
    but no edge is a loop and no triangle meets one edge twice.
    """
    if k < 2:
        raise ValueError(f"grid size must be at least 2, got {k}")
    points = _Classes()
    edges = _Classes()

    def edge(p, q):
        return (p, q) if p <= q else (q, p)

    for src, dst in SURFACES[kind](k):
        for t in range(k + 1):
            points.union(src(t), dst(t))
        for t in range(k):
            edges.union(edge(src(t), src(t + 1)), edge(dst(t), dst(t + 1)))

    grid_tris = []
    for i in range(k):
        for j in range(k):
            a, b, c, d = (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)
            grid_tris.append(((a, b, d), (i + 2 / 3, j + 1 / 3)))
            grid_tris.append(((a, c, d), (i + 1 / 3, j + 2 / 3)))

    vertex_keys = sorted({points.find((i, j)) for i in range(k + 1) for j in range(k + 1)})
    edge_keys = sorted({edges.find(edge(p, q))
                        for tri, _ in grid_tris
                        for p, q in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2]))})
    names = labels(rng, len(vertex_keys) + len(edge_keys) + len(grid_tris))
    vname = dict(zip(vertex_keys, names))
    ename = dict(zip(edge_keys, names[len(vertex_keys):]))
    tnames = names[len(vertex_keys) + len(edge_keys):]

    dims: dict[str, int] = {v: 0 for v in vname.values()}
    faces: dict[str, tuple[str, ...]] = {v: () for v in vname.values()}
    for (p, q), name in ((key, ename[edges.find(key)]) for key in _grid_edges(grid_tris)):
        ends = (vname[points.find(p)], vname[points.find(q)])
        if ends[0] == ends[1]:
            raise ValueError(f"{kind} at k={k}: edge {p}-{q} is a loop")
        if name in faces and set(faces[name]) != set(ends):
            raise ValueError(f"{kind} at k={k}: glued edges disagree on endpoints")
        dims[name] = 1
        faces[name] = tuple(sorted(ends))
    for name, (tri, _) in zip(tnames, grid_tris):
        p, q, r = tri
        sides = {ename[edges.find(edge(p, q))], ename[edges.find(edge(q, r))],
                 ename[edges.find(edge(p, r))]}
        if len(sides) != 3:
            raise ValueError(f"{kind} at k={k}: a triangle meets one edge twice")
        dims[name] = 2
        faces[name] = tuple(sorted(sides))
    return Surface(kind=kind, k=k, dims=dims, faces=faces, triangles=tuple(tnames),
                   centers=tuple(center for _, center in grid_tris))


def _grid_edges(grid_tris):
    seen = set()
    for tri, _ in grid_tris:
        for p, q in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
            key = (p, q) if p <= q else (q, p)
            if key not in seen:
                seen.add(key)
                yield key


def fmt(value: float) -> str:
    """Descriptor values are written exactly as the program's emitters
    write floats, so the file holds the very values the checker uses."""
    return repr(float(value))


def descriptor_csv(values: dict[str, tuple[float, ...]], rng) -> str:
    """A descriptor CSV, rows in an order drawn from ``rng``."""
    arity = len(next(iter(values.values())))
    rows = [c + "," + ",".join(fmt(v) for v in vec) for c, vec in values.items()]
    rng.shuffle(rows)
    return "\n".join(["cell," + ",".join(f"f{i + 1}" for i in range(arity))] + rows) + "\n"


# -- persist_cooling ------------------------------------------------------


@dataclass(frozen=True)
class Cooling:
    """A cooling scenario on a surface: one temperature per cell per step."""

    surface: Surface
    thetas: tuple[float, ...]
    values: tuple[dict[str, tuple[float]], ...]    # one probe per step


def cooling(surf: Surface, steps: int, levels: int, cooling_per_step: int, rng) -> Cooling:
    """Triangle temperatures are ``levels`` dyadic steps of 1/8, ranked
    from a few random hot spots so every level holds the same number of
    triangles at the first step. Each later step subtracts
    ``cooling_per_step`` levels, clamped at 0, so many (step, alpha)
    balls select nothing or the same triangles as another entry. Other
    cells get random values in [0, 1)."""
    k = surf.k
    spots = [(rng.uniform(0, k), rng.uniform(0, k), rng.uniform(0.5, 1.5)) for _ in range(3)]

    def heat(x, y):
        total = 0.0
        for sx, sy, w in spots:
            dx = min(abs(x - sx), k - abs(x - sx))
            dy = min(abs(y - sy), k - abs(y - sy))
            total += w / (1.0 + dx * dx + dy * dy)
        return total

    tris = surf.triangles
    order = sorted(range(len(tris)), key=lambda i: (heat(*surf.centers[i]), rng.random()))
    level0 = {tris[i]: rank * levels // len(tris) for rank, i in enumerate(order)}
    others = [c for c, d in surf.dims.items() if d != 2]
    thetas, values = [], []
    theta = 0.0
    for s in range(steps):
        probe = {c: (rng.randrange(64) / 64,) for c in others}
        for t in tris:
            probe[t] = (max(0, level0[t] - s * cooling_per_step) / 8,)
        thetas.append(theta)
        values.append(probe)
        theta += rng.randrange(1, 5) / 4
    return Cooling(surface=surf, thetas=tuple(thetas), values=tuple(values))


# -- gauge_cover ------------------------------------------------------------


@dataclass(frozen=True)
class Cover:
    """A chart cover of a surface with a 2-arity dyadic probe.

    ``charts`` maps chart id to its sorted members; ``overrides`` holds
    the injected (chart, cell, value) lines, each differing from the
    probe at that cell.
    """

    surface: Surface
    probe: dict[str, tuple[float, float]]
    charts: dict[str, tuple[str, ...]]
    overrides: tuple[tuple[str, str, tuple[float, float]], ...]

    def text(self, rng) -> str:
        blocks = []
        for cid, members in self.charts.items():
            lines = [f"chart {cid}"] + [f"member {c}" for c in members]
            lines += [f"override {c} " + " ".join(fmt(v) for v in val)
                      for ch, c, val in self.overrides if ch == cid]
            blocks.append(lines)
        rng.shuffle(blocks)
        return "\n".join(line for block in blocks for line in block) + "\n"


def cover(surf: Surface, grid: tuple[int, int], window: int, n_overrides: int,
          rng) -> Cover:
    """Charts are the closures of window x window blocks of grid squares,
    their corners on a cols x rows lattice shifted by a random offset, so
    overlaps, including triple overlaps, are common and every cover has
    the same overlap pattern."""
    k = surf.k
    cols, rows = grid
    probe = {c: (rng.randrange(-128, 128) / 64, rng.randrange(-128, 128) / 64)
             for c in surf.dims}
    chart_ids = labels(rng, cols * rows, prefix="ch")
    dx, dy = rng.randrange(k), rng.randrange(k)
    charts = {}
    for n, cid in enumerate(chart_ids):
        x0, y0 = dx + n % cols * k // cols, dy + n // cols * k // rows
        members = set()
        for idx, t in enumerate(surf.triangles):
            i, j = divmod(idx // 2, k)
            if (i - x0) % k < window and (j - y0) % k < window:
                members.add(t)
                for e in surf.faces[t]:
                    members.add(e)
                    members.update(surf.faces[e])
        charts[cid] = tuple(sorted(members))
    overrides = []
    taken = set()
    while len(overrides) < n_overrides:
        cid = rng.choice(chart_ids)
        cell = rng.choice(charts[cid])
        if (cid, cell) in taken:
            continue
        taken.add((cid, cell))
        shift = (rng.randrange(1, 64) / 64, rng.randrange(0, 64) / 64)
        overrides.append((cid, cell, (probe[cell][0] + shift[0], probe[cell][1] + shift[1])))
    return Cover(surface=surf, probe=probe, charts=charts, overrides=tuple(overrides))
