"""Output checkers for the benchmark workloads.

They share no code with descell: each one parses the program's stdout
and compares it with answers worked out from the generator's own data
(known Betti numbers, face lists, descriptor values). A checker returns
None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math

from instances import Cooling, Cover, Surface


def check_homology(surf: Surface, code: int, out: str) -> str | None:
    """``descell homology <file> --generators`` on a closed surface.

    The Betti vector must be the known mod-2 answer, each dimension must
    print as many generators as its Betti number, every generator must
    have empty mod-2 boundary under the generator's face lists, and the
    Euler characteristic must equal the alternating Betti sum.
    """
    if code != 0:
        return f"exit code {code}, expected 0"
    lines = out.splitlines()
    records: list[tuple[int, int, int, int, int]] = []
    gens: dict[int, list[list[str]]] = {}
    final = None
    for line in lines:
        words = line.split()
        if words[:1] == ["dim"] and len(words) == 10:
            try:
                records.append(tuple(int(words[i]) for i in (1, 3, 5, 7, 9)))
            except ValueError:
                return f"malformed record line {line!r}"
        elif words[:1] == ["gen"] and len(words) >= 3 and words[1].isdigit():
            gens.setdefault(int(words[1]), []).append(words[2:])
        elif words[:1] == ["betti"]:
            final = words[1:]
        else:
            return f"unexpected line {line!r}"
    betti = tuple(r[4] for r in records)
    if tuple(r[0] for r in records) != tuple(range(len(surf.betti))):
        return f"record dimensions {[r[0] for r in records]}"
    if betti != surf.betti:
        return f"betti {betti}, expected {surf.betti}"
    if final != [str(b) for b in betti]:
        return f"closing line {final}, records give {betti}"
    counts = [len(surf.cells_of_dim(p)) for p in range(len(betti))]
    for (p, n, z, b, h), n_p in zip(records, counts):
        if n != n_p or h != z - b:
            return f"dim {p}: cells {n} (expected {n_p}), betti {h} != {z} - {b}"
    euler = sum((-1) ** p * n for p, n in enumerate(counts))
    if euler != surf.euler or euler != sum((-1) ** p * h for p, h in enumerate(betti)):
        return f"Euler characteristic {euler} vs alternating Betti sum of {betti}"
    for p, h in enumerate(betti):
        found = gens.get(p, [])
        if len(found) != h:
            return f"dim {p}: {len(found)} generators, betti {h}"
        for cells in found:
            if len(set(cells)) != len(cells) or any(surf.dims.get(c) != p for c in cells):
                return f"dim {p}: generator {' '.join(cells)} is not a set of {p}-cells"
            boundary: set[str] = set()
            for c in cells:
                boundary.symmetric_difference_update(surf.faces[c])
            if boundary:
                return f"dim {p}: generator has nonzero boundary ({len(boundary)} cells)"
    if set(gens) - set(range(len(betti))):
        return f"generators in dimensions {sorted(gens)}"
    return None


def expected_signature(cool: Cooling, mode: str, delta: float):
    """Closed-form signature rows (theta, alpha, dim, betti).

    Removing m >= 1 triangles from a closed connected surface with Euler
    characteristic chi leaves Betti numbers (1, 1 - chi + m, 0); m = 0
    leaves the surface itself.
    """
    surf = cool.surface
    tris = surf.triangles
    alphas = sorted({probe[t] for probe in cool.values for t in tris})
    rows = []
    for theta, probe in zip(cool.thetas, cool.values):
        for alpha in alphas:
            inside = sum(1 for t in tris if math.dist(alpha, probe[t]) <= delta)
            m = inside if mode == "remove" else len(tris) - inside
            betti = surf.betti if m == 0 else (1, 1 - surf.euler + m, 0)
            rows.extend((theta, alpha, p, b) for p, b in enumerate(betti))
    return rows


def check_persist(cool: Cooling, mode: str, delta: float, code: int, out: str) -> str | None:
    """``descell persist <scenario> --mode <mode> --delta <delta>``: every
    row of the signature CSV against ``expected_signature``."""
    if code != 0:
        return f"exit code {code}, expected 0"
    lines = out.splitlines()
    head = [f"# mode {mode}", f"# delta {float(delta)!r}", "# rdim 2", "theta,alpha,dim,betti"]
    if lines[:4] != head:
        return f"header {lines[:4]}"
    rows = []
    for line in lines[4:]:
        fields = line.split(",")
        try:
            rows.append((float(fields[0]), tuple(float(v) for v in fields[1].split(";")),
                         int(fields[2]), int(fields[3])))
        except (ValueError, IndexError):
            return f"malformed row {line!r}"
    expected = expected_signature(cool, mode, delta)
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for got, want in zip(rows, expected):
        if got != want:
            return f"row {got}, expected {want}"
    return None


def check_gauge(cover: Cover, code: int, out: str) -> str | None:
    """``descell gauge``: the violation triples (identity, chart, cell)
    must be exactly one trivialization row per injected override, with
    the override's residual; dyadic values leave no symmetry or cocycle
    rows."""
    want_code = 1 if cover.overrides else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if not cover.overrides:
        return None if out == "OK\n" else f"expected OK, got {out[:80]!r}"
    expected = {("trivialization", chart, cell):
                tuple(v - p for v, p in zip(value, cover.probe[cell]))
                for chart, cell, value in cover.overrides}
    got = {}
    for line in out.splitlines():
        words = line.split()
        if len(words) != 9 or words[1::2][:4] != ["charts", "cell", "residual", "norm"]:
            return f"malformed violation line {line!r}"
        key = (words[0], words[2], words[4])
        if key in got:
            return f"duplicate violation {key}"
        try:
            got[key] = tuple(float(v) for v in words[6].split(";"))
        except ValueError:
            return f"malformed residual in {line!r}"
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return f"violations differ: missing {missing[:3]}, extra {extra[:3]}"
    for key, residual in got.items():
        if residual != expected[key]:
            return f"{key}: residual {residual}, expected {expected[key]}"
    return None
