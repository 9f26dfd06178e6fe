"""Differential tests: ``signature`` against the earlier one.

``signature_reference`` is ``signature`` as it was when it reduced every
distinct removed set again and tested each ball on every distinct value
of a step. Today's ``signature`` reads each entry's ranks off the base's
kernel bases, and its carvers select a ball's values as one index range
on a scalar probe, else test each distinct value once. Both must give
the same table, or raise the same exception with the same message,
on a corrupted random corpus, on the cooling scenario of the golden
tables, on tori with one level per triangle and on a 3-dimensional
product, where removing a 2-cell cascades into the 3-cells on it.
``test_signature_properties`` adds ``hypothesis`` scenarios.
"""

import importlib
import random
from pathlib import Path

import pytest

import signature_reference
import support
from descell import DescriptorBall, build_scenario, descriptive_homology, signature
from descell.formats import emit_signature, load_scenario
from descell.descriptive import removed_cells
from test_signature_masks import coarse_value, corpus, engine, outcome, random_scenario

DATA = Path(__file__).parent / "data"
persistence = importlib.import_module("descell.persistence")


def assert_same(scen, delta, mode, max_p=None, removal_dim=2):
    """Both signatures raise alike or give equal tables; returns the table."""
    got = outcome(lambda: signature(scen, delta, mode, max_p, removal_dim))
    assert got == outcome(lambda: signature_reference.signature(
        scen, delta, mode, max_p, removal_dim)), (scen.complex, delta, mode, max_p, removal_dim)
    return got[0]


def test_signature_matches_reference_on_corrupted_corpus():
    tables = errors = 0
    for rng, k, scen in corpus(1717, 300):
        for removal_dim in (0, 1, 2):
            mode = rng.choice(("remove", "retain"))
            delta = rng.choice((0.0, 0.25, 0.6, float("inf")))
            sig = assert_same(scen, delta, mode, rng.choice((None, 0, 1, 3)), removal_dim)
            tables += sig is not None
            errors += sig is None
    assert tables > 500 and errors > 100, (tables, errors)


@pytest.mark.parametrize("mode", ["remove", "retain"])
def test_golden_cooling_tables(mode):
    """The cooling scenario's tables in both modes, as the CLI writes
    them, and each entry as ``descriptive_homology`` gives it."""
    scen, diags = load_scenario(str(DATA / "cooling.scenario"))
    assert scen is not None, diags
    delta = 0.25 if mode == "retain" else 0.0
    sig = assert_same(scen, delta, mode)
    name = "golden_cooling_signature" + ("_retain" if mode == "retain" else "")
    assert emit_signature(sig) == (DATA / f"{name}.csv").read_text()
    for ti, step in enumerate(scen.steps):
        for alpha in sig.alphas:
            hom = descriptive_homology(step.probe, DescriptorBall(alpha, delta), 2, mode)
            assert [sig.betti(ti, alpha, p) for p in sig.dims] == list(hom.betti_vector())


def one_level_per_triangle(k, steps, seed):
    """A ``grid_surface(k)`` torus whose triangles start on distinct
    levels of 1/8 and cool by 3 levels a step, clamped at 0; the other
    cells get random values in [0, 1)."""
    rng = random.Random(seed)
    torus = support.grid_surface(k)
    tris = torus.cells_of_dim(2)
    levels = rng.sample(range(len(tris)), len(tris))
    tables = []
    for s in range(steps):
        table = {cid: (rng.randrange(64) / 64,) for cid in torus.cells}
        table.update({cid: (max(0, level - 3 * s) / 8,) for cid, level in zip(tris, levels)})
        tables.append((float(s), sorted(table.items())))
    return build_scenario(torus, tables)


@pytest.mark.parametrize("k,steps,mode,delta", [
    (12, 4, "remove", 0.0), (12, 4, "remove", 0.5), (12, 4, "retain", 0.25),
    (24, 2, "remove", 0.0), (24, 2, "retain", 0.25),
], ids=["864-remove-0", "864-remove-0.5", "864-retain-0.25", "3456-remove-0", "3456-retain-0.25"])
def test_one_level_per_triangle_tori(k, steps, mode, delta):
    scen = one_level_per_triangle(k, steps, seed=k)
    sig = assert_same(scen, delta, mode)
    assert len(sig.alphas) == 2 * k * k  # one level per triangle



@pytest.mark.parametrize("removal_dim", [0, 1])
@pytest.mark.parametrize("mode,delta", [
    ("remove", 0.0), ("remove", 0.5), ("retain", 0.0), ("retain", 0.25)])
def test_lower_removal_dims_on_both_rank_routes(monkeypatch, removal_dim, mode, delta):
    """Carving vertices or edges of an 864-cell torus. A small retain ball
    keeps fewer columns than it removes, so the entry ranks the kept
    columns (``_pivots`` without a bound); a remove ball at δ 0 reads the
    kernel basis's transpose (``_pivots`` bounded by dim Z_q). The base's
    maps below the removal dim are ranked too, without a bound, when
    ``signature`` builds its entry function; the entries come after."""
    bounds, built = [], []
    reduce, masked_betti = engine._pivots, persistence._masked_betti

    def spy(columns, pivots=None, bound=None):
        bounds.append(bound)
        return reduce(columns, pivots, bound)

    def build(*args):
        betti = masked_betti(*args)
        built.append(len(bounds))
        return betti

    monkeypatch.setattr(engine, "_pivots", spy)
    monkeypatch.setattr(persistence, "_masked_betti", build)
    scen = one_level_per_triangle(12, 2, seed=removal_dim)
    assert_same(scen, delta, mode, removal_dim=removal_dim)
    assert bounds[:built[0]] == [None] * removal_dim
    entries = bounds[built[0]:]
    if (mode, delta) == ("retain", 0.0):
        assert None in entries
    if (mode, delta) == ("remove", 0.0):
        assert any(b is not None for b in entries)


@pytest.mark.parametrize("removal_dim", [0, 1, 2, 3])
def test_three_dimensional_product(removal_dim):
    """Random 3-step scenarios on the 192-cell triangulated torus times a
    circle, in both modes and at two radii."""
    k = support.product(support.grid_surface(4), support.circle())
    rng = random.Random(40 + removal_dim)
    cascades = 0
    for arity in (1, 2):
        scen = build_scenario(k, [(float(t), support.random_probe_table(
            rng, k, arity, coarse_value)) for t in range(3)])
        for mode in ("remove", "retain"):
            for delta in (0.0, 0.25):
                sig = assert_same(scen, delta, mode, removal_dim=removal_dim)
                assert sig.dims == (0, 1, 2, 3)
                if removal_dim == 2:
                    cascades += sum(
                        any(k.dim_of(c) == 3 for c in removed_cells(
                            step.probe, DescriptorBall(alpha, delta), 2, mode))
                        for step in scen.steps for alpha in sig.alphas)
    assert cascades or removal_dim != 2
