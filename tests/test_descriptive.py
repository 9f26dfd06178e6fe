import math
import random

import pytest

import support
from descell import (
    CellComplex,
    Chain,
    DescriptorBall,
    alpha_spectrum,
    assign_probe,
    ball_members,
    boundary_of,
    chain_inclusion,
    cycle_basis,
    derive_subcomplex,
    descriptive_homology,
    homology,
    oracle_homology,
)
from descell.descriptive import removed_cells
from descell.errors import (
    ArityMismatchError,
    DuplicateEntryError,
    ForeignCellError,
    MissingCellError,
)


def four_arcs():
    """Four parallel edges between two vertices, color-coded."""
    k = CellComplex({"u": 0, "w": 0})
    for e in ("red", "black", "green", "blue"):
        k = k.add_cell(e, 1, [("u", 1), ("w", 1)])
    probe = assign_probe(k, [
        ("u", (0.0,)), ("w", (0.0,)),
        ("red", (0.9,)), ("black", (0.1,)), ("green", (0.5,)), ("blue", (0.3,)),
    ])
    return k, probe


# -- probe assignment -------------------------------------------------------


def test_assign_probe_disk(disk3, disk3_probe):
    assert disk3_probe.arity == 1
    assert disk3_probe["C-D-E"] == (0.9,)
    assert disk3_probe.complex == disk3


def test_assign_probe_empty():
    probe = assign_probe(CellComplex(), [])
    assert probe.arity == 0
    assert probe.complex == CellComplex()


def test_assign_probe_missing_cell(circle):
    with pytest.raises(MissingCellError):
        assign_probe(circle, [("v", (1.0,))])


def test_assign_probe_duplicate(circle):
    with pytest.raises(DuplicateEntryError):
        assign_probe(circle, [("v", (1.0,)), ("v", (2.0,)), ("a", (0.0,))])


def test_assign_probe_foreign(circle):
    with pytest.raises(ForeignCellError):
        assign_probe(circle, [("v", (1.0,)), ("a", (0.0,)), ("zz", (0.0,))])


def test_assign_probe_arity_mismatch(circle):
    with pytest.raises(ArityMismatchError):
        assign_probe(circle, [("v", (1.0,)), ("a", (0.0, 1.0))])


# -- descriptor balls -------------------------------------------------------


def test_ball_members_red(disk3_probe):
    assert ball_members(disk3_probe, DescriptorBall((0.9,), 0.0), 2) == {"C-D-E"}


def test_ball_members_whole_image(disk3_probe):
    assert ball_members(disk3_probe, DescriptorBall((0.5,), 10.0), 2) == {
        "A-B-C", "B-C-E", "C-D-E"}


def test_ball_members_outside_image(disk3_probe):
    assert ball_members(disk3_probe, DescriptorBall((123.0,), 0.0), 2) == set()


def test_ball_radius_must_be_nonnegative():
    with pytest.raises(ValueError):
        DescriptorBall((0.0,), -1.0)
    with pytest.raises(ValueError):
        DescriptorBall((0.0,), float("nan"))


def test_ball_predicate_matches_norm_inequality():
    rng = random.Random(31)
    for _ in range(20):
        k = support.random_cw_complex(rng)
        probe = support.random_probe(rng, k, arity=2)
        center = (support.grid_value(rng), support.grid_value(rng))
        delta = support.grid_value(rng)
        ball = DescriptorBall(center, delta)
        for p in range(0, k.max_dim + 1):
            by_norm = {
                cid for cid in k.cells_of_dim(p)
                if math.sqrt(sum((a - b) ** 2
                                 for a, b in zip(probe[cid], center))) <= delta
            }
            assert ball_members(probe, ball, p) == by_norm


# -- sub-complex derivation -----------------------------------------------


def test_remove_red_triangle_opens_hole(disk3, disk3_probe):
    sub = derive_subcomplex(disk3_probe, DescriptorBall((0.9,), 0.0), 2, "remove")
    assert sub.removed == frozenset({"C-D-E"})
    assert sub.complex.is_valid()
    assert homology(disk3).betti(1) == 0
    assert homology(sub.complex, max_p=2).betti(1) == 1
    # cross-check with the enumeration oracle
    assert oracle_homology(sub.complex, max_cells=14).betti(1) == 1


def test_retain_full_image_is_identity(disk3, disk3_probe):
    sub = derive_subcomplex(disk3_probe, DescriptorBall((0.5,), 10.0), 2, "retain")
    assert sub.complex == disk3


def test_remove_nothing_outside_image(disk3, disk3_probe):
    sub = derive_subcomplex(disk3_probe, DescriptorBall((55.0,), 0.0), 2, "remove")
    assert sub.complex == disk3


def test_removal_dimension_far_above_the_top_removes_nothing(disk3_probe):
    for mode in ("remove", "retain"):
        assert removed_cells(disk3_probe, DescriptorBall((0.5,), 0.0), 10**12, mode) == frozenset()


def test_bad_mode_rejected(disk3_probe):
    with pytest.raises(ValueError):
        derive_subcomplex(disk3_probe, DescriptorBall((0.9,), 0.0), 2, "drop")


def test_lower_cells_always_survive(disk3, disk3_probe):
    sub = derive_subcomplex(disk3_probe, DescriptorBall((0.5,), 10.0), 2, "remove")
    assert set(sub.complex.cells) == {
        cid for cid in disk3.cells if disk3.dim_of(cid) < 2}


def test_cascade_removes_cofaces():
    # 3-cell glued (evenly) onto a 2-cell; removing the 2-cell must
    # drag the 3-cell along
    k = support.sphere().add_cell("solid", 3, [("f", 2)])
    probe = assign_probe(k, [("v", (0.0,)), ("f", (1.0,)), ("solid", (2.0,))])
    sub = derive_subcomplex(probe, DescriptorBall((1.0,), 0.0), 2, "remove")
    assert sub.removed == frozenset({"f", "solid"})
    assert sub.complex.is_valid()


def test_derived_subcomplexes_are_valid():
    rng = random.Random(37)
    for _ in range(30):
        k = support.random_cw_complex(rng)
        probe = support.random_probe(rng, k, arity=1)
        center = (support.grid_value(rng),)
        delta = support.grid_value(rng)
        mode = rng.choice(("remove", "retain"))
        p = rng.randint(0, max(k.max_dim, 0))
        sub = derive_subcomplex(probe, DescriptorBall(center, delta), p, mode)
        assert sub.complex.validate() == []


def test_remove_monotone_in_delta():
    rng = random.Random(41)
    for _ in range(15):
        k = support.random_cw_complex(rng)
        if k.max_dim < 1:
            continue
        probe = support.random_probe(rng, k, arity=1)
        center = (support.grid_value(rng),)
        p = rng.randint(1, k.max_dim)
        deltas = sorted(support.grid_value(rng) for _ in range(4))
        counts = []
        for d in deltas:
            sub = derive_subcomplex(probe, DescriptorBall(center, d), p, "remove")
            counts.append(len(sub.complex.cells_of_dim(p)))
        assert counts == sorted(counts, reverse=True)


# -- descriptive homology ----------------------------------------------------


def test_remove_blue_arc_keeps_other_cycles():
    k, probe = four_arcs()
    assert homology(k).betti(1) == 3
    hom = descriptive_homology(probe, DescriptorBall((0.3,), 0.0), 1, "remove")
    # one independent cycle ran through the blue arc
    assert hom.betti(1) == 2
    assert hom.betti(0) == 1
    sub = derive_subcomplex(probe, DescriptorBall((0.3,), 0.0), 1, "remove")
    # the red-black cycle is untouched
    cyc = Chain(1, {"red", "black"})
    assert not boundary_of(sub.complex, cyc)


def test_retain_all_equals_classical(disk3, disk3_probe):
    hom = descriptive_homology(disk3_probe, DescriptorBall((0.5,), 10.0), 2, "retain")
    assert hom.betti_vector() == homology(disk3).betti_vector()


def test_remove_all_top_cells_gives_skeleton(disk3, disk3_probe):
    hom = descriptive_homology(disk3_probe, DescriptorBall((0.5,), 10.0), 2, "remove")
    skel = disk3.skeleton(1).complex
    expected = homology(skel).betti_vector()
    assert hom.betti_vector()[:2] == expected
    assert hom.betti(2) == 0
    assert oracle_homology(skel).betti_vector() == expected


# -- spectrum ---------------------------------------------------------------


def test_alpha_spectrum_disk(disk3_probe):
    assert alpha_spectrum(disk3_probe, 2) == [(0.2,), (0.5,), (0.9,)]


def test_alpha_spectrum_uniform(circle):
    probe = assign_probe(circle, [("v", (1.0,)), ("a", (1.0,))])
    assert alpha_spectrum(probe, 1) == [(1.0,)]


def test_alpha_spectrum_empty_dimension(circle):
    probe = assign_probe(circle, [("v", (1.0,)), ("a", (2.0,))])
    assert alpha_spectrum(probe, 5) == []


# -- chain inclusion ---------------------------------------------------------


def test_inclusion_red_black_cycle():
    k, probe = four_arcs()
    sub = derive_subcomplex(probe, DescriptorBall((0.3,), 0.0), 1, "remove")
    cyc = Chain(1, {"red", "black"})
    included = chain_inclusion(sub, cyc)
    assert included.support == cyc.support
    assert not boundary_of(k, included)


def test_inclusion_of_empty_chain(disk3_probe):
    sub = derive_subcomplex(disk3_probe, DescriptorBall((0.9,), 0.0), 2, "remove")
    assert chain_inclusion(sub, Chain.empty(1)) == Chain.empty(1)


def test_inclusion_rejects_removed_cells(disk3_probe):
    sub = derive_subcomplex(disk3_probe, DescriptorBall((0.9,), 0.0), 2, "remove")
    with pytest.raises(ForeignCellError):
        chain_inclusion(sub, Chain(2, {"C-D-E"}))


def test_inclusion_rejects_a_chain_of_another_dimension(disk3_probe):
    sub = derive_subcomplex(disk3_probe, DescriptorBall((0.9,), 0.0), 2, "remove")
    with pytest.raises(ForeignCellError, match="^cell 'A-B' has dimension 1, chain claims 0$"):
        chain_inclusion(sub, Chain(0, {"A-B"}))


def test_inclusion_is_additive():
    rng = random.Random(43)
    for _ in range(20):
        k = support.random_cw_complex(rng)
        probe = support.random_probe(rng, k, arity=1)
        center = (support.grid_value(rng),)
        sub = derive_subcomplex(
            probe, DescriptorBall(center, support.grid_value(rng)),
            rng.randint(0, max(k.max_dim, 0)), rng.choice(("remove", "retain")))
        dims = [d for d in range(sub.complex.max_dim + 1) if sub.complex.cells_of_dim(d)]
        if not dims:
            continue
        d = rng.choice(dims)
        c1 = support.random_chain(rng, sub.complex, d)
        c2 = support.random_chain(rng, sub.complex, d)
        assert chain_inclusion(sub, c1 + c2) == chain_inclusion(sub, c1) + chain_inclusion(sub, c2)


def test_included_cycles_are_base_cycles():
    rng = random.Random(47)
    for _ in range(20):
        k = support.random_cw_complex(rng)
        probe = support.random_probe(rng, k, arity=1)
        center = (support.grid_value(rng),)
        sub = derive_subcomplex(
            probe, DescriptorBall(center, support.grid_value(rng)),
            rng.randint(0, max(k.max_dim, 0)), rng.choice(("remove", "retain")))
        for p in range(0, sub.complex.max_dim + 1):
            for cyc in cycle_basis(sub.complex, p):
                assert not boundary_of(k, chain_inclusion(sub, cyc))


def test_exactness_inside_subcomplexes():
    rng = random.Random(53)
    for _ in range(20):
        k = support.random_cw_complex(rng)
        probe = support.random_probe(rng, k, arity=1)
        center = (support.grid_value(rng),)
        sub = derive_subcomplex(
            probe, DescriptorBall(center, support.grid_value(rng)),
            rng.randint(0, max(k.max_dim, 0)), rng.choice(("remove", "retain")))
        inner = sub.complex
        for p in range(1, inner.max_dim + 1):
            for cid in inner.cells_of_dim(p):
                b = boundary_of(inner, Chain(p, {cid}))
                assert not boundary_of(inner, b)
