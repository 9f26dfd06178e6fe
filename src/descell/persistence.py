"""Parameterized descriptor scenarios and Betti signatures.

A scenario fixes one base complex and re-describes it at a strictly
increasing sequence of parameter values (time, typically). Per step, the
descriptor-ball machinery yields Betti numbers; collecting them over the
union of observed descriptor values gives a rectangular signature table
that can be compared between scenarios. Transition traces follow the
translation between two regions' descriptions across the steps.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping

from ._record import Record
from .cellcomplex import CellComplex, CellId
# bench/test_bench.py::test_tracer_wraps_every_binding_and_restores pins descriptive_homology.
from .descriptive import (  # noqa: F401
    Descriptor,
    DescriptorBall,
    _carver,
    _check_carving,
    assign_probe,
    descriptive_homology,
)
from .errors import (
    ArityMismatchError,
    EmptyOverlapError,
    ForeignCellError,
    MetadataMismatchError,
    NonMonotoneThetaError,
    StepCountMismatchError,
)
from .homology import _masked_betti, _top_dim


class ScenarioStep(Record):
    """One parameter value of a scenario and the probe that describes the
    base complex there."""

    __slots__ = ("theta", "probe")


class Scenario(Record):
    """A base complex described at successive parameter values. Raises
    ForeignCellError unless every step's probe lies on ``complex`` (the
    same object, or an equal complex), NonMonotoneThetaError unless the
    thetas increase strictly, and ArityMismatchError unless every step
    has the same arity."""

    __slots__ = ("complex", "steps")

    def __init__(self, complex: CellComplex, steps: tuple[ScenarioStep, ...]):
        for step in steps:
            if step.probe.complex is not complex and step.probe.complex != complex:
                raise ForeignCellError(
                    f"step at theta {step.theta!r} has a probe on a different complex")
        for last, step in zip(steps, steps[1:]):
            if step.theta <= last.theta:
                raise NonMonotoneThetaError(
                    f"theta {step.theta!r} does not increase past {last.theta!r}")
            if step.probe.arity != steps[0].probe.arity:
                raise ArityMismatchError(
                    f"step at theta {step.theta!r} has arity {step.probe.arity}, "
                    f"expected {steps[0].probe.arity}")
        super().__init__(complex, steps)

    @property
    def thetas(self) -> tuple[float, ...]:
        return tuple(s.theta for s in self.steps)


def build_scenario(complex: CellComplex,
                   steps: Iterable[tuple[float, Iterable[tuple[CellId, Iterable[float]]]]],
                   ) -> Scenario:
    """Assemble a scenario from (theta, descriptor table) pairs. Raises what
    ``assign_probe`` raises for a bad table, then what ``Scenario`` raises."""
    return Scenario(complex=complex, steps=tuple(
        ScenarioStep(theta=float(theta), probe=assign_probe(complex, table))
        for theta, table in steps))


def betti_curve(scenario: Scenario, ball: DescriptorBall, p: int,
                mode: str = "remove", removal_dim: int = 2) -> list[tuple[float, int]]:
    """The dimension-p Betti number per step for one descriptor ball:
    ``descriptive_homology(step.probe, ball, removal_dim, mode,
    max_p=p).betti(p)``, from the carving and reduction ``signature`` uses:
    each step's carver hands its removed masks to ``_masked_betti``.
    ``mode`` and ``removal_dim`` are checked even with no step."""
    max_p = _top_dim(scenario.complex, p)
    _check_carving(removal_dim, mode)
    betti = _masked_betti(scenario.complex, max_p, removal_dim)
    return [(step.theta, betti(_carver(step.probe, removal_dim, mode)[1](ball))[p])
            for step in scenario.steps]


class PersistenceSignature(Record):
    """Rectangular table (step, descriptor value, dimension) -> Betti.

    ``alphas`` is the union of the descriptor values seen at the removal
    dimension across all steps, so every step has a row for every alpha;
    a value absent from some step simply selects nothing there.
    """

    __slots__ = ("mode", "delta", "removal_dim", "thetas", "alphas", "dims", "table")

    def __init__(self, mode: str, delta: float, removal_dim: int, thetas: tuple[float, ...],
                 alphas: tuple[Descriptor, ...], dims: tuple[int, ...],
                 table: Mapping[tuple[int, Descriptor, int], int]):
        super().__init__(mode, delta, removal_dim, thetas, alphas, dims, dict(table))

    def betti(self, step_index: int, alpha: Descriptor, p: int) -> int:
        return self.table[(step_index, tuple(alpha), p)]

    def rows(self):
        """Canonical row order: theta ascending, alpha lexicographic,
        dimension ascending."""
        for ti, theta in enumerate(self.thetas):
            for alpha in self.alphas:
                for p in self.dims:
                    yield theta, alpha, p, self.table[(ti, alpha, p)]

    def curve(self, alpha: Descriptor, p: int) -> list[tuple[float, int]]:
        alpha = tuple(alpha)
        return [(theta, self.table[(ti, alpha, p)])
                for ti, theta in enumerate(self.thetas)]

    def __len__(self) -> int:
        return len(self.table)


def signature(scenario: Scenario, delta: float = 0.0, mode: str = "remove",
              max_p: int | None = None, removal_dim: int = 2) -> PersistenceSignature:
    """Betti signature over every observed descriptor value and step.

    Entry (step, alpha, p) is ``descriptive_homology(step.probe,
    DescriptorBall(alpha, delta), removal_dim, mode, max_p).betti(p)``,
    and the first entry whose sub-complex is invalid raises its
    InvalidComplexError. Every step's probe lies on ``scenario.complex``
    (``Scenario`` checks that), so the entries are cell masks on that one
    complex: it is validated once and each of its boundary maps reduced
    once, every entry's Betti numbers are read off those reductions' ranks
    and kernel bases, or off the rank of a map's kept columns where they
    are the fewer rows (``_masked_betti``). Each step has one ``_carver``,
    which groups its p-cells by value once: the groups' sorted values are
    the step's share of the alphas, and a ball selects whole groups, one
    index range of the sorted values on a scalar probe, else the values
    it ``contains``. The removed masks go to ``_masked_betti`` as they
    are, with no cell id read. After ``max_p`` is checked, the carvers are
    built (which raises nothing), the balls built, and then ``mode`` and
    ``removal_dim`` checked, even with no entry, so the errors come in
    that order. The table does not depend on the order.
    """
    max_p = _top_dim(scenario.complex, max_p)
    carvers = [_carver(step.probe, removal_dim, mode) for step in scenario.steps]
    alphas: set[Descriptor] = set()
    for step_alphas, _ in carvers:
        alphas.update(step_alphas)
    balls = {alpha: DescriptorBall(alpha, delta) for alpha in sorted(alphas)}
    _check_carving(removal_dim, mode)
    dims = tuple(range(0, max_p + 1))
    betti = _masked_betti(scenario.complex, max_p, removal_dim)
    table: dict[tuple[int, Descriptor, int], int] = {}
    for ti, (_, carve) in enumerate(carvers):
        for alpha, ball in balls.items():
            bettis = betti(carve(ball))
            for p in dims:
                table[(ti, alpha, p)] = bettis[p]
    return PersistenceSignature(
        mode=mode, delta=float(delta), removal_dim=removal_dim,
        thetas=scenario.thetas, alphas=tuple(balls), dims=dims, table=table)


class TransitionTrace(Record):
    """Per-step translation between two regions' descriptions: one
    (theta, vector) entry per step, the vector holding on every cell of
    the overlap."""

    __slots__ = ("pair", "overlap", "entries")

    def component_series(self, k: int) -> list[tuple[float, float]]:
        """One descriptor component of the translation per step."""
        return [(theta, vec[k]) for theta, vec in self.entries]


def _region_representative(complex: CellComplex, cells: frozenset[CellId]) -> CellId:
    top = max(complex.dim_of(c) for c in cells)
    return min(c for c in cells if complex.dim_of(c) == top)


def transition_evolution(scenario: Scenario,
                         cells_i: Iterable[CellId],
                         cells_j: Iterable[CellId],
                         rep_i: CellId | None = None,
                         rep_j: CellId | None = None,
                         ids: tuple[str, str] = ("i", "j")) -> TransitionTrace:
    """Track the translation between two regions across the steps.

    A region's description at a step is the descriptor of its
    representative cell (by default the lexicographically first cell of
    the region's top dimension), matching the reading of a region-valued
    probe: the region's fibre value stands for all of its cells. The
    translation is that of region i relative to region j, constant over
    the overlap.

    Raises:
        ForeignCellError: region cells missing from the base complex.
        EmptyOverlapError: the regions share no cell.
    """
    base = scenario.complex
    set_i = frozenset(str(c) for c in cells_i)
    set_j = frozenset(str(c) for c in cells_j)
    for cid in sorted((set_i | set_j)):
        if cid not in base:
            raise ForeignCellError(f"cell {cid!r} is not in the scenario complex")
    if not set_i or not set_j:
        raise EmptyOverlapError("regions must be nonempty")
    overlap = tuple(sorted(set_i & set_j))
    if not overlap:
        raise EmptyOverlapError("regions share no cells")
    rep_i = str(rep_i) if rep_i is not None else _region_representative(base, set_i)
    rep_j = str(rep_j) if rep_j is not None else _region_representative(base, set_j)
    if rep_i not in set_i or rep_j not in set_j:
        raise ForeignCellError("representatives must belong to their regions")
    entries = tuple(
        (step.theta, tuple(a - b for a, b in zip(step.probe[rep_i], step.probe[rep_j])))
        for step in scenario.steps)
    return TransitionTrace(pair=ids, overlap=overlap, entries=entries)


def compare_signatures(s1: PersistenceSignature, s2: PersistenceSignature) -> int:
    """L1 distance between two signatures aligned by step index.

    Tables are joined on the union of their (alpha, dimension) keys with
    missing entries counted as 0.

    Raises:
        MetadataMismatchError: settings (mode, delta, removal dimension,
            covered dimensions) differ.
        StepCountMismatchError: different number of steps.
    """
    meta1 = (s1.mode, s1.delta, s1.removal_dim, s1.dims)
    meta2 = (s2.mode, s2.delta, s2.removal_dim, s2.dims)
    if meta1 != meta2:
        raise MetadataMismatchError(f"signature settings differ: {meta1} vs {meta2}")
    if len(s1.thetas) != len(s2.thetas):
        raise StepCountMismatchError(
            f"signatures cover {len(s1.thetas)} vs {len(s2.thetas)} steps")
    return sum(abs(s1.table.get(key, 0) - s2.table.get(key, 0))
               for key in itertools.product(range(len(s1.thetas)),
                                            set(s1.alphas) | set(s2.alphas), s1.dims))
