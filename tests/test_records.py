"""The contract of descell's immutable record classes.

Each record is built by position and by keyword, compares equal to an
equal record of its own class only, hashes by its fields (or refuses to,
when a field is unhashable), has a ``Name(field=value, ...)`` repr,
refuses assignment and deletion, normalises and checks its arguments on
construction, and survives ``copy``, ``deepcopy`` and ``pickle``.
"""

import copy
import math
import pickle
from types import MappingProxyType

import pytest

import support
from descell import (
    Chain,
    Chart,
    DescriptiveSubcomplex,
    DescriptorBall,
    DimensionHomology,
    GaugeReport,
    GaugeViolation,
    HomologyResult,
    PersistenceSignature,
    Scenario,
    ScenarioStep,
    Skeleton,
    TransitionFunction,
    TransitionTrace,
    Violation,
    assign_probe,
)
from descell.errors import ArityMismatchError, ForeignCellError, NonMonotoneThetaError
from descell.formats import ParseDiagnostic, ScenarioFile

K = support.interval()                      # <CellComplex 3 cells [0:2 1:1]>
K_REPR = "<CellComplex 3 cells [0:2 1:1]>"
PROBE = assign_probe(K, [(c, (0.25,)) for c in K.cells])
PROBE_REPR = "<ProbeAssignment arity 1 on 3 cells>"
BALL = DescriptorBall((0.25,), 0.5)
GEN = Chain(1, frozenset({"e"}))
DIM = DimensionHomology(1, 1, 1, 0, 1, (GEN,))
GV = GaugeViolation("symmetry", ("a", "b"), "v0", (0.5,), 0.5)
STEP = ScenarioStep(0.5, PROBE)

# (class, field names, arguments, other arguments, repr, hashable). The
# other arguments differ from the arguments in one field.
CASES = [
    (Violation, ("code", "severity", "cells", "message"),
     ("odd-face", "error", ("e", "v0"), "bad"), ("odd-face", "warning", ("e", "v0"), "bad"),
     "Violation(code='odd-face', severity='error', cells=('e', 'v0'), message='bad')", True),
    (Skeleton, ("parent", "level", "complex"),
     (K, 0, K.skeleton(0).complex), (K, 1, K),
     f"Skeleton(parent={K_REPR}, level=0, complex=<CellComplex 2 cells [0:2]>)", False),
    (Chain, ("dim", "support"),
     (1, frozenset({"e"})), (1, frozenset()),
     "Chain(dim=1, support=frozenset({'e'}))", True),
    (DimensionHomology, ("dim", "n_cells", "cycle_rank", "boundary_rank", "betti", "generators"),
     (1, 1, 1, 0, 1, (GEN,)), (1, 1, 1, 0, 1, ()),
     "DimensionHomology(dim=1, n_cells=1, cycle_rank=1, boundary_rank=0, betti=1, "
     "generators=(Chain(dim=1, support=frozenset({'e'})),))", True),
    (HomologyResult, ("records",),
     ((DIM,),), ((),),
     "HomologyResult(records=(DimensionHomology(dim=1, n_cells=1, cycle_rank=1, "
     "boundary_rank=0, betti=1, generators=(Chain(dim=1, support=frozenset({'e'})),)),))",
     True),
    (DescriptorBall, ("center", "radius"),
     ((0.25, 1.0), 0.5), ((0.25, 1.0), 0.75),
     "DescriptorBall(center=(0.25, 1.0), radius=0.5)", True),
    (DescriptiveSubcomplex, ("probe", "ball", "dim", "mode", "complex", "removed"),
     (PROBE, BALL, 1, "remove", K.skeleton(0).complex, frozenset({"e"})),
     (PROBE, BALL, 1, "retain", K.skeleton(0).complex, frozenset({"e"})),
     f"DescriptiveSubcomplex(probe={PROBE_REPR}, "
     "ball=DescriptorBall(center=(0.25,), radius=0.5), dim=1, mode='remove', "
     "complex=<CellComplex 2 cells [0:2]>, removed=frozenset({'e'}))", False),
    (Chart, ("id", "cells", "section", "arity"),
     ("a", frozenset({"v0"}), {"v0": (0.25,)}, 1), ("b", frozenset({"v0"}), {"v0": (0.25,)}, 1),
     "Chart(id='a', cells=frozenset({'v0'}), section={'v0': (0.25,)}, arity=1)", False),
    (TransitionFunction, ("pair", "values"),
     (("a", "b"), {"v0": (0.5,)}), (("a", "b"), {"v0": (0.25,)}),
     "TransitionFunction(pair=('a', 'b'), values={'v0': (0.5,)})", False),
    (GaugeViolation, ("identity", "charts", "cell", "residual", "norm"),
     ("symmetry", ("a", "b"), "v0", (0.5,), 0.5), ("cocycle", ("a", "b"), "v0", (0.5,), 0.5),
     "GaugeViolation(identity='symmetry', charts=('a', 'b'), cell='v0', residual=(0.5,), "
     "norm=0.5)", True),
    (GaugeReport, ("tolerance", "violations"),
     (0.0, (GV,)), (0.0, ()),
     "GaugeReport(tolerance=0.0, violations=(GaugeViolation(identity='symmetry', "
     "charts=('a', 'b'), cell='v0', residual=(0.5,), norm=0.5),))", True),
    (ScenarioStep, ("theta", "probe"),
     (0.5, PROBE), (0.75, PROBE),
     f"ScenarioStep(theta=0.5, probe={PROBE_REPR})", False),
    (Scenario, ("complex", "steps"),
     (K, (STEP,)), (K, ()),
     f"Scenario(complex={K_REPR}, steps=(ScenarioStep(theta=0.5, probe={PROBE_REPR}),))",
     False),
    (PersistenceSignature, ("mode", "delta", "removal_dim", "thetas", "alphas", "dims", "table"),
     ("remove", 0.0, 1, (0.5,), ((0.25,),), (0,), {(0, (0.25,), 0): 2}),
     ("retain", 0.0, 1, (0.5,), ((0.25,),), (0,), {(0, (0.25,), 0): 2}),
     "PersistenceSignature(mode='remove', delta=0.0, removal_dim=1, thetas=(0.5,), "
     "alphas=((0.25,),), dims=(0,), table={(0, (0.25,), 0): 2})", False),
    (TransitionTrace, ("pair", "overlap", "entries"),
     (("i", "j"), ("v0",), ((0.5, (0.25,)),)), (("i", "j"), ("v1",), ((0.5, (0.25,)),)),
     "TransitionTrace(pair=('i', 'j'), overlap=('v0',), entries=((0.5, (0.25,)),))", True),
    (ParseDiagnostic, ("file", "line", "severity", "message", "code"),
     ("k.cw", 3, "error", "bad", "reference"), ("k.cw", 4, "error", "bad", "reference"),
     "ParseDiagnostic(file='k.cw', line=3, severity='error', message='bad', code='reference')",
     True),
    (ScenarioFile, ("complex_path", "steps"),
     ("k.cw", ((0.5, "p.csv"),)), ("k.cw", ()),
     "ScenarioFile(complex_path='k.cw', steps=((0.5, 'p.csv'),))", True),
]

IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, args, other_args, text, hashable", CASES, ids=IDS)
def test_record_contract(cls, fields, args, other_args, text, hashable):
    record = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert tuple(getattr(record, f) for f in fields) == args

    assert record == by_keyword and not record != by_keyword
    assert record != cls(*other_args) and not record == cls(*other_args)
    twin = type("Twin", (cls,), {})(*args)
    assert record != twin and twin != record
    assert record != args

    if hashable:
        assert hash(record) == hash(by_keyword)
        assert len({record, by_keyword}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)

    assert repr(record) == text

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, f) for f in fields) == args

    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record


def test_record_defaults():
    assert ParseDiagnostic("k.cw", 1, "error", "bad").code == "syntax"
    assert ParseDiagnostic("k.cw", 1, "error", "bad") == ParseDiagnostic(
        file="k.cw", line=1, severity="error", message="bad", code="syntax")
    assert Chain(0).support == frozenset()
    assert repr(Chain(dim=0)) == "Chain(dim=0, support=frozenset())"
    assert DimensionHomology(0, 1, 1, 0, 1).generators == ()


def test_record_normalisation():
    chain = Chain(1, ["e", "e"])
    assert type(chain.support) is frozenset and chain.support == {"e"}
    assert Chain(1, {"e"}) == GEN and hash(Chain(1, {"e"})) == hash(GEN)

    ball = DescriptorBall([0.25, 1], 2)
    assert ball.center == (0.25, 1.0) and type(ball.center) is tuple
    assert type(ball.center[1]) is float and type(ball.radius) is float

    section = {"v0": (0.25,)}
    chart = Chart("a", ["v0"], MappingProxyType(section), 1)
    assert type(chart.cells) is frozenset and type(chart.section) is dict
    assert chart.section is not section

    values = {"v0": (0.5,)}
    tf = TransitionFunction(("a", "b"), MappingProxyType(values))
    assert type(tf.values) is dict and tf.values is not values

    table = {(0, (0.25,), 0): 2}
    sig = PersistenceSignature("remove", 0.0, 1, (0.5,), ((0.25,),), (0,),
                               MappingProxyType(table))
    assert type(sig.table) is dict and sig.table is not table


def test_record_checks():
    with pytest.raises(ValueError, match="chain dimension must be >= -1, got -2"):
        Chain(-2)
    with pytest.raises(ValueError, match="a chain below dimension 0 must be empty"):
        Chain(-1, {"v0"})
    assert not Chain(-1)

    for radius in (-0.5, math.nan):
        with pytest.raises(ValueError, match="radius must be non-negative"):
            DescriptorBall((0.0,), radius)
    with pytest.raises(ValueError, match="is not finite"):
        DescriptorBall((math.inf,), 1.0)

    with pytest.raises(ForeignCellError, match="section must cover exactly its cells"):
        Chart("a", {"v0", "v1"}, {"v0": (0.25,)}, 1)
    with pytest.raises(ArityMismatchError, match="a section value has arity 2"):
        Chart("a", {"v0"}, {"v0": (0.25, 0.5)}, 1)

    other = assign_probe(support.point(), [("v", (0.25,))])
    with pytest.raises(ForeignCellError, match="a probe on a different complex"):
        Scenario(K, (STEP, ScenarioStep(0.75, other)))
    # An equal complex, not the same object, is accepted.
    Scenario(support.interval(), (STEP,))
    with pytest.raises(NonMonotoneThetaError, match="does not increase past"):
        Scenario(K, (STEP, ScenarioStep(0.5, PROBE)))
    wide = assign_probe(K, [(c, (0.25, 0.5)) for c in K.cells])
    with pytest.raises(ArityMismatchError, match="has arity 2, expected 1"):
        Scenario(K, (STEP, ScenarioStep(0.75, wide)))
