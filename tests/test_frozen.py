"""The shared frozen methods against the stdlib's ``dataclass(frozen=True)`` as the reference.

Every record class in the package gets a ``make_dataclass(..., frozen=True)``
twin with the same field flags and field values: ``repr``, ``==``, ``hash``
and the ``FrozenInstanceError`` of an assignment or deletion must match.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from dataclasses import FrozenInstanceError, dataclass, field, fields, make_dataclass, replace

import pytest

import streamscore
from streamscore import _frozen, casestudy, fluidsim, loadgen
from streamscore._frozen import frozen
from streamscore.analysis import fct_stats
from streamscore.model import (ComputeSpec, DelayDecomposition, IoOverhead, LinkSpec, ScanSpec, TierPolicy,
                               WorkloadSpec, decide, file_vs_stream)
from streamscore.records import FlowTable
from streamscore.schedule import LoadSpec, SpawnMode


@frozen
class Flags:
    """Every field flag the shared methods read, for classes the package does not have yet."""

    shown: float
    hidden: str = field(default="secret", repr=False)
    loose: float = field(default=0.0, compare=False)
    unhashed: list = field(default_factory=list, hash=False)
    hashed_only: float = field(default=0.0, compare=False, hash=True)


def _record_classes() -> list[type]:
    classes = []
    for info in pkgutil.iter_modules(streamscore.__path__):
        module = importlib.import_module(f"streamscore.{info.name}")
        classes += [cls for cls in vars(module).values() if inspect.isclass(cls)
                    and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)]
    return classes


def _samples(k: int) -> list:
    """One instance of every record class; samples of ``k`` 0 and 1 differ in a compared field."""
    link = LinkSpec(bandwidth=1e9 * (k + 1), rtt=0.01)
    scenario = fluidsim.Scenario(link=link, duration=2.0, concurrency=2.0 + k, transfer_bytes=10**8,
                                 mode=SpawnMode.SCHEDULED)
    result = fluidsim.simulate(scenario)
    workload = WorkloadSpec(unit_size=1e8, complexity=10.0 + k, generation_interval=1.0)
    decision = decide(workload, link, ComputeSpec(local_rate=1e9, remote_rate=2e12 + k), IoOverhead(1.5 + k))
    scan = ScanSpec(frame_bytes=1e6, frame_count=100 + k, frame_interval=0.01, files=2)
    workflow = casestudy.Workflow(name=f"w{k}", throughput=1e8 * (k + 1), compute=1e12)
    study = casestudy.CaseStudyInput(workflows=(workflow,), link=link, tiers=TierPolicy(),
                                     worst_fct_curve=((0.05, 1.0), (0.5, 2.0 + k)))
    (row,) = casestudy.evaluate(study)
    return [
        link, scenario, result, result.trace[k], fluidsim.sweep(scenario, [1.0], [1 + k])[0],
        workload, ComputeSpec(local_rate=1e12, remote_rate=2e12 + k), IoOverhead(1.5 + k), decision,
        decision.remote, DelayDecomposition(prop_s=0.01 * (k + 1)), TierPolicy.from_deadlines([1.0 + k, 10.0]),
        scan, file_vs_stream(scan, link), fct_stats([1.0, 2.0 + k]),
        FlowTable((k,), (0.0,), (1.0,), (1.0,), (100,), (1,), (None,)),
        LoadSpec(duration=1.0, concurrency=1.0 + k, transfer_bytes=1000),
        workflow, study, row, row.tiers[-1],
        loadgen.PortPool(base_port=5201 + k), loadgen.ServerConfig(base_port=5201, bind_address=f"10.0.0.{k}"),
        loadgen.ClientRunConfig(server_address="127.0.0.1", base_port=5201, duration=1.0, concurrency=1.0 + k,
                                transfer_bytes=1000),
        Flags(shown=1.0 + k, hidden=f"s{k}", loose=float(k), unhashed=[k], hashed_only=float(k)),
    ]


_PAIRS = list(zip(_samples(0), _samples(1)))


def _twin_class(cls: type) -> type:
    """The stdlib's frozen dataclass of ``cls``'s fields and flags, under the same qualified name."""
    return make_dataclass(cls.__qualname__, [
        (f.name, f.type, field(repr=f.repr, hash=f.hash, compare=f.compare)) for f in fields(cls)
    ], frozen=True)


def _twin(obj, twin_class: type):
    return twin_class(**{f.name: getattr(obj, f.name) for f in fields(obj)})


def _outcome(fn):
    """What ``fn()`` gives: its value, or the type and text of what it raised."""
    try:
        return "value", fn()
    except Exception as exc:  # noqa: BLE001 - the exception itself is the outcome compared
        return type(exc), str(exc)


def test_every_package_dataclass_is_built_by_frozen():
    # a class that goes back to @dataclass(frozen=True) compiles its own methods again
    classes = _record_classes()
    assert len(classes) == 24
    for cls in classes:
        for name, method in _frozen.SHARED.items():
            assert getattr(cls, name) is method, (cls.__qualname__, name)
        assert cls.__dataclass_params__.frozen is False
    assert {type(obj) for obj in _samples(0)} == {*classes, Flags}


@pytest.mark.parametrize("a, b", _PAIRS, ids=[type(a).__qualname__ for a, _ in _PAIRS])
def test_repr_eq_and_hash_match_the_stdlib(a, b):
    twin_class = _twin_class(type(a))
    twin_a, twin_b = _twin(a, twin_class), _twin(b, twin_class)
    assert repr(a) == repr(twin_a) and repr(b) == repr(twin_b)
    a2, twin_a2 = replace(a), _twin(a, twin_class)  # equal values, another object
    for left, right, twin_left, twin_right in ((a, a2, twin_a, twin_a2), (a, b, twin_a, twin_b)):
        assert (left == right) is (twin_left == twin_right)
        assert (left != right) is (twin_left != twin_right)
    assert a == a2 and a != b
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(twin_a))
    assert _outcome(lambda: hash(b)) == _outcome(lambda: hash(twin_b))
    # another class is NotImplemented, so equal values of another class are not equal
    assert a.__eq__(twin_a) is NotImplemented and a.__eq__(object()) is NotImplemented
    assert a != twin_a


def test_flags_are_read_as_the_stdlib_reads_them():
    a = Flags(shown=1.0, hidden="x", loose=1.0, unhashed=[1], hashed_only=1.0)
    assert repr(a) == "Flags(shown=1.0, loose=1.0, unhashed=[1], hashed_only=1.0)"
    assert a == replace(a, loose=2.0, hashed_only=2.0)  # neither is compared
    assert a != replace(a, unhashed=[2])
    assert hash(a) == hash((1.0, "x", 1.0))  # hash=False left out, hash=True kept
    assert hash(a) != hash(replace(a, hashed_only=2.0))


@pytest.mark.parametrize("a", [a for a, _ in _PAIRS], ids=[type(a).__qualname__ for a, _ in _PAIRS])
def test_assignment_and_deletion_raise_as_in_the_stdlib(a):
    twin_a = _twin(a, _twin_class(type(a)))
    for name in [f.name for f in fields(a)] + ["not_a_field"]:
        for obj in (a, twin_a):
            with pytest.raises(FrozenInstanceError) as assigned:
                setattr(obj, name, None)
            with pytest.raises(FrozenInstanceError) as deleted:
                delattr(obj, name)
            assert (str(assigned.value), str(deleted.value)) == (
                f"cannot assign to field {name!r}", f"cannot delete field {name!r}")
    assert not hasattr(a, "not_a_field")
    assert all(getattr(a, f.name) is getattr(twin_a, f.name) for f in fields(a))  # nothing changed


def test_a_stdlib_frozen_subclass_is_refused():
    with pytest.raises(TypeError, match="cannot inherit frozen dataclass from a non-frozen one"):
        @dataclass(frozen=True)
        class Wider(LinkSpec):
            extra: float = 0.0


def test_recursive_repr_stops_as_in_the_stdlib():
    box = Flags(shown=0.0, unhashed=[])
    box.unhashed.append(box)
    twin_class = _twin_class(Flags)
    twin = twin_class(shown=0.0, hidden="secret", loose=0.0, unhashed=[], hashed_only=0.0)
    twin.unhashed.append(twin)
    assert repr(box) == repr(twin) == "Flags(shown=0.0, loose=0.0, unhashed=[...], hashed_only=0.0)"
