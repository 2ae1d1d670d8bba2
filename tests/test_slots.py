"""The four values built per edge, ``Slope``, ``SlopePair``, ``AnnulusLabel``
and ``Edge``, are slotted frozen dataclasses.  Their ``__init__`` stores each
field through the slot's ``__set__``, bound once at import, never through
``object.__setattr__``, which takes 1.5-1.9 times as long a field.  No test
here needs pytest; ``assert_slotted`` serves the per-type tests too."""

import copy
import dataclasses
import pickle

from anndiag.diagram import Diagram, Edge
from anndiag.labels import AnnulusLabel
from anndiag.rational import Slope, SlopePair
from bytecode_walk import instructions

SLOTTED = (Slope, SlopePair, AnnulusLabel, Edge)

CLONES = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)))


def loads_object(func):
    """True iff ``func`` or a code object nested in it loads the global
    ``object``."""
    return any(ins.opname == "LOAD_GLOBAL" and ins.argval == "object"
               for ins in instructions(func))


def test_inits_load_no_object_global():
    assert [cls.__name__ for cls in SLOTTED if loads_object(cls.__init__)] == []


def test_the_check_sees_object_loads():
    assert loads_object(Diagram.__init__)


def assert_slotted(value):
    """``value`` keeps its fields in slots, refuses writes, and survives a
    copy, a deep copy and a pickle with its equality and hash."""
    cls = type(value)
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert cls.__slots__ == names
    assert not hasattr(value, "__dict__")
    for name in names:
        try:
            setattr(value, name, None)
        except dataclasses.FrozenInstanceError:
            pass
        else:
            raise AssertionError(f"{cls.__name__}.{name} was written")
    for clone in CLONES:
        twin = clone(value)
        assert type(twin) is cls
        assert [getattr(twin, n) for n in names] == [getattr(value, n)
                                                      for n in names]
        assert twin == value and hash(twin) == hash(value)
