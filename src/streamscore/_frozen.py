"""``frozen``: an immutable dataclass for which the stdlib compiles only ``__init__``.

``dataclass(frozen=True)`` compiles six methods per class through ``exec``.
``frozen`` keeps the stdlib's fields, ``__match_args__`` and ``__init__`` and
installs five functions that every record class shares, with the stdlib's
frozen rules and messages: ``repr``, ``compare`` and ``hash`` field flags,
``NotImplemented`` against another class, and ``FrozenInstanceError`` on any
assignment or deletion but ``__init__``'s first assignment of a field.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields
from reprlib import recursive_repr


@recursive_repr()
def _repr(self) -> str:
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
    return f"{self.__class__.__qualname__}({shown})"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    names = [f.name for f in fields(self) if f.compare]
    return tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)


def _hash(self) -> int:
    return hash(tuple(getattr(self, f.name) for f in fields(self) if (f.compare if f.hash is None else f.hash)))


def _setattr(self, name: str, value) -> None:
    if name in self.__dataclass_fields__ and name not in self.__dict__:
        self.__dict__[name] = value
    else:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


SHARED = {"__repr__": _repr, "__eq__": _eq, "__hash__": _hash, "__setattr__": _setattr, "__delattr__": _delattr}


def frozen(cls=None, /, **options):
    """``@frozen`` or ``@frozen(kw_only=True)``; ``__dataclass_params__.frozen`` reads False."""
    if cls is None:
        return lambda cls: frozen(cls, **options)
    cls = dataclass(cls, repr=False, eq=False, **options)
    for name, method in SHARED.items():
        setattr(cls, name, method)
    return cls
