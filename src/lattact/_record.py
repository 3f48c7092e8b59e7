"""Frozen records: the part of ``dataclasses.dataclass(frozen=True)`` that
lattact's value and result classes use.

Every such class is a plain record: annotated fields in declaration order,
a class-level default on some trailing fields, and optionally a
``__post_init__`` that checks or canonicalizes them.  ``record`` gives
it ``__init__``, ``__repr__``, ``__eq__``, ``__hash__``, a frozen
``__setattr__``/``__delattr__`` and ``__match_args__`` that behave as the
ones ``dataclasses`` generates, built as closures: no ``exec`` per class,
and importing the library loads neither ``dataclasses`` nor ``inspect``.
Methods a class defines itself are kept.  ``functools.cached_property``
works on records, since it writes to the instance ``__dict__``.
"""

from operator import attrgetter

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of a frozen record."""


def fields(cls) -> tuple:
    """The field names of a record class, in declaration order."""
    return cls.__match_args__


def record(cls):
    """Class decorator: make ``cls`` a frozen record over its annotations."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count = len(names)
    post_init = hasattr(cls, "__post_init__")
    # the tuple of field values that == and hash read, as in dataclasses
    # (attrgetter gives a bare value, not a 1-tuple, for a single name)
    values = attrgetter(*names) if count > 1 else lambda self: tuple(getattr(self, n) for n in names)

    def bind(args, kwargs):
        # the general call: keywords, defaults and argument errors
        bound = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                bound.append(kwargs.pop(name))
            elif name in defaults:
                bound.append(defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if len(bound) > count or kwargs:
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names)}, once each")
        return bound

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
