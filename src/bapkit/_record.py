"""Frozen value records: record(cls) gives a class the methods of dataclass(frozen=True), as
closures compiled once with this module where dataclasses compiles each class's with exec."""

from operator import attrgetter, itemgetter


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a record."""


def record(cls):
    """cls as a frozen record of its own annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count, required, trailing = len(names), len(names) - len(defaults), tuple(defaults.values())
    if list(defaults) != list(names[required:]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows a default")
    fields = attrgetter(*names) if count > 1 else lambda self: (getattr(self, *names),)
    pick = itemgetter(*names) if count > 1 else lambda bound: (bound[names[0]],)
    post_init, put, fieldset = hasattr(cls, "__post_init__"), object.__setattr__, set(names)

    def bind(args, kwargs):
        """Any other call's values; TypeError for a surplus, unexpected, repeated or missing one."""
        if not kwargs and required <= len(args) < count:
            return args + trailing[len(args) - required :]
        given = dict(zip(names, args)) if args else {}
        bound = {**defaults, **given, **kwargs}
        if len(args) <= count and bound.keys() == fieldset and given.keys().isdisjoint(kwargs):
            return pick(bound)
        raise TypeError(f"{cls.__qualname__}{names} got {len(args)} positional and {[*kwargs]}")

    def __init__(self, *args, **kwargs):
        if kwargs and not args and kwargs.keys() == fieldset:
            args = pick(kwargs)
        elif kwargs or len(args) != count:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            put(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        return fields(self) == fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
