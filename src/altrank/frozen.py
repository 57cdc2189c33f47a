"""Immutable value classes, built from class annotations.

`@frozen` gives a class with annotated fields what the standard
library's `@dataclass(frozen=True)` gives it, with the same repr text,
equality, hash and pickling, but from closures over the field names:
no source is generated, and the standard library's module is never
imported.

- `__init__` takes the fields positionally or by keyword, in
  annotation order; a class attribute is the field's default
- `__post_init__`, where the class has one, runs after the fields are
  set and may coerce them with `object.__setattr__`
- `==` holds only between instances of the same class with equal
  fields; the hash is the hash of the tuple of fields
- assigning or deleting an attribute raises AttributeError
"""

from __future__ import annotations

from operator import itemgetter

__all__ = ["frozen"]


def frozen(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    count = len(names)
    qualname = cls.__qualname__
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        if len(args) > count:
            raise TypeError(
                f"{qualname}() takes {count} arguments but {len(args)} were given"
            )
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in defaults:
                value = defaults[name]
            else:
                raise TypeError(f"{qualname}() missing argument {name!r}")
            values.append(value)
        if kwargs:
            name = next(iter(kwargs))
            if name in names:
                raise TypeError(f"{qualname}() got multiple values for {name!r}")
            raise TypeError(f"{qualname}() got an unexpected argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    get = itemgetter(*names)
    if count == 1:

        def fields(self):
            return (get(self.__dict__),)

    else:

        def fields(self):
            return get(self.__dict__)

    def __repr__(self):
        d = self.__dict__
        inner = ", ".join([f"{name}={d[name]!r}" for name in names])
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
