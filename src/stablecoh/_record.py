"""Result records with namedtuple's class contract, built without compiling source:
one generic `__new__` shared by every class, and itemgetter properties."""

import sys
from operator import itemgetter


def _new(cls, *args, **kwargs):
    fields = cls._fields
    if kwargs or len(args) != len(fields):
        given = {**cls._field_defaults, **kwargs}
        try:
            args += tuple(map(given.pop, fields[len(args):]))
        except KeyError as missing:
            raise TypeError(f"{cls.__name__}() is missing the field {missing}") from None
        if len(args) > len(fields) or given.keys() & kwargs.keys():
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}, once each")
    return tuple.__new__(cls, args)


def _make(cls, iterable):
    result = tuple.__new__(cls, iterable)
    if len(result) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
    return result


def _replace(self, /, **kwargs):
    result = self._make(map(kwargs.pop, self._fields, self))
    if kwargs:
        raise ValueError(f"Got unexpected field names: {list(kwargs)!r}")
    return result


def _repr(self):
    return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"


def record(typename: str, fields: list[str], defaults: tuple = ()) -> type:
    """A tuple class with these fields; the last len(defaults) fields default to those."""
    fields = tuple(fields)
    namespace = {name: property(itemgetter(i), doc=f"Alias for field number {i}")
                 for i, name in enumerate(fields)}
    namespace.update(
        __doc__=f"{typename}({', '.join(fields)})", __slots__=(), __new__=_new,
        # The caller's module, as namedtuple sets it, so that pickle finds the class.
        __module__=sys._getframe(1).f_globals["__name__"],
        _fields=fields, __match_args__=fields,
        _field_defaults=dict(zip(fields[len(fields) - len(defaults):], defaults)),
        _make=classmethod(_make), _replace=_replace, __repr__=_repr,
        _asdict=lambda self: dict(zip(self._fields, self)),
        __getnewargs__=lambda self: tuple(self))
    return type(typename, (tuple,), namespace)
