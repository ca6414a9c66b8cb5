"""The immutable record base of the package's value types.

A subclass lists its fields, in constructor order, in ``__slots__``
(adding ``"__dict__"`` if it caches derived values in the instance).
Class keywords give the defaults of the trailing fields and the fields
that equality and hashing read (all of them if not given), and a
``__post_init__`` method, if defined, runs after the fields are set.

As with a frozen dataclass, an instance equals only instances of its own
class with equal compared fields and hashes their tuple, prints as
``Name(field=value, ...)``, refuses assignment and deletion, and copies
and pickles through its constructor.  ``__init__``, ``__eq__`` and
``__hash__`` are compiled per class as straight-line code, as dataclasses
does, but without the import of ``dataclasses`` and ``inspect``.
"""

from __future__ import annotations


class Value:
    __slots__ = ()

    def __init_subclass__(cls, defaults: tuple | None = None,
                          compared: tuple[str, ...] | None = None) -> None:
        names = tuple(name for name in cls.__slots__ if name != "__dict__")
        namespace = {f"_set_{name}": vars(cls)[name].__set__ for name in names}
        body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        key = "".join(f"self.{name}, " for name in compared or names)
        exec(f"def __init__(self, {', '.join(names)}):\n{body}"
             "def __eq__(self, other):\n"
             "    if other.__class__ is self.__class__:\n"
             f"        return ({key}) == ({key.replace('self.', 'other.')})\n"
             "    return NotImplemented\n"
             f"def __hash__(self):\n    return hash(({key}))\n", namespace)
        namespace["__init__"].__defaults__ = defaults
        for method in ("__init__", "__eq__", "__hash__"):
            setattr(cls, method, namespace[method])
        cls.__match_args__ = names

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class InputError(ValueError):
    """Input that the caller got wrong, such as a value past a limit; the CLI exits 2 on it."""
