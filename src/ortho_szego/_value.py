"""Immutable value objects on ``__slots__``.

The package's values (coefficient sequences, polynomials, pivot
sequences, perturbation specs, check results) are fixed tuples of
fields.  ``Value`` gives them what a frozen dataclass would: equality
with instances of the same class only, a hash and a ``Name(field=...)``
repr over the fields, assignment and deletion that raise, and copy and
pickle support.  It is written out rather than taken from ``dataclasses``
because importing that module (which imports ``inspect``) and building
each decorated class would cost every CLI run ~20 ms of start-up.

A subclass lists its fields, in constructor order, as ``__slots__`` and
sets each one once in ``__init__`` with ``object.__setattr__``.

``_unchecked`` builds a value without its constructor.  It is for kernel
outputs whose own guards have already established everything the
constructor would check and coerce; input from outside the package always
goes through the constructor.
"""


class Value:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: their default
        # restores slot state with setattr, which raises here
        return type(self), self._fields()


def _unchecked(cls, *fields):
    """An instance of ``cls`` with its slots set to ``fields``, in
    ``__slots__`` order, without running ``__init__``.  The caller
    guarantees that the fields are exactly what the constructor would
    store for them."""
    self = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(self, name, value)
    return self
