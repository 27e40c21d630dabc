"""Value, the base of exczero's small immutable types."""


class Value:
    """A subclass lists in ``_fields`` the slots that its equality, hash and
    repr read; instances of two classes are never equal.  Instances are not
    mutated after ``__init__``."""
    __slots__ = ()

    def _key(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"
