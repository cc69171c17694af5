"""Base classes of the package's records.  A record class names its fields
in ``_fields`` and sets them in its own ``__init__``, so no method is
generated when it is defined."""


class Record:
    """A mutable record: ``==`` and ``repr`` over ``_fields``; unhashable."""

    _fields = ()

    def _key(self) -> tuple:
        """The field values that ``==`` and ``hash`` compare."""
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class FrozenRecord(Record):
    """A record whose ``__init__`` sets each field with ``set_field``, after
    which no attribute can be assigned or deleted; hashable."""

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


# Sets a field of a frozen record, past FrozenRecord.__setattr__.
set_field = object.__setattr__
