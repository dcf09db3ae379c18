"""Plain slotted records compared, hashed and printed by their field tuple.

The catalog entries, the result records and the certificates subclass
:class:`FrozenRecord` and declare ``__slots__`` and ``_fields``, the names
of their fields in order.  Equality, hashing, ``repr``, the one
constructor and the command line's descriptor parser all read
``_fields``.  A frozen record is built once, from finished values:
``FrozenRecord.__init__`` takes one value per field, positionally, and
refuses any other count.  Only a record that validates its input writes
its own ``__init__`` and stores its values with ``_set``:
``RationalMatrix`` and ``RationalFunction`` check their entries, and
``RigidityVerdict`` that it holds a witness or a certificate, not both.
The catalog entries share one validating constructor, ``Variety.__init__``
in :mod:`conedef.cones`, and declare only the bounds that differ from
"an int of at least 1".
A record that holds a dict (a matrix's rows) compares by value but does
not hash.  A result record holds what its function computed, not its
arguments, and a record stores each value once: what follows from its
fields is a property, so no record can contradict itself.
Nothing here generates code, so defining a record costs no more than
defining any other class.

:func:`fraction_type` is the one check for an exact rational that does not
load ``fractions``: :mod:`conedef.linalg` computes over the integers and
holds a ``Fraction`` entry only where a caller brought one in or reduction
to echelon form made one.  A polynomial holds int coefficients only.

:func:`check_count` is the one check for a size: a matrix's row and column
counts, a polynomial's variable count and the number of points a surface
divisor's plane is blown up in are each an ``int``, not a ``bool``, of at
least 0.
"""

from __future__ import annotations

import sys


def fraction_type() -> type | tuple:
    """``Fraction`` once ``fractions`` is loaded, else ``()``, which no
    value is an instance of: before the import no Fraction exists."""
    fractions = sys.modules.get("fractions")
    return () if fractions is None else fractions.Fraction


def check_count(value: object, what: str) -> None:
    """Refuse, with ``ValueError``, a size that is not an ``int`` (a ``bool``
    is not one) or is negative; ``what`` names the size in the message."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is a {type(value).__name__}, not an int")
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")


class FrozenRecord:
    """A record whose fields are set once, by ``_set`` in ``__init__``, and
    refuse assignment afterwards.  It equals another record of the same
    class whose field values are equal, never a record of another class,
    and hashes by its field values."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        self._set(*values)

    def _set(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} values ({', '.join(self._fields)}), got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
