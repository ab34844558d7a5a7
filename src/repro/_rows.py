"""Positional rows of a durable snapshot (internal shared helper).

A durable snapshot stores each component's state as a JSON array, a
*row*, whose fields are declared once, beside the component, as a table
of ``(name, types)`` pairs.  :func:`check_row` validates a decoded row
against its table before anything is restored from it, so a damaged or
foreign row raises :class:`~repro.errors.RecoveryError` naming the field
instead of an ``IndexError`` or ``TypeError`` deep inside a restore.
"""

from __future__ import annotations

from repro.errors import RecoveryError

__all__ = [
    "BOOL",
    "INT",
    "LIST",
    "NUMBER",
    "OPTIONAL_LIST",
    "OPTIONAL_NUMBER",
    "STR",
    "Fields",
    "check_row",
]

#: The types a field may hold, matched exactly (``type(value) in
#: types``), so a ``bool`` is not an ``INT``.
INT = (int,)
BOOL = (bool,)
STR = (str,)
NUMBER = (int, float)
OPTIONAL_NUMBER = (int, float, type(None))
LIST = (list,)
OPTIONAL_LIST = (list, type(None))

#: A row's field table: ``(name, types)`` per field, in row order.
Fields = tuple[tuple[str, tuple[type, ...]], ...]


def check_row(row: object, fields: Fields, what: str) -> list:
    """Return ``row`` once it is a list with one value of the declared
    types per entry of ``fields``; raise
    :class:`~repro.errors.RecoveryError` naming ``what`` and the first
    field that is missing, extra or of the wrong type otherwise."""
    if type(row) is not list:
        raise RecoveryError(
            f"{what} row is a {type(row).__name__}, not a list"
        )
    if len(row) < len(fields):
        raise RecoveryError(f"{what} row lacks field {fields[len(row)][0]!r}")
    if len(row) > len(fields):
        raise RecoveryError(
            f"{what} row has {len(row) - len(fields)} field(s) past "
            f"{fields[-1][0]!r}"
        )
    for (name, types), value in zip(fields, row):
        if type(value) not in types:
            raise RecoveryError(
                f"{what} field {name!r} is a {type(value).__name__}, not "
                f"{' or '.join(kind.__name__ for kind in types)}"
            )
    return row
