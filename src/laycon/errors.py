"""Exceptions shared by the config dataclasses of every layer, and the
annotations that state each config field's range once: a bound inside
Annotated (Positive, NonNegative and their int forms), on a tuple's
elements or an optional's value, or a Literal's values. check_fields, the
first call of each config dataclass's __post_init__, enforces them."""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Annotated, Literal, get_args, get_origin, get_type_hints


class FieldValueError(ValueError):
    """A config field holds an invalid value; `field` names the field, so
    the config loader can report the error at its key path."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class Bound:
    """A field's value lies above lo if strict, else at or above it."""

    lo: float
    strict: bool = False


Positive = Annotated[float, Bound(0.0, strict=True)]
NonNegative = Annotated[float, Bound(0.0)]
PositiveInt = Annotated[int, Bound(1)]
NonNegativeInt = Annotated[int, Bound(0)]


@functools.cache
def field_hints(cls) -> dict:
    """The field annotations of a dataclass, bounds kept, evaluated once."""
    return get_type_hints(cls, include_extras=True)


def _check(hint, value, path: str) -> None:
    """Raise a FieldValueError at path (path.<i> for a tuple's i-th element)
    if value lies outside a range that hint states."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        b = hint.__metadata__[0]
        if not (value > b.lo if b.strict else value >= b.lo):
            raise FieldValueError(path, f"{path} must be {'>' if b.strict else '>='} {b.lo:g}, got {value!r}")
    elif origin is Literal:
        if value not in args:
            raise FieldValueError(path, f"{path} must be one of {', '.join(args)}, got {value!r}")
    elif origin is tuple:
        for i, (t, v) in enumerate(zip(args[:1] * len(value) if Ellipsis in args else args, value)):
            _check(t, v, f"{path}.{i}")
    elif value is not None and type(None) in args:
        for t in args:
            _check(t, value, path)


def check_fields(obj) -> None:
    """Check each init field of the dataclass obj against its annotation;
    the first value out of range raises a FieldValueError that names it."""
    hints = field_hints(type(obj))
    for f in fields(obj):
        if f.init:
            _check(hints[f.name], getattr(obj, f.name), f.name)
