"""Exceptions shared by the config dataclasses of every layer."""

from __future__ import annotations


class FieldValueError(ValueError):
    """A config field holds an invalid value; `field` names the field, so
    the config loader can report the error at its key path."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
