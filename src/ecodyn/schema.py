"""Admissible parameter ranges, declared once per dataclass field, and the
config readers that go with them.

A field declared with :func:`bounded` carries a :class:`Bound`: a closed
interval of finite numbers. The same declaration drives the dataclass's
``__post_init__`` check (:func:`check_fields`) and the sweep engine's
column masks and notes, and :func:`read` builds any of these dataclasses
from a config mapping with the field defaults. :func:`read_section` reads
a whole config object from one table of readers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, field, fields
from functools import cache, partial
from typing import Any, Callable, Mapping, NamedTuple

from .errors import InvariantViolation

# The budget recurrence's conventions (see ecodyn.budget_dynamics), kept
# here so the command line can offer them without loading that model.
MODES = ("direct", "incremental")


class Bound(NamedTuple):
    """The closed interval [lower, upper] of admissible values.

    Both ends are finite, so one pair of comparisons also rejects NaN and
    the infinities. An excluded end is stored as the next float inside it.
    """

    lower: float
    upper: float
    text: str

    def admits(self, value: Any) -> Any:
        """Whether value, a float or a numpy column, lies in the interval."""
        return (value >= self.lower) & (value <= self.upper)

    def check(self, name: str, value: float) -> None:
        if not self.admits(value):
            raise InvariantViolation(BOUND_NOTE.format(name, self.text, value))


# why a value is out of bound, formatted with its name, the bound's text and the value
BOUND_NOTE = "{} {}, got {}"


UNIT = Bound(0.0, 1.0, "must lie in [0, 1]")
NONNEG = Bound(0.0, sys.float_info.max, "must be finite and >= 0")
POSITIVE = Bound(math.nextafter(0.0, 1.0), sys.float_info.max, "must be finite and > 0")
FINITE = Bound(-sys.float_info.max, sys.float_info.max, "must be finite")


def bounded(bound: Bound, default: Any = MISSING) -> Any:
    """A dataclass field whose values must lie in bound."""
    return field(default=default, metadata={"bound": bound})


@cache
def declared(cls: type) -> tuple[tuple[str, Bound], ...]:
    """(name, bound) of each bounded field of a dataclass."""
    return tuple((f.name, f.metadata["bound"]) for f in fields(cls) if "bound" in f.metadata)


def check_fields(obj: Any) -> None:
    """Raise on the first bounded field of obj outside its bound."""
    for name, bound in declared(type(obj)):
        bound.check(name, getattr(obj, name))


def is_number(v: Any) -> bool:
    """True for a float, or an int a float can hold; booleans are not numbers."""
    return isinstance(v, float) or (
        isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
    )


def _lookup(
    section: Mapping[str, Any], key: str, default: Any, accepts: Callable, kind: str, a_kind: str
) -> Any:
    """section[key] if accepts takes it, default when the key is absent; the
    errors name the kind, as "numeric" and "a number"."""
    if key not in section:
        if default is MISSING:
            raise InvariantViolation(f"missing {kind} key {key!r}")
        return default
    v = section[key]
    if not accepts(v):
        raise InvariantViolation(f"key {key!r} must be {a_kind}, got {v!r}")
    return v


def number(section: Mapping[str, Any], key: str, default: Any = MISSING) -> float:
    """section[key] as a float; booleans and other types are rejected."""
    v = _lookup(section, key, default, is_number, "numeric", "a number")
    return float(v) if key in section else v


def integer(
    section: Mapping[str, Any],
    key: str,
    default: Any = MISSING,
    least: float = -math.inf,
    most: float = math.inf,
) -> int:
    """section[key] as an int in [least, most]; booleans, floats and other
    types are rejected."""
    v = _lookup(section, key, default, _is_integer, "integer", "an integer")
    if v < least:
        raise InvariantViolation(f"{key!r} must be >= {least}, got {v}")
    if v > most:
        raise InvariantViolation(f"{key!r} must be <= {most}, got {v}")
    return v


def _is_integer(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def string(
    section: Mapping[str, Any], key: str, default: Any = MISSING, choices: Any = None, text: str = ""
) -> str:
    """section[key] as a str, one of choices if given (text, formatted with
    another, says why it is not read); other types are rejected."""
    v = _lookup(section, key, default, lambda v: isinstance(v, str), "string", "a string")
    if choices is not None and v not in choices:
        raise InvariantViolation(text.format(v))
    return v


def factor_pairs(section: Mapping[str, Any], key: str) -> tuple[tuple[float, float], ...]:
    """section[key] as (weight, value) pairs of numbers, () when absent."""
    pairs = section.get(key, ())
    if not isinstance(pairs, (list, tuple)) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(is_number, pair))
        for pair in pairs
    ):
        raise InvariantViolation(f"{key!r} must be a list of [weight, value] number pairs")
    return tuple(map(tuple, pairs))


def read_section(section: Mapping[str, Any], owner: str, readers: Mapping[Any, Callable]) -> list:
    """The values of a config object, after any key that no reader reads is
    rejected as misspelt. readers maps each key, in order, to reader(section,
    key), and a dataclass, standing for its fields, to reader(section); each
    reader checks and converts its value, and gives an absent key's default."""
    known = [n for k in readers for n in ([f.name for f in fields(k)] if isinstance(k, type) else [k])]
    unread = [k for k in section if k not in known]
    if unread:
        raise InvariantViolation(f"{owner} does not read {unread}; it reads {known}")
    return [r(section) if isinstance(k, type) else r(section, k) for k, r in readers.items()]


def read(cls: type, section: Mapping[str, Any], **readers: Callable) -> Any:
    """cls from a config mapping, each field in order with its reader in readers or number()."""
    default = {f.name: partial(number, default=f.default) for f in fields(cls)}
    return cls(**{name: readers.get(name, r)(section, name) for name, r in default.items()})
