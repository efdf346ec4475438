"""Unit-suffixed quantity literals for configs and CLI flags.

Everything downstream works in strict SI base units (bytes, bytes/s, FLOP,
FLOP/s, seconds); conversion from human-friendly literals like ``0.5GB`` or
``25Gbps`` happens here, at parse time. Suffix matching is case-sensitive so
that ``Gbps`` (bits) and ``GBps`` (bytes) stay distinct.
"""

from __future__ import annotations

import math
import re
from decimal import Context, Decimal
from enum import Enum


class Dimension(Enum):
    BYTES = "bytes"
    BYTES_PER_SECOND = "bytes/s"
    FLOP = "FLOP"
    FLOP_PER_SECOND = "FLOP/s"
    SECONDS = "seconds"


class QuantityError(ValueError):
    """Malformed quantity literal, unknown suffix, or wrong dimension."""


_BYTES = {
    "B": 1.0,
    "KB": 1e3,
    "MB": 1e6,
    "GB": 1e9,
    "TB": 1e12,
    "KiB": 2.0**10,
    "MiB": 2.0**20,
    "GiB": 2.0**30,
    "TiB": 2.0**40,
}
# bit rates are normalized to bytes/s on parse (factor 8)
_RATES = {
    "bps": 1.0 / 8,
    "Kbps": 1e3 / 8,
    "Mbps": 1e6 / 8,
    "Gbps": 1e9 / 8,
    "Bps": 1.0,
    "KBps": 1e3,
    "MBps": 1e6,
    "GBps": 1e9,
}
_COMPUTE_RATES = {
    "FLOPS": 1.0,
    "MF": 1e6,
    "GF": 1e9,
    "TF": 1e12,
    "PF": 1e15,
}
_WORK = {
    "FLOP": 1.0,
    "MFLOP": 1e6,
    "GFLOP": 1e9,
    "TFLOP": 1e12,
    "PFLOP": 1e15,
}
_TIMES = {"ms": Decimal("0.001"), "s": 1.0, "min": 60.0}  # the float 1e-3 is not 0.001

# every factor is exact as a Decimal, so a literal rounds once: 2.01KB is 2010 bytes
_SUFFIXES: dict[str, tuple[Decimal, Dimension]] = {}
for _table, _dim in (
    (_BYTES, Dimension.BYTES),
    (_RATES, Dimension.BYTES_PER_SECOND),
    (_COMPUTE_RATES, Dimension.FLOP_PER_SECOND),
    (_WORK, Dimension.FLOP),
    (_TIMES, Dimension.SECONDS),
):
    for _suffix, _factor in _table.items():
        _SUFFIXES[_suffix] = (Decimal(_factor), _dim)

_EXACT = Context(traps=[])  # an overflow reads as Infinity; its sticky flags are never read
_LITERAL = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-z]+)\s*$"
)


def parse_quantity(text: str) -> tuple[float, Dimension]:
    """Parse ``<decimal><suffix>`` into an SI value and its dimension."""
    match = _LITERAL.match(text)
    if match is None:
        raise QuantityError(
            f"malformed quantity {text!r}: expected a decimal number followed "
            f"by a unit suffix (e.g. 0.5GB, 25Gbps, 34TF, 10s)"
        )
    number, suffix = match.groups()
    entry = _SUFFIXES.get(suffix)
    if entry is None:
        raise QuantityError(
            f"unknown unit suffix {suffix!r} in {text!r} "
            f"(units are case-sensitive: Gbps is bits/s, GBps is bytes/s)"
        )
    factor, dimension = entry
    value = float(_EXACT.multiply(Decimal(number), factor))
    if not math.isfinite(value):
        raise QuantityError(f"quantity {text!r} overflows to {value}")
    return value, dimension


def _parse_dimension(text: str, want: Dimension, what: str) -> float:
    value, dim = parse_quantity(text)
    if dim is not want:
        raise QuantityError(
            f"{text!r} is {dim.value}, but {what} expects {want.value}"
        )
    return value


def parse_bytes(text: str) -> float:
    """Data volume in bytes (suffixes B..TB decimal, KiB..TiB binary)."""
    return _parse_dimension(text, Dimension.BYTES, "a data size")


def parse_rate(text: str) -> float:
    """Link or transfer rate in bytes/s (accepts both bit and byte rates)."""
    return _parse_dimension(text, Dimension.BYTES_PER_SECOND, "a rate")


def parse_compute_rate(text: str) -> float:
    """Processing rate in FLOP/s (FLOPS, MF, GF, TF, PF)."""
    return _parse_dimension(text, Dimension.FLOP_PER_SECOND, "a compute rate")


def parse_work(text: str) -> float:
    """Total compute demand in FLOP (FLOP, MFLOP, GFLOP, TFLOP, PFLOP)."""
    return _parse_dimension(text, Dimension.FLOP, "a compute amount")


def parse_seconds(text: str) -> float:
    """Duration in seconds (ms, s, min)."""
    return _parse_dimension(text, Dimension.SECONDS, "a duration")


def coerce_quantity(value, parser) -> float:
    """A config value in SI: literals go through ``parser``, finite numbers pass as is."""
    if isinstance(value, str):
        return parser(value)
    number = float(value)
    if not math.isfinite(number):
        raise QuantityError(f"quantity {value!r} is not finite")
    return number
