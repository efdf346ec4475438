from __future__ import annotations

import math

import pytest

from streamscore.quantities import (
    Dimension,
    QuantityError,
    coerce_quantity,
    parse_byte_count,
    parse_bytes,
    parse_compute_rate,
    parse_quantity,
    parse_rate,
    parse_seconds,
    parse_work,
)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1B", 1.0),
        ("0.5GB", 0.5e9),
        ("10MB", 10e6),
        ("2TB", 2e12),
        ("1KiB", 1024.0),
        ("1MiB", 1024.0**2),
        ("1GiB", 1024.0**3),
        ("1TiB", 1024.0**4),
        # decimal literals are exact: as floats, 2.01 x 1e3 is 2009.9999999999998
        ("2.01KB", 2010.0),
        ("1.001MB", 1_001_000.0),
        ("0.067GB", 67_000_000.0),
    ],
)
def test_byte_sizes(text, expected):
    assert parse_bytes(text) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("25Gbps", 25e9 / 8),
        ("8bps", 1.0),
        ("1Kbps", 125.0),
        ("100Mbps", 100e6 / 8),
        ("2GBps", 2e9),
        ("1Bps", 1.0),
        ("3MBps", 3e6),
        ("5KBps", 5e3),
    ],
)
def test_rates_normalize_to_bytes_per_second(text, expected):
    assert parse_rate(text) == expected


def test_bits_vs_bytes_is_case_sensitive():
    assert parse_rate("1Gbps") * 8 == parse_rate("1GBps")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("34TF", 34e12),
        ("1FLOPS", 1.0),
        ("5MF", 5e6),
        ("2GF", 2e9),
        ("1PF", 1e15),
    ],
)
def test_compute_rates(text, expected):
    assert parse_compute_rate(text) == expected


@pytest.mark.parametrize(
    "text, expected",
    [("0FLOP", 0.0), ("34TFLOP", 34e12), ("2MFLOP", 2e6), ("1GFLOP", 1e9), ("3PFLOP", 3e15)],
)
def test_work(text, expected):
    assert parse_work(text) == expected


@pytest.mark.parametrize(
    "text, expected", [("16ms", 0.016), ("10s", 10.0), ("1min", 60.0), ("0.5s", 0.5)]
)
def test_times(text, expected):
    assert parse_seconds(text) == expected


@pytest.mark.parametrize(
    "value, expected",
    [
        # a whole count is an int, read exactly; as a float, 2**53 + 1 is 2**53
        ("9007199254740993B", 9007199254740993),
        ("9223372036854775807B", 2**63 - 1),
        ("9223372036854775808B", 2**63),  # for LoadSpec to reject by name
        ("1.5KiB", 1536),
        ("2.01KB", 2010),
        (9007199254740993, 9007199254740993),  # a config's JSON integer
        (5e8, 500_000_000),
        # a fraction, or a count no byte field holds, stays the float that names it
        ("1000.6B", 1000.6),
        ("1e300B", 1e300),
        ("18446744073709551616B", 2.0**64),
    ],
)
def test_byte_counts_are_read_exactly(value, expected):
    count = parse_byte_count(value)
    assert count == expected and type(count) is type(expected)


@pytest.mark.parametrize("value", ["1e400B", "10s", 10**400, math.inf])
def test_byte_count_rejects_what_parse_bytes_rejects(value):
    with pytest.raises(QuantityError):
        parse_byte_count(value)


def test_scientific_notation_and_whitespace():
    assert parse_bytes(" 5e8 B ") == 5e8
    assert parse_seconds("1e-3s") == 1e-3
    assert parse_bytes("1.5e308B") == 1.5e308  # large but finite


def test_dimension_tagging():
    assert parse_quantity("25Gbps") == (3.125e9, Dimension.BYTES_PER_SECOND)
    assert parse_quantity("1min") == (60.0, Dimension.SECONDS)


@pytest.mark.parametrize("text", ["", "GB", "1.2", "1 XB", "1.2.3GB", "10 Sec"])
def test_malformed_literals_rejected(text):
    with pytest.raises(QuantityError):
        parse_quantity(text)


@pytest.mark.parametrize("text", ["1gb", "1kb", "1gbps", "25GBPS", "1MS", "1S"])
def test_wrong_case_rejected(text):
    with pytest.raises(QuantityError):
        parse_quantity(text)


def test_wrong_dimension_rejected():
    with pytest.raises(QuantityError, match="expects bytes"):
        parse_bytes("10s")
    with pytest.raises(QuantityError, match="expects bytes/s"):
        parse_rate("0.5GB")
    with pytest.raises(QuantityError, match="expects FLOP/s"):
        parse_compute_rate("34TFLOP")
    with pytest.raises(QuantityError, match="expects seconds"):
        parse_seconds("25Gbps")


@pytest.mark.parametrize(
    "text", ["1e400Gbps", "1e309B", "1e308TB", "2e307min", "1e300PF", "1e999999999B"]
)
def test_overflowing_literals_rejected(text):
    # the decimal or its unit factor overflows a float; inf is not a quantity
    with pytest.raises(QuantityError, match="overflows"):
        parse_quantity(text)


@pytest.mark.parametrize("value", [1e400, -1e400, math.nan])
def test_coerce_rejects_non_finite_numbers(value):
    with pytest.raises(QuantityError, match="finite"):
        coerce_quantity(value, parse_rate)


def test_coerce_passes_finite_numbers_and_parses_literals():
    assert coerce_quantity(3, parse_rate) == 3.0
    assert coerce_quantity("25Gbps", parse_rate) == 25e9 / 8
    with pytest.raises(QuantityError, match="overflows"):
        coerce_quantity("1e400Gbps", parse_rate)
