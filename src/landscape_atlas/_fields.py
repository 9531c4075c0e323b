"""The one field check of the documents the package reads back: each
document's module names its fields in a table, and every refusal reads
``<file>: malformed <field> <value>: <what it must be>``."""
from __future__ import annotations

import json
import sys

INT = (lambda v: type(v) is int, "not an integer")  # not a bool, nor 1.0
# False for NaN, inf, bools and ints beyond the float range
REAL = (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
        "not a finite real number")


def at_least(low: int) -> tuple:
    return (lambda v: type(v) is int and v >= low, f"not an integer >= {low}")


def malformed(source: str, where: str, value, what: str) -> ValueError:
    return ValueError(f"{source}: malformed {where} {value!r}: {what}")


def load(data: str | bytes, source: str, spec: dict) -> dict:
    """The JSON object that data holds, checked against spec; a ValueError
    naming source when data is not JSON or a field does not fit."""
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise ValueError(f"{source}: not a JSON document: {exc}") from None
    return check(source, doc, spec)


def check(source: str, value, spec, where: str = ""):
    """value, or a ValueError naming source and the field (``where``, as
    in ``trees[0].feature[2]``) that does not fit spec: a (check, what)
    pair for one value, ``[spec]`` for a list of them, or a dict of specs
    for an object's keys (a missing key reads as None; others are ignored)."""
    if type(spec) is dict:
        if type(value) is not dict:
            raise malformed(source, where or "document", value, "not an object")
        for key, sub in spec.items():
            check(source, value.get(key), sub,
                  f"{where}.{key}" if where else key)
    elif type(spec) is list:
        if type(value) is not list:
            raise malformed(source, where, value, "not a list")
        for at, item in enumerate(value):
            check(source, item, spec[0], f"{where}[{at}]")
    elif not spec[0](value):
        raise malformed(source, where, value, spec[1])
    return value
