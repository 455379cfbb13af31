"""Payloads built from the schema table of ``b92sim.channel``, for the
tests that hand a read well-formed and broken messages."""
from b92sim.channel import PAYLOADS

# one value of each JSON type, to put where a field takes another
JSON_VALUES = (None, True, 7, 0.5, "x", [1], {"a": 1})

# (kind, fields) for every shape a read checks: one per kind
SHAPES = list(PAYLOADS.items())
SHAPE_IDS = list(PAYLOADS)


def well_formed(fields: dict) -> dict:
    """A payload holding each field with the first JSON value of a type it takes."""
    return {key: next(v for v in JSON_VALUES if type(v) in types) for key, types in fields.items()}


def broken(fields: dict):
    """(case, rewrite) pairs: each rewrite turns a payload of ``fields``
    into one with an extra field, one field missing, or one field of a
    JSON type it does not take."""
    yield "extra", lambda p: {**p, "extra": 1}
    for key, types in fields.items():
        yield f"no_{key}", lambda p, key=key: {k: v for k, v in p.items() if k != key}
        for value in JSON_VALUES:
            if type(value) not in types:
                yield f"{key}_{type(value).__name__}", lambda p, key=key, value=value: {**p, key: value}
