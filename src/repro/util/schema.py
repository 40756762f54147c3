"""The schema layer shared by every versioned document.

NEESgrid components talk only through versioned documents: service-data
elements, NSDS samples, checkpoints, journal entries, store dumps and
reports.  Each document family keeps its own module of ``validate_*``
functions (:mod:`repro.telemetry.schema`, :mod:`repro.monitor.schema`,
:mod:`repro.observatory.schema`, :mod:`repro.repository.checkpoint`,
:mod:`repro.queue.journal`, :mod:`repro.verify.report`,
:mod:`repro.analysis.reporters`); this module holds what they share:

* :class:`SchemaError`, the root of every document error.  Each family's
  error class subclasses it, and :func:`raises` turns the root error a
  validator raises into the family's class;
* JSON-path primitives.  Each takes the value and the JSON path naming
  it, returns the value when it conforms and otherwise raises
  ``SchemaError("<path>: <message>")``;
* :func:`fields`, field-spec tables for sections such as bench-document
  sections and journal bodies: key -> primitive, or a nested table for
  a sub-object.  Cross-field rules stay plain code;
* :func:`parse_json`, which turns undecodable bytes into the caller's
  error class.

Standard library only, so every package can import it without cycles.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable, NoReturn, TypeVar

from repro.util.errors import ReproError

_F = TypeVar("_F", bound=Callable[..., Any])


class SchemaError(ReproError):
    """A document does not match its versioned schema.

    The message starts with the JSON path of the offending field, e.g.
    ``$.metrics[3].value: expected a number, got str``.
    """


def raises(error: type[SchemaError]) -> Callable[[_F], _F]:
    """Decorate a validator so the errors it raises are ``error``s.

    The primitives raise the root :class:`SchemaError`; a document
    family's public validators re-raise it as the family's subclass with
    the same message, so callers catch either class.
    """
    def decorate(validate: _F) -> _F:
        @functools.wraps(validate)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                return validate(*args, **kwargs)
            except SchemaError as exc:
                if isinstance(exc, error):
                    raise
                raise error(str(exc)).with_traceback(
                    exc.__traceback__) from None
        return wrapper  # type: ignore[return-value]
    return decorate


def fail(path: str, message: str) -> NoReturn:
    raise SchemaError(f"{path}: {message}")


def require(condition: Any, path: str, message: str) -> None:
    if not condition:
        fail(path, message)


def parse_json(text: Any, error: Callable[[str], Exception],
               context: str) -> Any:
    """Decode JSON ``text``, or raise ``error(f"{context}: <reason>")``.

    ``error`` is a :class:`SchemaError` subclass, or a partial of one
    that carries extra attributes.
    """
    try:
        return json.loads(text)
    except (ValueError, TypeError) as exc:
        raise error(f"{context}: {exc}") from exc


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def is_number(value: Any) -> bool:
    """A JSON number: an int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def number(value: Any, path: str) -> Any:
    if not is_number(value):
        fail(path, f"expected a number, got {type(value).__name__}")
    return value


def positive(value: Any, path: str) -> Any:
    require(number(value, path) > 0, path, "must be positive")
    return value


def non_negative(value: Any, path: str) -> Any:
    require(number(value, path) >= 0, path, "must be non-negative")
    return value


def integer(value: Any, path: str, minimum: int | None = None) -> int:
    """An int that is not a bool, optionally at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        fail(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        fail(path, f"must be >= {minimum}, got {value}")
    return value


#: spec-table forms of :func:`integer` with a minimum
count = functools.partial(integer, minimum=0)
positive_int = functools.partial(integer, minimum=1)


def text(value: Any, path: str) -> str:
    """Any string, the empty one included."""
    if not isinstance(value, str):
        fail(path, f"expected a string, got {type(value).__name__}")
    return value


def string(value: Any, path: str) -> str:
    """A non-empty string."""
    require(text(value, path), path, "must be a non-empty string")
    return value


def boolean(value: Any, path: str) -> bool:
    require(isinstance(value, bool), path, "must be a boolean")
    return value


def one_of(value: Any, path: str, choices: tuple) -> Any:
    require(value in choices, path,
            f"must be one of {choices}, got {value!r}")
    return value


def present(value: Any, path: str) -> Any:
    """Any value: the spec-table form of "the key must be there"."""
    return value


def nullable(check: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """``check``, except that ``None`` also conforms."""
    def check_or_null(value: Any, path: str) -> Any:
        return None if value is None else check(value, path)
    return check_or_null


#: a non-empty string or ``None`` (e.g. the site an alert names, if any)
string_or_null = nullable(string)


def mapping(value: Any, path: str) -> dict:
    require(isinstance(value, dict), path, "must be an object")
    return value


def array(value: Any, path: str, *, nonempty: bool = False) -> list:
    require(isinstance(value, list), path, "must be a list")
    if nonempty:
        require(value, path, "must be a non-empty list")
    return value


def _checker(check: Any) -> Callable[[Any, str], Any]:
    """A primitive as is; a spec table as the :func:`fields` check."""
    if isinstance(check, dict):
        return functools.partial(fields, spec=check)
    return check


def array_of(value: Any, path: str, check: Any, *,
             nonempty: bool = False) -> list:
    """A list whose every item passes ``check`` (a primitive or a spec
    table), called with the item's path ``f"{path}[i]"``."""
    check = _checker(check)
    for i, item in enumerate(array(value, path, nonempty=nonempty)):
        check(item, f"{path}[{i}]")
    return value


def object_of(value: Any, path: str, check: Any, *,
              nonempty: bool = False) -> dict:
    """An object whose every key is a string and every value passes
    ``check`` (a primitive or a spec table), called with the value's path
    ``f"{path}.key"``."""
    check = _checker(check)
    mapping(value, path)
    if nonempty:
        require(value, path, "must be a non-empty object")
    for key, item in value.items():
        if not isinstance(key, str):
            fail(f"{path}.{key}", "keys must be strings")
        check(item, f"{path}.{key}")
    return value


def labels(value: Any, path: str) -> dict:
    """A label set: an object mapping strings to strings."""
    require(isinstance(value, dict), path, "labels must be an object")
    for key, val in value.items():
        if not (isinstance(key, str) and isinstance(val, str)):
            fail(f"{path}.{key}", "labels must map strings to strings")
    return value


def envelope(payload: Any, schema_id: str, kind: str | None = None, *,
             source: bool = False, time: bool = False) -> dict:
    """The document root: an object stamped ``schema`` (and ``kind``).

    ``source`` and ``time`` also require the publisher's non-empty
    ``$.source`` and the numeric ``$.time`` it stamped the document at.
    """
    require(isinstance(payload, dict), "$", "payload must be an object")
    if payload.get("schema") != schema_id:
        fail("$.schema",
             f"expected {schema_id!r}, got {payload.get('schema')!r}")
    if kind is not None and payload.get("kind") != kind:
        fail("$.kind", f"expected {kind!r}, got {payload.get('kind')!r}")
    if source:
        string(payload.get("source"), "$.source")
    if time:
        number(payload.get("time"), "$.time")
    return payload


def fields(value: Any, path: str, spec: dict[str, Any]) -> dict:
    """An object whose every ``spec`` key is present and conforms.

    ``spec`` maps each required key to a primitive, called as
    ``check(value[key], f"{path}.{key}")``, or to a nested spec table
    for a sub-object.  Keys not in ``spec`` are not checked.
    """
    section = mapping(value, path)
    for key, check in spec.items():
        where = f"{path}.{key}"
        if key not in section:
            fail(where, "missing")
        if isinstance(check, dict):
            fields(section[key], where, check)
        else:
            check(section[key], where)
    return section
