"""The one JSON codec for every spec and result dataclass.

A class opts in by binding the codec in its own body::

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)

The dataclass fields are the schema, so each default is written once, on
its field:

* :func:`to_dict` writes one key per field.  A nested spec or result goes
  through its own ``to_dict``; tuples become lists.
* :func:`from_dict` reads the keys back by field annotation.  A missing key
  takes the field default; a nested object goes through the annotated
  class's own ``from_dict``; a ``Tuple`` field is read back as a tuple.
* Scalars are checked, not converted: an ``int`` stays an ``int`` in a
  ``float`` field, and a ``bool`` is not a number.  An unknown key, a
  missing required key or a wrong-typed value raises one
  :class:`~repro.errors.ExperimentError` line naming the class and the key.
* Two field-metadata markers cover the exceptions: ``OMIT_DEFAULT`` leaves
  a field out while it equals its default (results written before the field
  existed stay byte-identical), and ``key("min")`` writes a field under
  another key.
* :func:`read_field` reads one value as one named field of a class, by the
  same rules, so a setting that is not a spec field of its own (a defense
  setting in :class:`~repro.defenses.spec.DefenseSpec`) is checked as
  ``from_dict`` would check it.

The methods are bound per class rather than inherited from a base class, so
instrumentation that wraps one class's ``to_dict`` (the benchmark tracer
wraps ``RunResult.to_dict``) counts that class's calls only.
"""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, fields
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Dict, Mapping, Tuple, Union

from repro.errors import ExperimentError

_KEY = "codec.key"
_OMIT = "codec.omit_default"

#: Field metadata: leave the key out while the value equals the default.
OMIT_DEFAULT: Mapping[str, Any] = MappingProxyType({_OMIT: True})

_SCALARS = frozenset((str, int, float, bool))
_NONE = type(None)
_PLAIN = frozenset((str, int, float, bool, _NONE))


def key(name: str) -> Mapping[str, Any]:
    """Field metadata: write and read the field under the JSON key ``name``."""
    return MappingProxyType({_KEY: name})


@lru_cache(maxsize=None)
def _schema(cls: type) -> Tuple[Tuple[str, str, Any, bool, Any], ...]:
    """(attribute, JSON key, annotation, omit-at-default, default) per field."""
    hints = typing.get_type_hints(cls)
    schema = []
    for item in fields(cls):
        if item.default is not MISSING:
            default = item.default
        elif item.default_factory is not MISSING:
            default = item.default_factory()
        else:
            default = MISSING
        schema.append((
            item.name,
            item.metadata.get(_KEY, item.name),
            hints[item.name],
            item.metadata.get(_OMIT, False),
            default,
        ))
    return tuple(schema)


# -- writing -------------------------------------------------------------------


def to_dict(obj) -> Dict[str, Any]:
    """A JSON-ready dictionary of ``obj``'s fields that ``from_dict`` reads back."""
    payload = {}
    for name, json_key, _annotation, omit, default in _schema(type(obj)):
        value = getattr(obj, name)
        if omit and value == default:
            continue
        payload[json_key] = value if type(value) in _PLAIN else _encode(value)
    return payload


def _encode(value: Any) -> Any:
    if type(value) in _PLAIN or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {name: _encode(item) for name, item in value.items()}
    return value.to_dict()


def dumps(data: Any, what: str, **options: Any) -> str:
    """``json.dumps(data, **options)``, refusing NaN and Infinity.

    Neither is valid JSON, so no writer puts one in a file: a non-finite
    float fails with one :class:`~repro.errors.ExperimentError` line naming
    ``what``, the record or class being written.
    """
    try:
        return json.dumps(data, allow_nan=False, **options)
    except ValueError as error:
        raise ExperimentError(f"{what} cannot be written as JSON: {error}") from None


def to_json(obj) -> str:
    """``obj.to_dict()`` as a JSON document with sorted keys."""
    return dumps(obj.to_dict(), type(obj).__name__, sort_keys=True)


# -- reading -------------------------------------------------------------------


def from_dict(cls, data: Any):
    """Rebuild a ``cls`` written by :func:`to_dict`, checking every key."""
    if not isinstance(data, dict):
        raise ExperimentError(
            f"{cls.__name__} must be a JSON object, got {type(data).__name__}"
        )
    schema = _schema(cls)
    known = [json_key for _name, json_key, _annotation, _omit, _default in schema]
    unknown = sorted(set(data).difference(known), key=str)
    if unknown:
        raise ExperimentError(
            f"unknown {cls.__name__} keys: {unknown} (known fields: {', '.join(known)})"
        )
    kwargs = {}
    for name, json_key, annotation, _omit, default in schema:
        if json_key in data:
            kwargs[name] = _decode(annotation, data[json_key], cls, json_key)
        elif default is MISSING:
            raise ExperimentError(f"{cls.__name__} is missing the required key {json_key!r}")
    return cls(**kwargs)


def from_json(cls, document: str):
    """Rebuild a ``cls`` from a :func:`to_json` document."""
    return cls.from_dict(json.loads(document))


def read_field(cls, name: str, value: Any) -> Any:
    """Read ``value`` as the field ``name`` of ``cls``, as :func:`from_dict` would.

    ``value`` is the field's JSON form or a Python value that encodes to it
    (a nested spec, a tuple), so a value built in Python passes the same
    check as one read from a file.
    """
    for attribute, json_key, annotation, _omit, _default in _schema(cls):
        if attribute == name:
            return _decode(annotation, _encode(value), cls, json_key)
    raise ExperimentError(f"{cls.__name__} has no field {name!r}")


def _scalar_fits(annotation: type, value: Any) -> bool:
    if isinstance(value, bool):
        return annotation is bool
    if annotation is float:
        return isinstance(value, (int, float))
    return isinstance(value, annotation)


def _decode(annotation: Any, value: Any, cls: type, json_key: str) -> Any:
    if annotation in _SCALARS:
        if _scalar_fits(annotation, value):
            return value
    elif annotation is Any:
        return value
    else:
        origin = typing.get_origin(annotation)
        args = typing.get_args(annotation)
        if origin is Union:
            if value is None and _NONE in args:
                return None
            for arm in args:
                if arm in _SCALARS:
                    if _scalar_fits(arm, value):
                        return value
                elif arm is not _NONE and isinstance(value, _json_shape(arm)):
                    return _decode(arm, value, cls, json_key)
        elif origin in (list, tuple):
            if isinstance(value, (list, tuple)):
                item = args[0] if args else Any
                items = [_decode(item, entry, cls, json_key) for entry in value]
                return tuple(items) if origin is tuple else items
        elif origin is dict:
            if isinstance(value, dict):
                item = args[1] if args else Any
                return {name: _decode(item, entry, cls, json_key) for name, entry in value.items()}
        elif isinstance(value, dict):
            return annotation.from_dict(value)
    raise ExperimentError(
        f"{cls.__name__}.{json_key}: expected {_type_name(annotation)}, got {value!r:.80}"
    )


def _json_shape(annotation: Any) -> Tuple[type, ...]:
    """The JSON containers a non-scalar annotation is read from."""
    if typing.get_origin(annotation) in (list, tuple):
        return (list, tuple)
    return (dict,)


def _type_name(annotation: Any) -> str:
    """``float or None`` for ``Optional[float]``; a class or generic's own name."""
    if typing.get_origin(annotation) is Union:
        return " or ".join(_type_name(arm) for arm in typing.get_args(annotation))
    if annotation is _NONE:
        return "None"
    return getattr(annotation, "__name__", None) or str(annotation).replace("typing.", "")
