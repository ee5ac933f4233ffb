"""Defenses as data: the frozen, JSON-serialisable :class:`DefenseSpec`.

A :class:`DefenseSpec` names a registered defense plus the keyword arguments
its factory takes, the same way a :class:`~repro.scenarios.spec.ScenarioSpec`
names a workload plus its knobs.  Specs are frozen and hashable (kwargs are
stored as a sorted tuple of pairs with nested values recursively frozen), so
a spec can sit inside a scenario, be pickled to a sweep worker, be written to
a results file, and be rebuilt from JSON.

The spec layer is also where the historical string interface lives on as
sugar: :func:`normalise_defense` maps the legacy
``DeploymentConfig.defense`` strings onto specs —

* ``"speakup"`` ⇢ ``DefenseSpec("speakup")``,
* ``"retry"`` / ``"quantum"`` ⇢ the matching speak-up variant,
* any other registered name (``"ratelimit"``, ``"captcha"``, ...) ⇢ a
  default-parameter spec,
* ``"ratelimit>speakup"`` ⇢ a :class:`~repro.defenses.pipeline.PipelineDefense`
  whose front stages screen contenders before the final admission stage —

so every pre-spec call site keeps working (and keeps producing bit-identical
runs) while new code can parameterise and compose defenses as data.

Composite defenses nest: a kwarg value may itself be a ``DefenseSpec`` (the
``inner`` defense of ``adaptive``) or a tuple of them (the ``stages`` of
``pipeline``); ``to_dict``/``from_dict`` round-trip the nesting through
plain JSON objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple, Union

from repro import codec
from repro.defenses.base import Defense, _close_matches_note, registry
from repro.errors import DefenseError

#: The historical ``DeploymentConfig.defense`` vocabulary, kept as aliases:
#: each maps to the (registry name, kwargs) pair it always meant.
LEGACY_DEFENSES: Dict[str, Tuple[str, Tuple[Tuple[str, Any], ...]]] = {
    "speakup": ("speakup", ()),
    "retry": ("speakup", (("variant", "retry"),)),
    "quantum": ("speakup", (("variant", "quantum"),)),
    "none": ("none", ()),
}

#: Separator of the ``"filter>admission"`` pipeline shorthand.
PIPELINE_SEPARATOR = ">"


def _freeze_value(value: Any) -> Any:
    """Recursively turn ``value`` into something hashable.

    Dicts become sorted tuples of (key, frozen value) pairs; lists/tuples
    become tuples; ``DefenseSpec`` instances (already frozen) pass through.
    :func:`_thaw_value` inverts the mapping — a tuple whose elements are all
    ``(str, value)`` pairs thaws back to a dict, so an *intentional* tuple
    of string-keyed pairs is indistinguishable from a dict (no defense
    factory takes one).
    """
    if isinstance(value, DefenseSpec):
        return value
    if isinstance(value, dict):
        if _looks_like_spec(value):
            return DefenseSpec.from_dict(value)
        return tuple(
            sorted((str(key), _freeze_value(val)) for key, val in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(item) for item in value)
    return value


def _thaw_value(value: Any) -> Any:
    """Invert :func:`_freeze_value` back to factory-friendly Python values."""
    if isinstance(value, DefenseSpec):
        return value
    if isinstance(value, tuple):
        if value and all(
            isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
            for item in value
        ):
            return {key: _thaw_value(val) for key, val in value}
        return tuple(_thaw_value(item) for item in value)
    return value


def _serialise_value(value: Any) -> Any:
    """A thawed value rendered with nested specs as plain JSON objects."""
    if isinstance(value, DefenseSpec):
        return value.to_dict()
    if isinstance(value, dict):
        return {key: _serialise_value(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_serialise_value(item) for item in value]
    return value


def _looks_like_spec(value: Any) -> bool:
    """True for a JSON object that encodes a nested :class:`DefenseSpec`."""
    return (
        isinstance(value, dict)
        and isinstance(value.get("name"), str)
        and set(value) <= {"name", "kwargs"}
        and isinstance(value.get("kwargs", {}), dict)
    )


def _parse_value(value: Any) -> Any:
    """Rebuild nested specs inside a deserialised kwarg value."""
    if _looks_like_spec(value):
        return DefenseSpec.from_dict(value)
    if isinstance(value, dict):
        return {key: _parse_value(val) for key, val in value.items()}
    if isinstance(value, list):
        return tuple(_parse_value(item) for item in value)
    return value


def freeze_kwargs(kwargs: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalise factory kwargs (mapping or pair sequence) to a sorted tuple."""
    if kwargs is None:
        return ()
    if isinstance(kwargs, dict):
        pairs = list(kwargs.items())
    else:
        try:
            pairs = [tuple(pair) for pair in kwargs]
        except TypeError:
            raise DefenseError(
                f"defense kwargs must be a mapping or (name, value) pairs, "
                f"got {kwargs!r}"
            ) from None
        for pair in pairs:
            if len(pair) != 2 or not isinstance(pair[0], str):
                raise DefenseError(
                    f"defense kwargs entries must be (name, value) pairs, "
                    f"got {pair!r}"
                )
    return tuple(sorted((str(key), _freeze_value(value)) for key, value in pairs))


@dataclass(frozen=True)
class DefenseSpec:
    """One defense selection as data: a registry name plus factory kwargs.

    ``kwargs`` is canonically a sorted tuple of (name, value) pairs with
    nested values frozen (see :func:`freeze_kwargs`); the constructor via
    :meth:`make` and :meth:`from_dict` accept plain mappings.
    """

    name: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    # -- construction -----------------------------------------------------------

    @classmethod
    def make(cls, name: str, **kwargs: Any) -> "DefenseSpec":
        """Build a spec from plain keyword arguments (frozen canonically)."""
        return cls(name=name, kwargs=freeze_kwargs(kwargs))

    # -- views ------------------------------------------------------------------

    def kwargs_dict(self) -> Dict[str, Any]:
        """The factory keyword arguments as a plain dict (values thawed)."""
        return {key: _thaw_value(value) for key, value in self.kwargs}

    def label(self) -> str:
        """A short human label; composites render their structure.

        ``pipeline`` specs render as ``"stage>stage"`` (the CLI shorthand)
        and ``adaptive`` specs as ``"adaptive(inner)"``; every other spec is
        its registry name.  Used for :attr:`RunResult.defense` — plain
        legacy strings never reach this path, so their labels stay
        byte-identical.
        """
        kwargs = self.kwargs_dict()
        if self.name == "pipeline":
            stages = kwargs.get("stages") or ()
            if not stages:
                # A bare pipeline spec falls back to the factory defaults;
                # label it by name rather than an empty join.
                return self.name
            try:
                return PIPELINE_SEPARATOR.join(
                    normalise_defense(stage).label() for stage in stages
                )
            except DefenseError:
                return self.name
        if self.name == "adaptive":
            inner = kwargs.get("inner", "speakup")
            try:
                return f"adaptive({normalise_defense(inner).label()})"
            except DefenseError:
                return self.name
        return self.name

    # -- functional updates ------------------------------------------------------

    def with_kwarg(self, key: str, value: Any) -> "DefenseSpec":
        """A copy with one factory kwarg replaced (or added)."""
        merged = dict(self.kwargs)
        merged[str(key)] = _freeze_value(value)
        return DefenseSpec(name=self.name, kwargs=tuple(sorted(merged.items())))

    # -- validation and building ---------------------------------------------------

    def validate(self) -> None:
        """Check the name is registered and every kwarg is accepted.

        Raises :class:`~repro.errors.DefenseError` with a one-line message
        (close-match suggestions included) on failure.
        """
        self.create()

    def create(self) -> Defense:
        """Instantiate the registered defense this spec describes."""
        return registry.create(self.name, **self.kwargs_dict())

    # -- serialisation ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dictionary that :meth:`from_dict` rebuilds exactly."""
        return {
            "name": self.name,
            "kwargs": {
                key: _serialise_value(_thaw_value(value))
                for key, value in self.kwargs
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DefenseSpec":
        """Rebuild a spec serialised by :meth:`to_dict` (nested specs too)."""
        if not isinstance(data, dict) or "name" in data and not isinstance(
            data["name"], str
        ):
            raise DefenseError(f"a defense spec dictionary needs a 'name': {data!r}")
        unknown = set(data) - {"name", "kwargs"}
        if unknown:
            raise DefenseError(
                f"unexpected defense spec keys {sorted(unknown)} in {data!r}"
            )
        try:
            name = data["name"]
        except KeyError:
            raise DefenseError(
                f"a defense spec dictionary needs a 'name': {data!r}"
            ) from None
        kwargs = data.get("kwargs") or {}
        if not isinstance(kwargs, dict):
            raise DefenseError(f"defense spec kwargs must be a mapping, got {kwargs!r}")
        parsed = {key: _parse_value(value) for key, value in kwargs.items()}
        return cls(name=name, kwargs=freeze_kwargs(parsed))

    to_json = codec.to_json
    from_json = classmethod(codec.from_json)


def normalise_defense(defense: Union[str, DefenseSpec, Dict[str, Any]]) -> DefenseSpec:
    """Coerce any accepted defense selector to a :class:`DefenseSpec`.

    Accepts a spec (returned as-is), a spec-shaped mapping, a legacy alias
    (``"speakup"``/``"retry"``/``"quantum"``/``"none"``), any registered
    defense name, or the ``"filter>admission"`` pipeline shorthand.  Raises
    a one-line :class:`~repro.errors.DefenseError` (with close-match
    suggestions) for anything else.
    """
    if isinstance(defense, DefenseSpec):
        return defense
    if isinstance(defense, dict):
        return DefenseSpec.from_dict(defense)
    if not isinstance(defense, str):
        raise DefenseError(
            f"defense must be a name or DefenseSpec, got {type(defense).__name__}"
        )
    if PIPELINE_SEPARATOR in defense:
        parts = [part.strip() for part in defense.split(PIPELINE_SEPARATOR)]
        if not all(parts):
            raise DefenseError(f"malformed pipeline defense {defense!r}")
        stages = tuple(normalise_defense(part) for part in parts)
        return DefenseSpec(name="pipeline", kwargs=(("stages", stages),))
    if defense in LEGACY_DEFENSES:
        name, kwargs = LEGACY_DEFENSES[defense]
        return DefenseSpec(name=name, kwargs=kwargs)
    if defense in registry:
        return DefenseSpec(name=defense)
    valid = sorted(set(registry.names()) | set(LEGACY_DEFENSES))
    raise DefenseError(
        f"unknown defense {defense!r}; expected one of {valid}"
        + _close_matches_note(defense, valid)
    )
