"""Defenses as data: the frozen, JSON-serialisable :class:`DefenseSpec`.

A :class:`DefenseSpec` names a registered defense plus the settings given
for it, the same way a :class:`~repro.scenarios.spec.ScenarioSpec` names a
workload plus its knobs, so a spec can sit inside a scenario, be pickled to
a sweep worker, be written to a results file, and be rebuilt from JSON.
Each setting is declared once, as a field of the defense's dataclass; the
spec reads every setting it is given against that field's annotation
through :func:`repro.codec.read_field`, and :meth:`DefenseSpec.create` runs
the defense's own range checks.

The spec layer is also where the historical string interface lives on as
sugar: :func:`normalise_defense` maps the legacy
``DeploymentConfig.defense`` strings onto specs —

* ``"speakup"`` ⇢ ``DefenseSpec("speakup")``,
* ``"retry"`` / ``"quantum"`` ⇢ the matching speak-up variant,
* any other registered name (``"ratelimit"``, ``"captcha"``, ...) ⇢ a
  default-setting spec,
* ``"ratelimit>speakup"`` ⇢ a :class:`~repro.defenses.pipeline.PipelineDefense`
  whose front stages screen contenders before the final admission stage —

so every pre-spec call site keeps working (and keeps producing bit-identical
runs) while new code can parameterise and compose defenses as data.

Composite defenses nest: a setting may itself be a ``DefenseSpec`` (the
``inner`` defense of ``adaptive``) or a tuple of them (the ``stages`` of
``pipeline``); the codec round-trips the nesting through plain JSON
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Tuple, Union

from repro import codec
from repro.defenses.base import Defense, _close_matches_note, registry
from repro.errors import DefenseError, ExperimentError

#: The historical ``DeploymentConfig.defense`` vocabulary, kept as aliases:
#: each maps to the (registry name, settings) pair it always meant.
LEGACY_DEFENSES: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "speakup": ("speakup", {}),
    "retry": ("speakup", {"variant": "retry"}),
    "quantum": ("speakup", {"variant": "quantum"}),
    "none": ("none", {}),
}

#: Separator of the ``"filter>admission"`` pipeline shorthand.
PIPELINE_SEPARATOR = ">"


@dataclass(frozen=True)
class DefenseSpec:
    """One defense selection as data: a registry name plus the settings given.

    ``kwargs`` holds only the settings that were given, sorted by name, so a
    spec writes back exactly what it read.  Each is read against the
    annotation of the defense's field when the spec is made (from JSON, by
    :meth:`make`, or by a ``with_value``/``--grid`` update): an unknown
    setting or a wrong type fails there with one line naming it.  A spec of
    an unregistered name keeps its settings unread; :meth:`create` names
    the defense.  A spec is hashable unless a setting holds a dict
    (``captcha``'s ``solve_probabilities``, ``profiling``'s
    ``baseline_profile``); nothing hashes a spec.
    """

    name: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        settings = dict(sorted(dict(self.kwargs).items()))
        if settings and self.name in registry:
            defense = registry.lookup(self.name)
            known = sorted(item.name for item in fields(defense))
            for key, value in settings.items():
                if key not in known:
                    raise ExperimentError(
                        f"unknown parameter {key!r} for defense {self.name!r}; "
                        f"expected one of {known}" + _close_matches_note(key, known)
                    )
                settings[key] = codec.read_field(defense, key, value)
        object.__setattr__(self, "kwargs", settings)

    def __hash__(self) -> int:
        return hash((self.name, tuple(self.kwargs.items())))

    @classmethod
    def make(cls, name: str, **kwargs: Any) -> "DefenseSpec":
        """Build a spec from plain keyword arguments."""
        return cls(name, kwargs)

    def label(self) -> str:
        """A short human label; composites render their structure.

        ``pipeline`` specs render as ``"stage>stage"`` (the CLI shorthand)
        and ``adaptive`` specs as ``"adaptive(inner)"``; every other spec is
        its registry name.  Used for :attr:`RunResult.defense` — plain
        legacy strings never reach this path, so their labels stay
        byte-identical.
        """
        try:
            if self.name == "pipeline" and self.kwargs.get("stages"):
                return PIPELINE_SEPARATOR.join(
                    normalise_defense(stage).label() for stage in self.kwargs["stages"]
                )
            if self.name == "adaptive":
                inner = normalise_defense(self.kwargs.get("inner", "speakup"))
                return f"adaptive({inner.label()})"
        except DefenseError:
            pass
        return self.name

    def with_kwarg(self, key: str, value: Any) -> "DefenseSpec":
        """A copy with one setting replaced (or added), read like the rest."""
        return DefenseSpec(self.name, {**self.kwargs, key: value})

    def create(self, path: str = "defense") -> Defense:
        """Build the defense this spec names, running its range checks.

        A failure is one :class:`~repro.errors.DefenseError` line that names
        the setting by its path from ``path``, the field holding this spec:
        ``defense.check_interval``, ``defense.stages.0.allowed_rps``.
        """
        try:
            defense = registry.lookup(self.name)
        except DefenseError as error:
            raise DefenseError(f"{path}: {error}") from None
        try:
            return defense(**self.kwargs)
        except DefenseError as error:
            raise DefenseError(f"{path}.{error}") from None

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)
    to_json = codec.to_json
    from_json = classmethod(codec.from_json)


def nested_defense(
    defense: Union[str, DefenseSpec, Dict[str, Any]], path: str
) -> Tuple[DefenseSpec, Defense]:
    """The spec and the built defense of a composite's setting at ``path``."""
    try:
        spec = normalise_defense(defense)
    except DefenseError as error:
        raise DefenseError(f"{path}: {error}") from None
    return spec, spec.create(path)


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
        return DefenseSpec("pipeline", {"stages": stages})
    if defense in LEGACY_DEFENSES:
        name, settings = LEGACY_DEFENSES[defense]
        return DefenseSpec(name, settings)
    if defense in registry:
        return DefenseSpec(defense)
    valid = sorted(set(registry.names()) | set(LEGACY_DEFENSES))
    raise DefenseError(
        f"unknown defense {defense!r}; expected one of {valid}"
        + _close_matches_note(defense, valid)
    )
