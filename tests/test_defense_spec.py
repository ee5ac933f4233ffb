"""Tests for the DefenseSpec data model, normalisation, and the registry."""

import math
import typing

import pytest

from repro.constants import MBIT
from repro.core.frontend import Deployment, DeploymentConfig
from repro.defenses import DefenseSpec, normalise_defense, registry
from repro.defenses.base import Defense, DefenseRegistry
from repro.errors import DefenseError, ExperimentError
from repro.scenarios.spec import GroupSpec, ScenarioSpec, TopologySpec
from repro.simnet.topology import build_lan, uniform_bandwidths


# ---------------------------------------------------------------------------
# DefenseSpec: construction, round trips, functional updates
# ---------------------------------------------------------------------------


def test_spec_make_freezes_and_sorts_kwargs():
    spec = DefenseSpec.make("ratelimit", burst=2.0, allowed_rps=8.0)
    assert spec.kwargs == {"allowed_rps": 8.0, "burst": 2.0}
    assert list(spec.kwargs) == ["allowed_rps", "burst"]
    assert spec == DefenseSpec("ratelimit", (("burst", 2.0), ("allowed_rps", 8.0)))
    assert hash(spec) == hash(DefenseSpec.make("ratelimit", allowed_rps=8.0, burst=2.0))
    # A dict-valued setting is held as read, so that spec is not hashable.
    with pytest.raises(TypeError):
        hash(DefenseSpec.make("captcha", solve_probabilities={"good": 0.9}))


def test_spec_json_round_trip_plain_and_nested():
    plain = DefenseSpec.make("ratelimit", allowed_rps=8.0)
    assert DefenseSpec.from_json(plain.to_json()) == plain

    composite = DefenseSpec.make(
        "adaptive",
        inner=DefenseSpec.make(
            "pipeline",
            stages=(
                DefenseSpec.make("captcha", solve_probabilities={"good": 0.9}),
                DefenseSpec.make("speakup"),
            ),
        ),
        check_interval=0.5,
    )
    rebuilt = DefenseSpec.from_json(composite.to_json())
    assert rebuilt == composite
    # Each setting reads back as its field's type: a spec, a tuple, a dict.
    inner = rebuilt.kwargs["inner"]
    captcha = inner.kwargs["stages"][0]
    assert captcha.kwargs == {"solve_probabilities": {"good": 0.9}}
    assert composite.to_dict() == {
        "name": "adaptive",
        "kwargs": {
            "check_interval": 0.5,
            "inner": {
                "name": "pipeline",
                "kwargs": {"stages": [
                    {"name": "captcha", "kwargs": {"solve_probabilities": {"good": 0.9}}},
                    {"name": "speakup", "kwargs": {}},
                ]},
            },
        },
    }


def test_spec_with_kwarg_replaces_and_adds():
    spec = DefenseSpec.make("adaptive", check_interval=1.0)
    updated = spec.with_kwarg("check_interval", 0.25)
    assert updated.kwargs["check_interval"] == 0.25
    added = updated.with_kwarg("engage_threshold", 0.8)
    assert added.kwargs["engage_threshold"] == 0.8
    assert spec.kwargs["check_interval"] == 1.0  # original untouched


def test_spec_labels():
    assert DefenseSpec("speakup").label() == "speakup"
    assert normalise_defense("ratelimit>speakup").label() == "ratelimit>speakup"
    assert normalise_defense("retry").label() == "speakup"
    adaptive = DefenseSpec.make("adaptive", inner="quantum")
    assert adaptive.label() == "adaptive(speakup)"
    # Bare composites (factory defaults) label by name, not an empty join.
    assert DefenseSpec("pipeline").label() == "pipeline"
    assert DefenseSpec("adaptive").label() == "adaptive(speakup)"


def test_config_defense_label_accepts_spec_shaped_dicts():
    config = DeploymentConfig(defense={"name": "speakup"})
    config.validate()
    assert config.defense_label == "speakup"


def test_spec_from_dict_rejects_malformed_documents():
    with pytest.raises(ExperimentError, match="missing the required key 'name'"):
        DefenseSpec.from_dict({"kwargs": {}})
    with pytest.raises(ExperimentError, match="'bogus'"):
        DefenseSpec.from_dict({"name": "speakup", "bogus": 1})
    with pytest.raises(ExperimentError, match="DefenseSpec.kwargs"):
        DefenseSpec.from_dict({"name": "speakup", "kwargs": [1, 2]})


# ---------------------------------------------------------------------------
# normalise_defense: legacy sugar and errors
# ---------------------------------------------------------------------------


def test_normalise_legacy_aliases():
    assert normalise_defense("speakup") == DefenseSpec("speakup")
    assert normalise_defense("retry") == DefenseSpec(
        "speakup", (("variant", "retry"),)
    )
    assert normalise_defense("quantum") == DefenseSpec(
        "speakup", (("variant", "quantum"),)
    )
    assert normalise_defense("none") == DefenseSpec("none")
    # Registered non-legacy names pass through as default specs.
    assert normalise_defense("captcha") == DefenseSpec("captcha")


def test_normalise_pipeline_shorthand():
    spec = normalise_defense("ratelimit>speakup")
    assert spec.name == "pipeline"
    assert spec.kwargs["stages"] == (
        DefenseSpec("ratelimit"),
        DefenseSpec("speakup"),
    )
    with pytest.raises(DefenseError):
        normalise_defense("ratelimit>")


def test_normalise_unknown_name_suggests_close_matches():
    with pytest.raises(DefenseError, match="expected one of") as excinfo:
        normalise_defense("speakupp")
    message = str(excinfo.value)
    assert "did you mean 'speakup'" in message
    assert "\n" not in message  # the CLI prints it as one clean line


def test_normalise_rejects_non_string_non_spec():
    with pytest.raises(DefenseError):
        normalise_defense(42)


# ---------------------------------------------------------------------------
# DefenseRegistry edge cases
# ---------------------------------------------------------------------------


def test_registry_duplicate_register_rejected():
    scratch = DefenseRegistry()
    scratch.register("thing", Defense)
    with pytest.raises(DefenseError, match="already registered"):
        scratch.register("thing", Defense)


def test_registry_unknown_name_error_is_one_line_with_suggestion():
    with pytest.raises(DefenseError, match="expected one of") as excinfo:
        registry.lookup("ratelimitt")
    message = str(excinfo.value)
    assert "did you mean 'ratelimit'" in message
    assert "\n" not in message


def test_registry_unknown_kwarg_error_suggests_parameter():
    with pytest.raises(ExperimentError, match="unknown parameter") as excinfo:
        DefenseSpec.make("ratelimit", allowed_rpss=4.0)
    message = str(excinfo.value)
    assert "expected one of" in message
    assert "did you mean 'allowed_rps'" in message
    assert "\n" not in message


def test_registry_contains_and_iter_are_sorted():
    assert "speakup" in registry
    assert "not-a-defense" not in registry
    names = list(registry)
    assert names == sorted(names)
    assert names == registry.names()
    for expected in ("adaptive", "captcha", "none", "pipeline", "pow",
                     "profiling", "ratelimit", "speakup"):
        assert expected in names


def test_registry_parameters_reports_factory_signature():
    """The (setting, default) pairs are the defense dataclass's fields."""
    parameters = dict(registry.parameters("ratelimit"))
    assert parameters == {"allowed_rps": 4.0, "burst": None}
    with pytest.raises(DefenseError):
        registry.parameters("bogus")


@pytest.mark.parametrize("name", registry.names())
def test_every_registered_defense_describes_and_builds(name):
    """Each defense has a real describe() and builds on a minimal deployment."""
    defense = DefenseSpec(name).create()
    description = defense.describe()
    assert description and description != Defense().describe()

    topology, _hosts, thinner_host = build_lan(uniform_bandwidths(2, 2 * MBIT))
    deployment = Deployment(
        topology, thinner_host, DeploymentConfig(defense=DefenseSpec(name))
    )
    assert deployment.thinner is not None
    assert deployment.defense_spec == DefenseSpec(name)
    assert type(deployment.defense).__name__ != "Defense"


# ---------------------------------------------------------------------------
# DeploymentConfig entry points: strings and specs
# ---------------------------------------------------------------------------


def test_config_accepts_spec_and_string_equivalently():
    DeploymentConfig(defense="speakup").validate()
    DeploymentConfig(defense=DefenseSpec("speakup")).validate()
    DeploymentConfig(defense="ratelimit>speakup").validate()
    with pytest.raises(ExperimentError, match="expected one of"):
        DeploymentConfig(defense="bogus").validate()
    with pytest.raises(ExperimentError, match="unknown parameter"):
        DeploymentConfig(defense=DefenseSpec.make("speakup", variannt="retry")).validate()


def test_config_defense_label_keeps_strings_verbatim():
    assert DeploymentConfig(defense="retry").defense_label == "retry"
    assert (
        DeploymentConfig(defense=normalise_defense("ratelimit>speakup")).defense_label
        == "ratelimit>speakup"
    )


@pytest.mark.parametrize(
    "defense",
    [
        "quantum",
        DefenseSpec.make("speakup", variant="quantum"),
        DefenseSpec.make("adaptive", inner="quantum"),
        "ratelimit>quantum",
    ],
)
def test_pooled_quantum_conflicts_name_the_offending_spec(defense):
    config = DeploymentConfig(
        defense=defense, thinner_shards=2, admission_mode="pooled"
    )
    with pytest.raises(ExperimentError, match="quantum") as excinfo:
        config.validate()
    assert "offending defense spec" in str(excinfo.value)


# ---------------------------------------------------------------------------
# ScenarioSpec integration: a spec-valued defense and sweepable kwargs
# ---------------------------------------------------------------------------


def _spec_with_defense(defense="speakup", **overrides):
    defaults = dict(
        name="defense-spec-test",
        topology=TopologySpec(kind="lan"),
        groups=(GroupSpec(count=2), GroupSpec(count=2, client_class="bad")),
        capacity_rps=10.0,
        duration=4.0,
        defense=defense,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def test_scenario_defense_spec_round_trips_through_json():
    spec = _spec_with_defense(
        DefenseSpec.make("adaptive", inner=DefenseSpec("speakup"), check_interval=0.5)
    )
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    # String-defense scenarios keep the historical schema (the plain string).
    assert _spec_with_defense("speakup").to_dict()["defense"] == "speakup"


def test_scenario_defense_spec_validation():
    _spec_with_defense(DefenseSpec("speakup")).validate()
    with pytest.raises(ExperimentError, match="expected one of"):
        _spec_with_defense(DefenseSpec("firewall")).validate()
    with pytest.raises(ExperimentError, match="unknown parameter"):
        _spec_with_defense(DefenseSpec.make("ratelimit", allowed=1.0)).validate()


def test_scenario_sweeps_defense_spec_kwargs():
    base = _spec_with_defense(DefenseSpec.make("adaptive", check_interval=1.0))
    updated = base.with_value("defense.check_interval", 0.25)
    assert updated.defense.kwargs["check_interval"] == 0.25
    swapped = base.with_value("defense.name", "speakup")
    assert swapped.defense == DefenseSpec("speakup")
    with pytest.raises(ExperimentError, match="one level"):
        base.with_value("defense.inner.variant", "retry")
    with pytest.raises(ExperimentError, match="cannot descend into the plain value"):
        _spec_with_defense("speakup").with_value("defense.check_interval", 1.0)


#: Every (defense, setting) pair the registry lists.
SETTINGS = [
    (name, setting) for name in registry.names() for setting, _default in registry.parameters(name)
]


@pytest.mark.parametrize("name, setting", SETTINGS, ids=[f"{n}.{s}" for n, s in SETTINGS])
def test_every_defense_setting_is_read_and_range_checked(name, setting):
    """A wrong-typed setting fails when the spec is read, from JSON or from a
    sweep update, and a NaN float setting fails ``validate()``: one line
    naming the setting either way, never a late failure in build() or a run
    that reports nonsense."""
    spec = _spec_with_defense(DefenseSpec(name))
    document = spec.to_dict()
    document["defense"]["kwargs"][setting] = True
    with pytest.raises(ExperimentError, match=setting) as excinfo:
        ScenarioSpec.from_dict(document)
    assert "\n" not in str(excinfo.value)
    with pytest.raises(ExperimentError, match=setting) as excinfo:
        spec.with_value(f"defense.{setting}", True)
    assert "\n" not in str(excinfo.value)

    if typing.get_type_hints(registry.lookup(name))[setting] in (float, typing.Optional[float]):
        nan_spec = spec.with_value(f"defense.{setting}", math.nan)
        with pytest.raises(ExperimentError, match=rf"^defense\.{setting} .*nan") as excinfo:
            nan_spec.validate()
        assert "\n" not in str(excinfo.value)
