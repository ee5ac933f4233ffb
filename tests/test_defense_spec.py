"""Tests for the DefenseSpec data model, normalisation, and the registry."""

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
    assert spec.kwargs == (("allowed_rps", 8.0), ("burst", 2.0))
    assert spec.kwargs_dict() == {"allowed_rps": 8.0, "burst": 2.0}
    assert hash(spec) == hash(DefenseSpec.make("ratelimit", allowed_rps=8.0, burst=2.0))


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
    # The dict-valued kwarg survives the freeze/thaw round trip as a dict.
    inner = rebuilt.kwargs_dict()["inner"]
    captcha = inner.kwargs_dict()["stages"][0]
    assert captcha.kwargs_dict() == {"solve_probabilities": {"good": 0.9}}


def test_spec_with_kwarg_replaces_and_adds():
    spec = DefenseSpec.make("adaptive", check_interval=1.0)
    updated = spec.with_kwarg("check_interval", 0.25)
    assert updated.kwargs_dict()["check_interval"] == 0.25
    added = updated.with_kwarg("engage_threshold", 0.8)
    assert added.kwargs_dict()["engage_threshold"] == 0.8
    assert spec.kwargs_dict()["check_interval"] == 1.0  # original untouched


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
    with pytest.raises(DefenseError):
        DefenseSpec.from_dict({"kwargs": {}})
    with pytest.raises(DefenseError):
        DefenseSpec.from_dict({"name": "speakup", "bogus": 1})
    with pytest.raises(DefenseError):
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
    assert spec.kwargs_dict()["stages"] == (
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
        registry.create("ratelimitt")
    message = str(excinfo.value)
    assert "did you mean 'ratelimit'" in message
    assert "\n" not in message


def test_registry_unknown_kwarg_error_suggests_parameter():
    with pytest.raises(DefenseError, match="unknown parameter") as excinfo:
        registry.create("ratelimit", allowed_rpss=4.0)
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
    parameters = dict(registry.parameters("ratelimit"))
    assert parameters == {"allowed_rps": 4.0, "burst": None}
    with pytest.raises(DefenseError):
        registry.parameters("bogus")


@pytest.mark.parametrize("name", registry.names())
def test_every_registered_defense_describes_and_builds(name):
    """Each defense has a real describe() and builds on a minimal deployment."""
    defense = registry.create(name)
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
    assert updated.defense.kwargs_dict()["check_interval"] == 0.25
    swapped = base.with_value("defense.name", "speakup")
    assert swapped.defense == DefenseSpec("speakup")
    with pytest.raises(ExperimentError, match="one level"):
        base.with_value("defense.inner.variant", "retry")
    with pytest.raises(ExperimentError, match="cannot descend into the plain value"):
        _spec_with_defense("speakup").with_value("defense.check_interval", 1.0)
