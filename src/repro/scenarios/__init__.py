"""Declarative scenarios and the parallel sweep runner.

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec` and friends: a frozen,
  JSON-serialisable description of topology, population, defense, and run
  parameters, with ``build()``/``run()`` to execute it;
* :mod:`repro.scenarios.registry` — named factories for the paper's setups
  and new workloads (flash crowds, pulsed attackers, diurnal demand,
  heterogeneous uplink tiers);
* :mod:`repro.scenarios.runner` — :class:`Sweep` grids, the serial or
  multiprocess :class:`SweepRunner`, and the JSON results store.
"""

from repro.scenarios.spec import (
    ARRIVAL_KINDS,
    TOPOLOGY_KINDS,
    ArrivalSpec,
    ConfigOverrides,
    GroupSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.scenarios.registry import (
    build_scenario,
    register,
    scenario_description,
    scenario_names,
)
from repro.scenarios.runner import (
    Sweep,
    SweepPoint,
    SweepRecord,
    SweepRunner,
    default_jobs,
    load_results,
    run_spec,
    save_results,
    validate_record,
    validate_results_document,
)

__all__ = [
    "ARRIVAL_KINDS",
    "TOPOLOGY_KINDS",
    "ArrivalSpec",
    "ConfigOverrides",
    "GroupSpec",
    "ScenarioSpec",
    "TopologySpec",
    "build_scenario",
    "register",
    "scenario_description",
    "scenario_names",
    "Sweep",
    "SweepPoint",
    "SweepRecord",
    "SweepRunner",
    "default_jobs",
    "load_results",
    "run_spec",
    "save_results",
    "validate_record",
    "validate_results_document",
]
