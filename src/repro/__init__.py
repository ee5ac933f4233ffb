"""repro — a reproduction of "DDoS Defense by Offense" (speak-up), SIGCOMM 2006.

The package is organised as:

* :mod:`repro.simnet` — the discrete-event fluid network simulator substrate;
* :mod:`repro.httpd` — request/response messages, the emulated server, and
  the §7.7 download model;
* :mod:`repro.core` — the speak-up thinner variants (virtual auction,
  aggressive retries, per-quantum auctions) and the Deployment wiring;
* :mod:`repro.clients` — good/bad/cheating workload clients;
* :mod:`repro.defenses` — baseline defenses for comparison;
* :mod:`repro.analysis` — the paper's closed-form results;
* :mod:`repro.metrics` — run metrics, summaries, table rendering;
* :mod:`repro.scenarios` — scenarios as frozen data (:class:`ScenarioSpec`),
  the named registry, and the parallel sweep runner + results store;
* :mod:`repro.experiments` — one module per table/figure of the evaluation,
  each expressed as a scenario grid;
* :mod:`repro.perf` — hot-path counters and the tracked benchmark suite
  behind ``BENCH_speakup.json``;
* :mod:`repro.cli` — command-line access to the experiments.

See ``docs/ARCHITECTURE.md`` for the full map tied to the paper's sections.

Quickstart::

    from repro import quick_demo
    result = quick_demo()
    print(result.good_allocation, result.ideal_good_allocation)
"""

from repro.core.frontend import Deployment, DeploymentConfig
from repro.core.auction import VirtualAuctionThinner
from repro.core.retry import RandomDropThinner
from repro.core.quantum import QuantumAuctionThinner
from repro.core.admission import NoDefenseThinner
from repro.core.payment import PaymentChannel
from repro.clients.good import GoodClient
from repro.clients.bad import BadClient
from repro.metrics.collector import RunResult

__version__ = "1.0.0"

__all__ = [
    "Deployment",
    "DeploymentConfig",
    "VirtualAuctionThinner",
    "RandomDropThinner",
    "QuantumAuctionThinner",
    "NoDefenseThinner",
    "PaymentChannel",
    "GoodClient",
    "BadClient",
    "RunResult",
    "quick_demo",
    "__version__",
]


def quick_demo(
    good_clients: int = 5,
    bad_clients: int = 5,
    capacity_rps: float = 20.0,
    duration: float = 20.0,
    defense: str = "speakup",
    seed: int = 0,
) -> RunResult:
    """Run a small attacked-server scenario and return its metrics.

    This is the two-minute tour: a handful of good and bad clients on a LAN,
    an under-provisioned server, and the defense of your choice in front of
    it — the ``lan-baseline`` scenario at a small scale.  See
    :mod:`repro.experiments` for the paper's actual experiments.
    """
    from repro.scenarios.registry import build_scenario

    return build_scenario(
        "lan-baseline",
        good_clients=good_clients,
        bad_clients=bad_clients,
        capacity_rps=capacity_rps,
        defense=defense,
        duration=duration,
        seed=seed,
    ).run()
