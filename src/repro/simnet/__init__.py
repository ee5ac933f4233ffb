"""Discrete-event fluid-flow network simulator.

This subpackage is the substrate on which the speak-up reproduction runs.
It provides a deterministic event engine (:mod:`repro.simnet.engine`),
hosts and links (:mod:`repro.simnet.host`, :mod:`repro.simnet.link`),
topology builders matching the paper's Emulab setups
(:mod:`repro.simnet.topology`), and a fluid-flow bandwidth model with
max-min fair sharing and a TCP slow-start ramp
(:mod:`repro.simnet.flow`, :mod:`repro.simnet.bandwidth`,
:mod:`repro.simnet.network`, :mod:`repro.simnet.tcp`).
"""

from repro.simnet.engine import Engine, Event
from repro.simnet.link import Link, DuplexLink
from repro.simnet.host import Host
from repro.simnet.flow import Flow, FlowState
from repro.simnet.bandwidth import max_min_fair_rates
from repro.simnet.network import FluidNetwork
from repro.simnet.tcp import SlowStartRamp, slow_start_transfer_time
from repro.simnet.topology import Topology, build_lan, build_bottleneck, build_dumbbell

__all__ = [
    "Engine",
    "Event",
    "Link",
    "DuplexLink",
    "Host",
    "Flow",
    "FlowState",
    "max_min_fair_rates",
    "FluidNetwork",
    "SlowStartRamp",
    "slow_start_transfer_time",
    "Topology",
    "build_lan",
    "build_bottleneck",
    "build_dumbbell",
]
