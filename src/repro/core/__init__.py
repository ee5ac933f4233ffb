"""The paper's contribution: the speak-up thinner and its mechanisms.

* :mod:`repro.core.payment` — the payment channel (dummy-byte POST streams).
* :mod:`repro.core.auction` — the explicit-payment-channel virtual auction (§3.3).
* :mod:`repro.core.retry` — random drops plus aggressive retries (§3.2).
* :mod:`repro.core.quantum` — the heterogeneous-request extension (§5).
* :mod:`repro.core.admission` — the undefended baseline the paper compares against.
* :mod:`repro.core.pricing` — price bookkeeping ("the going rate ... emerges").
* :mod:`repro.core.routing` and :mod:`repro.core.fleet` — the sharded thinner
  fleet (§4.3 scale-out): dispatch strategies; pooled admission, ejection.
* :mod:`repro.core.frontend` — Deployment: wires engine, network, server(s),
  thinner(s) and clients together.
"""

from repro.core.fleet import ADMISSION_MODES
from repro.core.routing import ShardRouter
from repro.core.payment import PaymentChannel, PaymentChannelState
from repro.core.pricing import PriceBook
from repro.core.thinner import Contender, ThinnerBase, ThinnerStats
from repro.core.auction import VirtualAuctionThinner
from repro.core.retry import RandomDropThinner
from repro.core.quantum import QuantumAuctionThinner
from repro.core.admission import NoDefenseThinner
from repro.core.frontend import Deployment, DeploymentConfig

__all__ = [
    "ADMISSION_MODES",
    "ShardRouter",
    "PaymentChannel",
    "PaymentChannelState",
    "PriceBook",
    "Contender",
    "ThinnerBase",
    "ThinnerStats",
    "VirtualAuctionThinner",
    "RandomDropThinner",
    "QuantumAuctionThinner",
    "NoDefenseThinner",
    "Deployment",
    "DeploymentConfig",
]
