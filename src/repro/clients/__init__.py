"""Workload clients.

The evaluation drives the thinner with a custom client (§7.1): requests are
generated by a Poisson process of rate ``lambda``; at most ``w`` requests are
outstanding at once; excess requests wait in a backlog queue and are logged
as service denials after ten seconds.  Good clients use ``lambda = 2,
w = 1``; bad clients use ``lambda = 40, w = 20`` and therefore keep many
concurrent payment channels, which is exactly what makes them "bad": they
try to capture more than their bandwidth-proportional share.

:mod:`repro.clients.cheats` adds the §3.4 adversaries that manipulate the
*timing* of their payment rather than its volume.
"""

from repro.clients.base import BaseClient, ClientStats
from repro.clients.good import GoodClient
from repro.clients.bad import BadClient
from repro.clients.cheats import FocusedCheater, LurkingCheater

__all__ = [
    "BaseClient",
    "ClientStats",
    "GoodClient",
    "BadClient",
    "FocusedCheater",
    "LurkingCheater",
]
