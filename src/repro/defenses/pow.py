"""Proof-of-work: the classic currency defense speak-up is contrasted with.

Computational puzzles (Dwork-Naor and the client-puzzle literature the paper
cites) charge CPU cycles instead of bandwidth.  We model each client as
owning ``cpu_power`` puzzle-units per second
(:attr:`repro.clients.base.BaseClient.cpu_power`, default 1.0; a duck-typed
client without the attribute counts as 1.0); once asked to pay, a
contending request accrues solved puzzles at that rate, and the thinner
admits the contender with the most solved puzzles — the same
virtual-auction structure as speak-up, but with CPU as the currency.  The
comparison bench shows both schemes allocate proportionally to the
respective currency; which one favours the good clients depends entirely
on how that currency is distributed (§8.1's point that "the good clients
must have enough currency").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import DefenseError, check_positive
from repro.core.thinner import ClientProtocol, Contender, ThinnerBase
from repro.defenses.base import Defense, registry
from repro.httpd.messages import Request


class ProofOfWorkThinner(ThinnerBase):
    """Admit the contender with the most solved puzzles."""

    def __init__(self, *args, puzzle_cost: float, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Work units per puzzle; higher cost means slower accrual for everyone.
        self.puzzle_cost = puzzle_cost
        self._paying_since: Dict[int, float] = {}
        self._cpu_power: Dict[int, float] = {}

    def _handle_arrival(self, request: Request, client: ClientProtocol) -> None:
        if self._server_idle and not self.server.busy:
            contender = Contender(request=request, client=client, arrived_at=self.engine.now)
            self._admit(contender, price_bytes=0.0)
            return
        self._add_contender(request, client)
        # "Encouragement" here is the puzzle challenge; solving starts after
        # the challenge reaches the client.
        delay = self.network.topology.one_way_delay(self.host, client.host) + self.encouragement_delay
        self.engine.schedule_after(delay, self._start_solving, request, client)

    def _start_solving(self, request: Request, client: ClientProtocol) -> None:
        if request.request_id not in self._contenders:
            return
        request.encouraged_at = self.engine.now
        self._paying_since[request.request_id] = self.engine.now
        self._cpu_power[request.request_id] = float(getattr(client, "cpu_power", 1.0))

    def solved_puzzles(self, request_id: int) -> float:
        """Puzzles solved so far for one contending request."""
        since = self._paying_since.get(request_id)
        if since is None:
            return 0.0
        elapsed = self.engine.now - since
        return self._cpu_power.get(request_id, 1.0) * elapsed / self.puzzle_cost

    def _server_ready(self) -> None:
        if not self._contenders:
            self._server_idle = True
            return
        self._count_auction()
        # The puzzle auction is a linear scan over every contender.
        self.counters.contenders_scanned += len(self._contenders)
        winner = max(
            self._contenders.values(),
            key=lambda contender: (
                self.solved_puzzles(contender.request.request_id),
                -contender.arrived_at,
            ),
        )
        price = self.solved_puzzles(winner.request.request_id)
        self._paying_since.pop(winner.request.request_id, None)
        self._cpu_power.pop(winner.request.request_id, None)
        # Prices are recorded in "puzzles", not bytes, for this defense.
        self._admit(winner, price_bytes=price)


@dataclass
class ProofOfWorkDefense(Defense):
    """Factory for :class:`ProofOfWorkThinner`."""

    name = "pow"

    puzzle_cost: float = 1.0

    def __post_init__(self) -> None:
        check_positive("puzzle_cost", self.puzzle_cost, DefenseError)

    def build_thinner(self, deployment, shard: int = 0, server=None) -> ProofOfWorkThinner:
        return ProofOfWorkThinner(
            puzzle_cost=self.puzzle_cost,
            **self.thinner_kwargs(deployment, shard, server=server),
        )

    def describe(self) -> str:
        return f"proof-of-work (puzzle cost {self.puzzle_cost:g})"


registry.register(ProofOfWorkDefense.name, ProofOfWorkDefense)
