"""Named, seeded random streams.

Every stochastic component of the simulation (client arrival processes,
server service times, drop decisions of baseline defenses, ...) draws from
its own named stream derived from a single experiment seed.  This keeps runs
reproducible and keeps components statistically independent of one another:
adding a new consumer of randomness never perturbs the draws seen by the
existing ones.

Streams are lazy and parkable.  A stream makes its Mersenne Twister (about
2.9 KB with its instance dict) at its first draw, not when it is named, and
:meth:`RandomStream.park` drops it again while the stream has used at most
one Twister block of 32-bit words.  Replay is exact because a Twister's
state after ``w`` words depends on the seed and ``w`` alone: the next draw
reseeds and calls ``getrandbits(32 * w)``, which consumes exactly ``w``
words, so the state is restored bit for bit.  The count covers the draws of
fixed size (one ``random()`` call, two words); a draw of variable length
(``randint``, ``choice``, ``sample``) stops it, and that stream never parks
again.  A population of clients that each draw
once and then idle past the run's end thus holds no generator while idle.

A stream keeps its seed, not its name.  :class:`StreamFactory` registers a
deployment's own streams (the server's, the telemetry's, each shard's).  A
client's arrival and retry streams are not registered: the client makes
each once, at construction, from the factory's ``root_seed`` (see
:meth:`repro.core.frontend.Deployment.client_stream`) and is the only
holder, so their ``"client:<host>"`` and ``"retry:<host>"`` names live only
while :func:`derive_seed` hashes them.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Optional, Sequence


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a deterministic 64-bit seed for ``name`` from ``root_seed``."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


#: Words in one Mersenne Twister block: the most a parked stream replays.
PARK_LIMIT = 624

#: The word count after a variable-length draw: past the limit for good.
_UNCOUNTED = PARK_LIMIT + 1


class RandomStream:
    """A named pseudo-random stream with the distributions the sim needs.

    The name only derives the seed; the stream does not keep it.
    """

    __slots__ = ("seed", "_rng", "_words")

    def __init__(self, root_seed: int, name: str) -> None:
        self.seed = derive_seed(root_seed, name)
        #: The generator, made at the first draw and dropped by :meth:`park`.
        self._rng: Optional[random.Random] = None
        #: 32-bit words the fixed-size draws have used so far.  Past
        #: :data:`PARK_LIMIT` (as after any variable-length draw) the stream
        #: never parks again.
        self._words = 0

    def _wake(self) -> random.Random:
        """Make the generator at the position the word count names."""
        rng = self._rng = random.Random(self.seed)
        if self._words:
            rng.getrandbits(32 * self._words)
        return rng

    def _unparkable(self) -> random.Random:
        """The generator for a variable-length draw, which ends the count."""
        rng = self._rng or self._wake()
        self._words = _UNCOUNTED
        return rng

    def park(self) -> None:
        """Drop the generator until the next draw, if replaying it is cheap.

        A no-op once the stream has used more than :data:`PARK_LIMIT` words
        or made a variable-length draw.  Parking never changes a draw.
        """
        if self._words <= PARK_LIMIT:
            self._rng = None

    # -- basic draws -------------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        """Uniform draw in [low, high]."""
        rng = self._rng or self._wake()
        self._words += 2
        return rng.uniform(low, high)

    def random(self) -> float:
        """Uniform draw in [0, 1)."""
        rng = self._rng or self._wake()
        self._words += 2
        return rng.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer draw in [low, high] inclusive."""
        return self._unparkable().randint(low, high)

    def choice(self, items: Sequence):
        """Uniformly pick one element of ``items``."""
        if not items:
            raise IndexError("cannot choose from an empty sequence")
        return self._unparkable().choice(items)

    def sample(self, items: Sequence, k: int) -> list:
        """Sample ``k`` distinct elements from ``items``."""
        return self._unparkable().sample(items, k)

    # -- distributions used by the paper's workload model -------------------

    def exponential(self, rate: float) -> float:
        """Exponential inter-arrival time for a Poisson process of ``rate``/s."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        rng = self._rng or self._wake()
        self._words += 2
        return rng.expovariate(rate)

    def exponentials(self, rate: float, count: int) -> list[float]:
        """``count`` consecutive exponential draws in one call.

        Returns exactly the values ``count`` successive :meth:`exponential`
        calls would (same underlying stream state), but with the attribute
        lookups and call overhead hoisted out of the loop — the batched
        arrival pregeneration in :mod:`repro.clients.base` draws thousands
        of inter-arrival gaps per refill.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        rng = self._rng or self._wake()
        self._words += 2 * count
        expovariate = rng.expovariate
        return [expovariate(rate) for _ in range(count)]

    def service_time(self, capacity: float, jitter: float = 0.1) -> float:
        """Service time uniform in [(1-jitter)/c, (1+jitter)/c] (paper section 6)."""
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        mean = 1.0 / capacity
        return self.uniform((1.0 - jitter) * mean, (1.0 + jitter) * mean)

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self.random() < probability


class StreamFactory:
    """Creates :class:`RandomStream` objects that all derive from one seed."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._streams: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = RandomStream(self.root_seed, name)
        return self._streams[name]

    def streams(self, names: Iterable[str]) -> list[RandomStream]:
        """Return (creating as needed) one stream per name."""
        return [self.stream(name) for name in names]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)

