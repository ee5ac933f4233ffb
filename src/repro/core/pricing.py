"""Price bookkeeping.

With speak-up "the price for access ... emerges naturally" (§3.2, §3.3): it
is simply the number of bytes the winning bid delivered.  A deployment keeps
one book that every thinner it builds records its winning bids into, so the
evaluation can reproduce Figure 5 (average price per served request, by
client class, against the upper bound (G+B)/c) and so operators could expose
a "price tag" (§9).
"""

from __future__ import annotations

from typing import Dict


class PriceBook:
    """Running per-class totals of winning bids: O(classes) state.

    Bids add up in the order they are recorded, so a deployment whose
    thinners share one book sums them in event order.
    """

    def __init__(self) -> None:
        self._sums: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def record(self, price_bytes: float, client_class: str) -> None:
        """Record the winning bid of one auction."""
        if price_bytes < 0:
            raise ValueError(f"price cannot be negative, got {price_bytes}")
        self._sums[client_class] = self._sums.get(client_class, 0.0) + price_bytes
        self._counts[client_class] = self._counts.get(client_class, 0) + 1

    def __len__(self) -> int:
        return sum(self._counts.values())

    def average_by_class(self) -> Dict[str, float]:
        """Mean winning bid per client class (the two bars of Figure 5)."""
        return {cls: self._sums[cls] / self._counts[cls] for cls in self._sums}
