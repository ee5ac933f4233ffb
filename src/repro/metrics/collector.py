"""Turn a finished :class:`~repro.core.frontend.Deployment` run into numbers.

The quantities mirror what the paper's figures report:

* *server allocation* to a class or category — the fraction of served
  requests (and, separately, of server busy time) that went to it
  (Figures 2, 3, 6, 7, 8);
* *fraction of good requests served* (Figures 3 and 8);
* *payment time* of served good requests (Figure 4);
* *average price* per served request by class, against the (G+B)/c upper
  bound (Figure 5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import codec
from repro.metrics.summary import Summary, mean, ratio, summarise
from repro.telemetry.collector import TelemetryMetrics

#: The deployment timeline actions an adaptive controller writes; every
#: other action is a fault transition or a health-prober verdict.
ENGAGEMENT_ACTIONS = ("engage", "disengage")


@dataclass
class StageMetrics:
    """One pipeline screening stage's work (per thinner shard).

    ``screened`` counts every request the stage examined; ``rejected`` the
    ones it dropped before the admission thinner saw them.  Present only
    for pipeline defenses.
    """

    name: str
    screened: int = 0
    rejected: int = 0

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


@dataclass
class EngagementMetrics:
    """When an adaptive defense was engaged over a run (per thinner shard).

    ``transitions`` holds the (time, engaged) switch events in order: the
    shard's ``"engage"``/``"disengage"`` entries of the deployment's
    timeline.  The run starts disengaged at t=0, so a shard that never
    switched has none.  Present only for adaptive defenses.
    """

    duration: float
    transitions: List[List] = field(default_factory=list)

    @property
    def first_engaged_at(self) -> Optional[float]:
        for time, engaged in self.transitions:
            if engaged:
                return time
        return None

    @property
    def time_engaged(self) -> float:
        """Total simulated seconds the inner defense was on."""
        total, engaged_since = 0.0, None
        for time, engaged in self.transitions:
            if engaged and engaged_since is None:
                engaged_since = time
            elif not engaged and engaged_since is not None:
                total += time - engaged_since
                engaged_since = None
        if engaged_since is not None:
            total += self.duration - engaged_since
        return total

    @property
    def engaged_fraction(self) -> float:
        return ratio(self.time_engaged, self.duration)

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


@dataclass
class FailoverMetrics:
    """What a fault plan did to a run (kills, heals, and their fallout).

    Present only when the deployment ran with a non-empty
    :class:`~repro.faults.spec.FaultPlan`; fault-free runs carry no
    failover key at all, keeping their serialised form byte-identical to
    pre-fault-layer results.

    ``timeline`` is the deployment's timeline less the adaptive controllers'
    engagement switches: the executed ``[time, action, shard]`` fault
    transitions and health-prober ejections and readmits, in engine order
    (no-op kills of dead shards and heals of live ones are not recorded).
    The six transition counts (kills, heals, degrades, stalls, ejections,
    readmits) count its actions.  ``service_samples`` is the cumulative
    good-client served count sampled on the plan's cadence,
    ``[time, served]`` — difference neighbouring samples to get a service
    rate through the pulse.
    ``retry_samples`` is the parallel cumulative retry accounting,
    ``[time, sent, retried, suppressed]`` over the good clients — the
    series retry-amplification numbers are differenced from.

    Every post-fail-stop field (gray-failure transition counters, prober
    counters, retry totals and samples) is ``OMIT_DEFAULT``: it is written
    only when non-zero or non-empty, so a kill/heal-only run's dictionary
    is byte-identical to earlier releases.
    """

    kills: int = 0
    heals: int = 0
    repinned_clients: int = 0
    orphaned_requests: int = 0
    #: Gray-failure transitions that took effect (degrade/stall starts) and
    #: uploads the lossy fault swallowed.
    degrades: int = field(default=0, metadata=codec.OMIT_DEFAULT)
    stalls: int = field(default=0, metadata=codec.OMIT_DEFAULT)
    lossy_uploads: int = field(default=0, metadata=codec.OMIT_DEFAULT)
    #: Health-prober outcome: ejections, probation readmits, clients moved
    #: off ejected shards, and individual per-shard probe observations.
    ejections: int = field(default=0, metadata=codec.OMIT_DEFAULT)
    readmits: int = field(default=0, metadata=codec.OMIT_DEFAULT)
    ejected_repins: int = field(default=0, metadata=codec.OMIT_DEFAULT)
    probe_samples: int = field(default=0, metadata=codec.OMIT_DEFAULT)
    #: Client retry totals (attempted and budget-suppressed), fleet-wide.
    retries_attempted: int = field(default=0, metadata=codec.OMIT_DEFAULT)
    retries_suppressed: int = field(default=0, metadata=codec.OMIT_DEFAULT)
    timeline: List[List] = field(default_factory=list)
    service_samples: List[List] = field(default_factory=list)
    retry_samples: List[List] = field(default_factory=list, metadata=codec.OMIT_DEFAULT)

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


@dataclass
class ClassMetrics:
    """Aggregates over all clients of one class ("good" or "bad")."""

    client_class: str
    clients: int = 0
    aggregate_bandwidth_bps: float = 0.0
    issued: int = 0
    served: int = 0
    denied: int = 0
    dropped: int = 0
    #: Upload retries the class's clients fired and budget-suppressed
    #: (zero — and absent from the serialised form — without retry policies).
    retries_attempted: int = field(default=0, metadata=codec.OMIT_DEFAULT)
    retries_suppressed: int = field(default=0, metadata=codec.OMIT_DEFAULT)
    bytes_paid: float = 0.0
    payment_time: Summary = field(default_factory=lambda: summarise([]))
    response_time: Summary = field(default_factory=lambda: summarise([]))
    mean_price_bytes: float = 0.0

    @property
    def finished(self) -> int:
        return self.served + self.denied + self.dropped

    @property
    def served_fraction(self) -> float:
        """Fraction of requests with an outcome that were served."""
        return ratio(self.served, self.finished)

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


@dataclass
class ShardMetrics:
    """Per-front-end breakdown of a thinner-fleet run (§4.3 scale-out).

    One entry per thinner shard: how many clients the dispatch policy pinned
    to it, the admission work its thinner did, and the payment traffic it had
    to sink — the quantity §4.3's provisioning estimates size each front-end
    for.  Single-thinner runs carry exactly one entry.  ``stages`` and
    ``engagement`` are written only when set, so every non-composite
    defense's entry keeps the schema of earlier releases.
    """

    shard: int
    thinner_host: str = ""
    clients: int = 0
    good_clients: int = 0
    bad_clients: int = 0
    aggregate_bandwidth_bps: float = 0.0
    requests_received: int = 0
    requests_admitted: int = 0
    requests_served: int = 0
    requests_dropped: int = 0
    free_admissions: int = 0
    auctions_held: int = 0
    payment_bytes_sunk: float = 0.0
    #: Payment bytes the shard's clients delivered (closed + still-open
    #: channels) — the empirical per-shard inflow the provisioning curve
    #: compares against ``(G + B) / shards``.
    client_bytes_paid: float = 0.0
    served_by_class: Dict[str, int] = field(default_factory=dict)
    received_by_class: Dict[str, int] = field(default_factory=dict)
    #: Pipeline front-stage attribution; empty outside pipeline defenses.
    stages: List[StageMetrics] = field(default_factory=list, metadata=codec.OMIT_DEFAULT)
    #: Adaptive engagement windows; None outside adaptive defenses.
    engagement: Optional[EngagementMetrics] = field(
        default=None, metadata=codec.OMIT_DEFAULT
    )

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)


@dataclass
class RunResult:
    """Everything the experiments and benchmarks need from one run.

    ``to_dict`` is the stable schema of sweep results files and ``--out``
    documents; ``failover`` and ``telemetry`` are written only when set, so
    fault-free, full-mode results keep the schema of earlier releases.
    """

    duration: float
    defense: str
    server_capacity_rps: float
    good: ClassMetrics
    bad: ClassMetrics
    total_served: int = 0
    server_busy_time: float = 0.0
    allocation_by_class: Dict[str, float] = field(default_factory=dict)
    busy_allocation_by_class: Dict[str, float] = field(default_factory=dict)
    allocation_by_category: Dict[str, float] = field(default_factory=dict)
    served_by_category: Dict[str, int] = field(default_factory=dict)
    served_fraction_by_category: Dict[str, float] = field(default_factory=dict)
    mean_price_by_class: Dict[str, float] = field(default_factory=dict)
    price_upper_bound_bytes: float = 0.0
    auctions_held: int = 0
    free_admissions: int = 0
    payment_bytes_sunk: float = 0.0
    good_bandwidth_bps: float = 0.0
    bad_bandwidth_bps: float = 0.0
    #: Per-thinner-shard breakdown; a single entry outside fleet runs.
    shards: List[ShardMetrics] = field(default_factory=list)
    #: Fault-plan outcome; only set when the run injected faults.
    failover: Optional[FailoverMetrics] = field(default=None, metadata=codec.OMIT_DEFAULT)
    #: Rollup-mode measurement summary; only set when the run collected
    #: through the bounded telemetry plane.
    telemetry: Optional[TelemetryMetrics] = field(default=None, metadata=codec.OMIT_DEFAULT)

    # -- the headline numbers ----------------------------------------------------

    @property
    def good_allocation(self) -> float:
        """Fraction of the server allocated to good clients (Figures 2/3)."""
        return self.allocation_by_class.get("good", 0.0)

    @property
    def bad_allocation(self) -> float:
        """Fraction of the server allocated to bad clients."""
        return self.allocation_by_class.get("bad", 0.0)

    @property
    def good_fraction_served(self) -> float:
        """Fraction of good requests that were served (Figure 3's third bar)."""
        return self.good.served_fraction

    @property
    def ideal_good_allocation(self) -> float:
        """The bandwidth-proportional ideal G/(G+B)."""
        return ratio(self.good_bandwidth_bps, self.good_bandwidth_bps + self.bad_bandwidth_bps)

    @property
    def server_utilisation(self) -> float:
        return ratio(self.server_busy_time, self.duration)

    @property
    def engagement(self) -> Optional[EngagementMetrics]:
        """The single-thinner run's engagement windows (adaptive defenses).

        Fleet runs carry one :class:`EngagementMetrics` per shard in
        :attr:`shards` (each shard's watcher engages independently); this
        convenience view is only defined when there is exactly one.
        """
        if len(self.shards) == 1:
            return self.shards[0].engagement
        return None

    @property
    def stages(self) -> List[StageMetrics]:
        """Pipeline stage totals summed across shards (empty otherwise)."""
        totals: Dict[str, StageMetrics] = {}
        order: List[str] = []
        for shard in self.shards:
            for stage in shard.stages:
                if stage.name not in totals:
                    totals[stage.name] = StageMetrics(name=stage.name)
                    order.append(stage.name)
                totals[stage.name].screened += stage.screened
                totals[stage.name].rejected += stage.rejected
        return [totals[name] for name in order]

    def as_dict(self) -> dict:
        """Flat dictionary, convenient for printing and JSON dumps."""
        return {
            "duration": self.duration,
            "defense": self.defense,
            "capacity_rps": self.server_capacity_rps,
            "good_allocation": self.good_allocation,
            "bad_allocation": self.bad_allocation,
            "ideal_good_allocation": self.ideal_good_allocation,
            "good_fraction_served": self.good_fraction_served,
            "good_served": self.good.served,
            "bad_served": self.bad.served,
            "good_denied": self.good.denied,
            "mean_payment_time_good": self.good.payment_time.mean,
            "p90_payment_time_good": self.good.payment_time.p90,
            "mean_price_good": self.mean_price_by_class.get("good", 0.0),
            "mean_price_bad": self.mean_price_by_class.get("bad", 0.0),
            "price_upper_bound": self.price_upper_bound_bytes,
            "auctions_held": self.auctions_held,
            "server_utilisation": self.server_utilisation,
        }

    # -- stable serialisation (the sweep results store's schema) -----------------

    to_dict = codec.to_dict
    from_dict = classmethod(codec.from_dict)
    to_json = codec.to_json
    from_json = classmethod(codec.from_json)


def _collect_class(deployment, client_class: str) -> ClassMetrics:
    clients = deployment.clients_of_class(client_class)
    metrics = ClassMetrics(client_class=client_class, clients=len(clients))
    telemetry = getattr(deployment, "telemetry", None)
    payment_times: List[float] = []
    response_times: List[float] = []
    prices: List[float] = []
    for client in clients:
        stats = client.stats
        metrics.aggregate_bandwidth_bps += client.upload_bandwidth_bps
        metrics.issued += stats.issued
        metrics.served += stats.served
        metrics.denied += stats.denied
        metrics.dropped += stats.dropped
        metrics.retries_attempted += stats.retries_attempted
        metrics.retries_suppressed += stats.retries_suppressed
        metrics.bytes_paid += client.total_bytes_spent()
        if telemetry is None:
            payment_times.extend(stats.payment_times)
            response_times.extend(stats.response_times)
            prices.extend(stats.prices)
    if telemetry is not None:
        # Rollup mode: the bounded collector already folded every served
        # request; per-client lists stayed empty by construction.
        payment_summary, response_summary, mean_price = telemetry.class_summaries(
            client_class
        )
        metrics.payment_time = payment_summary
        metrics.response_time = response_summary
        metrics.mean_price_bytes = mean_price
    else:
        metrics.payment_time = summarise(payment_times)
        metrics.response_time = summarise(response_times)
        metrics.mean_price_bytes = mean(prices)
    return metrics


def _merge_counts(targets: List[Dict], *sources) -> None:
    """Sum per-key dictionaries from ``sources`` into parallel ``targets``."""
    for target, source in zip(targets, sources):
        for key, value in source.items():
            target[key] = target.get(key, 0) + value


class _MergedServerStats:
    """The union of several shards' server stats (partitioned fleets).

    Presents the subset of :class:`~repro.httpd.server.ServerStats` the
    collector reads.  A single-server deployment never goes through this
    class (the one real stats object is used directly, keeping the floats
    byte-identical to the historical single-thinner path).
    """

    def __init__(self, stats_list) -> None:
        self.served = sum(stats.served for stats in stats_list)
        self.busy_time = sum(stats.busy_time for stats in stats_list)
        self.served_by_class: Dict[str, int] = {}
        self.busy_time_by_class: Dict[str, float] = {}
        self.served_by_category: Dict[str, int] = {}
        self.busy_time_by_category: Dict[str, float] = {}
        for stats in stats_list:
            _merge_counts(
                [
                    self.served_by_class,
                    self.busy_time_by_class,
                    self.served_by_category,
                    self.busy_time_by_category,
                ],
                stats.served_by_class,
                stats.busy_time_by_class,
                stats.served_by_category,
                stats.busy_time_by_category,
            )

    def allocation_by_class(self) -> Dict[str, float]:
        total = sum(self.served_by_class.values())
        if total == 0:
            return {}
        return {cls: count / total for cls, count in self.served_by_class.items()}

    def allocation_by_category(self) -> Dict[str, float]:
        total = sum(self.served_by_category.values())
        if total == 0:
            return {}
        return {cat: count / total for cat, count in self.served_by_category.items()}


def _collect_shards(deployment) -> List[ShardMetrics]:
    """One :class:`ShardMetrics` per thinner front-end."""
    shards: List[ShardMetrics] = []
    for index, thinner in enumerate(deployment.thinners):
        stats = thinner.stats
        metrics = ShardMetrics(
            shard=index,
            thinner_host=deployment.thinner_hosts[index].name,
            requests_received=stats.requests_received,
            requests_admitted=stats.requests_admitted,
            requests_served=stats.requests_served,
            requests_dropped=stats.requests_dropped,
            free_admissions=stats.free_admissions,
            auctions_held=stats.auctions_held,
            payment_bytes_sunk=stats.payment_bytes_sunk,
            served_by_class=dict(stats.served_by_class),
            received_by_class=dict(stats.received_by_class),
        )
        stage_triples = getattr(thinner, "stage_metrics", None)
        if stage_triples:
            metrics.stages = [
                StageMetrics(name=name, screened=screened, rejected=rejected)
                for name, screened, rejected in stage_triples
            ]
        if hasattr(thinner, "engaged"):  # an adaptive controller
            metrics.engagement = EngagementMetrics(
                duration=deployment.duration,
                transitions=[
                    [float(time), action == "engage"]
                    for time, action, shard in deployment.timeline
                    if shard == index and action in ENGAGEMENT_ACTIONS
                ],
            )
        shards.append(metrics)
    # One pass over the clients (not one scan per shard) to attribute them.
    for client in deployment.clients:
        metrics = shards[getattr(client, "shard", 0)]
        metrics.clients += 1
        if client.client_class == "good":
            metrics.good_clients += 1
        elif client.client_class == "bad":
            metrics.bad_clients += 1
        metrics.aggregate_bandwidth_bps += client.upload_bandwidth_bps
        metrics.client_bytes_paid += client.total_bytes_spent()
    return shards


def _collect_failover(deployment, good, bad) -> Optional[FailoverMetrics]:
    """Failover metrics when faults were injected or a prober ran, else None."""
    injector = deployment.fault_injector
    prober = deployment.health_prober
    if injector is None and prober is None:
        return None
    timeline = [
        [float(time), action, int(shard)]
        for time, action, shard in deployment.timeline
        if action not in ENGAGEMENT_ACTIONS
    ]
    counts = Counter(action for _time, action, _shard in timeline)
    metrics = FailoverMetrics(
        kills=counts["kill"],
        heals=counts["heal"],
        degrades=counts["degrade"],
        stalls=counts["stall"],
        ejections=counts["eject"],
        readmits=counts["readmit"],
        retries_attempted=good.retries_attempted + bad.retries_attempted,
        retries_suppressed=good.retries_suppressed + bad.retries_suppressed,
        timeline=timeline,
    )
    if injector is not None:
        metrics.repinned_clients = injector.repinned_clients
        metrics.orphaned_requests = injector.orphaned_requests
        metrics.lossy_uploads = injector.lossy_uploads
        metrics.service_samples = [
            [float(time), int(served)] for time, served in injector.service_samples
        ]
        metrics.retry_samples = [
            [float(time), int(sent), int(retried), int(suppressed)]
            for time, sent, retried, suppressed in injector.retry_samples
        ]
    if prober is not None:
        metrics.ejected_repins = prober.repinned_clients
        metrics.probe_samples = prober.probe_samples
    return metrics


def collect(deployment) -> RunResult:
    """Build a :class:`RunResult` from a deployment that has finished running."""
    good = _collect_class(deployment, "good")
    bad = _collect_class(deployment, "bad")
    servers = deployment.servers
    if len(servers) == 1:
        server_stats = servers[0].stats
    else:
        server_stats = _MergedServerStats([server.stats for server in servers])
    thinners = deployment.thinners

    good_bw = deployment.aggregate_bandwidth_bps("good")
    bad_bw = deployment.aggregate_bandwidth_bps("bad")
    capacity = deployment.config.server_capacity_rps
    upper_bound = ratio(good_bw + bad_bw, 8.0 * capacity)  # bytes per request

    served_by_category = dict(server_stats.served_by_category)
    allocation_by_category = server_stats.allocation_by_category()

    # Served and finished requests per client category.
    tallies: Dict[str, List[int]] = {}
    for client in deployment.clients:
        if client.category is None:
            continue
        stats = client.stats
        tally = tallies.setdefault(client.category, [0, 0])
        tally[0] += stats.served
        tally[1] += stats.served + stats.denied + stats.dropped
    served_fraction_by_category = {
        category: ratio(served, finished) for category, (served, finished) in tallies.items()
    }

    return RunResult(
        duration=deployment.duration,
        defense=deployment.defense_label,
        server_capacity_rps=capacity,
        good=good,
        bad=bad,
        total_served=server_stats.served,
        server_busy_time=server_stats.busy_time,
        allocation_by_class=server_stats.allocation_by_class(),
        busy_allocation_by_class={
            cls: ratio(busy, server_stats.busy_time)
            for cls, busy in server_stats.busy_time_by_class.items()
        },
        allocation_by_category=allocation_by_category,
        served_by_category=served_by_category,
        served_fraction_by_category=served_fraction_by_category,
        mean_price_by_class=deployment.prices.average_by_class(),
        price_upper_bound_bytes=upper_bound,
        auctions_held=sum(thinner.stats.auctions_held for thinner in thinners),
        free_admissions=sum(thinner.stats.free_admissions for thinner in thinners),
        payment_bytes_sunk=sum(
            thinner.stats.payment_bytes_sunk for thinner in thinners
        ),
        good_bandwidth_bps=good_bw,
        bad_bandwidth_bps=bad_bw,
        shards=_collect_shards(deployment),
        failover=_collect_failover(deployment, good, bad),
        telemetry=(
            deployment.telemetry.metrics()
            if getattr(deployment, "telemetry", None) is not None
            else None
        ),
    )
