"""The ICU deployment and its traffic, driven through the public API.

Shape (one for every workload): four ward edge machines, each with 64
bedside sensors whose readings carry the secrecy tags ``medical`` and
``pt<w>-<k>``; a hub running a monitor and a triage process per ward
and a ``research`` process without patient clearance; and a nurse
station with one nurse process per ward.  Every machine has gossip-mesh
membership, wire masks, the coalescing transport and a spilling
(tiered) audit spine.

A reading travels: sensor component --ward bus--> uplink component -->
``MessagingSubstrate.send`` from the bed's kernel process --> hub
substrate --> ward monitor.  A seeded share of readings is also copied
from the ward's export process to ``research``; the hub must deny and
audit every copy.  An alarm travels sensor --ward bus--> uplink --> the
ward's triage process on the hub, whose handler forwards it to the
ward's nurse on the station.

Every run interleaves four clients in cycles, in simulated time:

1. ingest: the vitals generator (open loop in simulated time: each
   sensor publishes at a fixed period from its slot) runs for a fixed
   simulated span;
2. alarms: a closed loop with one alarm in flight; the simulator steps
   until the nurse station has it;
3. clinician queries, ``AuditQuery.by_entity(<bed>, since=now-window)``
   on the hub spine;
4. every one or two cycles, one incremental ``Deployment.verify()``.

The generator is silent outside step 1, so alarm and query times do not
depend on where stream messages happen to fall.  Between timed steps
the run collects garbage and freezes the heap (``settle_heap``), and
probes the host's speed right before and after each (``SpeedScale``).
The workloads set the sizes of the steps.  Every client runs in every
workload so every end-to-end metric exists everywhere; each workload
sizes up the client it is named after.  (Incremental verification is
costly at this commit: in ``ward-stream`` and ``nurse-call`` it takes
about as much time as the client itself; the traced ledger shows the
split.)

Seals, spills and gossip rounds are not steps of their own: they run
inside whichever step the simulator is in when they fall due, so their
cost shows in that step's metric (mostly ``stream_msgs_per_s``; an
alarm that meets one lands in the alarm tail; the dashboard backfill's
rounds and spills are in its ``setup_s``).
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis import Forbid
from repro.audit.query import AuditQuery
from repro.deploy import Deployment
from repro.ifc import SecurityContext
from repro.ifc.privileges import PrivilegeSet
from repro.middleware import Message, MessageType
from repro.middleware.component import Component, EndpointKind

import check
from tracer import NullTracer

#: Traffic assumptions.  None of these rates comes from a measured ward;
#: they are round figures for a monitored ICU, stated here so a reader can
#: change them.  Beds per ward and the reading periods of each workload
#: (``Workload.vitals_period_s``) are assumptions; so is the share of
#: readings copied to research (``Workload.research_share``).
WARDS = 4
BEDS = 64
#: A ward's sensors report in this many groups per reading period; a
#: group's sensors publish at one instant, so their uplink sends share a
#: transport batch.  Group slots are evenly interleaved across wards and
#: seeds only choose which beds share a slot: the program's cost depends
#: on how many distinct instants carry traffic, so that timing is the
#: same for every seed.
GROUPS = 8
#: Ward/station to hub one-way latency: a base plus a seeded share of
#: the jitter, so each seed has its own (fixed) network.
LINK_LATENCY_S = 0.004
LINK_JITTER_S = 0.0004
COALESCE_WINDOW_S = 0.002
MAX_BATCH = 64
#: Audit spill tiering (seal size, hot segments) and the gossip-round
#: interval are the deployment's defaults (``with_spill()``,
#: ``Deployment(mesh_interval=...)``): seals, spills and gossip rounds
#: land wherever the traffic puts them and are paid by whichever timed
#: step is running then.
#: Simulated time an alarm may take before it counts as lost.
ALARM_TIMEOUT_S = 5.0
#: Queries per cycle, after the alarms (a query over cold segments
#: evicts the CPU caches, which would slow the alarm after it).
QUERIES_PER_CYCLE = 2
#: Simulated span of one timed chunk of a set-up's backfill.
BACKFILL_CHUNK_S = 300.0
#: Simulated time allowed for in-flight traffic after the generators stop:
#: at the end of each ingest step, and at the end of a run.
LAND_S = 0.05
SETTLE_S = 1.0
#: The host-speed probe: a fixed allocate-and-walk task of this many
#: items, timed this many times (the median counts).
PROBE_ITEMS = 4000
PROBE_REPEATS = 3
#: What the probe takes on the reference host (about a 2.1 GHz core with
#: nothing else running on it).  Every timed step is reported scaled by
#: ``PROBE_REF_NS`` over the probes taken just before and just after it:
#: the time the step would have taken at the reference speed.
PROBE_REF_NS = 1_000_000
#: The clock of every timed step: CPU time of this single-threaded
#: process.  The simulator never sleeps, so on an idle host it equals
#: wall time; on a shared host it leaves out the stretches when other
#: tenants run and this process waits to be scheduled.  What it cannot
#: leave out is the speed of the core while this process runs: on a
#: shared 2-CPU host that switches between about 1x and 1.7x the fastest
#: speed, for 0.1 s to a minute at a time; see :class:`SpeedScale`.
cpu_ns = time.process_time_ns

VITALS = MessageType.simple(
    "vitals", ward=int, bed=int, seq=int,
    heart_rate=float, spo2=float, temp=float, research=bool,
)
ALARM = MessageType.simple("alarm", ward=int, bed=int, seq=int, severity=int)
BREAKGLASS = "breakglass"
BREAKGLASS_PRIVILEGE = PrivilegeSet.of(
    add_secrecy=[BREAKGLASS], remove_secrecy=[BREAKGLASS]
)


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Times are simulated seconds."""

    name: str
    why: str
    #: Interval between two readings of one sensor.
    vitals_period_s: float
    #: Ingest span per cycle.
    cycle_sim_s: float
    #: Alarms per cycle; the first one is delivered but not timed.
    alarms_per_cycle: int
    #: Query window: ``since = now - query_window_s``.
    query_window_s: float
    #: One ``Deployment.verify()`` after every this many cycles.
    verify_every: int = 1
    #: History generated during set-up, before the measured cycles.
    backfill_s: float = 0.0
    #: Break-glass on the triage process every this many alarms (0: never),
    #: standing down this many alarms later.
    breakglass_every: int = 0
    standdown_after: int = 0
    #: Share of readings also copied to the uncleared research process.
    research_share: float = 0.02
    #: Cycles per second of ``--seconds``: a run does a fixed amount of
    #: work, sized to last about that long on a 2-CPU 2.1 GHz host (the
    #: dashboard's queries make its cycles longer; see README).
    cycles_per_s: float = 1.0
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats: int = 15

    def cycles_for(self, seconds: float) -> int:
        return max(1, round(seconds * self.cycles_per_s))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ward-stream",
            "the write path with every layer on: bus, spine, masks, "
            "coalesced transport, remote decide, tick drains; few contexts",
            vitals_period_s=0.5, cycle_sim_s=1.25, alarms_per_cycle=128,
            query_window_s=0.5, verify_every=2,
            cycles_per_s=2.2,
        ),
        Workload(
            "nurse-call",
            "per-message fixed cost on a 3-machine path; nothing to batch; "
            "256-patient decision working set with break-glass relabels",
            vitals_period_s=60.0, cycle_sim_s=15.0, alarms_per_cycle=256,
            query_window_s=2.0, verify_every=2,
            cycles_per_s=2.6,
            breakglass_every=128, standdown_after=32,
        ),
        Workload(
            "dashboard-query",
            "audit read paths: hour-long patient queries over a cold tier, "
            "incremental verify after each ingest burst",
            # History is charted every 3 minutes per bed, 360 times
            # sparser than ward-stream: no segment of the hub's spill can
            # be skipped by a bed's query, so a query decodes every record
            # of its hour (about 5k here, ~1 s at this commit), and the
            # backfill must fit a set-up that repeats within a run.
            vitals_period_s=180.0, cycle_sim_s=180.0, alarms_per_cycle=64,
            query_window_s=3600.0, backfill_s=1.5 * 3600.0, cycles_per_s=1.07,
            setup_repeats=3,
            # No research copies: their seeded count would shift where
            # the hub's segments seal, and with it how many cold
            # segments an hour's query decodes.
            research_share=0.0,
        ),
    )
}


class Inputs:
    """Everything generated from the seed; the program only ever sees
    messages built from these."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{seed}:topology")
        #: Per sensor (ward-major), the first reading's offset as a
        #: share of the reading period: its group's slot, shifted by the
        #: ward's place among the wards.
        phases = []
        for w in range(WARDS):
            beds = list(range(BEDS))
            rng.shuffle(beds)
            slot = {bed: i * GROUPS // BEDS for i, bed in enumerate(beds)}
            phases += [(slot[k] + w / WARDS) / GROUPS for k in range(BEDS)]
        self.phases = tuple(phases)
        self.ward_latency = tuple(
            LINK_LATENCY_S + LINK_JITTER_S * rng.random() for _ in range(WARDS)
        )
        self.station_latency = LINK_LATENCY_S + LINK_JITTER_S * rng.random()

    def stream(self, name: str) -> random.Random:
        """An independent seeded random stream."""
        return random.Random(f"{self.seed}:{name}")

    def sample(self, n: int) -> Dict[str, object]:
        """The first ``n`` draws of every stream plus the topology."""
        def draws(name, fn):
            r = self.stream(name)
            return [fn(r) for _ in range(n)]
        return {
            "phases": self.phases,
            "ward_latency": self.ward_latency,
            "station_latency": self.station_latency,
            "vitals": draws("vitals", lambda r: r.random()),
            "research": draws("research", lambda r: r.random()),
            "alarms": draws("alarms", lambda r: r.randrange(WARDS * BEDS)),
            "queries": draws("queries", lambda r: r.randrange(WARDS * BEDS)),
        }


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1]


def tail(values: List[float], beyond: int = 10) -> Tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it:
    ``(value, percentile)``."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, n - beyond)
    return ordered[rank - 1], 100.0 * rank / n


def _ward_tags(w: int) -> List[str]:
    return ["medical"] + [f"pt{w}-{k}" for k in range(BEDS)]


class ICU:
    """One built deployment plus the clients that drive it."""

    def __init__(self, workload: Workload, inputs: Inputs, spill_dir: Path,
                 tracer=None, enforce: bool = True,
                 research_share: Optional[float] = None):
        self.workload = workload
        self.inputs = inputs
        self.spill_dir = spill_dir
        self.tracer = tracer or NullTracer()
        self.enforce = enforce
        self.research_share = (
            workload.research_share if research_share is None
            else research_share
        )
        self.streaming = False
        # What the clients sent and saw.
        self.published: List[Tuple[int, int, int]] = []
        self.research_sent: Counter = Counter()
        self.research_delivered = 0
        self.uplink_ids: List[int] = []
        self.monitor_log: List[Tuple[Tuple[int, int, int], int]] = []
        self.delays: List[float] = []
        self.hub_times: Dict[str, List[float]] = {}
        self.triage_log: List[Tuple[int, int]] = []
        self.station_log: List[Tuple[int, int]] = []
        self.alarms_sent = 0
        #: Timed samples, raw CPU time, each with its step's speed scale.
        self.alarm_us = Samples()
        self.query_ms = Samples()
        self.verify_ms = Samples()
        self.failures: List[str] = []
        self.attempted = 0
        self.query_totals = Counter()
        self.query_hits = 0
        #: Deliveries and CPU seconds of every measured ingest step.
        self.stream_delivered = 0
        self.stream_busy_s = Samples()
        self.speed = SpeedScale(self.tracer)
        self.cycles = 0
        self._alarm_seen = -1
        self._alarm_t1 = 0
        self._glass_until = -1
        self._glass_ward = 0

    # -- set-up ------------------------------------------------------------

    def setup(self) -> Tuple[float, float]:
        """Build, converge, gate (and backfill); returns CPU seconds,
        scaled and raw."""
        t = self.tracer
        speed = self.speed
        raw = scaled = 0.0
        gate = [Forbid("sensor-0-0", "research")]
        steps = [lambda: t.call("deploy.build", self._build),
                 self._instrument,
                 lambda: t.call("federation.converge", self.deploy.converge),
                 lambda: self._gate(t.call("analysis.gate",
                                           self.deploy.run_analysis_gate,
                                           gate)),
                 lambda: self.deploy.start(),
                 self._start_stream]
        # The backfill takes seconds: it is timed in chunks.
        left = self.workload.backfill_s
        while left > 0:
            chunk = min(left, BACKFILL_CHUNK_S)
            steps.append(lambda chunk=chunk: self._backfill(chunk))
            left -= chunk
        speed.mark()
        for step in steps:
            t0 = cpu_ns()
            step()
            busy = (cpu_ns() - t0) / 1e9
            raw += busy
            scaled += busy * speed.mark()
        return scaled, raw

    def _gate(self, report) -> None:
        self.attempted += 1
        if not report.ok():
            self.failures.append(f"analysis gate: {report.rows()}")

    def _backfill(self, seconds: float) -> None:
        self.streaming = True
        self._advance(seconds)
        self.streaming = False

    def _build(self) -> None:
        inputs, harness = self.inputs, self.tracer
        deploy = Deployment(
            seed=inputs.seed, name="icu", default_latency=LINK_LATENCY_S,
        )
        self.deploy = deploy

        def node(name):
            return (
                deploy.node(name)
                .with_substrate(enforce=self.enforce)
                .with_mesh()
                .with_transport(COALESCE_WINDOW_S, MAX_BATCH)
                .with_spill(self.spill_dir)
            )

        wards = [node(f"ward-{w}").with_domain() for w in range(WARDS)]
        hub, station = node("hub"), node("station")
        deploy.build()
        self.wards, self.hub, self.station = wards, hub, station
        net = deploy.network
        for w in range(WARDS):
            net.link(f"ward-{w}", "hub", latency=inputs.ward_latency[w])
        net.link("hub", "station", latency=inputs.station_latency)
        self.sim = deploy.sim

        self.triage = []
        for w in range(WARDS):
            ward_ctx = SecurityContext.of(_ward_tags(w))
            hub.launch(f"monitor-{w}", ward_ctx,
                       handler=harness.wrap("bench.harness", self._on_monitor))
            self.triage.append(hub.launch(
                f"triage-{w}", ward_ctx,
                handler=harness.wrap("bench.harness", self._on_triage),
            ))
            station.launch(
                f"nurse-{w}", ward_ctx.add_secrecy(BREAKGLASS),
                handler=harness.wrap("bench.harness", self._on_nurse),
            )
        hub.launch("research", SecurityContext.of(["research"]),
                   handler=harness.wrap("bench.harness", self._on_research))

        self.sensors: List[Tuple[object, Component]] = []
        for w, ward in enumerate(wards):
            bus, sub = ward.domain.bus, ward.substrate
            beds = [
                ward.launch(
                    f"bed-{w}-{k}",
                    SecurityContext.of(["medical", f"pt{w}-{k}"]),
                    handler=lambda addr, msg: None,
                )
                for k in range(BEDS)
            ]
            export = ward.launch("export-" + str(w),
                                 SecurityContext.of(["medical"]),
                                 handler=lambda addr, msg: None)
            uplink = Component(f"uplink-{w}", SecurityContext.of(_ward_tags(w)))
            uplink.add_endpoint(
                "vitals", EndpointKind.SINK, VITALS,
                handler=harness.wrap(
                    "bench.harness", self._uplink_vitals(w, sub, beds, export)
                ),
            )
            uplink.add_endpoint(
                "alarm", EndpointKind.SINK, ALARM,
                handler=harness.wrap("bench.harness",
                                     self._uplink_alarm(sub, beds)),
            )
            bus.register(uplink)
            for k in range(BEDS):
                sensor = Component(
                    f"sensor-{w}-{k}",
                    SecurityContext.of(["medical", f"pt{w}-{k}"]),
                )
                sensor.add_endpoint("vitals", EndpointKind.SOURCE, VITALS)
                sensor.add_endpoint("alarm", EndpointKind.SOURCE, ALARM)
                bus.register(sensor)
                bus.connect(sensor.name, sensor, "vitals", uplink, "vitals")
                bus.connect(sensor.name, sensor, "alarm", uplink, "alarm")
                self.sensors.append((bus, sensor))
                self.hub_times[f"ward-{w}/bed-{w}-{k}"] = []

    def _instrument(self) -> None:
        """Wrap each layer's public entry points (no-op when untraced)."""
        t = self.tracer
        if not t.enabled:
            return
        net = self.deploy.network
        t.patch(net, "send", "net.send")
        for node in self.wards + [self.hub, self.station]:
            sub = node.substrate
            t.patch(sub, "send", "middleware.substrate.send")
            host = net.host(node.hostname)
            host.receiver = t.wrap("middleware.substrate.receive",
                                   host.receiver)
            self._patch_plane(sub.plane)
            t.patch(sub.wire, "encode_masks", "ifc.wire.encode")
            t.patch(sub.wire, "decode_context", "ifc.wire.decode")
            spine = node.machine.audit
            t.patch(spine, "drain", "audit.spine.drain")
            t.patch(spine, "checkpoint", "audit.spine.checkpoint")
            t.patch(spine, "verify", "audit.verify")
        for ward in self.wards:
            bus = ward.domain.bus
            t.patch(bus, "publish", "middleware.bus.publish")
            self._patch_plane(bus.plane)
        machine = self.hub.machine
        t.patch(machine, "grant", "cloud.grant")
        t.patch(machine.kernel, "change_context", "cloud.change_context")

    def _patch_plane(self, plane) -> None:
        t = self.tracer
        t.patch(plane, "evaluate", "ifc.decisions.evaluate")
        t.patch(plane, "audit_allowed", "ifc.decisions.audit")
        t.patch(plane, "audit_denied", "ifc.decisions.audit")

    # -- the application: uplinks and receivers ----------------------------

    def _uplink_vitals(self, w, sub, beds, export):
        hub_sub = self.hub.substrate
        monitor = f"monitor-{w}"
        research_sent = self.research_sent
        uplink_ids = self.uplink_ids

        def forward(component, endpoint, message):
            values = message.values
            uplink_ids.append(message.msg_id)
            sub.send(beds[values["bed"]], hub_sub, monitor, message)
            if values.get("research"):
                research_sent[f"ward-{w}/export-{w}"] += 1
                sub.send(export, hub_sub, "research", message)

        return forward

    def _uplink_alarm(self, sub, beds):
        hub_sub = self.hub.substrate
        uplink_ids = self.uplink_ids

        def forward(component, endpoint, message):
            uplink_ids.append(message.msg_id)
            values = message.values
            sub.send(beds[values["bed"]], hub_sub, f"triage-{values['ward']}",
                     message)

        return forward

    def _on_monitor(self, addr: str, message: Message) -> None:
        now = self.sim.now()
        v = message.values
        self.monitor_log.append(((v["ward"], v["bed"], v["seq"]),
                                 message.msg_id))
        self.delays.append(now - message.sent_at)
        self.hub_times[addr].append(now)

    def _on_research(self, addr: str, message: Message) -> None:
        self.research_delivered += 1

    def _on_triage(self, addr: str, message: Message) -> None:
        self.hub_times[addr].append(self.sim.now())
        self.triage_log.append((message.values["seq"], message.msg_id))
        w = message.values["ward"]
        triage = self.triage[w]
        out = Message(ALARM, dict(message.values), context=triage.security)
        out.sent_at = self.sim.now()
        self.hub.substrate.send(triage, self.station.substrate,
                                f"nurse-{w}", out)

    def _on_nurse(self, addr: str, message: Message) -> None:
        self._alarm_t1 = cpu_ns()
        self._alarm_seen = message.values["seq"]
        self.station_log.append((message.values["seq"], message.msg_id))

    # -- clients -------------------------------------------------------------

    def _start_stream(self) -> None:
        sim, period = self.sim, self.workload.vitals_period_s
        vitals = self.inputs.stream("vitals").random
        research = self.inputs.stream("research").random
        share = self.research_share
        published = self.published
        self._cancels = []
        for i, (bus, sensor) in enumerate(self.sensors):
            w, k = divmod(i, BEDS)
            seq = [0]

            def publish(bus=bus, sensor=sensor, w=w, k=k, seq=seq):
                if not self.streaming:
                    return
                n = seq[0]
                seq[0] = n + 1
                published.append((w, k, n))
                bus.publish(
                    sensor, "vitals", ward=w, bed=k, seq=n,
                    heart_rate=60.0 + 40.0 * vitals(),
                    spo2=90.0 + 10.0 * vitals(),
                    temp=36.0 + 2.0 * vitals(),
                    research=research() < share,
                )

            publish = self.tracer.wrap("bench.harness", publish)

            def begin(publish=publish):
                publish()
                self._cancels.append(sim.schedule_every(period, publish))

            sim.schedule_in(self.inputs.phases[i] * period, begin)

    def _advance(self, seconds: float) -> None:
        self.tracer.call("sim.run", self.sim.run_until,
                         self.sim.now() + seconds, 1 << 40)

    def _alarm(self, beds: random.Random, timed: List[float]) -> None:
        """One alarm, closed loop; its CPU microseconds go to ``timed``
        (pass a throwaway list for an untimed alarm)."""
        w, k = divmod(beds.randrange(WARDS * BEDS), BEDS)
        bus, sensor = self.sensors[w * BEDS + k]
        wl = self.workload
        seq = self.alarms_sent
        sim = self.sim
        deadline = sim.now() + ALARM_TIMEOUT_S
        # The relabel of a break-glass step is part of the alarm it
        # comes with, as is every decision it invalidates.
        t0 = cpu_ns()
        if wl.breakglass_every and seq % wl.breakglass_every == 0:
            self._glass_ward = w
            self._break_glass(self.triage[w], add=True)
            self._glass_until = seq + wl.standdown_after
        elif seq == self._glass_until:
            self._break_glass(self.triage[self._glass_ward], add=False)
        self.alarms_sent += 1
        self.attempted += 1
        bus.publish(sensor, "alarm", ward=w, bed=k, seq=seq, severity=2)
        self.tracer.call("sim.run", self._until_nurse, seq, deadline)
        if self._alarm_seen != seq:
            self.failures.append(f"alarm {seq}: not delivered")
        else:
            timed.append((self._alarm_t1 - t0) / 1e3)

    def _until_nurse(self, seq: int, deadline: float) -> None:
        sim = self.sim
        while self._alarm_seen != seq and sim.now() < deadline:
            if not sim.step():
                break

    def _break_glass(self, triage, add: bool) -> None:
        """Grant a triage process the break-glass tag and raise it, or
        stand down; every alarm it forwards meanwhile carries the tag."""
        machine = self.hub.machine
        if add:
            machine.grant(triage.pid, BREAKGLASS_PRIVILEGE)
            proposed = triage.security.add_secrecy(BREAKGLASS)
        else:
            proposed = triage.security.remove_secrecy(BREAKGLASS)
        machine.kernel.change_context(triage.pid, proposed)

    def _query(self, beds: random.Random, query: AuditQuery) -> None:
        w, k = divmod(beds.randrange(WARDS * BEDS), BEDS)
        entity = f"ward-{w}/bed-{w}-{k}"
        since = self.sim.now() - self.workload.query_window_s
        self.attempted += 1
        self.speed.mark()
        t0 = cpu_ns()
        hits = self.tracer.call("audit.query", query.by_entity, entity,
                                since=since)
        self.query_ms.add((cpu_ns() - t0) / 1e6, self.speed.mark())
        stats = query.last_stats
        for key in ("segments_scanned", "segments_skipped",
                    "records_scanned"):
            self.query_totals[key] += getattr(stats, key)
        self.query_hits += len(hits)
        expected = 0
        if self.enforce:  # without enforcement the hub audits no delivery
            times = self.hub_times[entity]
            expected = len(times) - bisect.bisect_left(times, since)
        if len(hits) != expected:
            self.failures.append(
                f"query {entity} since {since}: {len(hits)} hits, "
                f"{expected} sent"
            )

    def _verify(self) -> None:
        self.attempted += 1
        self.speed.mark()
        t0 = cpu_ns()
        matrix = self.tracer.call("deploy.verify", self.deploy.verify)
        self.verify_ms.add((cpu_ns() - t0) / 1e6, self.speed.mark())
        if not matrix.ok():
            self.failures.append(f"verify: {dict(matrix)}")

    def run(self, cycles: int, max_seconds: float = float("inf")) -> float:
        """Run ``cycles`` cycles, stopping early once ``max_seconds`` of
        wall time have passed; returns the wall seconds."""
        wl = self.workload
        alarm_beds = self.inputs.stream("alarms")
        query_beds = self.inputs.stream("queries")
        query = AuditQuery(self.hub.machine.audit)
        start = time.perf_counter()
        while True:
            if self.cycles >= cycles:
                break
            if time.perf_counter() - start >= max_seconds:
                break
            speed = self.speed
            before = len(self.monitor_log)
            speed.mark()
            t0 = cpu_ns()
            self.streaming = True
            self._advance(wl.cycle_sim_s)
            self.streaming = False
            self._advance(LAND_S)
            self.stream_busy_s.add((cpu_ns() - t0) / 1e9, speed.mark())
            self.stream_delivered += len(self.monitor_log) - before
            # The first alarm after an ingest step runs on caches the
            # ingest evicted; it is delivered and checked but not timed.
            self._alarm(alarm_beds, [])
            speed.mark()
            block: List[float] = []
            for _ in range(wl.alarms_per_cycle - 1):
                self._alarm(alarm_beds, block)
            self.alarm_us.extend(block, speed.mark())
            for _ in range(QUERIES_PER_CYCLE):
                settle_heap(full=False)
                self._query(query_beds, query)
            self.cycles += 1
            if self.cycles % wl.verify_every == 0:
                settle_heap(full=False)
                self._verify()
            settle_heap(full=False)
        return time.perf_counter() - start

    # -- results -------------------------------------------------------------

    def finish(self) -> None:
        """Stop the generators, let in-flight traffic land, and check
        every delivery, denial, audit record and verification."""
        self.streaming = False
        for cancel in self._cancels:
            cancel()
        self._advance(SETTLE_S)
        fail = self.failures

        self.attempted += len(self.published)
        self.attempted += sum(self.research_sent.values())
        fail += check.exactly_once(
            self.published, (key for key, _ in self.monitor_log), "reading"
        )
        fail += check.exactly_once(
            range(self.alarms_sent), (s for s, _ in self.station_log),
            "alarm",
        )
        fail += check.forbidden_deliveries(self.research_delivered,
                                           "research")
        if not self.enforce:
            return  # the baseline audits no substrate traffic

        hub_ids = [mid for _, mid in self.monitor_log]
        hub_ids += [mid for _, mid in self.triage_log]
        allowed_ids, denied = check.audit_outcomes(
            self.hub.machine.audit.export(), "substrate"
        )
        fail += check.exactly_once(hub_ids, allowed_ids, "hub audit msg_id")
        fail += check.counts_match(
            {(actor, "research"): n for actor, n in self.research_sent.items()},
            denied, "hub denial",
        )
        allowed_ids, denied = check.audit_outcomes(
            self.station.machine.audit.export(), "substrate"
        )
        fail += check.exactly_once(
            [mid for _, mid in self.station_log], allowed_ids,
            "station audit msg_id",
        )
        fail += check.counts_match({}, denied, "station denial")
        bus_ids: List[int] = []
        for ward in self.wards:
            ids, denied = check.audit_outcomes(
                ward.machine.audit.export(), "bus"
            )
            bus_ids += ids
            fail += check.counts_match({}, denied, f"{ward.hostname} denial")
        fail += check.exactly_once(self.uplink_ids, bus_ids,
                                   "ward bus audit msg_id")

        self.attempted += 1
        incremental = self.deploy.verify()
        deep = self.deploy.verify(mode="deep")
        if not (incremental.ok() and deep.ok()
                and dict(incremental) == dict(deep)):
            fail.append(
                f"final verify: incremental {dict(incremental)} "
                f"deep {dict(deep)}"
            )

    def end_to_end(self, scaled: bool = True) -> Dict[str, float]:
        """The user-visible metrics of the measured cycles, with every
        time scaled to the reference speed (or ``scaled=False``: raw)."""
        def times(samples):
            return samples.scaled() if scaled else samples.raw
        query_ms = times(self.query_ms)
        alarm_us = times(self.alarm_us)
        q_tail, q_pct = tail(query_ms)
        return {
            "stream_msgs_per_s":
                self.stream_delivered / sum(times(self.stream_busy_s)),
            "stream_sim_delay_p99_ms": 1e3 * percentile(self.delays, 99),
            "alarm_p50_us": percentile(alarm_us, 50),
            "alarm_p99_us": percentile(alarm_us, 99),
            "query_p50_ms": percentile(query_ms, 50),
            "query_tail_ms": q_tail,
            "query_tail_pct": q_pct,
            "verify_p50_ms": percentile(times(self.verify_ms), 50),
        }

    def layer_counters(self) -> Dict[str, float]:
        """Lifetime counters of the deployment's planes."""
        nodes = self.wards + [self.hub, self.station]
        subs = [node.substrate for node in nodes]
        planes = [sub.plane for sub in subs]
        planes += [ward.domain.bus.plane for ward in self.wards]
        caches = list({id(p.cache): p.cache for p in planes}.values())
        hits = sum(c.hits for c in caches)
        misses = sum(c.misses for c in caches)
        sent = sum(s.stats.sent for s in subs)
        masked = sum(s.stats.sent_masked for s in subs)
        net = self.deploy.network
        tier = Counter()
        verify = Counter()
        records = 0
        for node in nodes:
            spine = node.machine.audit
            records += len(spine)
            tier.update({k: v for k, v in spine.tier_stats().items()
                         if k in ("seals", "demotions", "spill_bytes",
                                  "cold_loads")})
            stats = spine.verify_stats()
            verify["bytes_hashed"] += stats["bytes_hashed"]
            verify["segments_skipped"] += stats["segments_skipped"]
        scanned = self.query_totals["records_scanned"]
        mesh = self.deploy.mesh
        return {
            "middleware.substrate.delivered": sum(s.stats.delivered
                                                  for s in subs),
            "middleware.substrate.denied_remote": sum(s.stats.denied_remote
                                                      for s in subs),
            "middleware.substrate.sent_masked": masked,
            "ifc.decisions.hit_rate": hits / (hits + misses),
            "ifc.decisions.misses": misses,
            "ifc.wire.masked_share": masked / sent,
            "net.batches": net.transport_stats.batches,
            "net.mean_batch_size": net.transport_stats.mean_batch_size,
            "net.bytes": sum(net.stats.bytes_by_kind.values()),
            "sim.events": self.sim.events_processed,
            "audit.spine.records": records,
            "audit.storage.seals": tier["seals"],
            "audit.storage.demotions": tier["demotions"],
            "audit.storage.spill_bytes": tier["spill_bytes"],
            "audit.storage.cold_loads": tier["cold_loads"],
            "audit.query.segments_scanned":
                self.query_totals["segments_scanned"],
            "audit.query.segments_skipped":
                self.query_totals["segments_skipped"],
            "audit.query.records_scanned": scanned,
            "audit.query.hit_ratio": self.query_hits / scanned if scanned
            else 0.0,
            "audit.verify.bytes_hashed": verify["bytes_hashed"],
            "audit.verify.segments_skipped": verify["segments_skipped"],
            "federation.rounds": mesh.stats.rounds,
            "federation.gossip_bytes": mesh.control_bytes(),
        }

    def close(self) -> None:
        shutil.rmtree(self.spill_dir, ignore_errors=True)


def speed_probe() -> int:
    """CPU nanoseconds a fixed allocate-and-walk task takes right now
    (median of ``PROBE_REPEATS``).  The task uses nothing of the program
    under test, so a change to the program does not change it."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = cpu_ns()
        items = [(i, str(i), {"k": i}) for i in range(PROBE_ITEMS)]
        sum(item[0] for item in items)
        times.append(cpu_ns() - start)
    return sorted(times)[PROBE_REPEATS // 2]


class SpeedScale:
    """Probes the host's speed around timed steps.

    :meth:`mark` probes now and returns the scale for the step that ran
    since the previous mark: ``PROBE_REF_NS`` over the mean of the two
    probes.  A step's CPU time times its scale is the time it would have
    taken at the reference speed.  Call ``mark()`` right before a timed
    step (ignoring the result) and right after it."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.probes: List[int] = []

    def mark(self) -> float:
        now = self.tracer.call("bench.harness", speed_probe)
        before = self.probes[-1] if self.probes else now
        self.probes.append(now)
        return 2 * PROBE_REF_NS / (before + now)


class Samples:
    """Raw timed samples, each with the speed scale of its step."""

    def __init__(self):
        self.raw: List[float] = []
        self.scales: List[float] = []

    def add(self, value: float, scale: float) -> None:
        self.raw.append(value)
        self.scales.append(scale)

    def extend(self, values: List[float], scale: float) -> None:
        self.raw.extend(values)
        self.scales.extend([scale] * len(values))

    def scaled(self) -> List[float]:
        return [v * s for v, s in zip(self.raw, self.scales)]

    def __len__(self) -> int:
        return len(self.raw)


def settle_heap(full: bool) -> None:
    """Collect, then freeze every survivor out of the collector's view.

    Called only between timed steps (after each cycle and each query).
    The benchmark's own logs grow the heap through a run; without this,
    full collections over them, or over a query's decoded records, land
    at random points inside later timed steps.  ``full`` also returns
    earlier freezes to the collector (between set-ups)."""
    if full:
        gc.unfreeze()
        gc.collect()
    else:
        gc.collect(1)
    gc.freeze()


def fresh(workload: Workload, inputs: Inputs, work_dir: Path, tag: str,
          **kwargs) -> ICU:
    """A new, not yet set-up ICU with its own spill directory."""
    settle_heap(full=True)
    work_dir.mkdir(parents=True, exist_ok=True)
    spill = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=work_dir))
    return ICU(workload, inputs, spill, **kwargs)
