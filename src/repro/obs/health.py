"""Overlay health timeseries: per-round structural snapshots, O(dirty-set).

The construction simulator already measures *quality* every round
(:mod:`repro.core.convergence`), but quality is one number per facet.
What regressions and soak incidents need is the *shape* of the overlay
over time — where the depth mass sits, how much fanout slack is left and
where, how many nodes are orphaned, how hard the churn process is
hitting — cheap enough to leave on for an N=100k run.

The trick is that almost nothing changes between two rounds: the
:class:`~repro.core.index.ChainIndex` already visits exactly the nodes
whose chain metadata moved, so a :class:`HealthRecorder` taps that
traversal (a *watch set* of the index: the recorder's dirty set) and
maintains its aggregates incrementally — remove the node's old
contribution, add its new one.  A capture therefore costs O(|dirty|),
not O(N); a quiet round costs nearly nothing.  Samples land in a bounded
:class:`~repro.obs.rings.RingBuffer` (the flight recorder), so memory
stays flat no matter how long the run is.

Like probes, the recorder is strictly read-only: it never consumes RNG
and never changes a simulation outcome (pinned by the determinism guard
in ``tests/test_obs_v2.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from repro.obs.rings import RingBuffer
from repro.obs.trace import SOURCE_ID


@dataclasses.dataclass(frozen=True)
class HealthConfig:
    """How a run captures health samples.

    ``every`` samples one round in ``every`` (aggregate maintenance
    still happens each round — it must, to stay incremental — but only
    sampled rounds are retained); ``capacity`` bounds the flight
    recorder.  Frozen and picklable so it can ride inside a
    :class:`~repro.sim.runner.SimulationConfig` across process
    boundaries (:mod:`repro.par`).
    """

    every: int = 1
    capacity: int = 512

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"health.every must be >= 1, got {self.every}")
        if self.capacity < 1:
            raise ValueError(
                f"health.capacity must be >= 1, got {self.capacity}"
            )


@dataclasses.dataclass(frozen=True)
class HealthSample:
    """One round's structural snapshot.

    ``depth_hist`` counts rooted online consumers by their delay;
    ``slack_hist`` counts online consumers by free fanout (how much
    attach capacity the overlay holds, and how concentrated it is);
    ``dirty`` is the number of per-node updates this capture actually
    paid for — the O(dirty-set) receipt.
    """

    round: int
    online: int
    rooted: int
    satisfied: int
    #: Online consumers that are parentless (fragment heads).
    orphans: int
    #: Online consumers whose chain does not reach the source.
    unrooted: int
    #: Online consumers currently violating their constraint.
    violation_pressure: int
    max_depth: int
    depth_hist: Dict[int, int]
    slack_hist: Dict[int, int]
    churn_out: int
    churn_in: int
    #: Structural mutations since the previous capture.
    attaches: int
    detaches: int
    dirty: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (histogram keys become strings)."""
        payload = dataclasses.asdict(self)
        payload["kind"] = "health-sample"
        payload["depth_hist"] = {str(k): v for k, v in self.depth_hist.items()}
        payload["slack_hist"] = {str(k): v for k, v in self.slack_hist.items()}
        return payload


def sample_from_dict(payload: Dict[str, Any]) -> HealthSample:
    """Rebuild a :class:`HealthSample` from its :meth:`~HealthSample.to_dict`
    form (inverse string-keyed histograms included)."""
    fields = {
        k: v for k, v in payload.items() if k != "kind"
    }
    fields["depth_hist"] = {
        int(k): v for k, v in payload.get("depth_hist", {}).items()
    }
    fields["slack_hist"] = {
        int(k): v for k, v in payload.get("slack_hist", {}).items()
    }
    return HealthSample(**fields)


#: Mirror entry: (online, orphan, rooted, satisfied, delay, slack).
_Contribution = Tuple[bool, bool, bool, bool, int, int]


class HealthRecorder:
    """Incremental structural aggregates plus the flight-recorder ring.

    Installing the recorder asks the overlay's chain index for a watch
    set of its own (:meth:`~repro.core.index.ChainIndex.watch`: the ids
    of re-indexed nodes — nodes the index traversal already visits — so
    any number of recorders and the continuous engine can follow one
    overlay side by side); :meth:`capture` drains it, updates the
    aggregates by removing each dirty node's previous contribution and
    adding its current one, and appends a :class:`HealthSample` on
    sampled rounds.
    """

    def __init__(self, overlay, config: Optional[HealthConfig] = None) -> None:
        self.overlay = overlay
        self.config = config if config is not None else HealthConfig()
        self.samples: RingBuffer[HealthSample] = RingBuffer(
            self.config.capacity
        )
        self._mirror: Dict[int, _Contribution] = {}
        self._online = 0
        self._orphans = 0
        self._rooted = 0
        self._satisfied = 0
        self._depth_hist: Dict[int, int] = {}
        self._slack_hist: Dict[int, int] = {}
        self._last_attaches = overlay.attach_count
        self._last_detaches = overlay.detach_count
        # From here on every re-indexed node id is noted.
        self._dirty = overlay.chain_index.watch()
        for node in overlay.consumers:
            self._apply(node.node_id, self._contribution(node), +1)

    # ------------------------------------------------------------------

    def _contribution(self, node) -> _Contribution:
        store = self.overlay.store
        i = node.node_id
        online = node.online
        delay = store.delay[i]
        rooted = online and store.root[i] == SOURCE_ID
        return (
            online,
            online and node.parent is None,
            rooted,
            rooted and delay <= node.latency,
            delay,
            node.free_fanout,
        )

    def _apply(self, node_id: int, contribution: _Contribution, sign: int) -> None:
        online, orphan, rooted, satisfied, delay, slack = contribution
        if sign > 0:
            self._mirror[node_id] = contribution
        if not online:
            return
        self._online += sign
        if orphan:
            self._orphans += sign
        if rooted:
            self._rooted += sign
            hist = self._depth_hist
            updated = hist.get(delay, 0) + sign
            if updated:
                hist[delay] = updated
            else:
                del hist[delay]
        if satisfied:
            self._satisfied += sign
        hist = self._slack_hist
        updated = hist.get(slack, 0) + sign
        if updated:
            hist[slack] = updated
        else:
            del hist[slack]

    def _drain(self) -> int:
        """Fold the dirty set into the aggregates; returns its size."""
        dirty = self._dirty
        if not dirty:
            return 0
        count = len(dirty)
        nodes = self.overlay._nodes
        for node_id in dirty:
            previous = self._mirror.get(node_id)
            if previous is not None:
                self._apply(node_id, previous, -1)
                del self._mirror[node_id]
            node = nodes.get(node_id)
            if node is None or node.is_source:
                continue
            self._apply(node_id, self._contribution(node), +1)
        dirty.clear()
        return count

    # ------------------------------------------------------------------

    def capture(
        self, now: int, departures: int = 0, rejoins: int = 0
    ) -> Optional[HealthSample]:
        """End-of-round capture: drain the dirty set, maybe sample.

        Returns the new sample, or ``None`` on skipped rounds
        (``config.every > 1``).  The drain runs unconditionally so the
        incremental aggregates never fall behind the overlay.
        """
        dirty = self._drain()
        if now % self.config.every != 0:
            return None
        attaches = self.overlay.attach_count
        detaches = self.overlay.detach_count
        sample = HealthSample(
            round=now,
            online=self._online,
            rooted=self._rooted,
            satisfied=self._satisfied,
            orphans=self._orphans,
            unrooted=self._online - self._rooted,
            violation_pressure=self._online - self._satisfied,
            max_depth=max(self._depth_hist, default=0),
            depth_hist=dict(sorted(self._depth_hist.items())),
            slack_hist=dict(sorted(self._slack_hist.items())),
            churn_out=departures,
            churn_in=rejoins,
            attaches=attaches - self._last_attaches,
            detaches=detaches - self._last_detaches,
            dirty=dirty,
        )
        self._last_attaches = attaches
        self._last_detaches = detaches
        self.samples.append(sample)
        return sample

    def records(self) -> list:
        """The held samples as JSON-ready dicts, oldest-first."""
        return [sample.to_dict() for sample in self.samples]

    # ------------------------------------------------------------------

    def verify(self) -> None:
        """Cross-check the incremental aggregates against a full rescan.

        The health analogue of :meth:`~repro.core.index.ChainIndex.verify`:
        recompute every aggregate from scratch and raise ``ValueError``
        on the first divergence.  Test/debug hook; never called on the
        hot path.
        """
        self._drain()  # fold any pending mutations first
        online = orphans = rooted = satisfied = 0
        depth_hist: Dict[int, int] = {}
        slack_hist: Dict[int, int] = {}
        for node in self.overlay.consumers:
            contribution = self._contribution(node)
            if not contribution[0]:
                continue
            online += 1
            orphans += 1 if contribution[1] else 0
            if contribution[2]:
                rooted += 1
                depth_hist[contribution[4]] = (
                    depth_hist.get(contribution[4], 0) + 1
                )
            satisfied += 1 if contribution[3] else 0
            slack_hist[contribution[5]] = slack_hist.get(contribution[5], 0) + 1
        computed = {
            "online": (self._online, online),
            "orphans": (self._orphans, orphans),
            "rooted": (self._rooted, rooted),
            "satisfied": (self._satisfied, satisfied),
            "depth_hist": (self._depth_hist, depth_hist),
            "slack_hist": (self._slack_hist, slack_hist),
        }
        for name, (incremental, rescan) in computed.items():
            if incremental != rescan:
                raise ValueError(
                    f"health aggregate {name!r} diverged: "
                    f"incremental {incremental!r} vs rescan {rescan!r}"
                )
