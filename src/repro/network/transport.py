"""The simulated message-passing network.

Endpoints register under an address and implement ``handle_message``;
:meth:`Network.send` schedules delivery on the shared
:class:`~repro.sim.engine.EventScheduler` after the latency model's delay,
optionally dropping messages with a configurable probability.  Messages to
unregistered or de-registered addresses are silently dropped (counted) —
the behaviour a UDP-style substrate exhibits under churn.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Protocol

from repro.core.errors import ConfigurationError
from repro.network.latency import ConstantLatency, LatencyModel
from repro.network.message import Message
from repro.obs.probe import NULL_PROBE, Probe
from repro.sim.engine import EventScheduler


class Endpoint(Protocol):
    """Anything that can receive messages from the network."""

    def handle_message(self, message: Message) -> None:  # pragma: no cover
        ...


class Network:
    """Latency- and loss-aware message delivery between endpoints."""

    def __init__(
        self,
        scheduler: EventScheduler,
        latency_model: Optional[LatencyModel] = None,
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        probe: Optional[Probe] = None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError("loss_probability must be in [0, 1)")
        if loss_probability > 0.0 and rng is None:
            raise ConfigurationError("a lossy network needs an rng")
        self.scheduler = scheduler
        self.latency_model = latency_model or ConstantLatency(1.0)
        self.loss_probability = loss_probability
        self.rng = rng
        self.probe = probe if probe is not None else NULL_PROBE
        self._endpoints: Dict[Any, Endpoint] = {}
        #: Delivery statistics.
        self.sent = 0
        self.delivered = 0
        self.dropped_loss = 0
        self.dropped_unroutable = 0

    # ------------------------------------------------------------------

    def register(self, address: Any, endpoint: Endpoint) -> None:
        """Bind an endpoint to an address (re-binding replaces it)."""
        self._endpoints[address] = endpoint

    def unregister(self, address: Any) -> None:
        """Remove an address; in-flight messages to it will be dropped."""
        self._endpoints.pop(address, None)

    def is_registered(self, address: Any) -> bool:
        return address in self._endpoints

    # ------------------------------------------------------------------

    def send(self, sender: Any, recipient: Any, kind: str, payload: Any) -> Message:
        """Send a message; returns the envelope (delivery is scheduled)."""
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            payload=payload,
            sent_at=self.scheduler.now,
        )
        self.sent += 1
        observed = self.probe.enabled
        if observed:
            self.probe.message_send(sender, recipient, kind)
        if self.loss_probability > 0.0 and self.rng.random() < self.loss_probability:
            self.dropped_loss += 1
            if observed:
                self.probe.message_drop(sender, recipient, kind, "loss")
            return message
        delay = self.latency_model.latency(sender, recipient)
        self.scheduler.schedule(delay, self._deliver, message)
        return message

    def _deliver(self, message: Message) -> None:
        endpoint = self._endpoints.get(message.recipient)
        if endpoint is None:
            self.dropped_unroutable += 1
            if self.probe.enabled:
                self.probe.message_drop(
                    message.sender, message.recipient, message.kind, "unroutable"
                )
            return
        self.delivered += 1
        endpoint.handle_message(message)
