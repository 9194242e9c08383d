"""Observer bus: one per :class:`~repro.sim.kernel.Simulator`.

Protocol layers publish what they do — route changes, forwarding
decisions, deliveries, frames on the air — and any number of readers
(the event store, the invariant checker, the air capture, the shard
boundary exporter) subscribe and unsubscribe on their own, in any
order.  Subscribers only observe: none may change protocol state, so a
run has the same fingerprint with every reader attached or none.

Each topic is an attribute holding a tuple of subscribers.  An emit
site reads the tuple once and pays one truth test when it is empty::

    subscribers = sim.bus.route
    if subscribers:
        for fn in subscribers:
            fn(node, kind, entry)

Subscribing or unsubscribing replaces the tuple, so a subscriber that
unsubscribes (or subscribes another) while an event is being emitted
does not disturb the loop in progress; the change applies from the next
event.  Subscribers run in the order they subscribed.

Topics and their signatures (the emitter is always the first argument):

========================  ============================================
``route``                 ``(node, kind, entry)`` — routing-table
                          ``"added"``/``"updated"``/``"removed"``
``forward``               ``(node, packet, decision, previous_hop)`` —
                          every via-packet classification
``app_delivery``          ``(node, message)`` — application delivery,
                          before the inbox push
``reliable_delivery``     ``(transport, src, seq_id, kind)`` — reliable
                          hand-off, kind ``"single"`` or ``"stream"``
``stream``                ``(manager, kind, peer, stream_id,
                          initiator_side, msg_seq)`` — stream lifecycle
                          and in-order deliveries
``frame``                 ``(medium, tx)`` — completed transmission
``transmission``          ``(medium, tx, outcomes)`` — completed
                          transmission with per-listener outcomes
``transmit_start``        ``(medium, tx)`` — local frame goes on the air
``violation``             ``(checker, violation)`` — confirmed invariant
                          violation
========================  ============================================
"""

from __future__ import annotations

from typing import Callable, Tuple

__all__ = ["ObserverBus", "TOPICS"]

#: The fixed topic set; see the module docstring for signatures.
TOPICS: Tuple[str, ...] = (
    "route",
    "forward",
    "app_delivery",
    "reliable_delivery",
    "stream",
    "frame",
    "transmission",
    "transmit_start",
    "violation",
)


class ObserverBus:
    """Topic → tuple of subscribers, for one simulation."""

    __slots__ = TOPICS

    def __init__(self) -> None:
        for topic in TOPICS:
            setattr(self, topic, ())

    def subscribe(self, topic: str, fn: Callable) -> None:
        """Append ``fn`` to ``topic``; raises ValueError for an unknown topic."""
        setattr(self, topic, self._subscribers(topic) + (fn,))

    def unsubscribe(self, topic: str, fn: Callable) -> None:
        """Remove the subscription of the object ``fn`` itself (matched by
        identity, not equality); raises ValueError if it is not there."""
        subscribers = self._subscribers(topic)
        for i, subscriber in enumerate(subscribers):
            if subscriber is fn:
                setattr(self, topic, subscribers[:i] + subscribers[i + 1 :])
                return
        raise ValueError(f"{fn!r} is not subscribed to {topic!r}")

    def _subscribers(self, topic: str) -> Tuple[Callable, ...]:
        if topic not in TOPICS:
            raise ValueError(f"unknown bus topic {topic!r}; topics are {', '.join(TOPICS)}")
        return getattr(self, topic)
