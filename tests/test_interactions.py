"""Unit tests for the checked reconfiguration moves (repro.core.interactions)."""

import pytest

from repro.core.interactions import (
    any_edge,
    greedy_edge,
    shed_one_child,
    try_attach,
    try_displace_at_source,
    try_displace_child,
    try_insert_between,
)
from repro.core.errors import TopologyError
from repro.core.tree import Overlay
from repro.obs.probe import RecordingProbe

from tests.conftest import spec


@pytest.fixture
def overlay():
    return Overlay(source_fanout=2)


def add(overlay, name, latency, fanout):
    return overlay.add_consumer(spec(latency, fanout), name=name)


class TestEdgePolicies:
    def test_greedy_edge_requires_ordering(self, overlay):
        strict = add(overlay, "s", 1, 1)
        lax = add(overlay, "l", 5, 1)
        assert greedy_edge(strict, lax)
        assert not greedy_edge(lax, strict)
        assert greedy_edge(strict, strict)

    def test_greedy_edge_source_always_ok(self, overlay):
        lax = add(overlay, "l", 5, 1)
        assert greedy_edge(overlay.source, lax)

    def test_any_edge_always_ok(self, overlay):
        strict = add(overlay, "s", 1, 1)
        lax = add(overlay, "l", 5, 1)
        assert any_edge(lax, strict)


class TestTryAttach:
    def test_attach_to_source(self, overlay):
        a = add(overlay, "a", 1, 1)
        assert try_attach(overlay, a, overlay.source)
        assert a.parent is overlay.source

    def test_attach_rejected_on_latency(self, overlay):
        a = add(overlay, "a", 1, 1)
        b = add(overlay, "b", 1, 1)
        overlay.attach(a, overlay.source)
        # b under a would sit at delay 2 > l_b = 1.
        assert not try_attach(overlay, b, a)
        assert b.parent is None

    def test_attach_boundary_latency_accepted(self, overlay):
        a = add(overlay, "a", 1, 1)
        b = add(overlay, "b", 2, 1)
        overlay.attach(a, overlay.source)
        assert try_attach(overlay, b, a)  # delay 2 == l_b

    def test_attach_rejected_on_fanout(self, overlay):
        a = add(overlay, "a", 1, 0)
        b = add(overlay, "b", 5, 1)
        overlay.attach(a, overlay.source)
        assert not try_attach(overlay, b, a)

    def test_attach_rejected_on_greedy_edge(self, overlay):
        lax = add(overlay, "lax", 5, 2)
        strict = add(overlay, "strict", 2, 1)
        overlay.attach(lax, overlay.source)
        assert not try_attach(overlay, strict, lax, greedy_edge)
        assert try_attach(overlay, strict, lax, any_edge)

    def test_attach_rejected_for_parented_child(self, overlay):
        a = add(overlay, "a", 1, 1)
        b = add(overlay, "b", 5, 1)
        overlay.attach(a, overlay.source)
        overlay.attach(b, a)
        assert not try_attach(overlay, b, overlay.source)

    def test_attach_rejected_when_creates_cycle(self, overlay):
        a = add(overlay, "a", 5, 1)
        b = add(overlay, "b", 5, 1)
        overlay.attach(b, a)
        assert not try_attach(overlay, a, b)

    def test_cycle_under_own_descendant_refused_with_reason(self, overlay):
        a = add(overlay, "a", 9, 1)
        b = add(overlay, "b", 9, 1)
        c = add(overlay, "c", 9, 1)
        d = add(overlay, "d", 9, 1)
        overlay.attach(b, a)
        overlay.attach(c, b)
        overlay.attach(d, c)
        with pytest.raises(TopologyError, match="cycle"):
            overlay.attach(a, d)
        probe = RecordingProbe()
        overlay.probe = probe
        assert not try_attach(overlay, a, d)
        assert [e.reason for e in probe.events_of("attach-reject")] == ["cycle"]
        assert a.parent is None and d.parent is c
        overlay.check_integrity()

    def test_attach_rejected_offline(self, overlay):
        a = add(overlay, "a", 1, 1)
        overlay.go_offline(a)
        assert not try_attach(overlay, a, overlay.source)

    def test_attach_uses_potential_delay_in_fragment(self, overlay):
        root = add(overlay, "root", 3, 2)
        child = add(overlay, "child", 2, 1)
        # root unrooted: potential delay 1, so child would sit at 2 == l.
        assert try_attach(overlay, child, root)
        tight = add(overlay, "tight", 1, 1)
        assert not try_attach(overlay, tight, root)  # potential 2 > 1


class TestShedOneChild:
    def test_sheds_laxest_child(self, overlay):
        parent = add(overlay, "p", 1, 2)
        strict = add(overlay, "s", 2, 1)
        lax = add(overlay, "l", 9, 1)
        overlay.attach(strict, parent)
        overlay.attach(lax, parent)
        shed = shed_one_child(overlay, parent)
        assert shed is lax
        assert lax.parent is None
        assert strict.parent is parent

    def test_shed_empty_returns_none(self, overlay):
        parent = add(overlay, "p", 1, 2)
        assert shed_one_child(overlay, parent) is None


class TestTryDisplaceChild:
    def _setup(self, overlay):
        """source <- a(l1,f1) <- m(l3,f1); incoming i(l2,f1)."""
        a = add(overlay, "a", 1, 1)
        m = add(overlay, "m", 3, 1)
        i = add(overlay, "i", 2, 1)
        overlay.attach(a, overlay.source)
        overlay.attach(m, a)
        return a, m, i

    def test_displace_takes_slot_and_adopts(self, overlay):
        a, m, i = self._setup(overlay)
        assert try_displace_child(overlay, i, a)
        assert i.parent is a
        assert m.parent is i
        assert overlay.delay_at(m) == 3  # within l_m

    def test_displace_respects_victim_latency(self, overlay):
        a = add(overlay, "a", 1, 1)
        m = add(overlay, "m", 2, 1)  # cannot go one deeper: delay 3 > 2
        i = add(overlay, "i", 2, 1)
        overlay.attach(a, overlay.source)
        overlay.attach(m, a)
        assert not try_displace_child(overlay, i, a)

    def test_displace_requires_incoming_capacity(self, overlay):
        a, m, i_unused = self._setup(overlay)
        full = add(overlay, "full", 2, 0)
        assert not try_displace_child(overlay, full, a)

    def test_displace_with_shed_frees_capacity(self, overlay):
        a, m, _ = self._setup(overlay)
        incoming = add(overlay, "inc", 2, 1)
        burden = add(overlay, "burden", 9, 0)
        overlay.attach(burden, incoming)  # incoming now full
        assert not try_displace_child(overlay, incoming, a)
        assert try_displace_child(overlay, incoming, a, allow_shed=True)
        assert burden.parent is None  # shed
        assert m.parent is incoming

    def test_displace_respects_greedy_edges(self, overlay):
        a = add(overlay, "a", 1, 1)
        m = add(overlay, "m", 3, 1)
        overlay.attach(a, overlay.source)
        overlay.attach(m, a)
        lax_incoming = add(overlay, "lax", 4, 1)
        # Edge lax(4) -> m(3) violates the greedy invariant.
        assert not try_displace_child(overlay, lax_incoming, a, greedy_edge)
        assert try_displace_child(overlay, lax_incoming, a, any_edge)

    def test_displace_rejected_same_fragment(self, overlay):
        root = add(overlay, "root", 2, 2)
        child = add(overlay, "child", 3, 1)
        overlay.attach(child, root)
        assert not try_displace_child(overlay, root, child)

    def test_displace_prefers_laxest_victim(self, overlay):
        a = add(overlay, "a", 1, 2)
        m1 = add(overlay, "m1", 3, 1)
        m2 = add(overlay, "m2", 9, 1)
        i = add(overlay, "i", 2, 1)
        overlay.attach(a, overlay.source)
        overlay.attach(m1, a)
        overlay.attach(m2, a)
        assert try_displace_child(overlay, i, a)
        assert m2.parent is i  # laxest displaced
        assert m1.parent is a


class TestTryInsertBetween:
    def test_insert_splices_above(self, overlay):
        a = add(overlay, "a", 1, 1)
        j = add(overlay, "j", 4, 1)
        i = add(overlay, "i", 2, 1)
        overlay.attach(a, overlay.source)
        overlay.attach(j, a)
        assert try_insert_between(overlay, i, j)
        assert i.parent is a
        assert j.parent is i
        assert overlay.delay_at(j) == 3

    def test_insert_rejected_when_child_would_violate(self, overlay):
        a = add(overlay, "a", 1, 1)
        j = add(overlay, "j", 2, 1)  # j cannot afford one more hop
        i = add(overlay, "i", 2, 1)
        overlay.attach(a, overlay.source)
        overlay.attach(j, a)
        assert not try_insert_between(overlay, i, j)
        assert j.parent is a  # untouched

    def test_insert_rejected_when_incoming_would_violate(self, overlay):
        a = add(overlay, "a", 1, 1)
        j = add(overlay, "j", 9, 1)
        i = add(overlay, "i", 1, 1)  # needs delay 1, would get 2
        overlay.attach(a, overlay.source)
        overlay.attach(j, a)
        assert not try_insert_between(overlay, i, j)

    def test_insert_rejected_parentless_child(self, overlay):
        j = add(overlay, "j", 4, 1)
        i = add(overlay, "i", 2, 1)
        assert not try_insert_between(overlay, i, j)

    def test_insert_needs_fanout_or_shed(self, overlay):
        a = add(overlay, "a", 1, 1)
        j = add(overlay, "j", 4, 1)
        i = add(overlay, "i", 2, 1)
        burden = add(overlay, "burden", 9, 0)
        overlay.attach(a, overlay.source)
        overlay.attach(j, a)
        overlay.attach(burden, i)
        assert not try_insert_between(overlay, i, j)
        assert try_insert_between(overlay, i, j, allow_shed=True)
        assert burden.parent is None
        assert j.parent is i

    def test_insert_respects_greedy_edges(self, overlay):
        a = add(overlay, "a", 1, 1)
        j = add(overlay, "j", 2, 1)
        lax = add(overlay, "lax", 9, 1)
        overlay.attach(a, overlay.source)
        overlay.attach(j, a)
        # lax(9) above j(2) violates the invariant; also j's latency check
        # fails anyway for depth 3 -- use a j with slack to isolate.
        j2 = add(overlay, "j2", 9, 1)
        overlay2 = overlay  # same overlay, separate chain
        b = add(overlay, "b", 1, 1)
        overlay2.attach(b, overlay.source)
        overlay2.attach(j2, b)
        mid = add(overlay, "mid", 5, 1)
        assert not try_insert_between(overlay2, lax, j, greedy_edge)
        assert try_insert_between(overlay2, mid, j2, greedy_edge)


class TestTryDisplaceAtSource:
    def test_displace_adopts_victim(self, overlay):
        victim = add(overlay, "v", 3, 1)
        incoming = add(overlay, "i", 1, 1)
        overlay.attach(victim, overlay.source)
        assert try_displace_at_source(overlay, incoming, victim)
        assert incoming.parent is overlay.source
        assert victim.parent is incoming

    def test_displace_without_adoption_leaves_victim_parentless(self, overlay):
        victim = add(overlay, "v", 3, 1)
        incoming = add(overlay, "i", 1, 0)  # cannot adopt (fanout 0)
        overlay.attach(victim, overlay.source)
        assert try_displace_at_source(overlay, incoming, victim)
        assert victim.parent is None
        assert victim.referral is incoming

    def test_displace_requires_victim_at_source(self, overlay):
        a = add(overlay, "a", 1, 1)
        v = add(overlay, "v", 3, 1)
        i = add(overlay, "i", 1, 1)
        overlay.attach(a, overlay.source)
        overlay.attach(v, a)
        assert not try_displace_at_source(overlay, i, v)

    def test_displace_adoption_respects_victim_latency(self, overlay):
        victim = add(overlay, "v", 1, 1)  # cannot live at delay 2
        incoming = add(overlay, "i", 1, 1)
        overlay.attach(victim, overlay.source)
        assert try_displace_at_source(overlay, incoming, victim)
        assert victim.parent is None


class TestAtomicity:
    def test_failed_moves_leave_no_trace(self, overlay):
        """A rejected move must leave links and counters untouched."""
        a = add(overlay, "a", 1, 1)
        j = add(overlay, "j", 2, 1)
        i = add(overlay, "i", 2, 1)
        overlay.attach(a, overlay.source)
        overlay.attach(j, a)
        before = (overlay.snapshot(), overlay.attach_count, overlay.detach_count)
        assert not try_attach(overlay, i, j)  # latency reject (delay 3 > 2)
        assert not try_insert_between(overlay, i, j)  # child latency reject
        assert not try_displace_child(overlay, i, a)  # no legal victim
        after = (overlay.snapshot(), overlay.attach_count, overlay.detach_count)
        assert before == after
        overlay.check_integrity()
