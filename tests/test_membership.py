"""Unit tests for membership views, leases, Paxos, failure detection and agents."""

from __future__ import annotations

import math

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.errors import ConfigurationError, LeaseExpired, NotInMembership, SimulationError
from repro.membership.agent import MembershipAgent
from repro.membership.detector import FailureDetector, FailureDetectorConfig
from repro.membership.messages import (
    Accept,
    Accepted,
    LeaseGrant,
    MembershipMessage,
    MUpdate,
    Nack,
    Ping,
    Pong,
    Prepare,
    Promise,
)
from repro.membership.paxos import PaxosAcceptor, PaxosProposer
from repro.membership.view import Lease, MembershipView


# -------------------------------------------------------------------- views
def test_initial_view():
    view = MembershipView.initial([0, 1, 2])
    assert view.epoch_id == 1
    assert view.members == frozenset({0, 1, 2})
    assert view.size == 3


def test_initial_view_requires_members():
    with pytest.raises(ConfigurationError):
        MembershipView.initial([])


def test_without_bumps_epoch_and_removes():
    view = MembershipView.initial([0, 1, 2]).without(2)
    assert view.epoch_id == 2
    assert view.members == frozenset({0, 1})


def test_without_cannot_empty_view():
    view = MembershipView.initial([0])
    with pytest.raises(ConfigurationError):
        view.without(0)


def test_with_added():
    view = MembershipView.initial([0, 1]).with_added(5)
    assert 5 in view.members
    assert view.epoch_id == 2


def test_majority():
    assert MembershipView.initial(range(3)).majority() == 2
    assert MembershipView.initial(range(5)).majority() == 3
    assert MembershipView.initial(range(7)).majority() == 4


def test_others_excludes_self():
    view = MembershipView.initial([0, 1, 2])
    assert view.others(1) == frozenset({0, 2})


# ------------------------------------------------------------------- leases
def test_lease_validity():
    lease = Lease(epoch_id=1, expires_at=10.0)
    assert lease.valid(5.0)
    assert not lease.valid(10.0)


def test_lease_renewal_extends_only_forward():
    lease = Lease(epoch_id=1, expires_at=10.0)
    assert lease.renewed(20.0).expires_at == 20.0
    assert lease.renewed(5.0).expires_at == 10.0


# -------------------------------------------------------------------- paxos
def test_acceptor_promises_higher_ballots_only():
    acceptor = PaxosAcceptor()
    ok, _, _ = acceptor.on_prepare(10)
    assert ok
    ok, _, _ = acceptor.on_prepare(5)
    assert not ok


def test_acceptor_accepts_at_or_above_promised():
    acceptor = PaxosAcceptor()
    acceptor.on_prepare(10)
    assert acceptor.on_accept(10, (2, frozenset({0, 1})))
    assert not acceptor.on_accept(5, (2, frozenset({0})))


def test_acceptor_reports_previously_accepted_value():
    acceptor = PaxosAcceptor()
    acceptor.on_prepare(5)
    acceptor.on_accept(5, (2, frozenset({0})))
    ok, accepted_ballot, accepted_value = acceptor.on_prepare(9)
    assert ok
    assert accepted_ballot == 5
    assert accepted_value == (2, frozenset({0}))


def test_proposer_reaches_quorum_and_chooses():
    proposer = PaxosProposer(proposer_id=99, num_acceptors=3, value=(2, frozenset({0, 1})))
    ballot = proposer.start_round()
    assert not proposer.on_promise(0, ballot, None, None)
    assert proposer.on_promise(1, ballot, None, None)
    assert not proposer.on_accepted(0, ballot)
    assert proposer.on_accepted(1, ballot)
    assert proposer.chosen_value == (2, frozenset({0, 1}))


def test_proposer_adopts_highest_previously_accepted_value():
    proposer = PaxosProposer(proposer_id=1, num_acceptors=3, value=(2, frozenset({0})))
    ballot = proposer.start_round()
    proposer.on_promise(0, ballot, 3, (9, frozenset({7})))
    proposer.on_promise(1, ballot, 1, (8, frozenset({6})))
    assert proposer.value == (9, frozenset({7}))


def test_proposer_nack_advances_ballot():
    proposer = PaxosProposer(proposer_id=1, num_acceptors=3, value=(2, frozenset({0})))
    first = proposer.start_round()
    second = proposer.on_nack(first + 1000)
    assert second > first + 1000 - 256


def test_proposer_ignores_stale_ballot_replies():
    proposer = PaxosProposer(proposer_id=1, num_acceptors=3, value=(2, frozenset({0})))
    ballot = proposer.start_round()
    assert not proposer.on_promise(0, ballot - 1, None, None)


# ---------------------------------------------------------------- detector
def test_detector_suspects_silent_nodes():
    config = FailureDetectorConfig(ping_interval=0.01, detection_timeout=0.1)
    detector = FailureDetector(config, monitored=[0, 1], now=0.0)
    detector.record_heartbeat(0, 0.05)
    assert detector.suspected(0.12) == {1}


def test_detector_heartbeat_clears_suspicion():
    config = FailureDetectorConfig(ping_interval=0.01, detection_timeout=0.1)
    detector = FailureDetector(config, monitored=[0], now=0.0)
    detector.record_heartbeat(0, 0.5)
    assert detector.suspected(0.55) == set()


def test_detector_remove_stops_monitoring():
    config = FailureDetectorConfig()
    detector = FailureDetector(config, monitored=[0, 1], now=0.0)
    detector.remove(1)
    assert detector.monitored == {0}


def test_detector_config_validation():
    with pytest.raises(ConfigurationError):
        FailureDetectorConfig(ping_interval=0.0).validate()
    with pytest.raises(ConfigurationError):
        FailureDetectorConfig(ping_interval=1.0, detection_timeout=0.5).validate()


# -------------------------------------------------------------------- agent
def build_agent(static_lease=True, clock=lambda: 0.0):
    sent = []
    view = MembershipView.initial([0, 1, 2])
    agent = MembershipAgent(
        node_id=1,
        initial_view=view,
        send=lambda dst, msg, size: sent.append((dst, msg)),
        local_clock=clock,
        on_view_change=None,
        static_lease=static_lease,
    )
    return agent, sent


def test_agent_answers_ping_with_pong():
    agent, sent = build_agent()
    agent.handle(99, Ping(sequence=7))
    assert isinstance(sent[0][1], Pong)
    assert sent[0][1].sequence == 7


def test_agent_static_lease_is_operational():
    agent, _ = build_agent()
    assert agent.is_operational()
    agent.require_operational()


def test_agent_lease_grant_renews_lease():
    current = {"t": 0.0}
    agent, _ = build_agent(static_lease=False, clock=lambda: current["t"])
    assert not agent.is_operational()
    agent.handle(99, LeaseGrant(view=agent.view, duration=1.0))
    assert agent.is_operational()
    current["t"] = 2.0
    assert not agent.is_operational()
    with pytest.raises(LeaseExpired):
        agent.require_operational()


def test_agent_installs_newer_view_from_mupdate():
    changes = []
    view = MembershipView.initial([0, 1, 2])
    agent = MembershipAgent(1, view, lambda d, m, s: None, lambda: 0.0, changes.append)
    new_view = view.without(2)
    agent.handle(99, MUpdate(view=new_view, lease_duration=1.0))
    assert agent.view.epoch_id == 2
    assert changes == [new_view]


def test_agent_ignores_stale_view():
    agent, _ = build_agent()
    stale = MembershipView(epoch_id=0, members=frozenset({0}))
    agent.handle(99, MUpdate(view=stale, lease_duration=1.0))
    assert agent.view.epoch_id == 1


def test_agent_not_in_membership_raises():
    view = MembershipView.initial([0, 1, 2])
    agent = MembershipAgent(1, view, lambda d, m, s: None, lambda: 0.0)
    agent.handle(99, MUpdate(view=view.without(1), lease_duration=0.0))
    assert not agent.is_operational()
    with pytest.raises(NotInMembership):
        agent.require_operational()


def test_agent_acts_as_paxos_acceptor():
    agent, sent = build_agent()
    agent.handle(99, Prepare(ballot=10))
    assert isinstance(sent[-1][1], Promise)
    agent.handle(99, Accept(ballot=10, value=(2, frozenset({0, 1}))))
    assert isinstance(sent[-1][1], Accepted)


def test_agent_nacks_stale_prepare():
    agent, sent = build_agent()
    agent.handle(99, Prepare(ballot=10))
    agent.handle(99, Prepare(ballot=5))
    assert isinstance(sent[-1][1], Nack)


class _Stray(MembershipMessage):
    """A membership message class no dispatcher knows."""


def test_agent_handles_unknown_message_kind():
    agent, sent = build_agent()
    # Stray proposer replies are explicit no-ops ...
    for reply in (Pong(), Promise(ballot=1), Accepted(ballot=1), Nack(promised_ballot=1)):
        agent.handle(99, reply)
    assert not sent
    # ... and a class the agent has no handler for fails loudly.
    with pytest.raises(SimulationError, match="_Stray"):
        agent.handle(99, _Stray())


def _cluster_with_service(shards: int = 1) -> Cluster:
    return Cluster(
        ClusterConfig(
            protocol="hermes",
            num_replicas=3,
            shards=shards,
            seed=1,
            run_membership_service=True,
        )
    )


def test_unknown_membership_message_raises_at_an_unsharded_replica():
    cluster = _cluster_with_service()
    replica = cluster.nodes[0]
    with pytest.raises(SimulationError, match="_Stray"):
        replica.on_message(1, _Stray())
    with pytest.raises(SimulationError, match="_Stray"):
        replica.membership_agent.handle(1, _Stray())


def test_unknown_membership_message_raises_at_a_shard_host():
    cluster = _cluster_with_service(shards=2)
    with pytest.raises(SimulationError, match="_Stray"):
        cluster.nodes[0].on_message(1, _Stray())


def test_unknown_membership_message_raises_at_the_service():
    cluster = _cluster_with_service()
    with pytest.raises(SimulationError, match="_Stray"):
        cluster.membership_service.on_message(0, _Stray())
