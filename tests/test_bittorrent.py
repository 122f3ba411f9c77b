"""Unit and integration tests for the BitTorrent tracker and swarms
(``TestSwarm`` runs the piece-level oracle in ``tests/``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection.oracle import ISPOracle
from repro.errors import OverlayError, TopologyError
from repro.overlay.bittorrent import (
    FlowSwarmSimulation,
    SwarmConfig,
    Torrent,
    Tracker,
    TrackerPolicy,
)
from repro.underlay import Underlay, UnderlayConfig
from tests.bittorrent_reference import Bitfield, SwarmSimulation


class _ScanningTracker:
    """The tracker as it stood up to commit 944e555: every announce
    rebuilds the list of everyone else and, when biased, splits it by two
    ``asn_of`` calls per member.  Kept as the oracle the indexed tracker
    must match list for list and draw for draw."""

    def __init__(self, underlay, *, policy, peer_list_size, external_quota,
                 oracle=None, rng=None):
        self.underlay = underlay
        self.policy = policy
        self.peer_list_size = peer_list_size
        self.external_quota = external_quota
        self.oracle = oracle
        self.rng = rng
        self.swarm: dict[int, None] = {}

    def announce(self, host_id):
        others = [p for p in self.swarm if p != host_id]
        self.swarm[host_id] = None
        if not others:
            return []
        if self.policy is TrackerPolicy.RANDOM:
            return self._sample(others, self.peer_list_size)
        if self.policy is TrackerPolicy.ORACLE:
            return self.oracle.rank(host_id, others)[: self.peer_list_size]
        my_asn = self.underlay.asn_of(host_id)
        internal = [p for p in others if self.underlay.asn_of(p) == my_asn]
        external = [p for p in others if self.underlay.asn_of(p) != my_asn]
        combined = self._sample(
            internal, self.peer_list_size - self.external_quota
        ) + self._sample(
            external, min(self.external_quota, self.peer_list_size)
        )
        short = min(self.peer_list_size, len(others)) - len(combined)
        if short > 0:
            chosen = set(combined)
            spare = [p for p in internal if p not in chosen]
            combined += self._sample(spare, short)
        self.rng.shuffle(combined)
        return combined

    def _sample(self, pool, n):
        n = min(n, len(pool))
        idx = self.rng.choice(len(pool), size=n, replace=False)
        return [pool[int(i)] for i in idx]


class TestTorrentAndBitfield:
    def test_total_bytes(self):
        t = Torrent(0, n_pieces=10, piece_size_bytes=100)
        assert t.total_bytes == 1000

    def test_validation(self):
        with pytest.raises(OverlayError):
            Torrent(0, n_pieces=0)

    def test_bitfield_lifecycle(self):
        bf = Bitfield(4)
        assert not bf.complete and bf.completion == 0.0
        for p in range(4):
            bf.add(p)
        assert bf.complete and bf.completion == 1.0
        assert bf.missing() == set()

    def test_bitfield_bounds(self):
        bf = Bitfield(4)
        with pytest.raises(OverlayError):
            bf.add(4)

    def test_seed_bitfield_complete(self):
        assert Bitfield(8, complete=True).complete


class TestTracker:
    @pytest.fixture(scope="class")
    def underlay(self):
        return Underlay.generate(UnderlayConfig(n_hosts=60, seed=19))

    def test_first_announce_empty(self, underlay):
        tr = Tracker(underlay, rng=1)
        assert tr.announce(underlay.host_ids()[0]) == []

    def test_random_policy_list_size(self, underlay):
        tr = Tracker(underlay, peer_list_size=10, rng=1)
        ids = underlay.host_ids()
        for h in ids[:30]:
            tr.announce(h)
        got = tr.announce(ids[30])
        assert len(got) == 10
        assert ids[30] not in got

    def test_biased_policy_prefers_same_as(self, underlay):
        tr = Tracker(
            underlay, policy=TrackerPolicy.BIASED, peer_list_size=20,
            external_quota=2, rng=2,
        )
        ids = underlay.host_ids()
        for h in ids[:-1]:
            tr.announce(h)
        target = ids[-1]
        got = tr.announce(target)
        my_asn = underlay.asn_of(target)
        external = [p for p in got if underlay.asn_of(p) != my_asn]
        assert len(external) <= 2

    def test_oracle_policy_requires_oracle(self, underlay):
        with pytest.raises(OverlayError):
            Tracker(underlay, policy=TrackerPolicy.ORACLE)

    def test_zero_external_quota_rejected(self, underlay):
        with pytest.raises(OverlayError):
            Tracker(underlay, external_quota=0)

    def _announce_lists(self, underlay, *, rng, policy=TrackerPolicy.RANDOM):
        tr = Tracker(
            underlay, policy=policy, peer_list_size=20, external_quota=4,
            rng=rng,
        )
        ids = underlay.host_ids()
        for h in ids[:-1]:
            tr.announce(h)
        return tr.announce(ids[-1])

    def test_list_order_is_rng_threaded(self, underlay):
        """Same tracker seed -> identical announce list, order included;
        a different seed reorders (and resamples) it.  List order feeds
        straight into neighbor sets, so it must come from the seeded RNG,
        not dict iteration order."""
        for policy in (TrackerPolicy.RANDOM, TrackerPolicy.BIASED):
            a = self._announce_lists(underlay, rng=42, policy=policy)
            b = self._announce_lists(underlay, rng=42, policy=policy)
            c = self._announce_lists(underlay, rng=43, policy=policy)
            assert a == b
            assert a != c

    def test_biased_list_interleaves_same_as_entries(self, underlay):
        """The BIASED policy biases list *composition*, not position:
        same-AS entries must not be clustered at the head of the list
        (the backfill + shuffle would be broken otherwise)."""
        got = self._announce_lists(
            underlay, rng=7, policy=TrackerPolicy.BIASED
        )
        ids = underlay.host_ids()
        my_asn = underlay.asn_of(ids[-1])
        flags = [underlay.asn_of(p) == my_asn for p in got]
        n_internal = sum(flags)
        assert 0 < n_internal < len(flags)
        # internal entries scattered, not a prefix block
        assert flags != sorted(flags, reverse=True)


    @pytest.mark.parametrize("policy", list(TrackerPolicy))
    def test_failed_announce_leaves_no_trace(self, underlay, policy):
        """An id the underlay does not know is refused before it is
        registered, counted or drawn for (it used to stay in the swarm:
        under BIASED it broke every later announce, under RANDOM it was
        handed out to other peers)."""
        rng = np.random.default_rng(4)
        tr = Tracker(underlay, policy=policy, oracle=ISPOracle(underlay), rng=rng)
        ids = underlay.host_ids()
        for h in ids[:10]:
            tr.announce(h)
        before = rng.bit_generator.state
        with pytest.raises(TopologyError):
            tr.announce(10**9)
        assert 10**9 not in tr.swarm
        assert list(tr.swarm) == ids[:10]
        assert tr.announces == 10
        assert rng.bit_generator.state == before
        got = tr.announce(ids[10])
        assert got and set(got) <= set(ids[:10])

    @pytest.mark.parametrize("peer_list_size", [1, 2, 3])
    @pytest.mark.parametrize("external_quota", [1, 2, 3, 4])
    def test_biased_quota_above_list_size(
        self, underlay, peer_list_size, external_quota
    ):
        """A quota above the list size leaves no same-AS share (it used
        to ask numpy for a negative one and die on the second announce);
        the list is as long as the quota and the swarm allow."""
        tr = Tracker(
            underlay, policy=TrackerPolicy.BIASED,
            peer_list_size=peer_list_size, external_quota=external_quota,
            rng=6,
        )
        seen: list[int] = []
        for h in underlay.host_ids():
            got = tr.announce(h)
            same_as = sum(underlay.asn_of(p) == underlay.asn_of(h) for p in seen)
            outside = min(external_quota, len(seen) - same_as)
            assert len(got) == min(peer_list_size, same_as + outside)
            assert len(set(got)) == len(got) and set(got) <= set(seen)
            seen.append(h)

    def test_biased_announce_resolves_an_asn_once(self, monkeypatch, capsys):
        """Counted work, the same on every machine: the tracker indexes
        the swarm by AS, so an announce looks one ASN up — not two per
        member already registered (≈ 2 × 300 by the last announce)."""
        underlay = Underlay.generate(UnderlayConfig(n_hosts=300, seed=23))
        calls = [0]
        original = Underlay.asn_of

        def counting(self, host_id):
            calls[0] += 1
            return original(self, host_id)

        monkeypatch.setattr(Underlay, "asn_of", counting)
        tracker = Tracker(
            underlay, policy=TrackerPolicy.BIASED, external_quota=7, rng=23
        )
        swarm = FlowSwarmSimulation(
            underlay, Torrent(0, n_pieces=4), tracker, rng=23
        )
        ids = underlay.host_ids()
        swarm.populate(ids[3:], ids[:3])
        swarm.engine.run()
        assert tracker.announces == len(tracker.swarm) == 300
        per_announce = calls[0] / tracker.announces
        with capsys.disabled():
            print(f"\nasn_of calls per biased announce: {per_announce:.2f}")
        assert per_announce <= 2.0


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["announce", "announce", "reannounce"]),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=60,
)


@pytest.fixture(scope="module")
def small_underlay():
    return Underlay.generate(UnderlayConfig(n_hosts=40, seed=19))


@given(
    ops=_OPS,
    policy=st.sampled_from(list(TrackerPolicy)),
    peer_list_size=st.integers(min_value=1, max_value=8),
    quota_share=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None)
def test_indexed_tracker_matches_scanning_tracker(
    small_underlay, ops, policy, peer_list_size, quota_share, seed
):
    """Any sequence of first announces and re-announces: the same lists
    in the same order, and the tracker RNG left in the same state, as
    the full scan gave."""
    ids = small_underlay.host_ids()
    config = dict(
        policy=policy,
        peer_list_size=peer_list_size,
        external_quota=1 + round(quota_share * (peer_list_size - 1)),
    )
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    tracker = Tracker(
        small_underlay, oracle=ISPOracle(small_underlay), rng=rng, **config
    )
    ref = _ScanningTracker(
        small_underlay, oracle=ISPOracle(small_underlay), rng=ref_rng, **config
    )
    for op, pick in ops:
        members = list(ref.swarm)
        if op == "announce" or not members:
            host = ids[pick % len(ids)]
        else:
            host = members[pick % len(members)]
        assert tracker.announce(host) == ref.announce(host)
        assert list(tracker.swarm) == list(ref.swarm)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSwarm:
    def _run(self, policy, seed=22, n=50, cost_aware=False):
        u = Underlay.generate(UnderlayConfig(n_hosts=n, seed=seed))
        torrent = Torrent(0, n_pieces=32)
        tracker = Tracker(u, policy=policy, peer_list_size=20, rng=seed)
        sim = SwarmSimulation(
            u, torrent, tracker,
            config=SwarmConfig(cost_aware=cost_aware), rng=seed + 1,
        )
        ids = u.host_ids()
        sim.populate(leechers=ids[2:], seeds=ids[:2])
        report = sim.run(max_time_s=1500.0, dt=2.0)
        return sim, report

    def test_most_leechers_finish(self):
        _sim, rep = self._run(TrackerPolicy.RANDOM)
        assert rep.completion_rate > 0.85
        assert rep.mean_download_time_s > 0

    def test_completed_peers_have_all_pieces(self):
        sim, _rep = self._run(TrackerPolicy.RANDOM)
        for p in sim.peers.values():
            if p.finish_time is not None:
                assert p.bitfield.complete

    def test_byte_conservation(self):
        sim, rep = self._run(TrackerPolicy.RANDOM)
        uploaded = sum(p.uploaded_bytes for p in sim.peers.values())
        downloaded = sum(p.downloaded_bytes for p in sim.peers.values())
        assert uploaded == pytest.approx(downloaded, rel=1e-9)
        assert rep.total_bytes == pytest.approx(uploaded, rel=1e-9)

    def test_biased_reduces_transit_share(self):
        _s1, random_rep = self._run(TrackerPolicy.RANDOM)
        _s2, biased_rep = self._run(TrackerPolicy.BIASED)
        assert biased_rep.transit_fraction < random_rep.transit_fraction
        assert biased_rep.intra_as_fraction > 2 * random_rep.intra_as_fraction
        # and download times do not collapse (the Bindal claim)
        assert (
            biased_rep.median_download_time_s
            < 2.0 * random_rep.median_download_time_s
        )

    def test_cost_aware_choking_increases_locality(self):
        _s1, plain = self._run(TrackerPolicy.RANDOM, cost_aware=False)
        _s2, cat = self._run(TrackerPolicy.RANDOM, cost_aware=True)
        assert cat.intra_as_fraction >= plain.intra_as_fraction

    def test_duplicate_peer_rejected(self):
        u = Underlay.generate(UnderlayConfig(n_hosts=10, seed=2))
        sim = SwarmSimulation(
            u, Torrent(0, n_pieces=4), Tracker(u, rng=1), rng=1
        )
        sim.add_peer(u.host_ids()[0], is_seed=True)
        with pytest.raises(OverlayError):
            sim.add_peer(u.host_ids()[0])

    def test_paid_transit_charged_to_customers(self):
        sim, rep = self._run(TrackerPolicy.RANDOM)
        if rep.transit_bytes > 0:
            assert sim.paid_transit
            assert sum(sim.paid_transit.values()) >= rep.transit_bytes
