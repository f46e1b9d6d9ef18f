"""Cooperative group protocol: directory tracking and miss handling.

Within a cache group, a local miss triggers cooperation ("possibly by
contacting other caches in the group or the origin server").  Three
query models are provided:

* ``"beacon"`` (default) — per-document hash-based lookup, the Cache
  Clouds mechanism of the paper's reference [7] whose "utility-based
  document placement and replacement" the simulated caches implement.
  Each document hashes to a *beacon* member of the group which tracks
  the document's in-group holders.  A local miss costs one RTT to the
  beacon (zero when the requester is the beacon), then on a group hit
  one more RTT to the nearest holder plus transfer.  Every miss
  therefore pays a cost that grows with the group's spread — the
  efficiency side of the paper's trade-off — while hits get cheaper as
  groups gain members — the effectiveness side.
* ``"multicast"`` (ICP-style) — the requesting cache multicasts the
  query to all peers.  On a group hit it proceeds on the nearest
  holder's positive reply; on a group-wide miss it must wait for *all*
  negative replies (one RTT to the farthest peer).  Harsher on
  spread-out groups than the beacon scheme.
* ``"directory"`` — an idealised zero-distance group directory answers
  in a fixed ``group_lookup_ms``; used by ablations to isolate how much
  of the SL/SDSL benefit survives without any distance-dependent
  lookup penalty.

The :class:`GroupProtocol` also maintains the copy directory (which
caches hold which document) kept exact via cache eviction callbacks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.groups import GroupingResult
from repro.errors import SimulationError
from repro.topology.network import EdgeCacheNetwork
from repro.types import DocumentId, NodeId


class LookupOutcome(enum.Enum):
    """How a group lookup resolved."""

    NO_PEERS = "no_peers"          # singleton group: nothing to ask
    GROUP_HIT = "group_hit"        # a peer holds the document
    GROUP_MISS = "group_miss"      # all peers answered negative


@dataclass(frozen=True)
class LookupResult:
    """Outcome of one cooperative lookup."""

    outcome: LookupOutcome
    #: the peer to fetch from on a GROUP_HIT, else None
    holder: Optional[NodeId]
    #: time spent on the query phase (ms)
    query_ms: float
    #: number of query/response messages exchanged
    messages: int


class GroupProtocol:
    """Directory plus query-cost model for one grouping of one network."""

    def __init__(
        self,
        network: EdgeCacheNetwork,
        grouping: GroupingResult,
        partition_timeout_ms: float,
        group_lookup_ms: float = 0.3,
        mode: str = "beacon",
        unavailable: Optional[Set[NodeId]] = None,
        partition_of: Optional[Dict[NodeId, int]] = None,
    ) -> None:
        if mode not in ("beacon", "multicast", "directory"):
            raise SimulationError(f"unknown group protocol mode {mode!r}")
        if group_lookup_ms < 0:
            raise SimulationError("group_lookup_ms must be >= 0")
        self._network = network
        self._grouping = grouping
        self._lookup_ms = group_lookup_ms
        self._mode = mode
        # The raw RTT matrix, read directly on the per-request hot path
        # (node ids are validated once at construction; the checked
        # DistanceMatrix API costs ~3x per lookup).
        self._rtt_ms = network.distances.as_array()
        # Shared, caller-mutated set of currently-failed caches; lookups
        # never return them and beacons hosted on them cannot answer.
        self._unavailable: Set[NodeId] = (
            unavailable if unavailable is not None else set()
        )
        # Shared, caller-mutated map node -> active partition id.  Two
        # nodes can talk iff they map to the same partition (both
        # unpartitioned nodes map to None via .get).  Empty = no
        # partition active, and every check below short-circuits.
        self._partition_of: Dict[NodeId, int] = (
            partition_of if partition_of is not None else {}
        )
        # Validated by the FaultSchedule it comes from.
        self._partition_timeout_ms = partition_timeout_ms

        self._peers: Dict[NodeId, List[NodeId]] = {}
        self._max_peer_rtt: Dict[NodeId, float] = {}
        self._members_sorted: Dict[NodeId, List[NodeId]] = {}
        for group in grouping.groups:
            members = sorted(group.members)
            for member in group.members:
                peers = group.peers_of(member)
                self._peers[member] = peers
                self._members_sorted[member] = members
                if peers:
                    self._max_peer_rtt[member] = float(
                        self._rtt_ms[member][peers].max()
                    )
                else:
                    self._max_peer_rtt[member] = 0.0

        # doc -> group id -> holders.  Scoped per group because lookups
        # never cross group boundaries.
        self._holders: Dict[DocumentId, Dict[int, Set[NodeId]]] = {}
        self._group_of: Dict[NodeId, int] = grouping.membership()

    @property
    def mode(self) -> str:
        return self._mode

    def hot_state(self) -> Dict[str, object]:
        """The protocol's mutable internals, for inline (batched) driving.

        The batched event loop replicates the beacon ``lookup``,
        ``record_copy`` and ``drop_copy`` as inline operations on these
        very structures (the loop-equivalence tests pin bit-identical
        outcomes), so the protocol object stays consistent whether it
        was driven through methods or through the kernel.  ``holders``
        is the live shared directory — mutate it only by replaying the
        exact method semantics.
        """
        return {
            "holders": self._holders,
            "group_of": self._group_of,
            "peers": self._peers,
            "members_sorted": self._members_sorted,
            "lookup_ms": self._lookup_ms,
        }

    def peers_of(self, cache: NodeId) -> List[NodeId]:
        """Group peers of one cache (empty for singleton groups)."""
        try:
            return self._peers[cache]
        except KeyError:
            raise SimulationError(f"cache {cache} is not grouped") from None

    def max_peer_rtt(self, cache: NodeId) -> float:
        """RTT to the farthest group peer (0 for singleton groups)."""
        return self._max_peer_rtt[cache]

    # -- directory maintenance ----------------------------------------

    def record_copy(self, cache: NodeId, doc_id: DocumentId) -> None:
        """A cache stored a copy of a document."""
        group = self._require_group(cache)
        self._holders.setdefault(doc_id, {}).setdefault(group, set()).add(cache)

    def drop_copy(self, cache: NodeId, doc_id: DocumentId) -> None:
        """A cache dropped its copy (eviction or invalidation).

        Idempotent: inadmissible documents were never recorded.
        """
        group = self._require_group(cache)
        by_group = self._holders.get(doc_id)
        if not by_group:
            return
        holders = by_group.get(group)
        if holders is not None:
            holders.discard(cache)
            if not holders:
                del by_group[group]
        if not by_group:
            del self._holders[doc_id]

    def holders_in_group(
        self, cache: NodeId, doc_id: DocumentId
    ) -> List[NodeId]:
        """Available group peers of ``cache`` currently holding ``doc_id``."""
        group = self._require_group(cache)
        holders = self._holders.get(doc_id, {}).get(group, set())
        out = [
            h for h in holders
            if h != cache and h not in self._unavailable
        ]
        if self._partition_of:
            side = self._partition_of.get(cache)
            out = [h for h in out if self._partition_of.get(h) == side]
        return out

    def reachable(self, a: NodeId, b: NodeId) -> bool:
        """True when no active partition separates the two nodes."""
        if not self._partition_of:
            return True
        return self._partition_of.get(a) == self._partition_of.get(b)

    def all_holders(self, doc_id: DocumentId) -> List[NodeId]:
        """Every cache network-wide holding the document (for invalidation)."""
        by_group = self._holders.get(doc_id, {})
        out: List[NodeId] = []
        for holders in by_group.values():
            out.extend(holders)
        return out

    # -- cooperative lookup --------------------------------------------

    def lookup(self, cache: NodeId, doc_id: DocumentId) -> LookupResult:
        """Resolve a local miss through the group (see module docstring)."""
        peers = self.peers_of(cache)
        if not peers:
            return LookupResult(
                outcome=LookupOutcome.NO_PEERS,
                holder=None,
                query_ms=0.0,
                messages=0,
            )

        holders = self.holders_in_group(cache, doc_id)
        rtt_row = self._rtt_ms[cache]
        if self._mode == "directory":
            query_ms = self._lookup_ms
            messages = 2  # directory request + reply
        elif self._mode == "beacon":
            beacon = self.beacon_of(cache, doc_id)
            # Asking yourself is free; otherwise one round trip to the
            # hash-designated beacon member.
            query_ms = self._lookup_ms + (
                0.0 if beacon == cache else float(rtt_row[beacon])
            )
            messages = 0 if beacon == cache else 2
            if beacon != cache and beacon in self._unavailable:
                # The only member who knows the holders is down: the
                # query times out (one wasted round trip) and the miss
                # path is taken even if live holders exist.
                return LookupResult(
                    outcome=LookupOutcome.GROUP_MISS,
                    holder=None,
                    query_ms=query_ms,
                    messages=1,  # the unanswered query
                )
            if beacon != cache and not self.reachable(cache, beacon):
                # The beacon is alive but on the other side of a
                # partition: the query never returns and the requester
                # waits out the full partition timeout before falling
                # back to the origin.
                return LookupResult(
                    outcome=LookupOutcome.GROUP_MISS,
                    holder=None,
                    query_ms=self._lookup_ms + self._partition_timeout_ms,
                    messages=1,  # the unanswered query
                )
        else:  # multicast
            live_peers = [p for p in peers if p not in self._unavailable]
            if self._partition_of:
                reachable_live = [
                    p for p in live_peers if self.reachable(cache, p)
                ]
            else:
                reachable_live = live_peers
            if holders:
                # Proceed on the nearest holder's positive reply
                # (holders_in_group already filtered out peers across
                # the partition).
                query_ms = self._lookup_ms + self._nearest_rtt(
                    rtt_row, holders
                )[1]
            else:
                # Must collect every reachable live peer's negative
                # reply before giving up (down peers simply never
                # answer; we charge the live-peer wait, not a timeout).
                # Partitioned live peers *do* cost a timeout: the
                # requester cannot tell a slow reply from a cut link.
                query_ms = self._lookup_ms
                if reachable_live:
                    query_ms += max(
                        float(rtt_row[p]) for p in reachable_live
                    )
                if len(reachable_live) != len(live_peers):
                    query_ms = max(
                        query_ms,
                        self._lookup_ms + self._partition_timeout_ms,
                    )
            # queries + live replies (partitioned peers never reply)
            messages = len(peers) + len(reachable_live)

        if holders:
            nearest, _ = self._nearest_rtt(rtt_row, holders)
            return LookupResult(
                outcome=LookupOutcome.GROUP_HIT,
                holder=nearest,
                query_ms=query_ms,
                messages=messages,
            )
        return LookupResult(
            outcome=LookupOutcome.GROUP_MISS,
            holder=None,
            query_ms=query_ms,
            messages=messages,
        )

    @staticmethod
    def _nearest_rtt(rtt_row, candidates):
        """The first-minimum candidate and its RTT from a raw matrix row.

        Semantics match ``min(candidates, key=rtt)``: strict-less
        comparison, first winner on ties — so swapping this in keeps
        results bit-identical to the checked-API implementation.
        """
        best = candidates[0]
        best_rtt = rtt_row[best]
        for candidate in candidates[1:]:
            rtt = rtt_row[candidate]
            if rtt < best_rtt:
                best_rtt = rtt
                best = candidate
        return best, float(best_rtt)

    def beacon_of(self, cache: NodeId, doc_id: DocumentId) -> NodeId:
        """The group member designated beacon for a document.

        Deterministic hash of the document id over the sorted member
        list (Cache Clouds' dynamic-hashing cooperation), so every
        member agrees on the beacon without communication.
        """
        members = self._members_sorted.get(cache)
        if members is None:
            raise SimulationError(f"cache {cache} is not grouped")
        # Knuth multiplicative hash keeps beacons well spread even for
        # consecutive document ids.
        index = (doc_id * 2654435761) % len(members)
        return members[index]

    def _require_group(self, cache: NodeId) -> int:
        try:
            return self._group_of[cache]
        except KeyError:
            raise SimulationError(f"cache {cache} is not grouped") from None
