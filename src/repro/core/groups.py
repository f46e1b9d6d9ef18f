"""Cache groups and the :class:`GroupingResult` of a formation scheme.

The paper's Termination Phase "forms a cooperative cache group from each
cluster and assigns a group ID"; :class:`CacheGroup` is that object, and
:class:`GroupingResult` is the full provenance-carrying outcome of a
scheme run (which landmarks, which feature vectors, which clustering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.clustering.assignments import Clustering
from repro.errors import SchemeError
from repro.landmarks.base import LandmarkSet
from repro.landmarks.feature_vectors import FeatureVectors
from repro.types import NodeId


@dataclass(frozen=True)
class CacheGroup:
    """One cooperative cache group: a group id and its member caches."""

    group_id: int
    members: Tuple[NodeId, ...]

    def __post_init__(self) -> None:
        if self.group_id < 0:
            raise SchemeError(f"group_id must be >= 0, got {self.group_id}")
        if not self.members:
            raise SchemeError(f"group {self.group_id} has no members")
        if len(set(self.members)) != len(self.members):
            raise SchemeError(
                f"group {self.group_id} has duplicate members: {self.members}"
            )

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.members

    def __iter__(self):
        return iter(self.members)

    def peers_of(self, node: NodeId) -> List[NodeId]:
        """The other members of this group."""
        if node not in self.members:
            raise SchemeError(f"node {node} is not in group {self.group_id}")
        return [m for m in self.members if m != node]


@dataclass(frozen=True)
class GroupingResult:
    """The outcome of one group-formation run.

    ``groups`` partition the network's cache nodes.  Provenance fields
    (``landmarks``, ``features``, ``clustering``) are optional because
    trivial groupings (e.g. "one group of everything" used by Figure 3's
    end point, or random partitions used as test baselines) have none.
    """

    scheme: str
    groups: Tuple[CacheGroup, ...]
    landmarks: Optional[LandmarkSet] = None
    #: equality compares the outcome (scheme, groups, landmarks,
    #: ``degraded``), not these array-valued intermediates
    features: Optional[FeatureVectors] = field(
        default=None, repr=False, compare=False
    )
    clustering: Optional[Clustering] = field(
        default=None, repr=False, compare=False
    )
    #: True when any degraded-mode path ran during formation (probe
    #: losses imputed, landmarks replaced, ...)
    degraded: bool = False
    #: fault-injection provenance (probes lost, retries, timeouts,
    #: landmarks crashed/replaced); None when faults were off
    fault_report: Optional[Dict[str, float]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.groups:
            raise SchemeError("a grouping needs at least one group")
        seen: Dict[NodeId, int] = {}
        for group in self.groups:
            for member in group.members:
                if member in seen:
                    raise SchemeError(
                        f"cache {member} is in groups {seen[member]} "
                        f"and {group.group_id}"
                    )
                seen[member] = group.group_id

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def all_members(self) -> List[NodeId]:
        """All grouped caches, in group order."""
        return [m for g in self.groups for m in g.members]

    def group_of(self, node: NodeId) -> CacheGroup:
        """The group containing ``node``."""
        for group in self.groups:
            if node in group:
                return group
        raise SchemeError(f"cache {node} is not in any group")

    def membership(self) -> Dict[NodeId, int]:
        """Map cache node -> group id."""
        return {m: g.group_id for g in self.groups for m in g.members}

    def sizes(self) -> List[int]:
        """Group sizes, in group-id order."""
        return [g.size for g in self.groups]


def groups_from_labels(
    nodes: Sequence[NodeId],
    labels: Sequence[int],
) -> Tuple[CacheGroup, ...]:
    """Build dense-id cache groups from clustering labels.

    Empty clusters are dropped and group ids re-numbered densely, so
    group ids are stable and gap-free regardless of K-means outcomes.
    """
    if len(nodes) != len(labels):
        raise SchemeError(
            f"{len(nodes)} nodes but {len(labels)} labels"
        )
    by_label: Dict[int, List[NodeId]] = {}
    for node, label in zip(nodes, labels):
        by_label.setdefault(int(label), []).append(node)
    groups = []
    for new_id, label in enumerate(sorted(by_label)):
        groups.append(
            CacheGroup(group_id=new_id, members=tuple(by_label[label]))
        )
    return tuple(groups)


def single_group(nodes: Sequence[NodeId]) -> GroupingResult:
    """All caches in one cooperative group (Figure 3's right endpoint)."""
    return GroupingResult(
        scheme="single-group",
        groups=(CacheGroup(group_id=0, members=tuple(nodes)),),
    )


def singleton_groups(nodes: Sequence[NodeId]) -> GroupingResult:
    """Every cache alone (no cooperation; Figure 3's left endpoint)."""
    groups = tuple(
        CacheGroup(group_id=i, members=(node,))
        for i, node in enumerate(nodes)
    )
    return GroupingResult(scheme="no-cooperation", groups=groups)
