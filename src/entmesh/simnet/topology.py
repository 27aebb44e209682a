"""Entanglement graph shapes for simulation runs.

A link (holder, issuer) is directed: the holder submits its roots to the
issuer and gets receipts back.  Gossip and receipt forwarding travel along
the same links, so reachability is computed on the undirected view.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

__all__ = [
    "Topology",
    "centralized",
    "chain",
    "fan",
    "federated",
    "interoperated",
    "ring",
    "validate_topology",
]

_NO_PARTNERS: tuple[tuple[str, ...], ...] = ((), (), ())


@dataclass(frozen=True)
class Topology:
    name: str
    labels: tuple[str, ...]
    links: tuple[tuple[str, str], ...]  # (holder, issuer)
    anchors: tuple[str, ...] = ()
    roles: dict[str, str] = field(default_factory=dict)

    @cached_property
    def _partners(self) -> dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]]:
        """label -> (issuers, holders, neighbors), each sorted, built in one
        pass over the links the first time a node's partners are asked for."""
        partners: dict[str, tuple[list[str], list[str]]] = {}
        for holder, issuer in self.links:
            partners.setdefault(holder, ([], []))[0].append(issuer)
            partners.setdefault(issuer, ([], []))[1].append(holder)
        return {
            label: (tuple(sorted(issuers)), tuple(sorted(holders)), tuple(sorted({*issuers, *holders})))
            for label, (issuers, holders) in partners.items()
        }

    def issuers_of(self, label: str) -> tuple[str, ...]:
        """Outbound partners: who this node submits to (its manifest)."""
        return self._partners.get(label, _NO_PARTNERS)[0]

    def holders_of(self, label: str) -> tuple[str, ...]:
        """Inbound partners: who submits to this node (forwarding targets)."""
        return self._partners.get(label, _NO_PARTNERS)[1]

    def neighbors(self, label: str) -> tuple[str, ...]:
        return self._partners.get(label, _NO_PARTNERS)[2]

    def path_to_anchor(self, label: str) -> list[str]:
        """Shortest outbound path from ``label`` to the nearest anchor."""
        anchors = set(self.anchors)
        if not anchors:
            raise ValueError("topology has no anchors")
        parents: dict[str, str] = {}
        frontier = [label]
        seen = {label}
        while frontier:
            found = sorted(anchors & set(frontier))
            if found:
                path = [found[0]]
                while path[-1] != label:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            next_frontier = []
            for current in frontier:
                for issuer in self.issuers_of(current):
                    if issuer not in seen:
                        seen.add(issuer)
                        parents[issuer] = current
                        next_frontier.append(issuer)
            frontier = next_frontier
        raise ValueError(f"no outbound path from {label} to an anchor")


def validate_topology(topo: Topology) -> None:
    if len(set(topo.labels)) != len(topo.labels):
        raise ValueError("duplicate node labels")
    known = set(topo.labels)
    if len(set(topo.links)) != len(topo.links):
        raise ValueError("duplicate links")
    for holder, issuer in topo.links:
        if holder == issuer:
            raise ValueError(f"self-link at {holder}")
        if holder not in known or issuer not in known:
            raise ValueError(f"link ({holder}, {issuer}) references unknown label")
    for anchor in topo.anchors:
        if anchor not in known:
            raise ValueError(f"anchor {anchor} is not a node")


def centralized(holders: int) -> Topology:
    """One hub, every holder entangles into it."""
    if holders < 1:
        raise ValueError("need at least one holder")
    labels = ["hub"] + [f"h{i}" for i in range(holders)]
    links = tuple((f"h{i}", "hub") for i in range(holders))
    roles = {"hub": "anchor", **{f"h{i}": "holder" for i in range(holders)}}
    topo = Topology(
        name=f"centralized-{holders}",
        labels=tuple(labels),
        links=links,
        anchors=("hub",),
        roles=roles,
    )
    validate_topology(topo)
    return topo


def federated(levels: int, arity: int, holders: int) -> Topology:
    """A root, ``levels - 1`` intermediary tiers fanning out by ``arity``,
    and ``holders`` spread evenly across the bottom tier."""
    if levels < 1 or arity < 1 or holders < 1:
        raise ValueError("levels, arity, and holders must be positive")
    labels = ["root"]
    roles = {"root": "anchor"}
    links: list[tuple[str, str]] = []
    tier = ["root"]
    for level in range(1, levels):
        next_tier = []
        for parent in tier:
            for _ in range(arity):
                child = f"m{level}-{len(next_tier)}"
                next_tier.append(child)
                labels.append(child)
                roles[child] = "intermediary"
                links.append((child, parent))
        tier = next_tier
    for i in range(holders):
        label = f"h{i}"
        labels.append(label)
        roles[label] = "holder"
        links.append((label, tier[i % len(tier)]))
    topo = Topology(
        name=f"federated-{levels}x{arity}-{holders}",
        labels=tuple(labels),
        links=tuple(links),
        anchors=("root",),
        roles=roles,
    )
    validate_topology(topo)
    return topo


def chain(hops: int) -> Topology:
    """A single path of ``hops`` links from one holder up to the root."""
    if hops < 1:
        raise ValueError("need at least one hop")
    return replace(federated(levels=hops, arity=1, holders=1), name=f"chain-{hops}")


def ring(size: int, mutual: bool = False) -> Topology:
    """A cycle with no designated anchor.  ``mutual`` links both directions."""
    if size < 3:
        raise ValueError("a ring needs at least three nodes")
    labels = tuple(f"n{i}" for i in range(size))
    links = [(f"n{i}", f"n{(i + 1) % size}") for i in range(size)]
    if mutual:
        links.extend((f"n{(i + 1) % size}", f"n{i}") for i in range(size))
    topo = Topology(
        name=("ring-mutual-" if mutual else "ring-") + str(size),
        labels=labels,
        links=tuple(links),
        anchors=(),
        roles={label: "peer" for label in labels},
    )
    validate_topology(topo)
    return topo


def fan(partners: int) -> Topology:
    """One holder entangling into several independent issuers."""
    if partners < 1:
        raise ValueError("need at least one partner")
    labels = ("center",) + tuple(f"p{i}" for i in range(partners))
    links = tuple(("center", f"p{i}") for i in range(partners))
    roles = {"center": "holder", **{f"p{i}": "anchor" for i in range(partners)}}
    topo = Topology(
        name=f"fan-{partners}",
        labels=labels,
        links=links,
        anchors=tuple(f"p{i}" for i in range(partners)),
        roles=roles,
    )
    validate_topology(topo)
    return topo


def interoperated(left_holders: int, right_holders: int) -> Topology:
    """Two hub-and-spoke webs whose hubs entangle into each other."""
    if left_holders < 1 or right_holders < 1:
        raise ValueError("each web needs at least one holder")
    labels = ["a-hub", "b-hub"]
    roles = {"a-hub": "anchor", "b-hub": "anchor"}
    links: list[tuple[str, str]] = [("a-hub", "b-hub"), ("b-hub", "a-hub")]
    for i in range(left_holders):
        label = f"a{i}"
        labels.append(label)
        roles[label] = "holder"
        links.append((label, "a-hub"))
    for i in range(right_holders):
        label = f"b{i}"
        labels.append(label)
        roles[label] = "holder"
        links.append((label, "b-hub"))
    topo = Topology(
        name=f"interoperated-{left_holders}-{right_holders}",
        labels=tuple(labels),
        links=tuple(links),
        anchors=("a-hub", "b-hub"),
        roles=roles,
    )
    validate_topology(topo)
    return topo
