"""Consistent-hash ring placing request keys on replica daemons.

The gateway routes every model request by its canonical sha256 request
key (:func:`repro.service.protocol.request_key`).  A :class:`HashRing`
maps those keys onto the current replica set with the classic
consistent-hashing guarantees the cluster leans on:

* **Deterministic placement.**  Ring points derive purely from sha256
  over ``"<node>#<replica_index>"`` — no ``hash()``, no process state —
  so every process (gateway restarts, tests, a second gateway reading
  the same membership) computes the identical key → node mapping.
* **Minimal disruption.**  Removing a node remaps *only* the keys that
  node owned (≈ K/N of K keys across N nodes); adding a node steals
  ≈ K/(N+1) keys and changes nothing else.  Ejection on a failed health
  probe and re-admission on recovery therefore shuffle a bounded slice
  of the keyspace instead of restarting everyone's cache cold.
* **Smooth ownership.**  Each node projects ``vnodes`` points onto the
  ring, keeping ownership shares within a few percent of uniform.

Nodes are opaque strings (the cluster uses ``"host:port"``).  Keys are
arbitrary strings (the cluster uses the 32-hex-char request key).
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["DEFAULT_VNODES", "HashRing"]

#: Virtual nodes per physical node; 64 keeps the ownership share of N
#: equal nodes within ~±15% of 1/N while the ring stays tiny.
DEFAULT_VNODES = 64


def _point(label: str) -> int:
    """A 64-bit ring position from a stable content hash."""
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


class HashRing:
    """Sorted-points consistent-hash ring over string nodes."""

    def __init__(self, nodes: object = (), vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    # -- membership ----------------------------------------------------
    def add(self, node: str) -> None:
        """Admit a node (idempotent)."""
        if not node:
            raise ValueError("node must be a non-empty string")
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.vnodes):
            point = _point(f"{node}#{i}")
            # sha256 collisions across distinct labels are not a practical
            # concern, but ties must still resolve deterministically: the
            # lexicographically smallest node keeps the point
            holder = self._owners.get(point)
            if holder is not None:
                if node < holder:
                    self._owners[point] = node
                continue
            self._owners[point] = node
            bisect.insort(self._points, point)

    def remove(self, node: str) -> None:
        """Eject a node (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        for i in range(self.vnodes):
            point = _point(f"{node}#{i}")
            if self._owners.get(point) != node:
                continue
            # hand a collided point back to the smallest surviving claimant
            claimants = sorted(
                other for other in self._nodes
                if any(_point(f"{other}#{j}") == point
                       for j in range(self.vnodes))
            )
            if claimants:
                self._owners[point] = claimants[0]
            else:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                del self._points[index]

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # -- placement -----------------------------------------------------
    def owner(self, key: str) -> str | None:
        """The node owning a key, or None on an empty ring."""
        if not self._points:
            return None
        index = bisect.bisect_right(self._points, _point(key))
        if index == len(self._points):
            index = 0  # wrap past 2**64 back to the smallest point
        return self._owners[self._points[index]]

    def preference(self, key: str, count: int | None = None) -> list[str]:
        """Distinct nodes in ring order from the key's position.

        The first entry is the owner; the rest are the failover sequence
        the gateway walks when a replica dies mid-request.  ``count``
        caps the list (default: every node).
        """
        if not self._points:
            return []
        wanted = len(self._nodes) if count is None else max(0, count)
        start = bisect.bisect_right(self._points, _point(key))
        sequence: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            point = self._points[(start + offset) % len(self._points)]
            node = self._owners[point]
            if node in seen:
                continue
            sequence.append(node)
            seen.add(node)
            if len(sequence) >= wanted:
                break
        return sequence

    def ownership_shares(self, sample_keys: int = 4096) -> dict[str, float]:
        """Fraction of a deterministic key sample each node owns
        (diagnostics; the membership snapshot exposes it)."""
        if not self._nodes:
            return {}
        counts = {node: 0 for node in self._nodes}
        for i in range(sample_keys):
            owner = self.owner(f"share-sample-{i}")
            counts[owner] += 1
        return {node: counts[node] / sample_keys for node in sorted(counts)}
