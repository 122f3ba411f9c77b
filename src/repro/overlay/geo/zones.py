"""Geographic zones: rectangles and an adaptive quadtree.

Globase.KOM organises peers by geographic position into zones managed by
supernodes; zones split when they become crowded.  :class:`ZoneTree` is
that structure: an adaptive quadtree over the projected plane whose leaves
hold at most ``capacity`` peers, down to ``ZONE_MAX_DEPTH`` levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import OverlayError
from repro.underlay.geometry import Position

#: levels below which a crowded zone no longer splits
ZONE_MAX_DEPTH = 16


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0, x1) × [y0, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise OverlayError(f"degenerate rectangle {self}")

    def contains(self, pos: Position) -> bool:
        return self.x0 <= pos.x < self.x1 and self.y0 <= pos.y < self.y1

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.x1 <= self.x0
            or self.x1 <= other.x0
            or other.y1 <= self.y0
            or self.y1 <= other.y0
        )

    def quadrants(self) -> tuple["Rect", "Rect", "Rect", "Rect"]:
        mx = (self.x0 + self.x1) / 2.0
        my = (self.y0 + self.y1) / 2.0
        return (
            Rect(self.x0, self.y0, mx, my),
            Rect(mx, self.y0, self.x1, my),
            Rect(self.x0, my, mx, self.y1),
            Rect(mx, my, self.x1, self.y1),
        )

    def min_distance_to(self, pos: Position) -> float:
        """Distance from ``pos`` to the closest point of the rectangle."""
        dx = max(self.x0 - pos.x, 0.0, pos.x - self.x1)
        dy = max(self.y0 - pos.y, 0.0, pos.y - self.y1)
        return float((dx * dx + dy * dy) ** 0.5)


class ZoneNode:
    """One quadtree node: a leaf with members, or an inner node with four
    children."""

    __slots__ = ("rect", "children", "members", "depth")

    def __init__(self, rect: Rect, depth: int = 0) -> None:
        self.rect = rect
        self.children: Optional[list["ZoneNode"]] = None
        self.members: dict[int, Position] = {}
        self.depth = depth

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class ZoneTree:
    """Adaptive quadtree holding peer positions."""

    def __init__(self, world: Rect, *, capacity: int = 8) -> None:
        if capacity < 1:
            raise OverlayError("zone capacity must be >= 1")
        self.world = world
        self.capacity = capacity
        self.root = ZoneNode(world)
        self._where: dict[int, ZoneNode] = {}

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._where

    # -- modification ------------------------------------------------------------
    def insert(self, peer_id: int, pos: Position) -> int:
        """Insert a peer; returns the number of tree levels descended
        (the routing-hop count of the join)."""
        if peer_id in self._where:
            raise OverlayError(f"peer {peer_id} already in the tree")
        if not self.world.contains(pos):
            raise OverlayError(f"position {pos} outside the world {self.world}")
        node, hops = self._descend(self.root, pos)
        node.members[peer_id] = pos
        self._where[peer_id] = node
        if len(node.members) > self.capacity and node.depth < ZONE_MAX_DEPTH:
            self._split(node)
        return hops

    def _descend(self, node: ZoneNode, pos: Position) -> tuple[ZoneNode, int]:
        hops = 0
        while not node.is_leaf:
            assert node.children is not None
            node = next(c for c in node.children if c.rect.contains(pos))
            hops += 1
        return node, hops

    def _split(self, node: ZoneNode) -> None:
        node.children = [
            ZoneNode(r, node.depth + 1) for r in node.rect.quadrants()
        ]
        members = node.members
        node.members = {}
        for pid, pos in members.items():
            child = next(c for c in node.children if c.rect.contains(pos))
            child.members[pid] = pos
            self._where[pid] = child
        for child in node.children:
            if len(child.members) > self.capacity and child.depth < ZONE_MAX_DEPTH:
                self._split(child)

    # -- queries ---------------------------------------------------------------------
    def leaves(self) -> Iterator[ZoneNode]:
        stack = [self.root]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                yield n
            else:
                assert n.children is not None
                stack.extend(n.children)

    def search_area(self, area: Rect) -> tuple[list[int], int]:
        """All peers inside ``area`` plus the number of tree nodes visited
        (the message cost of the query)."""
        found: list[int] = []
        visited = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.rect.intersects(area):
                continue
            visited += 1
            if node.is_leaf:
                found.extend(
                    pid for pid, pos in node.members.items() if area.contains(pos)
                )
            else:
                assert node.children is not None
                stack.extend(node.children)
        return sorted(found), visited

    def nearest(self, pos: Position, k: int = 1) -> tuple[list[int], int]:
        """The ``k`` peers nearest to ``pos`` (best-first search) and the
        node-visit count."""
        import heapq

        if k < 1:
            raise OverlayError("k must be >= 1")
        visited = 0
        cand: list[tuple[float, int]] = []
        heap: list[tuple[float, int, ZoneNode]] = [(0.0, 0, self.root)]
        tiebreak = 1
        while heap:
            bound, _tb, node = heapq.heappop(heap)
            if len(cand) >= k and bound > cand[-1][0]:
                break
            visited += 1
            if node.is_leaf:
                for pid, p in node.members.items():
                    d = p.distance_to(pos)
                    cand.append((d, pid))
                cand.sort()
                del cand[k:]
            else:
                assert node.children is not None
                for c in node.children:
                    heapq.heappush(
                        heap, (c.rect.min_distance_to(pos), tiebreak, c)
                    )
                    tiebreak += 1
        return [pid for _d, pid in cand], visited
