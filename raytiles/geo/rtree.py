"""Packed STR R-tree over tile/region boundaries, from scratch (numpy
only).

The tree is bulk-loaded (Sort-Tile-Recursive) into flat arrays, so the
whole structure is a handful of ndarrays — cheap to ``ray.put`` once on
the driver and load zero-copy in every assignment actor's __init__
(north_star: "vectorized point-in-polygon tests against a broadcast
R-tree of tile boundaries").

Query paths are batch-vectorized: a level-by-level frontier expansion
(point x node candidate pairs as flat arrays), never a per-point Python
loop.
"""

from __future__ import annotations

import numpy as np

LEAF_SIZE = 16


class PackedRTree:
    """STR-packed static R-tree over axis-aligned boxes.

    boxes: (n, 4) float64 [xmin, ymin, xmax, ymax]. Leaves reference
    the ORIGINAL box indices via ``order``.
    """

    def __init__(self, boxes: np.ndarray, leaf_size: int = LEAF_SIZE) -> None:
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.n = boxes.shape[0]
        self.leaf_size = leaf_size
        if self.n == 0:
            self.order = np.empty(0, np.int64)
            self.levels: list[np.ndarray] = []
            return
        # STR packing: sort by x-center into vertical slices, then each
        # slice by y-center; leaves are consecutive runs of `leaf_size`.
        cx = (boxes[:, 0] + boxes[:, 2]) * 0.5
        cy = (boxes[:, 1] + boxes[:, 3]) * 0.5
        n_leaves = -(-self.n // leaf_size)
        n_slices = max(1, int(np.ceil(np.sqrt(n_leaves))))
        per_slice = n_slices * leaf_size
        by_x = np.argsort(cx, kind="stable")
        order = np.empty(self.n, dtype=np.int64)
        for s in range(0, self.n, per_slice):
            sl = by_x[s:s + per_slice]
            order[s:s + sl.size] = sl[np.argsort(cy[sl], kind="stable")]
        self.order = order
        sorted_boxes = boxes[order]
        # build levels bottom-up: level[0] = leaf bboxes, each upper
        # node groups `leaf_size` children
        levels = []
        cur = sorted_boxes
        while cur.shape[0] > 1:
            m = cur.shape[0]
            pad = (-m) % leaf_size
            if pad:
                filler = np.repeat(cur[-1:], pad, axis=0)
                cur = np.concatenate([cur, filler], axis=0)
            grouped = cur.reshape(-1, leaf_size, 4)
            nodes = np.empty((grouped.shape[0], 4), dtype=np.float64)
            nodes[:, 0] = grouped[:, :, 0].min(axis=1)
            nodes[:, 1] = grouped[:, :, 1].min(axis=1)
            nodes[:, 2] = grouped[:, :, 2].max(axis=1)
            nodes[:, 3] = grouped[:, :, 3].max(axis=1)
            levels.append(nodes)
            cur = nodes
        self.leaf_boxes = sorted_boxes
        self.levels = levels  # levels[-1] is the root level

    def query_points(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All (point_idx, box_idx) containment pairs, box edges
        inclusive. Vectorized frontier descent."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        npts = x.size
        if self.n == 0 or npts == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        # frontier: (point_idx, node_idx) pairs at current level
        if not self.levels:  # single box
            hit = (x >= self.leaf_boxes[0, 0]) & (x <= self.leaf_boxes[0, 2]) \
                & (y >= self.leaf_boxes[0, 1]) & (y <= self.leaf_boxes[0, 3])
            pi = np.flatnonzero(hit)
            return pi, np.full(pi.size, self.order[0])
        pts_idx = np.arange(npts, dtype=np.int64)
        top = self.levels[-1]
        frontier_p = np.repeat(pts_idx, top.shape[0])
        frontier_n = np.tile(np.arange(top.shape[0], dtype=np.int64), npts)
        for level in range(len(self.levels) - 1, -1, -1):
            nodes = self.levels[level]
            b = nodes[frontier_n]
            hit = (x[frontier_p] >= b[:, 0]) & (x[frontier_p] <= b[:, 2]) \
                & (y[frontier_p] >= b[:, 1]) & (y[frontier_p] <= b[:, 3])
            frontier_p = frontier_p[hit]
            frontier_n = frontier_n[hit]
            # expand to children (next level down has node_idx*leaf_size + k)
            n_children = self.levels[level - 1].shape[0] if level > 0 else self.leaf_boxes.shape[0]
            k = min(self.leaf_size, n_children)
            child_base = frontier_n * self.leaf_size
            frontier_p = np.repeat(frontier_p, k)
            frontier_n = (np.repeat(child_base, k)
                          + np.tile(np.arange(k, dtype=np.int64), child_base.size))
            valid = frontier_n < n_children
            frontier_p = frontier_p[valid]
            frontier_n = frontier_n[valid]
        # leaf level: frontier_n indexes sorted leaf boxes
        b = self.leaf_boxes[frontier_n]
        hit = (x[frontier_p] >= b[:, 0]) & (x[frontier_p] <= b[:, 2]) \
            & (y[frontier_p] >= b[:, 1]) & (y[frontier_p] <= b[:, 3])
        return frontier_p[hit], self.order[frontier_n[hit]]
