"""CART regression trees (variance-reduction splits), grown in lockstep.

A split is exact: every midpoint between consecutive distinct values of a
candidate feature is scored by the sum of squared errors (SSE) it leaves,
from prefix sums over the node's samples sorted by that feature.

One builder, :func:`grow_trees`, grows every tree of an ensemble at once (a
lone :class:`DecisionTreeRegressor` is the one-tree case). Tree fitting is
the optimizer's ask/tell hot path, and a recursion that makes one call per
node pays tens of microseconds of interpreter overhead per node. The
lockstep builder instead takes a round of nodes from all trees and scores
them with padded :func:`_best_splits` calls, one per step of at most
``STEP_BUDGET`` padded values. It produces the trees the recursion
produces, bit for bit:

* **Draw order.** When nodes draw a subset of candidate features, each tree
  walks its own explicit stack in DFS preorder (left before right) and a
  round takes one node per tree, so every tree's ``rng.choice`` draws
  happen in the order the recursion made them. A level-wise build would
  reorder them. When every node considers every feature there are no
  draws, and a round takes every pending node.
* **Exact-length reductions.** A node's value ``y.sum() / n``, its
  all-equal check and its SSE are computed on the node's own samples, in
  order, at their exact length (NumPy's pairwise sum depends on the length).
  Each tree keeps a permutation of its samples that is partitioned stably in
  place, so a node's samples are a contiguous run of it.
* **Padded scoring.** Nodes of different sizes share one ``(nodes, k, n_max)``
  block, padded with ``x = +inf`` and ``y = 0`` and with padded positions
  masked to ``+inf`` before the argmin. Cumulative sums are sequential and
  a stable sort keeps ties in order, so the valid positions score exactly as
  they would alone, and argmin ties still resolve to the smallest position.
* **Feature choice.** Each node keeps the first feature, in draw order,
  whose gain beats the best so far by more than ``1e-12``.

A fitted ensemble is a set of flat node arrays (:class:`TreeArrays`), and
prediction descends all trees at once with one vectorized walk.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.common.errors import ReproError
from repro.common.rng import ensure_rng


def check_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as float arrays, rejecting bad shapes and non-finite values.

    The padded split search uses ``+inf`` as its sentinel, so it relies on
    finite features; a non-finite target would silently yield NaN leaves.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ReproError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[0] != y.shape[0]:
        raise ReproError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] == 0:
        raise ReproError("cannot fit a tree on zero samples")
    if not np.isfinite(X).all():
        raise ReproError("X contains NaN or inf; tree fitting needs finite features")
    if not np.isfinite(y).all():
        raise ReproError("y contains NaN or inf; tree fitting needs finite targets")
    return X, y


def check_tree_params(max_depth, min_samples_split, min_samples_leaf) -> None:
    """Reject tree-shape parameters the builder cannot honour."""
    if min_samples_split < 2:
        raise ReproError(f"min_samples_split must be >= 2, got {min_samples_split}")
    if min_samples_leaf < 1:
        raise ReproError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    if max_depth is not None and max_depth < 1:
        raise ReproError(f"max_depth must be >= 1, got {max_depth}")


def _n_candidate_features(max_features: "int | float | str | None", d: int) -> int:
    """How many features each node draws (``max_features`` resolved for ``d``)."""
    mf = max_features
    if mf is None:
        return d
    if mf == "sqrt":
        return max(1, int(np.sqrt(d)))
    if isinstance(mf, float):
        if not 0.0 < mf <= 1.0:
            raise ReproError(f"max_features fraction out of (0, 1]: {mf}")
        return max(1, int(round(mf * d)))
    if isinstance(mf, int):
        if not 1 <= mf <= d:
            raise ReproError(f"max_features {mf} out of [1, {d}]")
        return mf
    raise ReproError(f"invalid max_features {mf!r}")


class TreeArrays:
    """Flat node arrays of ``T`` fitted trees, one row per tree.

    Row ``t`` holds tree ``t``'s nodes in DFS preorder (the root is node 0);
    ``n_nodes[t]`` of its ``cap`` slots are used. ``left``/``right`` are
    node indices within the row (-1 at a leaf), ``feature`` is -1 at a leaf.
    """

    def __init__(self, feature, threshold, left, right, value, n, depth, n_nodes):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.n = n
        self.depth = depth
        self.n_nodes = n_nodes
        # The walk treats a leaf as a node whose children are itself, so
        # every (tree, row) pair can descend for the same number of steps.
        T, cap = left.shape
        base = (np.arange(T) * cap)[:, None]
        own = base + np.arange(cap)
        leaf = left < 0
        self._walk_feature = np.where(leaf, 0, feature).ravel()
        self._walk_threshold = threshold.ravel()
        self._walk_left = np.where(leaf, own, left + base).ravel()
        self._walk_right = np.where(leaf, own, right + base).ravel()
        self._roots = base
        self._max_depth = int(depth.max())

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape ``(T, m)``: every tree walked at once."""
        m, d = X.shape
        flat = np.ascontiguousarray(X).ravel()
        row = np.arange(m) * d
        idx = np.repeat(self._roots, m, axis=1)  # each (tree, row)'s node
        for _ in range(self._max_depth):
            go_left = flat.take(row + self._walk_feature.take(idx)) <= (
                self._walk_threshold.take(idx)
            )
            idx = np.where(go_left, self._walk_left.take(idx), self._walk_right.take(idx))
        return self.value.take(idx)


def _best_splits(xs_pad, y_pad, n, total_sse, min_samples_leaf):
    """Best ``(gain, threshold)`` of every candidate feature of every node.

    ``xs_pad`` is ``(S, k, n_max)``: node ``s``'s values of its ``k``
    candidate features, its first ``n[s]`` positions valid and the rest
    ``+inf``. ``y_pad`` is ``(S, n_max)``, padded with 0, and ``total_sse``
    holds each node's SSE. Returns two ``(S, k)`` arrays. A feature without
    a usable split (constant, or every position violating
    ``min_samples_leaf``) gets gain 0 and threshold 0.
    """
    S, k, n_max = xs_pad.shape
    # Gathers go through flat indices: np.take is far cheaper than
    # broadcast fancy indexing on blocks this small.
    row = np.arange(0, S * k * n_max, n_max).reshape(S, k, 1)  # row starts
    order = xs_pad.argsort(axis=-1, kind="stable")
    xs = xs_pad.take(order + row)
    ys = y_pad.take(order + (np.arange(0, S * n_max, n_max))[:, None, None])
    csum = ys.cumsum(axis=-1)
    csum2 = (ys * ys).cumsum(axis=-1)
    last = row + (n - 1)[:, None, None]
    pos = np.arange(1, n_max)  # left-side size of each candidate position
    nl = pos.astype(float)
    room = n[:, None, None] - pos  # right-side size; < 1 only when padded
    nr = np.maximum(room, 1.0)
    sl = csum[..., :-1]
    sr = csum.take(last) - sl
    sl2 = csum2[..., :-1]
    sr2 = csum2.take(last) - sl2
    # sse = (sl2 - sl*sl/nl) + (sr2 - sr*sr/nr), evaluated in place.
    sse = sl * sl
    sse /= nl
    np.subtract(sl2, sse, out=sse)
    sr *= sr
    sr /= nr
    np.subtract(sr2, sr, out=sr)
    sse += sr
    bad = xs[..., 1:] <= xs[..., :-1]  # sorted, so "not greater": equal
    msl = min_samples_leaf
    bad |= room < msl
    if msl > 1:
        bad |= pos < msl
    sse[bad] = np.inf
    best = sse.argmin(axis=-1)  # position i scores left size i+1
    row = row[..., 0]
    v = sse.take(row // n_max * (n_max - 1) + best)
    none = v == np.inf
    at = row + best
    mid = (xs.take(at) + xs.take(at + 1)) / 2.0
    gains = np.where(none, 0.0, total_sse[:, None] - v)
    thresholds = np.where(none, 0.0, mid)
    return gains, thresholds


def _run_sums(flat: np.ndarray, first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``flat[first[i]:first[i] + counts[i]].sum()`` for every run ``i``.

    NumPy's pairwise sum depends on the length, so each run is summed at its
    exact length. NumPy sums each row of a 2-D block exactly as it sums that
    row alone, so many runs of one length are gathered and summed together.
    """
    if counts.size <= 64:
        return np.array(
            [np.add.reduce(flat[f : f + c]) for f, c in zip(first.tolist(), counts.tolist())]
        )
    order = np.argsort(counts, kind="stable")
    ordered = counts[order]
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    out = np.empty(counts.size)
    for lo, hi in zip([0] + cuts, cuts + [counts.size]):
        runs = order[lo:hi]
        block = flat.take(first[runs, None] + np.arange(ordered[lo]))
        out[runs] = np.add.reduce(block, axis=1)
    return out


#: Most padded feature values one step scores at once (bounds its memory).
STEP_BUDGET = 1 << 13


def grow_trees(
    Xs: np.ndarray,
    ys: np.ndarray,
    rngs: list[np.random.Generator],
    max_features: "int | float | str | None" = None,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
) -> TreeArrays:
    """Grow ``T`` trees in lockstep: tree ``t`` fits ``(Xs[t], ys[t])``.

    ``Xs`` is ``(T, n, d)`` and ``ys`` is ``(T, n)``, both finite; tree ``t``
    draws its candidate features from ``rngs[t]``.

    When nodes draw their candidate features (``k < d``), each tree keeps a
    stack and a round pops one node per tree, so every tree's draws follow
    DFS preorder, left before right. Without draws the order in which nodes
    are split changes nothing, so a round takes every pending node. Either
    way a round is scored in steps of at most ``STEP_BUDGET`` padded values.
    """
    T, n, d = Xs.shape
    b = _Builder(Xs, ys, rngs, max_features, max_depth, min_samples_split,
                 min_samples_leaf)
    roots = np.array([(t, 0, n, 0, -1) for t in range(T)])
    if b.k < d:
        stacks = [[root] for root in roots.tolist()]
        live = list(range(T))
        while live:
            for nodes in _steps(np.array([stacks[t].pop() for t in live]), b.k):
                for child in b.step(nodes).tolist():
                    stacks[child[0]].append(child)
            live = [t for t in live if stacks[t]]
    else:
        pending = roots
        while len(pending):
            pending = np.concatenate([b.step(nodes) for nodes in _steps(pending, d)])
    return b.finish()


def _steps(nodes: np.ndarray, k: int):
    """``nodes`` in steps of at most ``STEP_BUDGET`` padded values, largest
    nodes first so that each step pads little."""
    nodes = nodes[np.argsort(nodes[:, 1] - nodes[:, 2], kind="stable")]
    i = 0
    while i < len(nodes):
        take = max(1, STEP_BUDGET // (k * int(nodes[i, 2] - nodes[i, 1])))
        yield nodes[i : i + take]
        i += take


class _Builder:
    """State of one lockstep build: the trees' samples and node records.

    Tree ``t``'s samples live in row ``t`` (width ``W = n + 2``) of flat
    arrays; ``perm`` row ``t`` lists them grouped by node, each node's
    samples a contiguous run in their original order. Slot ``n`` is a
    sentinel sample (x = +inf, y = 0) that padded positions read, and slot
    ``n + 1`` of ``perm`` takes the writes of padded positions.

    A node is a ``(tree, start, end, depth, parent)`` entry: its samples are
    ``perm[tree, start:end]``, and ``parent`` is the record of the node it
    is the right child of (-1 for a left child or a root). Each processed
    node becomes a record; node ids, children and the values of nodes that
    were never scored are resolved from the records in :meth:`finish`.
    """

    def __init__(self, Xs, ys, rngs, max_features, max_depth,
                 min_samples_split, min_samples_leaf) -> None:
        T, n, d = Xs.shape
        self.n, self.d, self.W = n, d, n + 2
        self.k = _n_candidate_features(max_features, d)
        self.rngs = rngs
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        perm = np.full((T, self.W), n)
        perm[:, :n] = np.arange(n)
        self.perm = perm.ravel()
        yf = np.zeros((T, self.W))
        yf[:, :n] = ys
        self.yf = yf.ravel()
        xf = np.full((T, d, self.W), np.inf)
        xf[:, :, :n] = Xs.transpose(0, 2, 1)
        self.xf = xf.ravel()
        self.T = T
        self.every_feature = np.arange(d)[None, :]
        self.records: list[np.ndarray] = []
        self.scored: list[tuple[np.ndarray, np.ndarray]] = []  # (record, mean)
        self.splits: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.n_records = 0

    def step(self, step: np.ndarray) -> np.ndarray:
        """Process nodes (one entry per row, at most one per tree when they
        draw features). Returns the children that may split further, right
        child before left; the others are recorded as leaves at once (a leaf
        draws nothing, so when it is recorded does not matter)."""
        n, d, k, W = self.n, self.d, self.k, self.W
        first = self.n_records
        self.records.append(step)
        self.n_records += len(step)
        start, end, depth = step[:, 1], step[:, 2], step[:, 3]
        count = end - start
        cand = self._grows(step).nonzero()[0]
        if not cand.size:
            return np.empty((0, 5), dtype=step.dtype)
        # Gather each node's samples, in order, padded to the largest node.
        trees = step[cand, 0]
        c_start = start[cand]
        c_count = count[cand]
        offs = np.arange(int(c_count.max()))
        valid = offs < c_count[:, None]
        base = trees[:, None] * W
        rows = self.perm.take(base + np.where(valid, c_start[:, None] + offs, n))
        y = self.yf.take(base + rows)
        varies = ((y != y[:, :1]) & valid).any(axis=1)
        if not varies.all():  # constant targets make a leaf
            cand, trees, c_start, c_count, base, rows, valid, y = (
                a[varies] for a in (cand, trees, c_start, c_count, base, rows, valid, y)
            )
            if not cand.size:
                return np.empty((0, 5), dtype=step.dtype)
        row_start = np.arange(cand.size) * y.shape[1]
        mean = _run_sums(y.ravel(), row_start, c_count) / c_count
        self.scored.append((first + cand, mean))
        total_sse = _run_sums(((y - mean[:, None]) ** 2).ravel(), row_start, c_count)
        if k == d:
            feats = self.every_feature
        else:
            feats = np.array(
                [self.rngs[t].choice(d, size=k, replace=False) for t in trees.tolist()]
            )
        xs_pad = self.xf.take(
            ((trees[:, None] * d + feats) * W)[:, :, None] + rows[:, None, :]
        )
        gains, thresholds = _best_splits(
            xs_pad, y, c_count, total_sse, self.min_samples_leaf
        )
        # Each node keeps the first clearly better feature, in draw order:
        # the sequential scan, one feature at a time for all nodes at once.
        best_gain = np.zeros(cand.size)
        col = np.full(cand.size, -1)
        for j, gain in enumerate(gains.T):
            better = gain > best_gain + 1e-12
            best_gain = np.where(better, gain, best_gain)
            col[better] = j
        split = np.flatnonzero(col >= 0)
        if not split.size:
            return np.empty((0, 5), dtype=step.dtype)
        col = col[split]
        feature = col if k == d else feats[split, col]
        threshold = thresholds[split, col]
        if split.size < cand.size:
            cand, trees, base, rows, valid, c_start = (
                a[split] for a in (cand, trees, base, rows, valid, c_start)
            )
        record = first + cand
        self.splits.append((record, feature, threshold))
        # Stable in-place partition of each split node's run of ``perm``
        # (padded positions read +inf, so they never go left).
        go_left = (
            self.xf.take(((trees * d + feature) * W)[:, None] + rows)
            <= threshold[:, None]
        )
        n_left = go_left.sum(axis=1)
        dest = np.where(
            go_left,
            go_left.cumsum(axis=1),
            n_left[:, None] + (valid & ~go_left).cumsum(axis=1),
        )
        dest += (c_start - 1)[:, None]
        self.perm.put(np.where(valid, base + dest, base + n + 1), rows)
        children = np.empty((split.size, 2, 5), dtype=step.dtype)
        children[:, :, 0] = trees[:, None]
        children[:, :, 3] = depth[cand, None] + 1
        children[:, 0, 1] = children[:, 1, 2] = c_start + n_left
        children[:, 0, 2] = end[cand]
        children[:, 0, 4] = record
        children[:, 1, 1] = c_start
        children[:, 1, 4] = -1
        children = children.reshape(-1, 5)
        grows = self._grows(children)
        if not grows.all():
            self.records.append(children[~grows])
            self.n_records += len(self.records[-1])
            children = children[grows]
        return children

    def _grows(self, nodes: np.ndarray) -> np.ndarray:
        """Which nodes are large and shallow enough to be split."""
        grows = nodes[:, 2] - nodes[:, 1] >= self.min_samples_split
        if self.max_depth is not None:
            grows &= nodes[:, 3] < self.max_depth
        return grows

    def finish(self) -> TreeArrays:
        """Lay the node records out as per-tree preorder arrays."""
        T, W = self.T, self.W
        tree, start, end, depth, parent = np.concatenate(self.records).T
        self.records = []
        n_nodes = np.bincount(tree, minlength=T)
        # A node's run of samples starts where its left child's does and
        # ends before its right child's, so within a tree, DFS preorder is
        # the order of (start, depth).
        order = np.lexsort((depth, start, tree))
        node = np.empty_like(tree)
        node[order] = np.arange(tree.size) - (np.cumsum(n_nodes) - n_nodes)[tree[order]]
        size = end - start
        # Nodes that never reached the split search still need their mean;
        # a node's run of ``perm`` is final once it has been popped as a leaf.
        value = np.empty(tree.size)
        unscored = np.ones(tree.size, dtype=bool)
        for rec, mean in self.scored:
            value[rec] = mean
            unscored[rec] = False
        rec = np.flatnonzero(unscored)
        if rec.size:
            # Targets in ``perm`` order: node runs are contiguous in it.
            y_by_node = self.yf.take(np.arange(T * W) // W * W + self.perm)
            c = size[rec]
            value[rec] = _run_sums(y_by_node, tree[rec] * W + start[rec], c) / c

        shape = (T, int(n_nodes.max()))
        arrays = {
            "feature": np.full(shape, -1),
            "threshold": np.zeros(shape),
            "left": np.full(shape, -1),
            "right": np.full(shape, -1),
            "value": np.zeros(shape),
            "n": np.zeros(shape, dtype=int),
            "depth": np.zeros(shape, dtype=int),
        }
        arrays["value"][tree, node] = value
        arrays["n"][tree, node] = size
        arrays["depth"][tree, node] = depth
        right = parent >= 0
        arrays["right"][tree[right], node[parent[right]]] = node[right]
        if self.splits:
            rec, feature, threshold = (np.concatenate(a) for a in zip(*self.splits))
            arrays["feature"][tree[rec], node[rec]] = feature
            arrays["threshold"][tree[rec], node[rec]] = threshold
            arrays["left"][tree[rec], node[rec]] = node[rec] + 1
        return TreeArrays(n_nodes=n_nodes, **arrays)


class DecisionTreeRegressor:
    """A regression tree.

    Parameters follow scikit-learn naming: ``max_depth``, ``min_samples_split``,
    ``min_samples_leaf``, ``max_features`` (int, float fraction, ``"sqrt"``, or
    None for all features).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: "int | float | str | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        check_tree_params(max_depth, min_samples_split, min_samples_leaf)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = ensure_rng(seed)
        self._trees: TreeArrays | None = None
        self.n_features_: int = 0

    # -- fitting ------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = check_training_data(X, y)
        self.n_features_ = X.shape[1]
        self._trees = grow_trees(
            X[None],
            y[None],
            [self._rng],
            max_features=self.max_features,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
        )
        return self

    def _best_splits(
        self, Xf: np.ndarray, y: np.ndarray, total_sse: float
    ) -> tuple[list[float], list[float]]:
        """Best ``(gain, threshold)`` per column of ``Xf`` for one node."""
        gains, thresholds = _best_splits(
            np.ascontiguousarray(Xf.T)[None],
            y[None],
            np.array([y.shape[0]]),
            np.array([total_sse]),
            self.min_samples_leaf,
        )
        return gains[0].tolist(), thresholds[0].tolist()

    # -- prediction ------------------------------------------------------------

    def _fitted(self) -> TreeArrays:
        if self._trees is None:
            raise ReproError("tree used before fit()")
        return self._trees

    @property
    def _root(self) -> SimpleNamespace:
        """The fitted tree as linked node objects (for inspection)."""
        trees = self._fitted()

        def node(i: int) -> SimpleNamespace:
            left, right = int(trees.left[0, i]), int(trees.right[0, i])
            return SimpleNamespace(
                feature=int(trees.feature[0, i]),
                threshold=float(trees.threshold[0, i]),
                value=float(trees.value[0, i]),
                n=int(trees.n[0, i]),
                is_leaf=left < 0,
                left=node(left) if left >= 0 else None,
                right=node(right) if right >= 0 else None,
            )

        return node(0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._trees is None:
            raise ReproError("predict() called before fit()")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ReproError(
                f"X must have shape (n, {self.n_features_}), got {X.shape}"
            )
        return self._trees.predict(X)[0]

    def depth(self) -> int:
        """Maximum depth of the fitted tree (0 = a single leaf)."""
        return int(self._fitted().depth.max())

    def n_leaves(self) -> int:
        trees = self._fitted()
        return int((trees.left[0, : trees.n_nodes[0]] < 0).sum())
