"""Reference CART builder: one recursive call per node.

This is the straightforward tree and forest construction that
:mod:`repro.ml.tree`'s lockstep builder must reproduce bit for bit. It keeps
the original draw order (each forest tree draws its child seed, then its
bootstrap indices, from the forest generator; each node draws its candidate
features from the tree's generator in DFS preorder), the column-parallel
split scoring, and the per-feature :func:`best_split` that the scoring is
checked against. Tests only; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import ensure_rng, spawn_rng
from repro.ml.tree import _n_candidate_features


class Node:
    __slots__ = ("feature", "threshold", "left", "right", "value", "n")

    def __init__(self) -> None:
        self.feature = -1
        self.threshold = 0.0
        self.left: "Node | None" = None
        self.right: "Node | None" = None
        self.value = 0.0
        self.n = 0


def best_split(x, y, total_sse, min_samples_leaf):
    """Best (gain, threshold) for one feature via prefix sums."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = xs.shape[0]
    distinct = np.nonzero(xs[1:] > xs[:-1])[0] + 1  # left side sizes
    if distinct.size == 0:
        return 0.0, 0.0
    msl = min_samples_leaf
    valid = distinct[(distinct >= msl) & (n - distinct >= msl)]
    if valid.size == 0:
        return 0.0, 0.0
    csum = np.cumsum(ys)
    csum2 = np.cumsum(ys * ys)
    nl = valid.astype(float)
    nr = n - nl
    sl = csum[valid - 1]
    sr = csum[-1] - sl
    sl2 = csum2[valid - 1]
    sr2 = csum2[-1] - sl2
    sse = (sl2 - sl * sl / nl) + (sr2 - sr * sr / nr)
    best = int(np.argmin(sse))
    gain = total_sse - float(sse[best])
    pos = valid[best]
    return gain, float((xs[pos - 1] + xs[pos]) / 2.0)


def best_splits(Xf, y, total_sse, min_samples_leaf):
    """Column-parallel best (gain, threshold) per candidate feature."""
    n, k = Xf.shape
    gains = [0.0] * k
    thresholds = [0.0] * k
    order = Xf.argsort(axis=0, kind="stable")
    xs = Xf[order, np.arange(k)]
    ys = y[order]
    msl = min_samples_leaf
    if msl == 1:
        invalid = xs[:-1] == xs[1:]
    else:
        pos = np.arange(1, n)
        size_ok = (pos >= msl) & (n - pos >= msl)
        invalid = ~((xs[1:] > xs[:-1]) & size_ok[:, None])
    csum = ys.cumsum(axis=0)
    csum2 = (ys * ys).cumsum(axis=0)
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    sl = csum[:-1]
    sr = csum[-1] - sl
    sl2 = csum2[:-1]
    sr2 = csum2[-1] - sl2
    sse = (sl2 - sl * sl / nl) + (sr2 - sr * sr / nr)
    sse[invalid] = np.inf
    best = sse.argmin(axis=0)
    for j in range(k):
        b = int(best[j])
        v = sse[b, j]
        if v == np.inf:
            continue
        gains[j] = total_sse - float(v)
        thresholds[j] = float((xs[b, j] + xs[b + 1, j]) / 2.0)
    return gains, thresholds


class ReferenceTree:
    """Recursive CART regressor with the library tree's parameters."""

    def __init__(
        self,
        max_depth=None,
        min_samples_split=2,
        min_samples_leaf=1,
        max_features=None,
        seed=None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = ensure_rng(seed)
        self.root: Node | None = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        self.d = X.shape[1]
        self.k = _n_candidate_features(self.max_features, self.d)
        self.root = self._build(X, y, 0)
        return self

    def _build(self, X, y, depth):
        node = Node()
        n = y.shape[0]
        node.n = n
        m = y.sum() / n
        node.value = float(m)
        if (
            n < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or (y == y[0]).all()
        ):
            return node
        features = (
            np.arange(self.d)
            if self.k == self.d
            else self.rng.choice(self.d, size=self.k, replace=False)
        )
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        total_sse = float(((y - m) ** 2).sum())
        gains, thresholds = best_splits(
            X[:, features], y, total_sse, self.min_samples_leaf
        )
        for j, f in enumerate(features):
            if gains[j] > best_gain + 1e-12:
                best_gain, best_feature, best_threshold = gains[j], int(f), thresholds[j]
        if best_feature < 0:
            return node
        mask = X[:, best_feature] <= best_threshold
        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.left is None:
                out[idx] = node.value
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    def preorder(self):
        """Nodes as ``(n, feature, threshold, value)`` in DFS preorder."""
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            out.append((node.n, node.feature, node.threshold, node.value))
            if node.left is not None:
                stack.append(node.right)
                stack.append(node.left)
        return out


def reference_forest(
    X,
    y,
    n_estimators=30,
    max_depth=None,
    min_samples_split=2,
    min_samples_leaf=1,
    max_features="sqrt",
    bootstrap=True,
    seed=None,
):
    """The forest's trees grown one after another; returns (trees, rng)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    rng = ensure_rng(seed)
    n = X.shape[0]
    trees = []
    for _ in range(n_estimators):
        tree = ReferenceTree(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            seed=spawn_rng(rng),
        )
        if bootstrap:
            idx = rng.integers(0, n, size=n)
            tree.fit(X[idx], y[idx])
        else:
            tree.fit(X, y)
        trees.append(tree)
    return trees, rng
