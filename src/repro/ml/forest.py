"""Random forest regressor with predictive uncertainty.

ytopt's Bayesian optimizer uses a Random Forest surrogate; the LCB acquisition
needs both a mean prediction and an uncertainty estimate. Here uncertainty is the
standard deviation of per-tree predictions (the standard RF-as-surrogate recipe
used by SMAC and scikit-optimize).

:meth:`RandomForestRegressor.fit` first makes every draw of the forest's own
generator, in the order a tree-by-tree loop makes them: tree ``t``'s child
seed (``spawn_rng``), then its bootstrap indices. It then grows all trees at
once with the lockstep builder (:func:`repro.ml.tree.grow_trees`), which
yields the trees that fitting them one after another would. :meth:`predict`
walks every tree in one vectorized pass.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ReproError
from repro.common.rng import ensure_rng, spawn_rng
from repro.ml.tree import TreeArrays, check_training_data, check_tree_params, grow_trees


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees with per-tree variance."""

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: "int | float | str | None" = "sqrt",
        bootstrap: bool = True,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if n_estimators < 1:
            raise ReproError(f"n_estimators must be >= 1, got {n_estimators}")
        check_tree_params(max_depth, min_samples_split, min_samples_leaf)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self._rng = ensure_rng(seed)
        self._trees: TreeArrays | None = None
        self.n_features_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = check_training_data(X, y)
        self._trees = None  # let the previous fit's arrays go first
        n = X.shape[0]
        rngs = []
        rows = []
        for _ in range(self.n_estimators):
            rngs.append(spawn_rng(self._rng))
            rows.append(self._rng.integers(0, n, size=n) if self.bootstrap else np.arange(n))
        idx = np.stack(rows)
        self.n_features_ = X.shape[1]
        self._trees = grow_trees(
            X[idx],
            y[idx],
            rngs,
            max_features=self.max_features,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
        )
        return self

    def predict(
        self, X: np.ndarray, return_std: bool = False
    ) -> "np.ndarray | tuple[np.ndarray, np.ndarray]":
        """Mean prediction; with ``return_std`` also the across-tree std."""
        if self._trees is None:
            raise ReproError("predict() called before fit()")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ReproError(
                f"X must have shape (n, {self.n_features_}), got {X.shape}"
            )
        per_tree = self._trees.predict(X)
        mean = per_tree.mean(axis=0)
        if not return_std:
            return mean
        std = per_tree.std(axis=0)
        return mean, std
