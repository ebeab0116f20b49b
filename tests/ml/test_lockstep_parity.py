"""The lockstep tree builder against the recursive reference, bit for bit.

Every tree the lockstep builder grows must equal, node for node in DFS
preorder, the tree the one-call-per-node recursion in
:mod:`tests.ml.reference` grows from the same data and seed: the same sample
count and split feature, and the same bits of threshold and value. A forest
must also leave its generator in the same state, and its per-tree
prediction matrix must be byte-identical to stacking the reference trees'
predictions.

``REPRO_PARITY_EXAMPLES`` sets the examples per property test (default 25;
CI's perf-smoke job widens it).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ml.tree as tree_module
from repro.ml import DecisionTreeRegressor, RandomForestRegressor
from tests.ml.reference import ReferenceTree, reference_forest

PARITY_EXAMPLES = int(os.environ.get("REPRO_PARITY_EXAMPLES", "25"))

MAX_FEATURES = (None, "sqrt", 0.5, 0.8, 2)


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _nodes(trees, t):
    """Tree ``t`` of a fitted TreeArrays as preorder (n, feature, bits, bits)."""
    m = int(trees.n_nodes[t])
    return [
        (int(n), int(f), _bits(thr), _bits(v))
        for n, f, thr, v in zip(
            trees.n[t, :m], trees.feature[t, :m], trees.threshold[t, :m],
            trees.value[t, :m],
        )
    ]


def _ref_nodes(ref):
    return [(n, f, _bits(thr), _bits(v)) for n, f, thr, v in ref.preorder()]


def _dataset(seed, n, d, targets, grid):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    if grid:  # encoded tiling factors repeat a lot: exercise ties
        X = np.round(X * 3) / 3
    if targets == "constant":
        y = np.full(n, 2.5)
    elif targets == "tied":
        y = rng.integers(0, 3, size=n).astype(float)
    else:
        y = rng.standard_normal(n)
    return X, y


def _check_forest(X, y, **kw):
    forest = RandomForestRegressor(**kw).fit(X, y)
    refs, ref_rng = reference_forest(X, y, **kw)
    assert forest._rng.bit_generator.state == ref_rng.bit_generator.state
    assert forest._trees.n_nodes.size == len(refs)
    for t, ref in enumerate(refs):
        assert _nodes(forest._trees, t) == _ref_nodes(ref), f"tree {t} differs"
    Xq = np.vstack([X, np.random.default_rng(1).random((17, X.shape[1])) * 1.2 - 0.1])
    per_tree = forest._trees.predict(Xq)
    expected = np.stack([ref.predict(Xq) for ref in refs], axis=0)
    assert per_tree.shape == expected.shape
    assert per_tree.tobytes() == expected.tobytes()
    mean, std = forest.predict(Xq, return_std=True)
    assert mean.tobytes() == expected.mean(axis=0).tobytes()
    assert std.tobytes() == expected.std(axis=0).tobytes()


forest_params = dict(
    seed=st.integers(0, 2**31 - 1),
    n=st.one_of(st.integers(1, 40), st.integers(120, 260)),
    d=st.sampled_from([1, 2, 3, 6]),
    targets=st.sampled_from(["random", "tied", "constant"]),
    grid=st.booleans(),
    n_estimators=st.integers(1, 12),
    max_features=st.sampled_from(MAX_FEATURES),
    min_samples_leaf=st.sampled_from([1, 2, 3]),
    max_depth=st.sampled_from([None, 3]),
    bootstrap=st.booleans(),
)


class TestForestParity:
    @settings(max_examples=PARITY_EXAMPLES, deadline=None)
    @given(**forest_params)
    def test_matches_reference(
        self, seed, n, d, targets, grid, n_estimators, max_features,
        min_samples_leaf, max_depth, bootstrap,
    ):
        if isinstance(max_features, int):
            max_features = min(max_features, d)
        X, y = _dataset(seed, n, d, targets, grid)
        _check_forest(
            X, y, n_estimators=n_estimators, max_features=max_features,
            min_samples_leaf=min_samples_leaf, max_depth=max_depth,
            bootstrap=bootstrap, seed=seed,
        )

    @pytest.mark.parametrize(
        "d, max_features",
        [(2, 0.8), (6, 0.8)],  # lu (every feature) and 3mm (5 of 6 drawn)
        ids=["lu-k-eq-d", "3mm-k-lt-d"],
    )
    @pytest.mark.parametrize("n", [1, 2, 9, 100, 129, 200])
    def test_surrogate_shapes(self, d, max_features, n):
        X, y = _dataset(n, n, d, "random", grid=True)
        _check_forest(X, y, n_estimators=30, max_features=max_features, seed=n)

    @pytest.mark.parametrize("max_features", [None, 0.8], ids=["no-draws", "draws"])
    def test_rounds_split_into_small_steps(self, monkeypatch, max_features):
        # A tiny step budget splits every round into many steps; the order
        # of nodes across trees then differs and the trees must not.
        monkeypatch.setattr(tree_module, "STEP_BUDGET", 64)
        X, y = _dataset(3, 150, 6, "random", grid=True)
        _check_forest(X, y, n_estimators=8, max_features=max_features, seed=3)


class TestTreeParity:
    @settings(max_examples=PARITY_EXAMPLES, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.one_of(st.integers(1, 40), st.integers(120, 260)),
        d=st.sampled_from([1, 2, 6]),
        targets=st.sampled_from(["random", "tied", "constant"]),
        grid=st.booleans(),
        max_features=st.sampled_from(MAX_FEATURES),
        min_samples_leaf=st.sampled_from([1, 2, 3]),
        max_depth=st.sampled_from([None, 3]),
    )
    def test_matches_reference(
        self, seed, n, d, targets, grid, max_features, min_samples_leaf, max_depth
    ):
        if isinstance(max_features, int):
            max_features = min(max_features, d)
        X, y = _dataset(seed, n, d, targets, grid)
        kw = dict(
            max_features=max_features, min_samples_leaf=min_samples_leaf,
            max_depth=max_depth, seed=seed,
        )
        tree = DecisionTreeRegressor(**kw).fit(X, y)
        ref = ReferenceTree(**kw).fit(X, y)
        assert _nodes(tree._trees, 0) == _ref_nodes(ref)
        assert tree._rng.bit_generator.state == ref.rng.bit_generator.state
        Xq = np.random.default_rng(seed).random((25, d))
        assert tree.predict(Xq).tobytes() == ref.predict(Xq).tobytes()
