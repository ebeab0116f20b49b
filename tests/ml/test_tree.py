"""Tests for the CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ReproError
from repro.ml import DecisionTreeRegressor
from tests.ml.reference import best_split


class TestFitBasics:
    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).random((20, 3))
        y = np.full(20, 7.0)
        t = DecisionTreeRegressor().fit(X, y)
        assert t.n_leaves() == 1
        np.testing.assert_allclose(t.predict(X), 7.0)

    def test_perfect_step_function(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        t = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(t.predict(X), y)

    def test_exact_split_threshold_recovered(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        t = DecisionTreeRegressor().fit(X, y)
        assert t._root.threshold == pytest.approx(1.5)

    def test_two_features_picks_informative(self):
        rng = np.random.default_rng(1)
        X = rng.random((100, 2))
        y = (X[:, 1] > 0.5).astype(float)  # only feature 1 matters
        t = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert t._root.feature == 1

    def test_max_depth_respected(self):
        rng = np.random.default_rng(2)
        X = rng.random((200, 3))
        y = rng.random(200)
        t = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert t.depth() <= 3

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 2))
        y = rng.random(40)
        t = DecisionTreeRegressor(min_samples_leaf=10).fit(X, y)

        def leaf_sizes(node):
            if node.is_leaf:
                return [node.n]
            return leaf_sizes(node.left) + leaf_sizes(node.right)

        assert min(leaf_sizes(t._root)) >= 10

    def test_deterministic_with_seed(self):
        rng = np.random.default_rng(4)
        X = rng.random((50, 4))
        y = rng.random(50)
        p1 = DecisionTreeRegressor(max_features="sqrt", seed=9).fit(X, y).predict(X)
        p2 = DecisionTreeRegressor(max_features="sqrt", seed=9).fit(X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)


class TestValidation:
    def test_predict_before_fit(self):
        with pytest.raises(ReproError):
            DecisionTreeRegressor().predict(np.zeros((1, 1)))

    def test_empty_data_rejected(self):
        with pytest.raises(ReproError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ReproError):
            DecisionTreeRegressor().fit(np.zeros((5, 2)), np.zeros(4))

    def test_1d_x_rejected(self):
        with pytest.raises(ReproError):
            DecisionTreeRegressor().fit(np.zeros(5), np.zeros(5))

    def test_predict_wrong_width_rejected(self):
        t = DecisionTreeRegressor().fit(np.zeros((4, 2)), np.arange(4.0))
        with pytest.raises(ReproError):
            t.predict(np.zeros((3, 5)))

    def test_bad_hyperparams_rejected(self):
        with pytest.raises(ReproError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ReproError):
            DecisionTreeRegressor(max_depth=0)

    def test_bad_max_features_rejected(self):
        X, y = np.zeros((5, 2)), np.arange(5.0)
        with pytest.raises(ReproError):
            DecisionTreeRegressor(max_features=3.5).fit(X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.random.default_rng(0).random((6, 2))
        X[3, 1] = bad
        with pytest.raises(ReproError, match="X contains NaN or inf"):
            DecisionTreeRegressor().fit(X, np.arange(6.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_rejected(self, bad):
        y = np.arange(6.0)
        y[2] = bad
        with pytest.raises(ReproError, match="y contains NaN or inf"):
            DecisionTreeRegressor().fit(np.random.default_rng(0).random((6, 2)), y)


class TestBestSplitsParity:
    """`_best_splits` (column-parallel) vs `best_split` (per-feature oracle).

    The vectorized pass claims bit-identical scores — assert exact float
    equality, not allclose, across random data, duplicate-heavy columns,
    constant columns, and min_samples_leaf settings.
    """

    @staticmethod
    def _compare(X, y, msl):
        t = DecisionTreeRegressor(min_samples_leaf=msl)
        m = y.sum() / y.shape[0]
        total_sse = float(((y - m) ** 2).sum())
        gains, thresholds = t._best_splits(X, y, total_sse)
        for j in range(X.shape[1]):
            g, th = best_split(X[:, j], y, total_sse, msl)
            assert gains[j] == g, f"feature {j}: gain {gains[j]} != oracle {g}"
            assert thresholds[j] == th, (
                f"feature {j}: threshold {thresholds[j]} != oracle {th}"
            )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 80),
        k=st.integers(1, 6),
        msl=st.integers(1, 5),
    )
    def test_matches_oracle_on_random_data(self, seed, n, k, msl):
        rng = np.random.default_rng(seed)
        X = rng.random((n, k))
        y = rng.uniform(-5, 5, size=n)
        self._compare(X, y, msl)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), msl=st.integers(1, 4))
    def test_matches_oracle_with_heavy_duplicates(self, seed, msl):
        # Encoded tiling factors repeat a lot: draw from a tiny value set so
        # tie-handling and the distinct-value candidate mask are exercised.
        rng = np.random.default_rng(seed)
        X = rng.choice([0.0, 0.25, 0.5, 1.0], size=(40, 3))
        y = rng.random(40)
        self._compare(X, y, msl)

    def test_constant_column_gets_zero_gain(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([np.full(20, 3.0), rng.random(20)])
        y = rng.random(20)
        self._compare(X, y, 1)
        t = DecisionTreeRegressor()
        gains, _ = t._best_splits(X, y, float(((y - y.mean()) ** 2).sum()))
        assert gains[0] == 0.0 and gains[1] > 0.0

    def test_min_samples_leaf_masks_all_positions(self):
        X = np.arange(4.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, 2.0, 3.0])
        self._compare(X, y, 3)  # no split leaves both sides >= 3 of 4


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(5, 60))
    def test_predictions_within_target_range(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 3))
        y = rng.uniform(-5, 5, size=n)
        t = DecisionTreeRegressor().fit(X, y)
        pred = t.predict(rng.random((20, 3)))
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_full_depth_interpolates_training_data(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((30, 2))
        y = rng.random(30)
        t = DecisionTreeRegressor().fit(X, y)
        # Distinct rows are almost surely separable -> training fit is exact.
        np.testing.assert_allclose(t.predict(X), y, atol=1e-12)
