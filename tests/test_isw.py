import itertools
import warnings

import numpy as np
import pytest

from dife import isw as W
from dife import tensor as T
from dife.tensor import Tape, Tensor, ContractError

from conftest import tape_forward_backward


class TestFeatureCovariance:
    def test_zeros(self):
        theta = W.feature_covariance(T.zeros((1, 3, 2, 2)))
        assert np.all(theta.data == 0.0)

    def test_outer_product_single_pixel(self):
        # one centred column (1,2)^T and its negative: the outer product of the column
        f = Tensor(np.array([[1.0, -1.0], [2.0, -2.0]]).reshape(1, 2, 1, 2))
        theta = W.feature_covariance(f)
        assert np.allclose(theta.data[0, 0], [[1.0, 2.0], [2.0, 4.0]])

    def test_orthogonal_rows(self):
        f = Tensor(np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]).reshape(1, 2, 1, 4))
        theta = W.feature_covariance(f).data[0, 0]
        assert np.allclose(theta, np.eye(2) / 2.0)  # row norms 2, divisor h*w = 4

    def test_symmetric_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            c = int(rng.integers(2, 9))
            f = Tensor(rng.normal(size=(2, c, 4, 4)))
            theta = W.feature_covariance(f).data
            for sample in theta[:, 0]:
                assert np.abs(sample - sample.T).max() < 1e-9
                assert np.linalg.eigvalsh(sample).min() >= -1e-8

    def test_centering_removes_spatial_mean(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=(1, 3, 4, 4))
        shifted = f + rng.uniform(-5, 5, (1, 3, 1, 1))
        a = W.feature_covariance(Tensor(f)).data
        b = W.feature_covariance(Tensor(shifted)).data
        assert np.abs(a - b).max() < 1e-9


def composed_feature_covariance(f):
    """The six-node composition feature_covariance replaced: the reference
    for its forward (same expressions, so bit for bit) and its backward."""
    def to_matrix(x):
        n, c, h, w = x.shape
        return T._maybe_record(Tensor(x.data.reshape(n, 1, c, h * w)), (x,),
                               lambda g: (g.reshape(n, c, h, w),))

    def matmul(a, b):
        ad, bd = a.data, b.data
        return T._maybe_record(Tensor(ad @ bd), (a, b),
                               lambda g: (g @ bd.swapaxes(2, 3), ad.swapaxes(2, 3) @ g))

    def transpose_mat(x):
        return T._maybe_record(Tensor(x.data.swapaxes(2, 3)), (x,), lambda g: (g.swapaxes(2, 3),))

    n, c, h, w = f.shape
    m = to_matrix(T.sub(f, T.global_avg_pool(f)))
    return T.scale(matmul(m, transpose_mat(m)), 1.0 / (h * w))


class TestFusedCovariance:
    @pytest.mark.parametrize("shape", [(2, 4, 3, 3), (4, 8, 48, 48), (4, 32, 12, 12), (1, 3, 1, 1)])
    def test_matches_composed_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(1.0, 2.0, shape)
        g = rng.normal(size=(shape[0], 1, shape[1], shape[1]))
        y, dx, nodes = tape_forward_backward(W.feature_covariance, x, g)
        ref_y, ref_dx, ref_nodes = tape_forward_backward(composed_feature_covariance, x, g)
        assert np.array_equal(y, ref_y)
        assert np.abs(dx - ref_dx).max() <= 1e-12 * max(np.abs(ref_dx).max(), 1e-300)
        assert (nodes, ref_nodes) == (1, 6)


class TestCovarianceVariance:
    def test_identical_pair_zero(self):
        theta = np.random.default_rng(0).normal(size=(3, 3))
        v = W.covariance_variance(theta, theta)
        assert np.all(v == 0.0)

    def test_single_entry_arithmetic(self):
        v = W.covariance_variance(np.array([[1.0]]), np.array([[3.0]]))
        assert v[0, 0] == pytest.approx(1.0)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 4, 4))
        v1 = W.covariance_variance(a, b)
        v2 = W.covariance_variance(3.0 * a, 3.0 * b)
        assert np.allclose(v2, 9.0 * v1)

    def test_batch_average(self):
        a = np.zeros((2, 1, 1))
        b = np.zeros((2, 1, 1))
        a[0], b[0] = 1.0, 3.0   # v = 1
        a[1], b[1] = 0.0, 0.0   # v = 0
        v = W.covariance_variance(a, b)
        assert v[0, 0] == pytest.approx(0.5)


def brute_force_kmeans(values, k):
    """Exhaustive optimum over contiguous partitions of the sorted values."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    n = vals.size
    best_sse, best_bounds = np.inf, None
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = [0, *cuts, n]
        sse = sum(
            ((vals[bounds[i]:bounds[i + 1]] - vals[bounds[i]:bounds[i + 1]].mean()) ** 2).sum()
            for i in range(k)
        )
        if sse < best_sse - 1e-12:
            best_sse, best_bounds = sse, bounds
    return best_sse, best_bounds


def cluster_sse(values, labels, k):
    vals = np.asarray(values, dtype=np.float64)
    return sum(
        ((vals[labels == j] - vals[labels == j].mean()) ** 2).sum()
        for j in range(k) if (labels == j).any()
    )


def loop_kmeans_1d(values, k):
    """The O(n^2 k) dynamic program as a plain triple loop: the reference for kmeans_1d.

    Same float expressions and first-minimum tie-breaking, so its labels and
    centroids must match kmeans_1d bit for bit.
    """
    vals = np.asarray(values, dtype=np.float64)
    s_order = np.argsort(vals, kind="stable")
    s = vals[s_order]
    n = s.size
    ps = np.concatenate(([0.0], np.cumsum(s)))
    ps2 = np.concatenate(([0.0], np.cumsum(s * s)))

    def cost(i, j):
        cnt = j - i + 1
        tot = ps[j + 1] - ps[i]
        return (ps2[j + 1] - ps2[i]) - tot * tot / cnt

    dp = np.full((k, n), np.inf)
    split = np.zeros((k, n), dtype=np.int64)
    for j in range(n):
        dp[0, j] = cost(0, j)
    for m in range(1, k):
        for j in range(m, n):
            best, best_i = np.inf, m
            for i in range(m, j + 1):
                c = dp[m - 1, i - 1] + cost(i, j)
                if c < best:
                    best, best_i = c, i
            dp[m, j] = best
            split[m, j] = best_i
    bounds = [n]
    j = n - 1
    for m in range(k - 1, 0, -1):
        bounds.append(split[m, j])
        j = split[m, j] - 1
    bounds = [0] + bounds[::-1]
    sorted_labels = np.repeat(np.arange(k), np.diff(bounds))
    centroids = np.array([s[bounds[m]:bounds[m + 1]].mean() for m in range(k)])
    labels = np.empty(n, dtype=np.int64)
    labels[s_order] = sorted_labels
    return labels, centroids


def variance_like(rng, n):
    """Variance-sized values (~1e-4) where a third repeat earlier ones exactly."""
    values = rng.exponential(1e-4, n)
    repeat = rng.choice(n, n // 3, replace=False)
    values[repeat] = values[rng.integers(0, n, repeat.size)]
    return values


class TestKmeans1d:
    def test_two_obvious_groups(self):
        labels, centroids = W.kmeans_1d([0.1, 0.2, 5.0, 5.1], 2)
        assert labels.tolist() == [0, 0, 1, 1]
        assert centroids[0] == pytest.approx(0.15)
        assert centroids[1] == pytest.approx(5.05)

    def test_all_equal_degenerate(self):
        with pytest.raises(W.DegenerateClusterError):
            W.kmeans_1d([2.0, 2.0, 2.0], 2)

    def test_nonfinite_value_rejected_naming_index(self):
        with pytest.raises(ContractError, match="index 1"):
            W.kmeans_1d([0.1, np.nan, 0.3, 5.0], 2)
        with pytest.raises(ContractError, match="index 3"):
            W.kmeans_1d([0.1, 0.2, 0.3, np.inf], 2)

    def test_two_points_two_clusters(self):
        labels, centroids = W.kmeans_1d([10.0, 0.0], 2)
        assert centroids.tolist() == [0.0, 10.0]
        assert labels.tolist() == [1, 0]

    def test_matches_exhaustive_optimum(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            n = int(rng.integers(3, 13))
            k = int(rng.integers(2, min(n, 5) + 1))
            values = np.round(rng.uniform(0, 10, n), 3)
            if np.unique(values).size < k:
                continue
            labels, _ = W.kmeans_1d(values, k)
            sse = cluster_sse(values, labels, k)
            best, _ = brute_force_kmeans(values, k)
            assert sse == pytest.approx(best, abs=1e-9), (values.tolist(), k)

    @pytest.mark.parametrize("n", [28, 120, 496])
    @pytest.mark.parametrize("k", [2, 5, 20])
    def test_bit_identical_to_loop_at_freeze_scale(self, n, k):
        rng = np.random.default_rng(1000 * n + k)
        # evenly spaced levels give exactly tied split costs, so tie-breaking is exercised
        levels = rng.permutation(np.arange(n) % (k + 3) * 0.5)
        for values in (variance_like(rng, n), np.round(rng.uniform(0, 1, n), 1 if k < 10 else 2),
                       levels):
            labels, centroids = W.kmeans_1d(values, k)
            ref_labels, ref_centroids = loop_kmeans_1d(values, k)
            assert np.array_equal(labels, ref_labels)
            assert np.array_equal(centroids, ref_centroids)
            assert np.all(np.diff(centroids) > 0)

    def test_no_floating_point_warnings(self):
        rng = np.random.default_rng(8)
        cases = [([10.0, 0.0], 2), ([0.0, 0.0, 1.0], 2), (variance_like(rng, 120), 20),
                 (rng.uniform(-1e150, 1e150, 60), 5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                for values, k in cases:
                    W.kmeans_1d(values, k)


class TestBuildMask:
    def _v(self, entries, c=3):
        v = np.zeros((c, c))
        iu = np.triu_indices(c, 1)
        v[iu] = entries
        return v + v.T

    def test_single_outlier(self):
        v = self._v([0.01, 0.02, 9.0])
        mask = W.build_mask(v, 2)
        expected = np.zeros((3, 3), dtype=bool)
        # 9.0 went to position (1, 2) in the upper triangle ordering
        iu = np.triu_indices(3, 1)
        pos = list(zip(*iu))[2]
        expected[pos] = expected[pos[::-1]] = True
        assert np.array_equal(mask, expected)

    def test_zero_matrix_empty_mask(self):
        with pytest.warns(UserWarning):
            mask = W.build_mask(np.zeros((4, 4)), 2)
        assert not mask.any()

    def test_k3_masks_all_but_lowest(self):
        v = self._v([0.01, 1.0, 9.0])
        mask = W.build_mask(v, 3)
        iu = np.triu_indices(3, 1)
        vals = v[iu]
        masked_vals = sorted(v[mask].tolist())
        assert mask.sum() == 4  # two entries mirrored
        assert set(np.round(masked_vals, 6)) == {1.0, 9.0}

    def test_mask_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0, 1, (6, 6))
        v = (v + v.T) / 2
        mask = W.build_mask(v, 2)
        assert np.array_equal(mask, mask.T)
        assert not mask.diagonal().any()

    def test_k20_mask_of_32_channels_matches_loop(self):
        rng = np.random.default_rng(32)
        c = 32
        iu = np.triu_indices(c, 1)
        v = np.zeros((c, c))
        v[iu] = variance_like(rng, iu[0].size)
        v = v + v.T + np.diag(rng.exponential(1e-4, c))
        expected = np.zeros((c, c), dtype=bool)
        expected[iu] = loop_kmeans_1d(v[iu], 20)[0] > 0
        expected |= expected.T
        assert np.array_equal(W.build_mask(v, 20), expected)


class TestIswLoss:
    def test_single_entry_mean(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = True
        theta = np.zeros((1, 1, 3, 3))
        theta[0, 0, 0, 1] = 3.0
        loss = W.isw_loss(Tensor(theta), Tensor(theta.copy()), mask)
        assert loss.item() == pytest.approx(3.0)

    def test_empty_mask_returns_zero(self):
        theta = Tensor(np.random.default_rng(0).normal(size=(2, 1, 3, 3)))
        loss = W.isw_loss(theta, theta, np.zeros((3, 3), dtype=bool))
        assert loss.item() == 0.0

    def test_per_view_mean_then_view_average(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = mask[1, 2] = True
        t1 = np.zeros((1, 1, 3, 3))
        t1[0, 0, 0, 1], t1[0, 0, 1, 2] = 1.0, 3.0
        t2 = np.zeros((1, 1, 3, 3))
        t2[0, 0, 0, 1], t2[0, 0, 1, 2] = 1.0, 1.0
        loss = W.isw_loss(Tensor(t1), Tensor(t2), mask)
        assert loss.item() == pytest.approx(1.5)

    def test_gradient_only_through_masked_entries(self):
        rng = np.random.default_rng(5)
        c = 4
        mask = np.zeros((c, c), dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        f = Tensor(rng.normal(size=(1, c, 3, 3)), requires_grad=True)
        g = Tensor(rng.normal(size=(1, c, 3, 3)))
        with Tape() as tape:
            loss = W.isw_loss(W.feature_covariance(f), W.feature_covariance(g), mask)
            tape.backward(loss)
            grad = tape.grad(f)
        # perturbation directions keeping channels 0 and 1 fixed leave the loss flat
        assert np.abs(grad[0, 2:]).max() < 1e-12
        assert np.abs(grad[0, :2]).max() > 0.0

    def test_descent_suppresses_masked_entries(self):
        rng = np.random.default_rng(9)
        c = 4
        feats = Tensor(rng.normal(size=(1, c, 4, 4)), requires_grad=True)
        mask = W.build_mask(np.abs(W.feature_covariance(feats).data[0, 0]) *
                            (1 - np.eye(c)), 2)
        assert mask.any()
        history = []
        for _ in range(200):
            with Tape() as tape:
                theta = W.feature_covariance(feats)
                loss = W.isw_loss(theta, theta, mask)
                tape.backward(loss)
                grad = tape.grad(feats)
            history.append(loss.item())
            feats.data = feats.data - 0.005 * grad
        tail = history[10:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        assert history[-1] < history[10]


def composed_isw_loss(theta_x, theta_tx, mask):
    """The eight-node composition isw_loss replaced: the reference for its
    forward (same expressions, so bit for bit) and its backward."""
    def absolute(a):
        sgn = np.sign(a.data)
        return T._maybe_record(Tensor(np.abs(a.data)), (a,), lambda g: (g * sgn,))

    nnz = int(mask.sum())
    mconst = Tensor(np.broadcast_to(mask.astype(np.float64), theta_x.shape).copy())
    total = T.add(T.sum_all(T.mul(absolute(theta_x), mconst)),
                  T.sum_all(T.mul(absolute(theta_tx), mconst)))
    return T.scale(total, 1.0 / (2 * theta_x.shape[0] * nnz))


class TestFusedIswLoss:
    @pytest.mark.parametrize("n, c", [(1, 2), (2, 4), (4, 8), (4, 32)])
    def test_matches_composed_reference(self, n, c):
        rng = np.random.default_rng(n * c)
        views = tuple(rng.normal(size=(n, 1, c, c)) for _ in range(2))
        views[1][0, 0, 0, 1] = 0.0     # sign(0) = 0: no gradient through a zero entry
        mask = rng.uniform(size=(c, c)) < 0.5
        mask[0, 1] = True
        g = rng.normal(size=(1, 1, 1, 1))
        y, dx, nodes = tape_forward_backward(lambda a, b: W.isw_loss(a, b, mask), views, g)
        ref_y, ref_dx, ref_nodes = tape_forward_backward(
            lambda a, b: composed_isw_loss(a, b, mask), views, g)
        assert np.array_equal(y, ref_y)
        assert all(np.array_equal(d, ref) for d, ref in zip(dx, ref_dx))
        assert (nodes, ref_nodes) == (1, 8)

    def test_mismatched_shapes_rejected(self):
        theta = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(T.ShapeError):
            W.isw_loss(theta, Tensor(np.zeros((2, 1, 3, 3))), np.ones((3, 3), dtype=bool))
        with pytest.raises(T.ShapeError):
            W.isw_loss(theta, theta, np.ones((2, 2), dtype=bool))


class TestWarmup:
    def test_constant_stream(self):
        stats = W.CovarianceStats(3, 2)
        tx = np.random.default_rng(0).normal(size=(2, 3, 3))
        ttx = tx + 1.0
        for _ in range(4):
            W.update_warmup(stats, tx.reshape(2, 1, 3, 3), ttx.reshape(2, 1, 3, 3))
        v_single = W.covariance_variance(tx, ttx)
        assert np.allclose(stats.v, v_single)

    def test_running_mean_of_two_batches(self):
        stats = W.CovarianceStats(2, 2)
        a1, b1 = np.array([[[1.0, 0], [0, 1]]]), np.array([[[3.0, 0], [0, 1]]])
        a2, b2 = np.array([[[0.0, 2], [2, 0]]]), np.array([[[0.0, 0], [0, 0]]])
        W.update_warmup(stats, a1, b1)
        W.update_warmup(stats, a2, b2)
        v1 = W.covariance_variance(a1, b1)
        v2 = W.covariance_variance(a2, b2)
        assert np.allclose(stats.v, (v1 + v2) / 2.0)

    def test_freeze_matches_offline_mask(self):
        rng = np.random.default_rng(21)
        stats = W.CovarianceStats(4, 2)
        logged = []
        for _ in range(6):
            a = rng.normal(size=(2, 4, 4))
            b = a + rng.normal(0, rng.uniform(0.1, 2.0), (2, 4, 4))
            a = (a + a.swapaxes(1, 2)) / 2
            b = (b + b.swapaxes(1, 2)) / 2
            W.update_warmup(stats, a, b)
            logged.append(W.covariance_variance(a, b))
        mask = stats.freeze()
        offline = W.build_mask(np.mean(logged, axis=0), 2)
        assert np.array_equal(mask, offline)

    def test_update_after_freeze_rejected(self):
        stats = W.CovarianceStats(2, 2)
        W.update_warmup(stats, np.array([[[1.0, 0], [0, 1]]]), np.array([[[2.0, 1], [1, 0]]]))
        stats.freeze()
        with pytest.raises(ContractError):
            W.update_warmup(stats, np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))


def test_isw_gradients_match_finite_differences():
    from dife import gradcheck as G

    results = G.suite_isw(seeds=range(5))
    bad = {k: v for k, v in results.items() if v >= G.OP_TOL}
    assert not bad, f"isw gradients over tolerance: {bad}"
