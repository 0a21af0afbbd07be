"""Training loop, LR schedule, optimizer, metrics, and paired t-test."""

import math
import sys
import warnings

import numpy as np
import pytest

import dife.data as D
import dife.isw as W
import dife.net as N
import dife.tensor as T
import dife.train as TR
from dife.metrics import (ConfusionCounts, compute_report,
                          confusion_from_masks)
from dife.net import NetConfig, SegNet
from dife.stats import incomplete_beta, paired_t_test, student_t_sf
from dife.tensor import ContractError, Parameter, Tape, Tensor
from dife.train import NumericalError, TrainConfig, evaluate, poly_lr, sgd_step


@pytest.fixture(scope="module")
def tiny_sets():
    train = D.generate_domain(8, "source", 21, (32, 32))
    val = D.generate_domain(2, "source", 21, (32, 32), start_index=8)
    return train, val


class TestPolyLr:
    CFG = TrainConfig(lr0=1e-2, poly_power=0.9, epochs=1)

    def test_endpoints(self):
        assert poly_lr(0, 100, self.CFG) == 1e-2
        assert poly_lr(100, 100, self.CFG) == 0.0

    def test_midpoint(self):
        expect = 1e-2 * 0.5 ** 0.9
        assert poly_lr(50, 100, self.CFG) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(5.359e-3, abs=5e-7)

    def test_strictly_decreasing(self):
        vals = [poly_lr(s, 50, self.CFG) for s in range(51)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            poly_lr(0, 0, self.CFG)
        with pytest.raises(ContractError):
            poly_lr(11, 10, self.CFG)


@pytest.mark.parametrize("cls,name", [
    (TrainConfig, "lr0"), (TrainConfig, "poly_power"), (TrainConfig, "momentum"),
    (NetConfig, "lambda1"), (NetConfig, "lambda2"),
    (D.PhotometricTransform, "hue"), (D.PhotometricTransform, "blur_sigma"),
    (D.PhotometricTransform, "gamma_max"),
])
def test_nan_fails_config_range_checks(cls, name):
    with pytest.raises(ContractError, match=name):
        cls(**{name: math.nan})


def scalar_param(value, name="p"):
    return Parameter(np.full((1, 1, 1, 1), float(value)), name)


def step_with_constant_grad(param, grad, lr, momentum):
    import dife.tensor as T
    with Tape() as tape:
        loss = T.scale(param.tensor, grad)
        tape.backward(loss)
        sgd_step([param], tape, lr, momentum)


class TestSgdStep:
    def test_plain_gradient_descent(self):
        p = scalar_param(1.0)
        step_with_constant_grad(p, 2.0, 0.1, 0.0)
        assert p.data.item() == pytest.approx(0.8, abs=1e-15)

    def test_zero_grad_decays_buffer(self):
        p = scalar_param(0.5)
        step_with_constant_grad(p, 1.0, 0.0, 0.9)   # lr 0: buf = 1, param fixed
        assert p.momentum_buf.item() == 1.0
        for i in range(1, 4):
            step_with_constant_grad(p, 0.0, 0.0, 0.9)
            assert p.momentum_buf.item() == pytest.approx(0.9 ** i, abs=1e-15)
        assert p.data.item() == 0.5

    def test_two_step_momentum_recursion(self):
        # buf1 = 1, p1 = -0.1; buf2 = 1.9, p2 = -0.1 - 0.19 = -0.29
        p = scalar_param(0.0)
        step_with_constant_grad(p, 1.0, 0.1, 0.9)
        step_with_constant_grad(p, 1.0, 0.1, 0.9)
        assert p.data.item() == pytest.approx(-0.29, abs=1e-12)

    def test_nonfinite_grad_names_parameter(self):
        import dife.tensor as T
        p = scalar_param(0.0, name="enc1.w")
        with np.errstate(invalid="ignore"), Tape() as tape:
            bad = T.mul(p.tensor, Tensor(np.full((1, 1, 1, 1), np.inf)))
            loss = T.mul(bad, Tensor(np.zeros((1, 1, 1, 1))))
            # 0 * inf = nan flows into the gradient of p
            tape.backward(T.add(loss, T.scale(p.tensor, 0.0)))
            with pytest.raises(NumericalError, match="enc1.w"):
                sgd_step([p], tape, 0.1, 0.0)


class TestMetrics:
    def test_perfect_prediction(self):
        gt = np.array([[0, 1], [2, 3]])
        rep = compute_report(confusion_from_masks(gt, gt, 4))
        assert rep.miou == 1.0 and rep.mdice == 1.0
        assert rep.pixel_accuracy == 1.0

    def test_disjoint_prediction_zero(self):
        gt = np.zeros((2, 2), dtype=int)
        pred = np.ones((2, 2), dtype=int)
        rep = compute_report(confusion_from_masks(pred, gt, 2))
        assert rep.iou[0] == 0.0 and rep.dice[0] == 0.0
        assert rep.iou[1] == 0.0 and rep.dice[1] == 0.0

    def test_cross_pattern_counts(self):
        # 2x2: gt class1 = left column, pred class1 = top row
        gt = np.array([[1, 0], [1, 0]])
        pred = np.array([[1, 1], [0, 0]])
        rep = compute_report(confusion_from_masks(pred, gt, 2))
        assert rep.iou[1] == pytest.approx(1 / 3)
        assert rep.dice[1] == pytest.approx(1 / 2)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = int(rng.integers(2, 5))
            gt = rng.integers(0, c, size=(8, 8))
            pred = rng.integers(0, c, size=(8, 8))
            counts = confusion_from_masks(pred, gt, c)
            for cls in range(c):
                tp = int(((pred == cls) & (gt == cls)).sum())
                fp = int(((pred == cls) & (gt != cls)).sum())
                fn = int(((pred != cls) & (gt == cls)).sum())
                tn = 64 - tp - fp - fn
                assert (counts.tp[cls], counts.fp[cls],
                        counts.fn[cls], counts.tn[cls]) == (tp, fp, fn, tn)
                rep = compute_report(counts)
                if tp + fp + fn > 0:
                    assert rep.iou[cls] == pytest.approx(tp / (tp + fp + fn))
                    assert rep.dice[cls] == pytest.approx(2 * tp / (2 * tp + fp + fn))

    def test_dice_equals_iou_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gt = rng.integers(0, 3, size=(8, 8))
            pred = rng.integers(0, 3, size=(8, 8))
            rep = compute_report(confusion_from_masks(pred, gt, 3))
            for cls, iou in rep.iou.items():
                assert rep.dice[cls] == pytest.approx(2 * iou / (1 + iou), abs=1e-12)
                assert 0.0 <= iou <= 1.0
                assert 0.0 <= rep.precision.get(cls, 0.0) <= 1.0
                assert 0.0 <= rep.recall.get(cls, 0.0) <= 1.0

    def test_absent_class_skipped(self):
        gt = np.zeros((2, 2), dtype=int)
        rep = compute_report(confusion_from_masks(gt, gt, 4))
        assert set(rep.iou) == {0}
        assert rep.miou == 1.0

    def test_ignore_index_excluded(self):
        gt = np.array([[0, -1], [-1, 1]])
        pred = np.array([[0, 1], [0, 0]])
        counts = confusion_from_masks(pred, gt, 2)
        assert counts.total.sum() == 2 * 2  # 2 kept pixels x 2 classes

    def test_out_of_range_rejected(self):
        # typed like the ground-truth case, so the CLI maps it to exit 2
        for bad in (5, -1):
            with pytest.raises(ContractError, match="predicted class out of range"):
                confusion_from_masks(np.array([[bad]]), np.array([[0]]), 2)

    def test_out_of_range_ground_truth_is_contract_error(self):
        # a mask file with a class the net does not have is bad input (exit 2)
        with pytest.raises(ContractError, match="ground-truth"):
            confusion_from_masks(np.array([[0]]), np.array([[9]]), 2)

    def test_counts_merge_associative(self):
        rng = np.random.default_rng(2)
        pairs = [(rng.integers(0, 3, (4, 4)), rng.integers(0, 3, (4, 4)))
                 for _ in range(3)]
        merged = ConfusionCounts(3)
        for pred, gt in pairs:
            merged.add(confusion_from_masks(pred, gt, 3))
        whole = confusion_from_masks(
            np.concatenate([p for p, _ in pairs]),
            np.concatenate([g for _, g in pairs]), 3)
        assert np.array_equal(merged.tp, whole.tp)
        assert np.array_equal(merged.tn, whole.tn)


def t_sf_quadrature(t, dof):
    """Two-sided tail of Student-t via Gauss-Legendre on [0, |t|]."""
    t = abs(float(t))
    const = math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)) \
        / math.sqrt(dof * math.pi)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    x = 0.5 * t * (nodes + 1.0)
    pdf = const * (1.0 + x * x / dof) ** (-(dof + 1) / 2)
    central = (weights * pdf).sum() * 0.5 * t
    return 1.0 - 2.0 * central


class TestPairedTTest:
    def test_identical_samples_degenerate(self):
        with pytest.warns(UserWarning, match="zero"):
            t, p = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (t, p) == (0.0, 1.0)

    def test_constant_difference_degenerate(self):
        with pytest.warns(UserWarning, match="constant"):
            t, p = paired_t_test([2, 3, 4, 5], [1, 2, 3, 4])
        assert t == math.inf and p == 0.0
        with pytest.warns(UserWarning, match="constant"):
            t, _ = paired_t_test([1, 2, 3], [2, 3, 4])
        assert t == -math.inf

    def test_worked_example_against_quadrature(self):
        a = [2.1, 2.5, 2.3, 2.7]
        b = [1.9, 2.0, 2.1, 2.2]
        t, p = paired_t_test(a, b)
        d = np.array(a) - np.array(b)
        t_expect = d.mean() / (d.std(ddof=1) / 2.0)
        assert t == pytest.approx(t_expect, abs=1e-12)
        assert p == pytest.approx(t_sf_quadrature(t, 3), abs=1e-6)

    def test_random_samples_against_quadrature(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            a = rng.normal(0.0, 1.0, n)
            b = a + rng.normal(0.1, 0.5, n)
            t, p = paired_t_test(a, b)
            assert p == pytest.approx(t_sf_quadrature(t, n - 1), abs=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1, 2], [1, 2, 3])

    def test_incomplete_beta_basics(self):
        assert incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert incomplete_beta(2.0, 3.0, 1.0) == 1.0
        # I_x(1,1) = x
        assert incomplete_beta(1.0, 1.0, 0.37) == pytest.approx(0.37, abs=1e-12)
        assert student_t_sf(math.inf, 5) == 0.0


class TestTrainLoop:
    def test_zero_weight_config_matches_plain_trainer(self, tiny_sets, monkeypatch):
        train_set, val_set = tiny_sets
        cfg = TrainConfig(epochs=1, seed=3, warmup_epochs=1)
        plain_cfg = NetConfig(snr_stages=frozenset(), isw_stages=frozenset(),
                              lambda1=0.0, lambda2=0.0)
        net_a = SegNet(plain_cfg, seed=3)
        TR.train(net_a, cfg, train_set, val_set)
        monkeypatch.setattr(N, "forward_pair", lambda x, tx, net:
                            N.ForwardRecord(logits=net.forward_baseline(x)))
        net_b = SegNet(plain_cfg, seed=3)
        TR.train(net_b, cfg, train_set, val_set)
        for pa, pb in zip(net_a.parameters(), net_b.parameters()):
            assert np.array_equal(pa.data, pb.data), pa.name

    def test_rerun_is_byte_identical(self, tiny_sets, tmp_path):
        train_set, val_set = tiny_sets
        cfg = TrainConfig(epochs=2, seed=5, warmup_epochs=1)
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            net = SegNet(NetConfig(), seed=5)
            TR.train(net, cfg, train_set, val_set, out_dir=out)
            blobs.append(((out / "checkpoint.dife").read_bytes(),
                          (out / "train_log.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_training_loss_decreases(self, tiny_sets):
        train_set, val_set = tiny_sets
        cfg = TrainConfig(epochs=5, seed=7, warmup_epochs=1)
        net = SegNet(NetConfig(snr_stages=frozenset(), isw_stages=frozenset(),
                               lambda1=0.0, lambda2=0.0), seed=7)
        _, rows, _ = TR.train(net, cfg, train_set, val_set)
        losses = [r["loss_total"] for r in rows]
        assert losses[-1] < losses[0]
        drops = sum(b <= a for a, b in zip(losses, losses[1:]))
        assert drops >= 0.8 * (len(losses) - 1)

    def test_nonfinite_warmup_variance_names_stage(self, tiny_sets, monkeypatch):
        train_set, val_set = tiny_sets
        real = W.update_warmup

        def poisoned(stats, theta_x, theta_tx):
            real(stats, theta_x, theta_tx)
            if stats.channels == 16:
                stats.v_sum[0, 1] = np.nan
            return stats

        monkeypatch.setattr(W, "update_warmup", poisoned)
        net = SegNet(NetConfig(), seed=0)
        with pytest.raises(NumericalError, match="ISW stage 2"):
            TR.train(net, TrainConfig(epochs=1, seed=0, warmup_epochs=1), train_set, val_set)

    def test_empty_split_rejected(self, tiny_sets):
        train_set, _ = tiny_sets
        net = SegNet(NetConfig(), seed=0)
        with pytest.raises(ContractError):
            TR.train(net, TrainConfig(epochs=1), train_set, [])

    def test_evaluate_is_order_invariant(self, tiny_sets):
        train_set, _ = tiny_sets
        net = SegNet(NetConfig(), seed=1)
        fwd = evaluate(net, train_set, 4)
        rev = evaluate(net, list(reversed(train_set)), 4)
        assert fwd.miou == rev.miou
        assert fwd.pixel_accuracy == rev.pixel_accuracy


def serial_counts(net, samples, num_classes):
    """The serial loop evaluate replaced: EVAL_BATCH images per forward on
    this thread, counted image by image."""
    total = ConfusionCounts(num_classes)
    for lo in range(0, len(samples), TR.EVAL_BATCH):
        batch = samples[lo : lo + TR.EVAL_BATCH]
        logits = net.forward(Tensor(np.stack([s.image for s in batch])))
        for pred, sample in zip(np.argmax(logits.data, axis=1), batch):
            total.add(confusion_from_masks(pred, sample.mask, num_classes))
    return total


class TestThreadedEvaluate:
    @pytest.fixture(scope="class")
    def images(self):
        return D.generate_domain(17, "target", 5, (32, 32))

    @pytest.fixture()
    def cores(self, monkeypatch):
        """Set the core count evaluate sees; returns the sizes of the pieces it runs."""
        sizes = []
        piece_counts = TR._piece_counts

        def spy(net, samples, num_classes, err):
            sizes.append(len(samples))
            return piece_counts(net, samples, num_classes, err)

        monkeypatch.setattr(TR, "_piece_counts", spy)

        def set_cores(n):
            monkeypatch.setattr(TR.os, "sched_getaffinity", lambda pid: set(range(n)))
            return sizes
        return set_cores

    @pytest.mark.parametrize("n,ncores,expect", [
        (9, 2, [4, 4, 1]), (10, 2, [4, 4, 2]), (11, 2, [4, 4, 3]), (14, 2, [4, 4, 3, 3]),
        (13, 2, [4, 4, 2, 3]), (13, 4, [2, 2, 2, 2, 2, 3]),
        (17, 4, [2, 2, 2, 2, 2, 2, 2, 2, 1]), (16, 1, [8, 8]),
        # a set of one batch is not split
        (8, 2, [8]), (6, 2, [6]), (1, 2, [1]),
    ])
    def test_pieces_hold_two_images_and_split_evenly(self, images, cores, n, ncores, expect):
        sizes = cores(ncores)
        evaluate(SegNet(NetConfig(), seed=0), images[:n], 4)
        assert sorted(sizes) == sorted(expect)

    @pytest.mark.parametrize("snr", [frozenset(), frozenset({2, 3})], ids=["plain", "snr"])
    @pytest.mark.parametrize("ncores", [2, 4])
    def test_counts_equal_the_serial_reference(self, images, cores, monkeypatch, snr, ncores):
        cores(ncores)
        monkeypatch.setattr(TR, "compute_report", lambda counts: counts)
        net = SegNet(NetConfig(snr_stages=snr), seed=2)
        for n in (1, 2, 3, 5, 6, 9, 13, 16, 17):
            got, want = evaluate(net, images[:n], 4), serial_counts(net, images[:n], 4)
            for name in ("tp", "fp", "fn", "tn"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    def test_more_threads_than_cores_with_fast_switching(self, images, cores, monkeypatch):
        # 8 threads, a GIL switch every microsecond and a cold bilinear
        # cache: a race on shared state would change the counts
        cores(8)
        monkeypatch.setattr(TR, "_POOL", None)
        monkeypatch.setattr(TR, "compute_report", lambda counts: counts)
        net = SegNet(NetConfig(), seed=3)
        samples = images * 2
        want = serial_counts(net, samples, 4)
        T._bilinear_matrix.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = evaluate(net, samples, 4)
        finally:
            sys.setswitchinterval(interval)
            TR._POOL.shutdown()
        for name in ("tp", "fp", "fn", "tn"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    def test_runs_under_an_active_tape(self, images, monkeypatch):
        # tapes are per thread: the pool's pieces cannot record on the caller's
        monkeypatch.setattr(TR, "compute_report", lambda counts: counts)
        net = SegNet(NetConfig(), seed=0)
        want = serial_counts(net, images[:12], 4)
        with Tape() as tape:
            got = evaluate(net, images[:12], 4)
            assert tape.nodes == []
        for name in ("tp", "fp", "fn", "tn"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    def test_callers_errstate_governs_the_pieces(self, images):
        net = SegNet(NetConfig(), seed=0)
        w = net.stages[0]["conv_a"][0].tensor
        w.data = w.data * 1e200    # the SNR stage's variance overflows
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            evaluate(net, images[:8], 4)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate(net, images[:8], 4)
