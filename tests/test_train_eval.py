"""Training loop, LR schedule, optimizer, metrics, and paired t-test."""

import gc
import math
import sys
import threading
import warnings
import weakref

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


def fresh_stats(net):
    return {s: W.CovarianceStats(net.cfg.stage_channels[s - 1], net.cfg.k)
            for s in sorted(net.cfg.isw_stages)}


def one_tape_step(net, x, tx, m, stats):
    """The composition train_step replaced: both views on this thread, on
    one tape.  Returns (breakdown, each parameter's gradient)."""
    frozen = all(st.frozen for st in stats.values())
    with Tape() as tape:
        rec = N.forward_pair(Tensor(x), Tensor(tx), net)
        if not frozen:
            for s, (a, b) in rec.cov_pairs.items():
                W.update_warmup(stats[s], a, b)
        loss, breakdown = N.total_loss(rec, m, net.cfg, stats if frozen else None)
        tape.backward(loss)
        return breakdown, [tape.grad(p.tensor) for p in net.parameters()]


def threaded_step(net, x, twin, m, stats):
    with Tape() as tape:
        _, breakdown = TR.train_step(tape, net, Tensor(x), twin, m, stats)
        return breakdown, [tape.grad(p.tensor) for p in net.parameters()]


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, (4, 3, 48, 48))
    return x, np.clip(x * 1.1 + 0.05, 0, 1), rng.integers(0, 4, (4, 48, 48))


def train_and_evaluate(tiny_sets):
    train_set, val_set = tiny_sets
    net = SegNet(NetConfig(), seed=2)
    TR.train(net, TrainConfig(epochs=2, seed=2, warmup_epochs=1), train_set, val_set)
    evaluate(net, val_set + train_set, 4)


def assert_pool_and_worker(threads, cores):
    """At most one pool thread per core, plus one leaf worker if cores > 1."""
    pool = [t for t in threads if t.name.startswith("dife_")]
    workers = [t for t in threads if t.name == "dife-leaf"]
    assert len(threads) == len(pool) + len(workers)
    assert 0 < len(pool) <= cores
    assert len(workers) == (cores > 1)


class TestTrainStep:
    @pytest.mark.parametrize("blocks", [
        {},
        # the twin reaches only stage 1: stages 2-3 take raw gradients alone
        {"isw_stages": frozenset({1}), "k": 3},
        {"snr_stages": frozenset(), "isw_stages": frozenset({2, 3}), "lambda2": 0.0},
    ], ids=["default", "isw1", "no-snr"])
    def test_gradients_equal_one_tape_before_and_after_the_freeze(self, batch, blocks):
        x, tx, m = batch
        net = SegNet(NetConfig(**blocks), seed=1)
        one, two = fresh_stats(net), fresh_stats(net)
        for phase in ("warm-up", "post-freeze"):
            want_terms, want = one_tape_step(net, x, tx, m, one)
            got_terms, got = threaded_step(net, x, lambda: Tensor(tx), m, two)
            assert got_terms == want_terms, phase
            for p, a, b in zip(net.parameters(), want, got):
                assert np.array_equal(a, b), (phase, p.name)
            if phase == "warm-up":
                for s in one:
                    assert np.array_equal(one[s].v, two[s].v), s
                    one[s].freeze()
                    two[s].freeze()
        assert all(st.mask.any() for st in two.values())
        assert {f"isw_{s}" for s in two} <= set(got_terms)

    def test_warmup_records_only_on_this_thread(self, batch, monkeypatch, twin_threads):
        x, tx, m = batch
        net = SegNet(NetConfig(), seed=1)
        entered = []
        enter = T.Tape.__enter__

        def spy(tape):
            entered.append(threading.get_ident())
            return enter(tape)

        monkeypatch.setattr(T.Tape, "__enter__", spy)
        stats = fresh_stats(net)
        threaded_step(net, x, lambda: Tensor(tx), m, stats)
        assert len(entered) == 1
        for st in stats.values():
            st.freeze()
        threaded_step(net, x, lambda: Tensor(tx), m, stats)
        assert len(entered) == 3 and entered[2] in twin_threads
        assert threading.get_ident() not in twin_threads

    def test_no_twin_pass_when_no_isw_term_reads_it(self, tiny_sets, monkeypatch):
        # lambda1 = 0: no V, no freeze and no ISW term, so no twin view either;
        # its parameters are still drawn, so training equals the ISW-free run's
        train_set, val_set = tiny_sets
        cfg = TrainConfig(epochs=2, seed=2, warmup_epochs=1)
        plain = SegNet(NetConfig(isw_stages=frozenset(), lambda1=0.0), seed=2)
        TR.train(plain, cfg, train_set, val_set)
        monkeypatch.setattr(N, "twin_covariances", lambda *args: pytest.fail("twin view encoded"))
        monkeypatch.setattr(D, "apply_photometric", lambda img, p: pytest.fail("twin view built"))
        net = SegNet(NetConfig(lambda1=0.0), seed=2)
        TR.train(net, cfg, train_set, val_set)
        for a, b in zip(plain.parameters(), net.parameters()):
            assert np.array_equal(a.data, b.data), a.name

    def test_twin_drops_its_record_when_every_mask_is_empty(self, batch, monkeypatch):
        # its pool thread may next run an eval piece, which opens no tape
        x, tx, m = batch
        net = SegNet(NetConfig(), seed=1)
        stats = fresh_stats(net)
        for st in stats.values():
            st.mask = np.zeros((st.channels, st.channels), dtype=bool)
        tapes = []
        enter = T.Tape.__enter__

        def spy(tape):
            tapes.append(tape)
            return enter(tape)

        monkeypatch.setattr(T.Tape, "__enter__", spy)
        breakdown, _ = threaded_step(net, x, lambda: Tensor(tx), m, stats)
        assert all(breakdown[f"isw_{s}"] == 0.0 for s in stats)
        assert len(tapes) == 2 and tapes[1].nodes is None

    def test_one_thread_per_core_after_train_and_evaluate(self, tiny_sets):
        # the twin branch and evaluate's pieces share one pool; conv leaf
        # gradients go to one worker thread, which one core does without
        train_and_evaluate(tiny_sets)
        threads = [t for t in threading.enumerate() if t.name.startswith("dife")]
        assert_pool_and_worker(threads, T.core_count())

    def test_no_worker_on_one_core(self, tiny_sets, monkeypatch):
        monkeypatch.setattr(T, "core_count", lambda: 1)
        monkeypatch.setattr(T, "_WORKER", None)
        monkeypatch.setattr(TR, "_POOL", None)
        before = set(threading.enumerate())
        try:
            train_and_evaluate(tiny_sets)
            started = [t for t in set(threading.enumerate()) - before if t.name.startswith("dife")]
        finally:
            if TR._POOL is not None:
                TR._POOL.shutdown()
        assert T._WORKER is None
        assert_pool_and_worker(started, 1)

    @pytest.mark.parametrize("frozen", [False, True], ids=["warm-up", "post-freeze"])
    def test_twin_errors_reach_the_caller_typed(self, batch, monkeypatch, twin_threads, frozen):
        x, tx, m = batch
        net = SegNet(NetConfig(), seed=1)
        stats = fresh_stats(net)
        if frozen:
            threaded_step(net, x, lambda: Tensor(tx), m, stats)
            for st in stats.values():
                st.freeze()
        # before the twin's covariances exist: this thread waits on them
        with pytest.raises(T.ShapeError, match="view shapes differ"):
            threaded_step(net, x, lambda: Tensor(tx[:, :, :40]), m, stats)
        if frozen:
            # after: the twin fails in its own backward
            real = N.add_isw_terms

            def failing(*args):
                if threading.get_ident() in twin_threads:
                    raise ContractError("twin share failed")
                return real(*args)

            with monkeypatch.context() as patch:
                patch.setattr(N, "add_isw_terms", failing)
                with pytest.raises(ContractError, match="twin share failed"):
                    threaded_step(net, x, lambda: Tensor(tx), m, stats)
        # the pool lives on and the next step is whole
        want_terms, want = one_tape_step(net, x, tx, m, stats if frozen else fresh_stats(net))
        got_terms, got = threaded_step(net, x, lambda: Tensor(tx), m,
                                       stats if frozen else fresh_stats(net))
        assert got_terms == want_terms
        assert all(np.array_equal(a, b) for a, b in zip(want, got))

    def test_callers_errstate_governs_the_twin_branch(self, batch):
        x, tx, m = batch
        net = SegNet(NetConfig(), seed=1)
        huge = Tensor(tx * 1e200)   # the SNR stage's variance overflows, on the twin only
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            threaded_step(net, x, lambda: huge, m, fresh_stats(net))
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            threaded_step(net, x, lambda: huge, m, fresh_stats(net))


PLAIN = {"snr_stages": frozenset(), "isw_stages": frozenset(), "lambda1": 0.0, "lambda2": 0.0}


def jobs_on_the_worker(job, submit=T._submit):
    """A _submit that waits for the worker to finish each job, so that no
    job runs on the walk's own thread."""
    submit(job)
    assert job.done.wait(timeout=60)


class TestLeafWorker:
    """Tape.backward hands each conv's weight and bias gradients to the leaf
    worker; the reference is the same step with every job run inline."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(T, "core_count", lambda: 2)

    @pytest.mark.parametrize("blocks", [
        {}, PLAIN, {"isw_stages": frozenset({1}), "k": 3},
        {"snr_stages": frozenset(), "isw_stages": frozenset({2, 3}), "lambda2": 0.0},
    ], ids=["default", "plain", "isw1", "no-snr"])
    def test_gradients_equal_inline_jobs(self, batch, monkeypatch, blocks):
        x, tx, m = batch
        net = SegNet(NetConfig(**blocks), seed=1)
        submits = {"inline": T._LeafJob.run, "worker": jobs_on_the_worker, "either": T._submit}
        stats = {mode: fresh_stats(net) for mode in submits}
        jobs = []
        for phase in ("warm-up", "post-freeze"):
            got = {}
            for mode, submit in submits.items():
                with monkeypatch.context() as patch:
                    patch.setattr(T, "_submit", lambda job, submit=submit: (jobs.append(job),
                                                                            submit(job)))
                    got[mode] = threaded_step(net, x, lambda: Tensor(tx), m, stats[mode])
            for mode in ("worker", "either"):
                assert got[mode][0] == got["inline"][0], (phase, mode)
                for p, a, b in zip(net.parameters(), got["inline"][1], got[mode][1]):
                    assert np.array_equal(a, b), (phase, mode, p.name)
            for st in (st for by_stage in stats.values() for st in by_stage.values()):
                st.frozen or st.freeze()
        assert len(jobs) >= 2 * 3 * 11

    @pytest.mark.parametrize("submit", [T._submit, jobs_on_the_worker], ids=["either", "worker"])
    def test_a_leaf_sums_its_gradients_in_walk_order(self, monkeypatch, submit):
        # four conv uses (jobs) and one mul (inline) of w: its gradient is the
        # left-to-right sum that a serial walk forms, the last use's term first
        monkeypatch.setattr(T, "_submit", submit)
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        b = T.zeros((1, 4, 1, 1), requires_grad=True)
        xs = [Tensor(rng.standard_normal((2, 3, 8, 8))) for _ in range(4)]
        rs = [Tensor(rng.standard_normal((2, 4, 8, 8))) for _ in range(4)]
        c = Tensor(rng.standard_normal(w.shape))
        terms = [lambda x=x, r=r: T.sum_all(T.mul(T.conv2d(x, w, b, pad=1), r))
                 for x, r in zip(xs, rs)] + [lambda: T.sum_all(T.mul(w, c))]

        def grad_w(fns):
            with Tape() as tape:
                outs = [fn() for fn in fns]
                root = outs[0]
                for out in outs[1:]:
                    root = T.add(root, out)
                tape.backward(root)
                return tape.grad(w)

        want = None
        for term in reversed(terms):
            g = grad_w([term])
            want = g if want is None else want + g
        got = grad_w(terms)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, sum(grad_w([term]) for term in terms))

    def test_a_failed_job_reaches_the_caller_typed(self, batch, monkeypatch):
        x = Tensor(np.ones((1, 1, 4, 4)))
        w = Tensor(np.full((1, 1, 3, 3), 1e-300), requires_grad=True)
        b = T.zeros((1, 1, 1, 1), requires_grad=True)

        def backward():
            # only the leaf job overflows: its output gradient is 1e308
            with Tape() as tape:
                tape.backward(T.sum_all(T.scale(T.conv2d(x, w, b, pad=1), 1e308)))
                return tape.grad(w), tape.grad(b)

        monkeypatch.setattr(T, "_submit", jobs_on_the_worker)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            backward()
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            dw, db = backward()
        assert np.isinf(dw).all() and np.isinf(db).all()
        # the next step is whole
        net = SegNet(NetConfig(**PLAIN), seed=1)
        _, got = threaded_step(net, batch[0], None, batch[2], {})
        monkeypatch.setattr(T, "_submit", T._LeafJob.run)
        _, want = threaded_step(net, batch[0], None, batch[2], {})
        assert all(np.array_equal(a, b) for a, b in zip(want, got))

    def test_no_job_holds_an_array_once_backward_returns(self, batch, monkeypatch):
        x, tx, m = batch
        net = SegNet(NetConfig(), seed=1)
        stats = fresh_stats(net)
        threaded_step(net, x, lambda: Tensor(tx), m, stats)
        for st in stats.values():
            st.freeze()
        lowered, jobs = [], []
        lower, submit = T._lower, T._submit

        def spy_lower(*args):
            low, size = lower(*args)
            lowered.append(weakref.ref(low))
            return low, size

        monkeypatch.setattr(T, "_lower", spy_lower)
        monkeypatch.setattr(T, "_submit", lambda job: (jobs.append(job), submit(job)))
        gc.disable()   # reference counts alone must free them
        try:
            with Tape() as tape:   # post-freeze: the twin's encoder sends jobs as well
                TR.train_step(tape, net, Tensor(x), lambda: Tensor(tx), m, stats)
                assert len(jobs) == 11 + 8 and len(lowered) >= 11 + 8
                assert all(ref() is None for ref in lowered)
                assert all(job.call is None and job.out is None for job in jobs)
        finally:
            gc.enable()

    def test_one_core_computes_leaf_gradients_inline(self, batch, monkeypatch):
        x, tx, m = batch
        net = SegNet(NetConfig(), seed=1)
        _, want = threaded_step(net, x, lambda: Tensor(tx), m, fresh_stats(net))
        monkeypatch.setattr(T, "core_count", lambda: 1)
        monkeypatch.setattr(T, "_WORKER", None)
        monkeypatch.setattr(T, "_submit", lambda job: pytest.fail("a job went to the worker"))
        _, got = threaded_step(net, x, lambda: Tensor(tx), m, fresh_stats(net))
        assert T._WORKER is None
        assert all(np.array_equal(a, b) for a, b in zip(want, got))

    def test_more_threads_than_cores_share_the_worker(self):
        # each thread trains its own net on its own tape, every backward
        # sending its jobs to the one worker, with a GIL switch every 10 us
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (2, 3, 16, 16))
        tx, m = np.clip(x * 1.1 + 0.05, 0, 1), rng.integers(0, 4, (2, 16, 16))

        def run(k):
            net = SegNet(NetConfig(**({} if k % 2 else PLAIN)), seed=k)
            stats = fresh_stats(net)
            for step in range(4):
                with Tape() as tape:
                    TR.train_step(tape, net, Tensor(x), lambda: Tensor(tx), m, stats)
                    grads = [tape.grad(p.tensor).copy() for p in net.parameters()]
                    sgd_step(net.parameters(), tape, 0.01, 0.9)
                if step == 1:
                    for st in stats.values():
                        st.freeze()
            return grads + [p.data for p in net.parameters()]

        n = T.core_count() + 3
        want = [run(k) for k in range(n)]
        got, errors = [None] * n, []

        def thread(k):
            try:
                got[k] = run(k)
            except BaseException as exc:   # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=thread, args=(k,)) for k in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        for k in range(n):
            assert all(np.array_equal(a, b) for a, b in zip(want[k], got[k])), k


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
        """Set the core count evaluate sees, on a pool of that many threads;
        returns the sizes of the pieces it runs."""
        monkeypatch.setattr(TR, "_POOL", None)
        sizes = []
        piece_counts = TR._piece_counts

        def spy(net, samples, num_classes):
            sizes.append(len(samples))
            return piece_counts(net, samples, num_classes)

        monkeypatch.setattr(TR, "_piece_counts", spy)

        def set_cores(n):
            monkeypatch.setattr(T, "core_count", lambda: n)
            return sizes
        yield set_cores
        if TR._POOL is not None:
            TR._POOL.shutdown()

    @pytest.mark.parametrize("n,ncores,expect", [
        (9, 2, [4, 4, 1]), (10, 2, [4, 4, 2]), (11, 2, [4, 4, 3]), (14, 2, [4, 4, 3, 3]),
        (13, 2, [4, 4, 2, 3]), (13, 4, [2, 2, 2, 2, 2, 3]),
        (17, 4, [2, 2, 2, 2, 2, 2, 2, 2, 1]), (16, 1, [8, 8]),
        # a set of one batch is split by the same rule
        (8, 2, [4, 4]), (6, 2, [3, 3]), (1, 2, [1]),
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
        for name in ("tp", "fp", "fn", "tn"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    def test_a_failed_piece_cancels_the_pieces_not_started(self, images, cores, monkeypatch):
        cores(1)
        started, release = [], threading.Event()

        def piece(net, samples, num_classes):
            started.append(len(samples))
            if len(started) == 1:
                raise FloatingPointError("first piece")
            release.wait(timeout=60)   # holds the one pool thread until evaluate returns
            return ConfusionCounts(num_classes)

        monkeypatch.setattr(TR, "_piece_counts", piece)
        with pytest.raises(FloatingPointError, match="first piece"):
            evaluate(SegNet(NetConfig(), seed=0), (images * 8)[:40], 4)
        release.set()
        TR._POOL.shutdown()   # runs whatever was left queued
        assert len(started) <= 2

    def test_runs_under_an_active_tape(self, images, monkeypatch):
        # tapes are per thread and every piece runs on the pool, a set of one
        # batch or one piece too: nothing records on the caller's tape
        monkeypatch.setattr(TR, "compute_report", lambda counts: counts)
        net = SegNet(NetConfig(), seed=0)
        for n in (1, 6, 12):
            want = serial_counts(net, images[:n], 4)
            with Tape() as tape:
                got = evaluate(net, images[:n], 4)
                assert tape.nodes == [] and tape.leaves == {}, n
            for name in ("tp", "fp", "fn", "tn"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    def test_callers_errstate_governs_the_pieces(self, images):
        net = SegNet(NetConfig(), seed=0)
        w = next(p for p in net.parameters() if p.name == "enc1.conv_a.w").tensor
        w.data = w.data * 1e200    # the SNR stage's variance overflows
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            evaluate(net, images[:8], 4)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate(net, images[:8], 4)
