"""Segmentation network: pairing, losses, reduction, checkpoints."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import dife.net as N
import dife.snr as S
import dife.isw as W
import dife.tensor as T
from dife.net import NetConfig, SegNet, forward_pair, task_loss, total_loss
from dife.tensor import ContractError, ShapeError, Tape, Tensor


def make_net(seed=0, **kwargs):
    return SegNet(NetConfig(**kwargs), seed=seed)


def rand_batch(rng, n=2, h=8, w=8, classes=4):
    x = rng.uniform(0, 1, size=(n, 3, h, w))
    m = rng.integers(0, classes, size=(n, h, w))
    return x, m


class TestConfig:
    def test_rejects_out_of_range_stage(self):
        with pytest.raises(ContractError):
            NetConfig(snr_stages={4})
        with pytest.raises(ContractError):
            NetConfig(isw_stages={0})

    @pytest.mark.parametrize("field,value", [
        ("stage_channels", (8.5, 16, 32)), ("stage_channels", (8, 16.0, 32)),
        ("snr_stages", [2.7]), ("isw_stages", {True}), ("snr_stages", ["2"]),
    ])
    def test_rejects_non_integer_lists(self, field, value):
        # int() would truncate 8.5 to 8 and 2.7 to 2, and True is an int subclass
        with pytest.raises(ContractError, match=field):
            NetConfig(**{field: value})

    def test_rejects_negative_weights(self):
        with pytest.raises(ContractError):
            NetConfig(lambda1=-0.1)


class TestForward:
    def test_logits_keep_spatial_size(self):
        rng = np.random.default_rng(0)
        net = make_net()
        x, _ = rand_batch(rng, n=1, h=16, w=16)
        logits = net.forward(Tensor(x))
        assert logits.shape == (1, 4, 16, 16)

    def test_empty_blocks_record_nothing(self):
        rng = np.random.default_rng(1)
        net = make_net(snr_stages=frozenset(), isw_stages=frozenset())
        x, _ = rand_batch(rng, n=1)
        rec = forward_pair(Tensor(x), Tensor(x), net)
        assert rec.snr_outputs == {}
        assert rec.cov_pairs == {}

    def test_identical_views_give_zero_pair_variance(self):
        rng = np.random.default_rng(2)
        net = make_net()
        x, _ = rand_batch(rng, n=2)
        rec = forward_pair(Tensor(x), Tensor(x), net)
        assert rec.cov_pairs
        for theta_x, theta_tx in rec.cov_pairs.values():
            v = W.covariance_variance(theta_x.data, theta_tx.data)
            assert np.abs(v).max() == 0.0

    @pytest.mark.parametrize("h,w", [(34, 32), (32, 30), (10, 10)])
    def test_size_not_multiple_of_4_rejected(self, h, w):
        # the logits would come back at another size than the mask
        with pytest.raises(ContractError, match="multiple of 4"):
            make_net().forward(Tensor(np.zeros((1, 3, h, w))))

    def test_mismatched_views_rejected(self):
        net = make_net()
        with pytest.raises(ShapeError):
            forward_pair(Tensor(np.zeros((1, 3, 8, 8))), Tensor(np.zeros((1, 3, 8, 16))), net)

    def test_baseline_reduction_is_bit_identical(self):
        rng = np.random.default_rng(3)
        net = make_net(snr_stages=frozenset(), isw_stages=frozenset(),
                       lambda1=0.0, lambda2=0.0)
        x, m = rand_batch(rng, n=2)
        rec = forward_pair(Tensor(x), Tensor(x), net)
        ref = net.forward_baseline(Tensor(x))
        assert np.array_equal(rec.logits.data, ref.data)
        loss_total, _ = total_loss(rec, m, net.cfg)
        loss_ref = task_loss(ref, m)
        assert loss_total.item() == loss_ref.item()


class TestTaskLoss:
    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((1, 4, 2, 2)))
        mask = np.zeros((1, 2, 2), dtype=np.int64)
        assert task_loss(logits, mask).item() == pytest.approx(math.log(4), abs=1e-12)

    def test_confident_correct_limit(self):
        logits = np.zeros((1, 3, 2, 2))
        mask = np.array([[[0, 1], [2, 0]]])
        np.put_along_axis(logits, mask[:, None], 50.0, axis=1)
        assert task_loss(Tensor(logits), mask).item() < 1e-10

    def test_mean_of_known_pixel_losses(self):
        # two pixels engineered to contribute ln2 and ln4 exactly
        logits = np.zeros((1, 2, 1, 2))
        logits[0, 0, 0, 0] = 0.0                 # p(true=0) = 1/2 -> ln 2
        logits[0, 1, 0, 1] = -math.log(3.0)      # p(true=1) = 1/4 -> ln 4
        mask = np.array([[[0, 1]]])
        expect = (math.log(2) + math.log(4)) / 2
        assert task_loss(Tensor(logits), mask).item() == pytest.approx(expect, abs=1e-12)

    def test_ignore_index_excluded(self):
        logits = Tensor(np.zeros((1, 4, 1, 2)))
        mask = np.array([[[1, -1]]])
        assert task_loss(Tensor(logits.data), mask).item() == pytest.approx(math.log(4))

    def test_out_of_range_mask_reports_pixel(self):
        logits = Tensor(np.zeros((1, 3, 2, 2)))
        mask = np.array([[[0, 1], [2, 7]]])
        with pytest.raises(ContractError, match=r"pixel \(0, 1, 1\)"):
            task_loss(logits, mask)


class TestTotalLoss:
    def test_weighted_sum_of_known_components(self, monkeypatch):
        # L_task = 1.0, L_ISW = 0.5, L_dc = 0.9 + 0.5, lambda1 = 0.6,
        # lambda2 = 1.0  ->  1.0 + 0.6*0.5 + 1.0*1.4 = 2.7
        const = lambda v: Tensor(np.full((1, 1, 1, 1), v))
        monkeypatch.setattr(N, "task_loss", lambda *a, **k: const(1.0))
        monkeypatch.setattr(S, "dual_causality_terms",
                            lambda *a, **k: (const(0.9), const(0.5)))
        monkeypatch.setattr(W, "isw_loss", lambda *a, **k: const(0.5))
        cfg = NetConfig(lambda1=0.6, lambda2=1.0)
        dummy = S.SnrOutput(f_norm=None, f_plus=None, f_minus=None,
                            r_plus=None, r_minus=None, alpha=None)
        rec = N.ForwardRecord(logits=const(0.0),
                              snr_outputs={2: dummy},
                              cov_pairs={1: (None, None)})
        stats = {1: W.CovarianceStats(4, 2)}
        stats[1].mask = np.zeros((4, 4), dtype=bool)  # frozen, empty mask
        loss, breakdown = total_loss(rec, None, cfg, stats)
        assert loss.item() == pytest.approx(2.7, abs=1e-12)
        assert breakdown["task"] == 1.0
        assert breakdown["dc_2"] == pytest.approx(1.4)
        assert breakdown["isw_1"] == 0.5

    def test_zero_weights_equal_task_loss(self):
        rng = np.random.default_rng(4)
        net = make_net(lambda1=0.0, lambda2=0.0)
        x, m = rand_batch(rng, n=2)
        rec = forward_pair(Tensor(x), Tensor(x), net)
        loss, breakdown = total_loss(rec, m, net.cfg)
        assert loss.item() == task_loss(rec.logits, m).item()
        assert set(breakdown) == {"task", "total"}

    def test_matches_component_oracle(self):
        rng = np.random.default_rng(5)
        net = make_net()
        stats = frozen_stats(net, rng)
        x, m = rand_batch(rng, n=2, h=4, w=4)
        tx = np.clip(x + 0.1, 0, 1)
        rec = forward_pair(Tensor(x), Tensor(tx), net)
        loss, breakdown = total_loss(rec, m, net.cfg, stats)
        expect = task_loss(rec.logits, m).item()
        for s, out in rec.snr_outputs.items():
            lp, lm = S.dual_causality_terms(out.f_norm, out.f_plus, out.f_minus)
            expect += net.cfg.lambda2 * (lp.item() + lm.item())
        for s, (ta, tb) in rec.cov_pairs.items():
            expect += net.cfg.lambda1 * W.isw_loss(ta, tb, stats[s].mask).item()
        assert loss.item() == pytest.approx(expect, abs=1e-9)
        assert breakdown["total"] == loss.item()

    def test_unfrozen_mask_rejected(self):
        rng = np.random.default_rng(6)
        net = make_net()
        x, m = rand_batch(rng, n=1)
        rec = forward_pair(Tensor(x), Tensor(x), net)
        stats = {s: W.CovarianceStats(net.cfg.stage_channels[s - 1], 2)
                 for s in net.cfg.isw_stages}
        with pytest.raises(ContractError):
            total_loss(rec, m, net.cfg, stats)

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(7)
        net = make_net()
        stats = frozen_stats(net, rng)
        x, m = rand_batch(rng, n=3)
        tx = np.clip(x * 1.1, 0, 1)
        perm = np.array([2, 0, 1])
        rec_a = forward_pair(Tensor(x), Tensor(tx), net)
        loss_a, _ = total_loss(rec_a, m, net.cfg, stats)
        rec_b = forward_pair(Tensor(x[perm]), Tensor(tx[perm]), net)
        loss_b, _ = total_loss(rec_b, m[perm], net.cfg, stats)
        assert loss_a.item() == pytest.approx(loss_b.item(), abs=1e-12)
        assert np.allclose(rec_a.logits.data[perm], rec_b.logits.data, atol=1e-12)


def frozen_stats(net, rng):
    """Warm up covariance statistics with one random pair and freeze."""
    stats = {s: W.CovarianceStats(net.cfg.stage_channels[s - 1], net.cfg.k)
             for s in net.cfg.isw_stages}
    x = rng.uniform(0, 1, size=(2, 3, 8, 8))
    rec = forward_pair(Tensor(x), Tensor(np.clip(x + 0.05, 0, 1)), net)
    for s, (ta, tb) in rec.cov_pairs.items():
        W.update_warmup(stats[s], ta, tb)
        stats[s].freeze()
    return stats


class TestSgdDescent:
    def test_small_step_decreases_loss(self):
        from dife.train import sgd_step
        decreased = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            net = make_net(seed=seed)
            stats = frozen_stats(net, rng)
            x, m = rand_batch(rng, n=2)
            tx = np.clip(x + rng.uniform(-0.1, 0.1, size=x.shape), 0, 1)

            def run_loss():
                rec = forward_pair(Tensor(x), Tensor(tx), net)
                return total_loss(rec, m, net.cfg, stats)[0]

            with Tape() as tape:
                loss = run_loss()
                before = loss.item()
                tape.backward(loss)
                sgd_step(net.parameters(), tape, 1e-4, 0.0)
            after = run_loss().item()
            decreased += after < before
        assert decreased >= 18


class TestStepMemory:
    # Traced peak over two full-method steps at the acceptance size: 25.43 MiB
    # when opening a tape drops the previous step's gradients, 40.23 MiB when
    # they lived until the next tape closed, 78.58 MiB when the closed record
    # also kept every closure.  numpy reports its buffers to tracemalloc, so
    # the figure repeats to within bytes.
    BOUND_MIB = 30.0

    def test_two_full_steps_stay_under_traced_peak(self):
        from dife.train import sgd_step
        rng = np.random.default_rng(0)
        net = make_net()
        stats = frozen_stats(net, rng)
        x, m = rand_batch(rng, n=4, h=48, w=48)
        tx = np.clip(x * 1.1 + 0.05, 0, 1)
        tracemalloc.start()
        try:
            for _ in range(2):
                with Tape() as tape:
                    rec = forward_pair(Tensor(x), Tensor(tx), net)
                    loss, _ = total_loss(rec, m, net.cfg, stats)
                    tape.backward(loss)
                    sgd_step(net.parameters(), tape, 1e-3, 0.9)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak < self.BOUND_MIB


class TestTapeSize:
    # One post-freeze step of the default config: 139 nodes.  The ISW loss
    # and the two dual-causality terms are one node each per stage; as
    # compositions of primitives they took 178.
    NODES = 139

    def test_post_freeze_default_step_node_count(self):
        rng = np.random.default_rng(0)
        net = make_net()
        stats = frozen_stats(net, rng)
        assert all(st.mask.any() for st in stats.values())
        x, m = rand_batch(rng, n=2)
        with Tape() as tape:
            rec = forward_pair(Tensor(x), Tensor(np.clip(x + 0.05, 0, 1)), net)
            total_loss(rec, m, net.cfg, stats)
            assert len(tape.nodes) == self.NODES


class TestThreadedRecording:
    def test_two_threads_on_one_net_match_serial_gradients(self):
        # each thread records on its own tape, so a shared Parameter has one
        # node per tape; a GIL switch every microsecond interleaves the steps
        rng = np.random.default_rng(0)
        net = make_net()
        stats = frozen_stats(net, rng)
        batches = [rand_batch(rng, n=4, h=48, w=48) for _ in range(2)]

        def grads(batch):
            x, m = batch
            with Tape() as tape:
                rec = forward_pair(Tensor(x), Tensor(np.clip(x * 1.1 + 0.05, 0, 1)), net)
                loss, _ = total_loss(rec, m, net.cfg, stats)
                tape.backward(loss)
                return [tape.grad(p.tensor) for p in net.parameters()]

        want = [grads(b) for b in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                rounds = [list(pool.map(grads, batches, timeout=300)) for _ in range(4)]
        finally:
            sys.setswitchinterval(interval)
        for got in rounds:
            for g_want, g_got in zip(want, got):
                for p, a, b in zip(net.parameters(), g_want, g_got):
                    assert np.array_equal(a, b), p.name


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        net = make_net(seed=11)
        path = tmp_path / "ck.dife"
        N.save_checkpoint(path, net)
        other = make_net(seed=99)
        assert not all(np.array_equal(a.data, b.data)
                       for a, b in zip(net.parameters(), other.parameters()))
        N.load_checkpoint(path, other)
        for a, b in zip(net.parameters(), other.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dife"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ContractError, match="magic"):
            N.load_checkpoint(path, make_net())

    def test_shape_mismatch_rejected(self, tmp_path):
        net = make_net()
        path = tmp_path / "ck.dife"
        N.save_checkpoint(path, net)
        wider = make_net(stage_channels=(12, 16, 32))
        with pytest.raises(ContractError):
            N.load_checkpoint(path, wider)

    def _saved(self, tmp_path, **kwargs):
        path = tmp_path / "ck.dife"
        N.save_checkpoint(path, make_net(**kwargs))
        return path, path.read_bytes()

    def test_truncated_header_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        # cut inside the version field, the count and the first name length
        for cut in (5, 8, 11):
            path.write_bytes(blob[:cut])
            with pytest.raises(ContractError, match="truncated") as err:
                N.load_checkpoint(path, make_net())
            assert str(path) in str(err.value)

    def test_truncated_tensor_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        for cut in (len(blob) - 8, len(blob) - 3, len(blob) // 2):
            path.write_bytes(blob[:cut])
            with pytest.raises(ContractError, match="truncated") as err:
                N.load_checkpoint(path, make_net())
            assert str(path) in str(err.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        for junk in (b"\x00", b"junk" * 5):
            path.write_bytes(blob + junk)
            with pytest.raises(ContractError, match="trailing") as err:
                N.load_checkpoint(path, make_net())
            assert str(path) in str(err.value)

    def test_parameter_the_net_lacks_rejected(self, tmp_path):
        # trained with SNR at {2, 3}; an SNR-{3} net has no snr2 weights to take them
        path, _ = self._saved(tmp_path, snr_stages={2, 3})
        with pytest.raises(ContractError, match="snr2") as err:
            N.load_checkpoint(path, make_net(snr_stages={3}))
        assert str(path) in str(err.value)

    def test_missing_parameter_rejected(self, tmp_path):
        path, _ = self._saved(tmp_path, snr_stages={3})
        with pytest.raises(ContractError, match="missing parameter snr2"):
            N.load_checkpoint(path, make_net(snr_stages={2, 3}))

    def test_repeated_parameter_rejected(self, tmp_path):
        net = make_net()
        path = tmp_path / "ck.dife"
        N.save_checkpoint(path, net)
        blob = path.read_bytes()
        first = net.parameters()[0]
        record_len = 2 + len(first.name) + 16 + 8 * first.tensor.data.size
        count = int.from_bytes(blob[6:10], "little")
        # the first record written twice, with the count raised to match
        blob = blob[:6] + (count + 1).to_bytes(4, "little") + blob[10 : 10 + record_len] + blob[10:]
        path.write_bytes(blob)
        with pytest.raises(ContractError, match="repeated"):
            N.load_checkpoint(path, make_net())

