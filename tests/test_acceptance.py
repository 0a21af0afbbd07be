"""End-to-end acceptance gate: ten numbered criteria, one pass/fail line each.

The desk-scale generalization runs (criteria 4 and 5) train nine networks,
one worker process per core, and dominate the runtime of the suite.
"""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest

import dife.cli as C
import dife.data as D
import dife.gradcheck as G
import dife.isw as W
import dife.net as N
import dife.snr as S
import dife.tensor as T
import dife.train as TR
from dife.metrics import compute_report, confusion_from_masks
from dife.net import NetConfig, SegNet
from dife.stats import paired_t_test
from dife.tensor import Tape, Tensor
from dife.train import TrainConfig, evaluate, poly_lr, sgd_step

from conftest import record_criterion

# --- desk-scale benchmark recipe (calibrated; see training fixture) ---------
BENCH_COUNT = 60
BENCH_SEED = 0
EPOCHS = 60
WARMUP = 8
LAMBDA1 = 0.2
LAMBDA2 = 0.3
SEEDS = (1, 3, 8)


def run_training(job):
    """One desk-scale run, in a `run_jobs` worker: (samples, seed, variant) ->
    (source mIoU, target mIoU, wall seconds of the run)."""
    (train_set, val_set, test_src, test_tgt), seed, variant = job
    t0 = time.perf_counter()
    if variant == "baseline":
        # the method's own loop with both blocks off (criterion 10)
        ncfg = NetConfig(snr_stages=frozenset(), isw_stages=frozenset(),
                         lambda1=0.0, lambda2=0.0)
    else:
        ncfg = NetConfig(snr_stages=frozenset({2, 3}),
                         isw_stages=frozenset({1, 2, 3}),
                         lambda1=LAMBDA1, lambda2=0.0 if variant == "nodc" else LAMBDA2)
    net = SegNet(ncfg, seed=seed)
    tcfg = TrainConfig(epochs=EPOCHS, seed=seed, warmup_epochs=WARMUP,
                       early_stop_patience=EPOCHS)
    TR.train(net, tcfg, train_set, val_set)
    return (evaluate(net, test_src, 4).miou, evaluate(net, test_tgt, 4).miou,
            time.perf_counter() - t0)


@pytest.fixture(scope="module")
def bench():
    train_set = D.generate_domain(48, "source", BENCH_SEED)
    val_set = D.generate_domain(6, "source", BENCH_SEED, start_index=48)
    test_src = D.generate_domain(6, "source", BENCH_SEED, start_index=54)
    test_tgt = D.generate_domain(6, "target", BENCH_SEED, start_index=54)
    return train_set, val_set, test_src, test_tgt


@pytest.fixture(scope="module")
def trained(bench):
    """All nine desk-scale runs, per seed full / no-dc / baseline, spread over
    the cores by `run_jobs`.  Each variant maps to its (source mIoU, target
    mIoU) per seed.  Criterion 4's core minutes are the summed wall times of
    its six runs, which the workers do not shorten."""
    variants = ("full", "nodc", "baseline")   # the longer runs first
    keys = [(variant, seed) for variant in variants for seed in SEEDS]
    runs = dict(zip(keys, C.run_jobs(run_training, [(bench, seed, variant)
                                                    for variant, seed in keys])))
    results = {variant: [runs[variant, seed][:2] for seed in SEEDS] for variant in variants}
    results["core_minutes"] = sum(runs[variant, seed][2] for variant in ("baseline", "full")
                                  for seed in SEEDS) / 60.0
    return results


class TestCriterion1Gradients:
    def test_gradient_oracle(self):
        t0 = time.time()
        rows, ok = G.run(("tensor", "snr", "isw", "net"))
        elapsed = time.time() - t0
        worst = max(r["max_rel_err"] for r in rows)
        passed = ok and elapsed < 120.0
        assert record_criterion(
            1, f"finite-difference oracle, {len(rows)} checks, worst "
               f"rel err {worst:.2e}, {elapsed:.0f}s", passed)


class TestCriterion2Snr:
    def test_snr_invariants(self):
        rng = np.random.default_rng(0)
        ok = True
        for seed in range(5):
            f = Tensor(rng.normal(size=(2, 6, 7, 5)))
            norm = S.instance_normalize(f)
            mean = norm.data.mean(axis=(2, 3))
            std = norm.data.std(axis=(2, 3))
            ok &= np.abs(mean).max() < 1e-9
            ok &= np.abs(std - 1.0).max() < 1e-4
            # affine style invariance (exact normalization, eps = 0)
            a, b = 2.5, -0.7
            lhs = S.instance_normalize(Tensor(a * f.data + b), eps=0.0)
            rhs = S.instance_normalize(f, eps=0.0)
            ok &= np.abs(lhs.data - rhs.data).max() < 1e-6
            # decomposition identities
            out = S.snr_forward(f, attention_params(rng, 6))
            ok &= np.abs((out.r_plus.data + out.r_minus.data)
                         - (f.data - out.f_norm.data)).max() < 1e-9
            ok &= np.abs(out.f_plus.data
                         - (out.f_norm.data + out.r_plus.data)).max() < 1e-9
            ok &= np.abs(out.f_minus.data
                         - (out.f_norm.data + out.r_minus.data)).max() < 1e-9
            # positivity of the dual causality loss L+ + L-
            dc = T.add(*S.dual_causality_terms(out.f_norm, out.f_plus, out.f_minus))
            ok &= dc.item() > 0.0
        same = Tensor(rng.normal(size=(1, 4, 3, 3)))
        dc_eq = T.add(*S.dual_causality_terms(same, same, same)).item()
        ok &= abs(dc_eq - 2.0 * math.log(2.0)) < 1e-12
        assert record_criterion(
            2, "instance norm moments, affine invariance, restitution "
               "decomposition, L_dc > 0, equal-entropy case = 2 ln 2", ok)


def attention_params(rng, channels, reduction=2):
    return S.ChannelAttention(channels, reduction, rng)


def brute_force_kmeans_sse(values, k):
    vals = np.sort(np.asarray(values, dtype=np.float64))
    n = vals.size
    best = math.inf
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        sse = 0.0
        for lo, hi in zip(bounds, bounds[1:]):
            seg = vals[lo:hi]
            sse += ((seg - seg.mean()) ** 2).sum()
        best = min(best, sse)
    return best


class TestCriterion3Isw:
    def test_isw_invariants(self):
        rng = np.random.default_rng(1)
        ok = True
        # covariance symmetric PSD
        for _ in range(5):
            f = Tensor(rng.normal(size=(2, 5, 6, 6)))
            theta = W.feature_covariance(f).data
            for mat in theta.reshape(-1, 5, 5):
                ok &= np.abs(mat - mat.T).max() < 1e-12
                ok &= np.linalg.eigvalsh(mat).min() > -1e-10
        # exhaustive-partition optimality, 1000 random cases
        for case in range(1000):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(2, min(6, n)))
            vals = np.round(rng.uniform(0, 10, n), 3)
            if np.unique(vals).size < k:
                continue
            labels, _ = W.kmeans_1d(vals, k)
            sse = sum(((vals[labels == j] - vals[labels == j].mean()) ** 2).sum()
                      for j in range(k))
            ok &= abs(sse - brute_force_kmeans_sse(vals, k)) < 1e-9
        # single-entry fixture: one masked pair with |theta| = 3 -> exactly 3.0
        theta = np.zeros((1, 1, 4, 4))
        theta[0, 0, 0, 1] = theta[0, 0, 1, 0] = 3.0
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        fixture = W.isw_loss(Tensor(theta), Tensor(theta), mask).item()
        ok &= fixture == 3.0
        # gradient descent monotonically suppresses masked entries
        feats = Tensor(rng.normal(size=(1, 4, 4, 4)), requires_grad=True)
        dmask = W.build_mask(
            np.abs(W.feature_covariance(feats).data[0, 0]) * (1 - np.eye(4)), 2)
        history = []
        for _ in range(200):
            with Tape() as tape:
                th = W.feature_covariance(feats)
                loss = W.isw_loss(th, th, dmask)
                tape.backward(loss)
                grad = tape.grad(feats)
            history.append(loss.item())
            feats.data = feats.data - 0.005 * grad
        tail = history[10:]
        ok &= all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        ok &= history[-1] < history[10]
        assert record_criterion(
            3, "covariance symmetric PSD, kmeans_1d optimal on 1000 cases, "
               "unit fixture exact, masked descent monotone", ok)


class TestCriterion4DomainGap:
    def test_target_gain_source_preserved(self, trained):
        base = np.array(trained["baseline"])
        full = np.array(trained["full"])
        tgt_gain = full[:, 1].mean() - base[:, 1].mean()
        src_delta = full[:, 0].mean() - base[:, 0].mean()
        minutes = trained["core_minutes"]
        passed = tgt_gain >= 0.02 and src_delta >= -0.02 and minutes <= 30.0
        assert record_criterion(
            4, f"3-seed mean target mIoU gain {tgt_gain:+.3f} (need >= +0.020), "
               f"source delta {src_delta:+.3f} (need >= -0.020), "
               f"{minutes:.1f} min", passed)


class TestCriterion5Ablation:
    def test_no_dc_does_not_beat_full(self, trained, tmp_path):
        full_tgt = np.mean([t for _, t in trained["full"]])
        nodc_tgt = np.mean([t for _, t in trained["nodc"]])
        # the sweep harness must emit the 4-row dual-causality table
        data_dir = tmp_path / "data"
        assert C.main(["generate", "--out", str(data_dir), "--count", "10",
                       "--seed", "3", "--size", "32x32"]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data.root = {data_dir}\nout.dir = {tmp_path / 'out'}\n"
                       "train.seed = 1\ntrain.epochs = 2\n"
                       "train.warmup_epochs = 1\n")
        assert C.main(["ablate", "--config", str(cfg), "--axis", "dcloss"]) == 0
        table = (tmp_path / "out" / "ablation.csv").read_text().strip().splitlines()
        passed = nodc_tgt <= full_tgt and len(table) == 5  # header + 4 rows
        assert record_criterion(
            5, f"no-dc target mIoU {nodc_tgt:.3f} <= full {full_tgt:.3f}; "
               f"dual-causality sweep table has {len(table) - 1} rows", passed)


class TestCriterion6Metrics:
    def test_metrics_oracle(self):
        rng = np.random.default_rng(2)
        ok = True
        for _ in range(200):
            c = int(rng.integers(2, 5))
            gt = rng.integers(0, c, size=(8, 8))
            pred = rng.integers(0, c, size=(8, 8))
            counts = confusion_from_masks(pred, gt, c)
            rep = compute_report(counts)
            for cls in range(c):
                tp = int(((pred == cls) & (gt == cls)).sum())
                fp = int(((pred == cls) & (gt != cls)).sum())
                fn = int(((pred != cls) & (gt == cls)).sum())
                tn = 64 - tp - fp - fn
                ok &= (int(counts.tp[cls]), int(counts.fp[cls]),
                       int(counts.fn[cls]), int(counts.tn[cls])) == (tp, fp, fn, tn)
                if tp + fp + fn == 0:
                    ok &= cls not in rep.iou
                    continue
                ok &= rep.iou[cls] == tp / (tp + fp + fn)
                ok &= rep.dice[cls] == 2 * tp / (2 * tp + fp + fn)
                ok &= abs(rep.dice[cls]
                          - 2 * rep.iou[cls] / (1 + rep.iou[cls])) < 1e-12
                if tp + fp > 0:
                    ok &= rep.precision[cls] == tp / (tp + fp)
                if tp + fn > 0:
                    ok &= rep.recall[cls] == tp / (tp + fn)
            total = counts.tp.sum() + counts.tn.sum()
            ok &= rep.pixel_accuracy == total / counts.total.sum()
        assert record_criterion(
            6, "confusion counts, IoU/Dice/precision/recall/pixel accuracy "
               "match brute force on 200 random pairs; Dice identity", ok)


class TestCriterion7Schedule:
    def test_schedule_and_momentum(self):
        cfg = TrainConfig(lr0=1e-2, poly_power=0.9, epochs=1)
        ok = poly_lr(0, 100, cfg) == 1e-2
        ok &= poly_lr(100, 100, cfg) == 0.0
        ok &= abs(poly_lr(50, 100, cfg) - 1e-2 * 0.5 ** 0.9) < 1e-12
        p = T.Parameter(np.zeros((1, 1, 1, 1)), "p")
        for _ in range(2):
            with Tape() as tape:
                loss = T.scale(p.tensor, 1.0)
                tape.backward(loss)
                sgd_step([p], tape, 0.1, 0.9)
        ok &= abs(p.data.item() - (-0.29)) < 1e-12
        assert record_criterion(
            7, "poly schedule endpoints and midpoint exact; two-step momentum "
               "recursion equals -0.29", ok)


def t_sf_quadrature(t, dof):
    t = abs(float(t))
    const = math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)) \
        / math.sqrt(dof * math.pi)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    x = 0.5 * t * (nodes + 1.0)
    pdf = const * (1.0 + x * x / dof) ** (-(dof + 1) / 2)
    return 1.0 - 2.0 * (weights * pdf).sum() * 0.5 * t


class TestCriterion8Statistics:
    def test_t_test_against_quadrature(self):
        rng = np.random.default_rng(3)
        ok = True
        for _ in range(50):
            n = int(rng.integers(3, 15))
            a = rng.normal(0.0, 1.0, n)
            b = a + rng.normal(0.05, 0.4, n)
            t, p = paired_t_test(a, b)
            ok &= abs(p - t_sf_quadrature(t, n - 1)) < 1e-6
        with pytest.warns(UserWarning):
            ok &= paired_t_test([1.0, 2.0], [1.0, 2.0]) == (0.0, 1.0)
        with pytest.warns(UserWarning):
            t, p = paired_t_test([2, 3, 4], [1, 2, 3])
        ok &= t == math.inf and p == 0.0
        assert record_criterion(
            8, "paired t-test matches quadrature oracle within 1e-6 on 50 "
               "samples; degenerate cases per contract", ok)


class TestCriterion9Determinism:
    def test_byte_identical_runs(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data.root = {data}\nout.dir = {out}\n"
                       "train.seed = 9\ntrain.epochs = 2\n"
                       "train.warmup_epochs = 1\n")

        def one_run():
            # same config, same paths, run end to end twice
            assert C.main(["generate", "--out", str(data), "--count", "10",
                           "--seed", "7", "--size", "32x32", "--force"]) == 0
            assert C.main(["train", "--config", str(cfg)]) == 0
            assert C.main(["eval", "--config", str(cfg),
                           "--checkpoint", str(out / "checkpoint.dife"),
                           "--data", str(data), "--domain", "target",
                           "--out", str(out)]) == 0
            blobs = []
            for sub in sorted(data.rglob("*")) + sorted(out.rglob("*")):
                if sub.is_file():
                    blobs.append((sub.relative_to(tmp_path).as_posix(),
                                  hashlib.sha256(sub.read_bytes()).hexdigest()))
            return blobs

        ok = one_run() == one_run()
        assert record_criterion(
            9, "(config, seed) reproduces dataset, checkpoint, and CSVs "
               "byte-for-byte", ok)


class TestCriterion10Reduction:
    def test_zero_config_reduces_to_plain_path(self, bench, tmp_path, monkeypatch):
        train_set, val_set, _, _ = bench
        cfg = TrainConfig(epochs=1, seed=4, warmup_epochs=1)
        plain = NetConfig(snr_stages=frozenset(), isw_stages=frozenset(),
                          lambda1=0.0, lambda2=0.0)
        hashes = []
        for reference in (False, True):
            if reference:
                # the instrumentation-free path: no block code at all
                monkeypatch.setattr(N, "forward_pair", lambda x, tx, net:
                                    N.ForwardRecord(logits=net.forward_baseline(x)))
            net = SegNet(plain, seed=4)
            TR.train(net, cfg, train_set, val_set, out_dir=tmp_path / str(reference))
            ck = (tmp_path / str(reference) / "checkpoint.dife").read_bytes()
            hashes.append(hashlib.sha256(ck).hexdigest())
        ok = hashes[0] == hashes[1]
        assert record_criterion(
            10, "empty block sets + zero weights give a checkpoint "
                "bit-identical to the instrumentation-free path", ok)
