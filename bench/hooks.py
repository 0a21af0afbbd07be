"""Hooks the benchmark installs from outside the package.

`StepClock` is the stopwatch of the timed runs: it times each training step
(the `Tape` block in `dife.train.train`) and keeps the frozen ISW mask sizes
for the output checks. `Tracer` adds the per-layer trace of `--trace 1`: it
wraps public functions of `dife.tensor`, `net`, `snr`, `isw`, `train`, `data`
and `metrics` through the module globals and class attributes their callers
look them up in. `MemoryProbe` measures the traced peak of each step.
Every hook is installed through `Patches` and removed after the cycle it
measures; `src/dife` itself is not edited.
"""

import statistics
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

from dife import data as D
from dife import isw as W
from dife import net as N
from dife import snr as S
from dife import tensor as T
from dife import train as TR

STEP = "train.step"
CONV_LAYERS = (
    "enc1.conv_a", "enc1.conv_b", "enc1.down",
    "enc2.conv_a", "enc2.conv_b", "enc2.down",
    "enc3.conv_a", "enc3.conv_b",
    "dec1.conv", "dec2.conv", "head.conv",
)


class Patches:
    """Attribute replacements, undone in reverse order by `restore`."""

    def __init__(self):
        self.saved = []

    def set(self, owner, name, value):
        self.saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self.saved:
            owner, name, value = self.saved.pop()
            setattr(owner, name, value)


class StepClock:
    """Start and end of every training step, and the frozen ISW mask sizes.

    A step is the `with Tape()` block of `dife.train.train`: the forward
    pass (with the twin view when ISW is on), the losses, `Tape.backward`
    and `sgd_step`. Two clock reads per step are the whole cost.
    """

    def __init__(self, stage_channels):
        self.stage_of = {c: s for s, c in enumerate(stage_channels, start=1)}
        self.phase = None
        self.steps = []
        self.masks = {}

    def reset(self):
        self.steps = []
        self.masks = {}

    def install(self, patches):
        clock = self

        class ClockTape(T.Tape):
            def __enter__(self):
                clock.step_begin()
                self.bench_t0 = time.perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                super().__exit__(*exc)
                clock.steps.append((self.bench_t0, time.perf_counter()))
                clock.step_end()
                return False

        freeze = W.CovarianceStats.freeze
        patches.set(TR, "Tape", ClockTape)
        patches.set(W.CovarianceStats, "freeze", lambda stats: clock.on_freeze(freeze, stats))

    def step_begin(self):
        pass

    def step_end(self):
        pass

    def on_freeze(self, freeze, stats):
        mask = freeze(stats)
        # masked entries of the strict upper triangle, the set k-means clusters
        self.masks[self.stage_of[stats.channels]] = int(np.triu(mask, 1).sum())
        return mask


class MemoryProbe(StepClock):
    """Peak bytes traced by tracemalloc inside any one step (not timed)."""

    def __init__(self, stage_channels):
        super().__init__(stage_channels)
        self.peak = 0

    def step_begin(self):
        tracemalloc.start()

    def step_end(self):
        self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


class Tracer(StepClock):
    """Spans around the public functions of every dife module.

    Each span adds its duration to `stats[(phase, name)]`, where phase is
    "step" inside a training step and otherwise the CLI command running
    ("train" or "eval"). Self time is the duration minus child spans.
    """

    def __init__(self, stage_channels):
        super().__init__(stage_channels)
        self.stats = defaultdict(lambda: [0.0, 0, 0.0])   # total s, calls, self s
        self.step_children = Counter()                    # direct children of a step, s
        self.stack = []
        self.in_step = False
        self.stage = None
        self.conv_names = {}
        self.taped = []
        self.conv_calls = Counter()       # call shape -> taped calls
        self.conv_reached = Counter()     # call shape -> calls whose backward ran
        self.tape_nodes = 0
        self.kmeans = {}                  # stage -> (entries n, k)

    # --- spans -------------------------------------------------------------

    def push(self, name):
        if name == STEP:
            self.in_step = True
        self.stack.append([name, time.perf_counter(), 0.0])

    def pop(self):
        name, t0, child = self.stack.pop()
        dt = time.perf_counter() - t0
        rec = self.stats["step" if self.in_step else self.phase, name]
        if name == STEP:
            self.in_step = False
        rec[0] += dt
        rec[1] += 1
        rec[2] += dt - child
        if self.stack:
            self.stack[-1][2] += dt
            if self.stack[-1][0] == STEP:
                self.step_children[name] += dt

    def call(self, name, fn, *args, **kwargs):
        self.push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.pop()

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def step_begin(self):
        self.taped.clear()
        self.push(STEP)

    def step_end(self):
        self.pop()

    # --- hooks -------------------------------------------------------------

    def install(self, patches):
        super().install(patches)
        plain = [
            (N, "forward_pair", "net.forward_pair"),
            (N, "total_loss", "net.total_loss"),
            (N, "task_loss", "net.task_loss"),
            (N.SegNet, "encode", "net.encode"),
            (N.SegNet, "forward", "net.forward"),
            (S, "dual_causality_terms", "snr.dual_causality_terms"),
            (W, "feature_covariance", "isw.feature_covariance"),
            (W, "update_warmup", "isw.update_warmup"),
            (W, "isw_loss", "isw.isw_loss"),
            (TR, "sgd_step", "train.sgd_step"),
            (TR, "evaluate", "train.evaluate"),
            # dife.train imports this name, so its global is the one to wrap
            (TR, "confusion_from_masks", "metrics.confusion_from_masks"),
            (D, "apply_photometric", "data.apply_photometric"),
            (D, "random_flip", "data.random_flip"),
            (D, "load_dataset", "data.load_dataset"),
        ]
        for owner, attr, name in plain:
            patches.set(owner, attr, self.wrap(getattr(owner, attr), name))
        patches.set(N.SegNet, "__init__", self._register(N.SegNet.__init__))
        patches.set(T, "conv2d", self._conv2d(T.conv2d))
        patches.set(T.Tape, "backward", self._backward(T.Tape.backward))
        patches.set(S, "snr_forward", self._snr_forward(S.snr_forward))
        patches.set(W, "kmeans_1d", self._kmeans(W.kmeans_1d))

    def _register(self, init):
        def traced(net, *args, **kwargs):
            init(net, *args, **kwargs)
            for p in net.parameters():
                if p.name.endswith(".w"):
                    # keep the tensor so its id cannot be reused while mapped
                    self.conv_names[id(p.tensor)] = (p.tensor, p.name[:-2])
        return traced

    def _conv2d(self, conv2d):
        def traced(x, w, b, stride=1, pad=0):
            layer = self.conv_names.get(id(w), (None, "unnamed"))[1]
            tracked = x.requires_grad or x.node_id is not None
            out = self.call("tensor.conv2d." + layer, conv2d, x, w, b, stride=stride, pad=pad)
            if self.in_step:
                self.taped.append((out, (layer, x.shape, w.shape, tracked, stride, pad)))
            return out
        return traced

    def _backward(self, backward):
        def traced(tape, root):
            self.tape_nodes += len(tape.nodes)
            try:
                return self.call("tensor.backward", backward, tape, root)
            finally:
                for out, shape in self.taped:
                    self.conv_calls[shape] += 1
                    nid = out.node_id
                    if nid is not None and tape.grads is not None and tape.grads[nid] is not None:
                        self.conv_reached[shape] += 1
                self.taped.clear()
        return traced

    def _snr_forward(self, snr_forward):
        def traced(f, att, eps=S.IN_EPS):
            stage = att.fc1_w.name.split(".")[0]          # "snr2", "snr3"
            return self.call("snr.snr_forward." + stage, snr_forward, f, att, eps)
        return traced

    def _kmeans(self, kmeans):
        def traced(values, k, max_iter=None):
            self.kmeans[self.stage] = (len(values), k)
            return self.call(f"isw.kmeans_1d.stage{self.stage}", kmeans, values, k, max_iter)
        return traced

    def on_freeze(self, freeze, stats):
        self.stage = self.stage_of[stats.channels]
        return super().on_freeze(freeze, stats)

    # --- results -----------------------------------------------------------

    def total(self, phase, name):
        return self.stats[phase, name][0]

    def calls(self, phase, name):
        return self.stats[phase, name][1]


def conv_work(shape):
    """(FLOP, im2col bytes) of one conv2d call, computed from its shapes."""
    _, (n, ci, h, w), (co, _, kh, kw), _, stride, pad = shape
    positions = ((h + 2 * pad - kh) // stride + 1) * ((w + 2 * pad - kw) // stride + 1)
    rows = ci * kh * kw
    return 2 * n * co * rows * positions, 8 * n * rows * positions


def replay_backward(shapes, reps=7):
    """Backward seconds of each conv2d call shape, through the public API.

    Times `Tape.backward` over conv2d -> sum_all and subtracts the same
    over sum_all alone, so what remains is the conv node's own backward
    (its closure plus the tape's accumulation of dx, dw, db).
    """
    rng = np.random.default_rng(0)
    result = {}
    for shape in shapes:
        _, xshape, wshape, tracked, stride, pad = shape
        x = T.Tensor(rng.standard_normal(xshape), requires_grad=tracked)
        w = T.Tensor(0.1 * rng.standard_normal(wshape), requires_grad=True)
        b = T.Tensor(np.zeros((1, wshape[0], 1, 1)), requires_grad=True)
        conv, base = [], []
        for _ in range(reps):
            with T.Tape() as tape:
                y = T.conv2d(x, w, b, stride=stride, pad=pad)
                root = T.sum_all(y)
                t0 = time.perf_counter()
                tape.backward(root)
                conv.append(time.perf_counter() - t0)
            with T.Tape() as tape:
                root = T.sum_all(T.Tensor(y.data, requires_grad=True))
                t0 = time.perf_counter()
                tape.backward(root)
                base.append(time.perf_counter() - t0)
        result[shape] = statistics.median(conv) - statistics.median(base)
    return result


def layer_metrics(tr, replay):
    """Per-layer metrics of one traced cycle, by BENCHMARK.json name.

    `_ms` values are per training step unless the name says otherwise:
    eval calls are per call (`net.forward_ms`, batch 8) or per image
    (`metrics.confusion_from_masks_ms`), validation per epoch, k-means per
    freeze. Names of functions a workload never calls read 0.
    """
    steps = tr.calls("step", STEP)

    def per(total, count, scale=1e3):
        return scale * total / count if count else 0.0

    def step_ms(name, phase="step"):
        return per(tr.total(phase, name), steps)

    m = {}
    for layer in CONV_LAYERS:
        m[f"tensor.conv2d.{layer}.fwd_ms"] = step_ms("tensor.conv2d." + layer)
        m[f"tensor.conv2d.{layer}.bwd_ms"] = per(
            sum(n * replay[shape] for shape, n in tr.conv_reached.items() if shape[0] == layer), steps)
    flop = sum(n * conv_work(shape)[0] for shape, n in tr.conv_calls.items())
    col_bytes = sum(n * conv_work(shape)[1] for shape, n in tr.conv_calls.items())
    fwd_s = sum(tr.total("step", "tensor.conv2d." + layer) for layer in CONV_LAYERS)
    reached = sum(tr.conv_reached.values())
    unused = sum(n for shape, n in tr.conv_reached.items() if not shape[3])
    m.update({
        "tensor.backward_ms": step_ms("tensor.backward"),
        "tensor.tape_nodes": tr.tape_nodes / steps,
        "tensor.conv2d.calls": sum(tr.conv_calls.values()) / steps,
        "tensor.conv2d.gflop": flop / steps / 1e9,
        "tensor.conv2d.gflops": flop / fwd_s / 1e9,
        "tensor.conv2d.im2col_mb": col_bytes / steps / 2 ** 20,
        "tensor.conv2d.dx_unused_share": unused / reached,
        "net.forward_pair_ms": step_ms("net.forward_pair"),
        "net.encode.calls": tr.calls("step", "net.encode") / steps,
        "net.encode_ms": step_ms("net.encode"),
        "net.total_loss_ms": step_ms("net.total_loss"),
        "net.task_loss_ms": step_ms("net.task_loss"),
        "net.forward_ms": per(tr.total("eval", "net.forward"), tr.calls("eval", "net.forward")),
        "snr.snr_forward.snr2_ms": step_ms("snr.snr_forward.snr2"),
        "snr.snr_forward.snr3_ms": step_ms("snr.snr_forward.snr3"),
        "snr.dual_causality_terms_ms": step_ms("snr.dual_causality_terms"),
        "isw.feature_covariance_ms": step_ms("isw.feature_covariance"),
        "isw.update_warmup_ms": step_ms("isw.update_warmup"),
        "isw.isw_loss_ms": step_ms("isw.isw_loss"),
        "train.step_ms": step_ms(STEP),
        "train.sgd_step_ms": step_ms("train.sgd_step"),
        "train.other_ms": per(tr.stats["step", STEP][2], steps),
        "train.evaluate_ms": per(tr.total("train", "train.evaluate"), tr.calls("train", "train.evaluate")),
        "data.apply_photometric_ms": step_ms("data.apply_photometric"),
        "data.random_flip_ms": step_ms("data.random_flip", phase="train"),
        "metrics.confusion_from_masks_ms": per(tr.total("eval", "metrics.confusion_from_masks"),
                                               tr.calls("eval", "metrics.confusion_from_masks")),
    })
    for s in range(1, 4):
        name = f"isw.kmeans_1d.stage{s}"
        n, k = tr.kmeans.get(s, (0, 0))
        m[name + "_ms"] = per(tr.total("train", name), tr.calls("train", name))
        m[name + ".n"] = n
        m[name + ".k"] = k
        m[f"isw.mask_density.stage{s}"] = tr.masks.get(s, 0)
    return m
