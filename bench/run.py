"""dife training benchmark: step time, freeze stall and eval throughput.

Run from the repository root:

    python3 bench/run.py --workload train-full --seed 1 --seconds 30 --trace 0

One process, one closed-loop client. It writes a seeded input set, sets
up several times, runs one untimed warm-up cycle and then repeats cycles
for --seconds. A cycle is the real user path, in-process through
`dife.cli.main`: `train`, then `eval --domain target` on its checkpoint.
With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it also runs one traced cycle, one memory cycle and a backward
replay, and prints the per-layer metrics. The last line of standard output
is the result object. See bench/NOTES.md for the definitions.
"""

import argparse
import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback

sys.dont_write_bytecode = True   # keep the checkout free of __pycache__

import inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# The acceptance recipe: 48 source images at 48x48, 6 val images, batch 4,
# SGD with poly lr, flip augment. Early stop lies beyond the run. Warm-up
# ends inside the run, so the warm-up boundary (and, with ISW, the freeze)
# is crossed once per cycle.
FULL = {"net.snr_stages": "[2,3]", "net.isw_stages": "[1,2,3]",
        "net.lambda1": 0.2, "net.lambda2": 0.3}   # lambda1 weights ISW, lambda2 dual causality
WORKLOADS = {
    "train-plain": dict(epochs=4, warmup=2, net={"net.snr_stages": "[]", "net.isw_stages": "[]",
                                                 "net.lambda1": 0, "net.lambda2": 0}),
    "train-full": dict(epochs=4, warmup=2, net=dict(FULL, **{"net.k": 2})),
    "freeze-k20": dict(epochs=2, warmup=1, net=dict(FULL, **{"net.k": 20})),
}
STAGE_CHANNELS = (8, 16, 32)
N_EVAL = 192          # target images per eval: long enough to repeat within a tenth
SETUP_REPS = 9
MIN_STEPS = 100       # p90 needs at least ten samples beyond it
MIN_CYCLES = 2
HARD_STOP_S = 110     # stop adding cycles after this, to stay inside 180 s

# Output checks. Ranges hold for every seed; reference.json pins exact
# values for the seeds it lists. The tolerances admit a reordered
# floating-point sum, not a changed gradient.
LOSS_RANGE = (0.05, 3.0)
MIOU_RANGE = (0.1, 1.0)
LOSS_RTOL = 1e-6
MIOU_ATOL = 1e-3
MASK_ATOL = 1


def fail(message, code=2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def import_program():
    """Import dife from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "dife", "__init__.py")):
        fail(f"no program to measure: {SRC}/dife is missing")
    sys.path.insert(0, SRC)
    import dife
    if os.path.dirname(os.path.abspath(dife.__file__)) != os.path.join(SRC, "dife"):
        fail(f"imported dife from {dife.__file__}, not from {SRC}")


# --- provenance ------------------------------------------------------------

def _blas_threads(np):
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    lines = 0
    pkg = os.path.join(SRC, "dife")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                blob = fh.read()
            digest.update(name.encode() + b"\0" + blob)
            lines += blob.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "python_threads": threading.active_count(),
        "git_commit": _git_commit(),
        "src_dife_sha256": digest.hexdigest(),
        "src_dife_lines": lines,
        "seed": seed,
    }


# --- one cycle -------------------------------------------------------------

def write_config(path, workload, seed, data_root):
    spec = WORKLOADS[workload]
    values = {
        "data.root": data_root,
        "train.seed": seed,
        "train.epochs": spec["epochs"],
        "train.warmup_epochs": spec["warmup"],
        "train.early_stop_patience": spec["epochs"] + 1,
        "train.batch_size": 4,
        "train.flip_augment": "true",
    }
    values.update(spec["net"])
    with open(path, "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in values.items())


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_cycle(cli, clock, run_dir, tag, warmup_epochs):
    """One `dife train` then `dife eval` through dife.cli.main, as one record."""
    out = os.path.join(run_dir, tag)
    config = os.path.join(run_dir, "run.cfg")
    log = io.StringIO()
    rec = {"ok": False, "error": None}
    clock.reset()
    # each cycle starts from the heap state a fresh process would have, so
    # garbage left by earlier cycles neither pauses nor inflates this one
    gc.collect()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            clock.phase = "train"
            rc = cli.main(["train", "--config", config, "--out", out])
            t_train = time.perf_counter()
            if rc == 0:
                clock.phase = "eval"
                rc = cli.main(["eval", "--config", config, "--out", out,
                               "--checkpoint", os.path.join(out, "checkpoint.dife"),
                               "--data", os.path.join(run_dir, "data"), "--domain", "target"])
            t_eval = time.perf_counter()
        if rc != 0:
            rec["error"] = f"dife exited {rc}: {log.getvalue().strip()[-400:]}"
            return rec
        log_rows = _read_rows(os.path.join(out, "train_log.csv"))
        steps = clock.steps
        boundary = len(steps) // len(log_rows) * warmup_epochs
        rec.update(
            step_s=[b - a for a, b in steps],
            # set-up (config, data load, net build) ends where the first step starts
            train_s=t_train - steps[0][0],
            # warm-up boundary: end of the last warm-up step to start of the next one
            stall_s=steps[boundary][0] - steps[boundary - 1][1],
            eval_s=t_eval - t_train,
            epochs=len(log_rows),
            final_loss=float(log_rows[-1]["loss_total"]),
            target_miou=float(_read_rows(os.path.join(out, "summary.csv"))[0]["mIoU"]),
            masks=dict(clock.masks),
            digests={name: _digest(os.path.join(out, name)) for name in
                     ("train_log.csv", "checkpoint.dife", "summary.csv", "metrics.csv")},
            ok=True,
        )
    except Exception:   # a crash inside the program fails this cycle; the run goes on
        rec["error"] = traceback.format_exc(limit=6)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return rec


def setup_once(config):
    """Config, dataset load, net build and the first step's lazy set-up.

    The first step runs on a throwaway net through the real training loop
    (one batch, one epoch, no freeze), so the measured cycles' RNG streams
    and outputs are untouched. Returns (seconds, dataset-load seconds).
    """
    from dife import config as C, data as D, net as N, train as TR
    t0 = time.perf_counter()
    cfg = C.load_config(config)
    ncfg, tcfg = cfg.net_config(), cfg.train_config()
    t_load = time.perf_counter()
    train_set = D.load_dataset(cfg["data.root"], "source", "train")
    val_set = D.load_dataset(cfg["data.root"], "source", "val")
    load_s = time.perf_counter() - t_load
    net = N.SegNet(ncfg, seed=tcfg.seed)
    one_step = dataclasses.replace(tcfg, epochs=1, warmup_epochs=tcfg.epochs + 1)
    TR.train(net, one_step, train_set[:tcfg.batch_size], val_set[:1])
    return time.perf_counter() - t0, load_s


# --- checks ----------------------------------------------------------------

def check_outputs(rec, workload, seed, reference):
    """Problems with the values of one cycle's outputs (empty when fine)."""
    problems = []
    loss, miou = rec["final_loss"], rec["target_miou"]
    if not (math.isfinite(loss) and LOSS_RANGE[0] <= loss <= LOSS_RANGE[1]):
        problems.append(f"final_loss {loss!r} outside {LOSS_RANGE}")
    if not (math.isfinite(miou) and MIOU_RANGE[0] <= miou <= MIOU_RANGE[1]):
        problems.append(f"target_miou {miou!r} outside {MIOU_RANGE}")
    isw = WORKLOADS[workload]["net"]["net.isw_stages"].strip("[]")
    stages = [int(s) for s in isw.split(",")] if isw else []
    if sorted(rec["masks"]) != stages:
        problems.append(f"masks frozen for stages {sorted(rec['masks'])}, expected {stages}")
    for s, count in rec["masks"].items():
        c = STAGE_CHANNELS[s - 1]
        if not 0 < count < c * (c - 1) // 2:
            problems.append(f"stage {s} mask holds {count} of {c * (c - 1) // 2} entries")
    ref = reference.get(workload, {}).get(str(seed))
    if ref is not None:
        if abs(loss - ref["final_loss"]) > LOSS_RTOL * abs(ref["final_loss"]):
            problems.append(f"final_loss {loss!r} != reference {ref['final_loss']!r}")
        if abs(miou - ref["target_miou"]) > MIOU_ATOL:
            problems.append(f"target_miou {miou!r} != reference {ref['target_miou']!r}")
        for s, count in ref["masks"].items():
            if abs(rec["masks"].get(int(s), -99) - count) > MASK_ATOL:
                problems.append(f"stage {s} mask {rec['masks'].get(int(s))} != reference {count}")
    return problems


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


# --- metrics ---------------------------------------------------------------

def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(setups, cycles, rss_mb):
    steps = sorted(s for c in cycles for s in c["step_s"])
    return {
        "setup_s": statistics.median(s for s, _ in setups),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * percentile(steps, 0.9),
        "train_images_per_s": statistics.median(c["epochs"] * inputs.N_TRAIN / c["train_s"] for c in cycles),
        "freeze_s": statistics.median(c["stall_s"] for c in cycles),
        "eval_images_per_s": statistics.median(N_EVAL / c["eval_s"] for c in cycles),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, traced, replay, mem_peak, setups, untraced, first):
    import hooks
    m = hooks.layer_metrics(tracer, replay)
    steps = tracer.calls("step", hooks.STEP)
    accounted = (sum(tracer.step_children.values()) + tracer.stats["step", hooks.STEP][2]) / steps
    traced_ips = traced["epochs"] * inputs.N_TRAIN / traced["train_s"]
    m.update({
        "tensor.step_traced_peak_mb": mem_peak / 2 ** 20,
        "data.load_dataset_s": statistics.median(load for _, load in setups),
        "trace_overhead_share": (untraced["train_images_per_s"] - traced_ips) / untraced["train_images_per_s"],
        "trace.accounted_over_step_p50": 1e3 * accounted / untraced["step_ms_p50"],
        "final_loss": first["final_loss"],
        "target_miou": first["target_miou"],
    })
    return m


# --- main ------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def prepare(workload, seed, run_dir):
    """Fresh run directory holding the seeded inputs and the run config."""
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs.write_inputs(os.path.join(run_dir, "data"), seed, N_EVAL)
    write_config(os.path.join(run_dir, "run.cfg"), workload, seed, os.path.join(run_dir, "data"))


def measured_cycle(cli, clock, run_dir, tag, warmup_epochs):
    from hooks import Patches
    patches = Patches()
    clock.install(patches)
    try:
        return run_cycle(cli, clock, run_dir, tag, warmup_epochs)
    finally:
        patches.restore()


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    spec = load_spec()
    import_program()
    from dife import cli
    import hooks

    warmup = WORKLOADS[args.workload]["warmup"]
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}")
    prepare(args.workload, args.seed, run_dir)
    config = os.path.join(run_dir, "run.cfg")
    setups = [setup_once(config) for _ in range(SETUP_REPS)]

    clock = hooks.StepClock(STAGE_CHANNELS)
    first = measured_cycle(cli, clock, run_dir, "warmup", warmup)   # untimed
    if not first["ok"]:
        fail(f"warm-up cycle failed: {first['error']}", code=1)
    cycles = []
    t0 = time.perf_counter()
    while True:
        cycles.append(measured_cycle(cli, clock, run_dir, f"c{len(cycles)}", warmup))
        done = [c for c in cycles if c["ok"]]
        n_steps = sum(len(c["step_s"]) for c in done)
        if time.perf_counter() - t_start > HARD_STOP_S:
            break
        if (time.perf_counter() - t0 >= args.seconds and n_steps >= MIN_STEPS
                and len(done) >= MIN_CYCLES):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if len(done) < MIN_CYCLES:
        fail(f"only {len(done)} timed cycles completed: {cycles[-1]['error']}", code=1)
    e2e = end_to_end(setups, done, rss_mb)
    extra = []

    metrics = e2e
    if args.trace:
        tracer = hooks.Tracer(STAGE_CHANNELS)
        traced = measured_cycle(cli, tracer, run_dir, "traced", warmup)
        probe = hooks.MemoryProbe(STAGE_CHANNELS)
        extra = [traced, measured_cycle(cli, probe, run_dir, "memory", warmup)]
        if not traced["ok"]:
            fail(f"traced cycle failed: {traced['error']}", code=1)
        replay = hooks.replay_backward(sorted(tracer.conv_reached))
        metrics = per_layer(tracer, traced, replay, probe.peak, setups, e2e, first)

    reference = load_reference()
    value_problems = check_outputs(first, args.workload, args.seed, reference)
    problems = [f"warm-up: {p}" for p in value_problems]
    failed = 1 if value_problems else 0
    for i, rec in enumerate(cycles + extra):
        if not rec["ok"]:
            problems.append(f"cycle {i}: {rec['error']}")
        elif rec["digests"] != first["digests"]:
            problems.append(f"cycle {i}: outputs differ from the warm-up cycle's bytes")
        elif not value_problems:
            continue
        failed += 1

    names = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        fail(f"metrics not computed: {missing}", code=1)
    result = {
        "correct": failed == 0,
        "attempted": 1 + len(cycles) + len(extra),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "timed_cycles": len(done),
        "step_samples": sum(len(c["step_s"]) for c in done),
        "setup_first_s": setups[0][0],
        "end_to_end": e2e,
        "outputs": {k: first[k] for k in ("final_loss", "target_miou", "masks")},
        "problems": problems,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", os.path.basename(run_dir) + ".json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
