"""Command-line front end: generate / train / eval / ablate / gradcheck.

Exit codes: 0 success, 1 a failing gradcheck row, 2 configuration or data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import data as D
from . import gradcheck as G
from . import net as N
from . import train as TR
from .config import ConfigError, format_config, load_config
from .metrics import write_metrics_csv, write_summary_csv
from .tensor import ContractError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# 5-layer placement rows of the reference ablation, mapped onto 3 stages
# (layers 4-5 have no counterpart and fold into stage 3; documented in README)
PLACEMENT_ROWS = [
    {"snr": [2], "isw": [1, 2, 3]},
    {"snr": [2, 3], "isw": [1, 2, 3]},
    {"snr": [1, 2, 3], "isw": [1, 2, 3]},
    {"snr": [3], "isw": [1, 2, 3]},
    {"snr": [1, 3], "isw": [1, 2, 3]},
]

K_SWEEP = [2, 3, 5, 7, 10, 20]
LAMBDA_SWEEP = [(0.0, 0.0), (0.6, 0.0), (0.0, 1.0), (0.3, 1.0), (0.6, 1.0), (1.0, 1.0)]


def _parse_size(text):
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise ConfigError(f"--size must look like 48x48, got {text!r}") from None


def cmd_generate(args):
    if args.count < 3:   # one sample each for train, val and test
        raise ConfigError(f"--count must be >= 3, got {args.count}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if os.path.isdir(args.out) and os.listdir(args.out) and not args.force:
        raise ConfigError(f"output dir {args.out!r} is not empty (use --force)")
    rows = D.write_dataset(args.out, args.count, args.seed, _parse_size(args.size))
    n_train, n_val, n_test = D.split_counts(args.count)
    print(f"wrote {rows} samples to {args.out} "
          f"(2 domains x splits {n_train}/{n_val}/{n_test})")
    return EXIT_OK


def _prepare_run(args):
    cfg = load_config(args.config, args.set or [])
    out_dir = args.out or cfg["out.dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config_resolved.txt"), "w") as fh:
        fh.write(format_config(cfg))
    return cfg, out_dir


def _load_split(root, domain, split, num_classes):
    """D.load_dataset, refusing an empty split and masks that hold a class the
    net has no output for."""
    where = os.path.join(root, domain, split)
    samples = D.load_dataset(root, domain, split)
    if not samples:
        raise ConfigError(f"no samples under {where}")
    top = max(int(s.mask.max()) for s in samples)
    if top >= num_classes:
        raise ConfigError(f"net.num_classes: expected at least {top + 1}, the classes in the "
                          f"masks of {where}, got {num_classes}")
    return samples


def cmd_train(args):
    cfg, out_dir = _prepare_run(args)
    ncfg = cfg.net_config()
    tcfg = cfg.train_config()
    train_set = _load_split(cfg["data.root"], "source", "train", ncfg.num_classes)
    val_set = _load_split(cfg["data.root"], "source", "val", ncfg.num_classes)
    net = N.SegNet(ncfg, seed=tcfg.seed)
    print(f"config: snr={sorted(ncfg.snr_stages)} isw={sorted(ncfg.isw_stages)} "
          f"lambda1={ncfg.lambda1} lambda2={ncfg.lambda2} dc={ncfg.dc_mode} seed={tcfg.seed}")
    best, log_rows, _ = TR.train(net, tcfg, train_set, val_set, out_dir=out_dir)
    print(f"best val mIoU {best['miou']:.4f} at epoch {best['epoch']}; "
          f"checkpoint written to {os.path.join(out_dir, 'checkpoint.dife')}")
    return EXIT_OK


def cmd_eval(args):
    cfg, out_dir = _prepare_run(args)
    ncfg = cfg.net_config()
    net = N.SegNet(ncfg, seed=cfg.train_config().seed)
    N.load_checkpoint(args.checkpoint, net)
    samples = _load_split(args.data, args.domain, args.split, ncfg.num_classes)
    report = TR.evaluate(net, samples, ncfg.num_classes)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), report, D.CLASS_NAMES)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), [{
        "dataset": args.data, "domain": args.domain, "miou": report.miou,
        "mdice": report.mdice, "mprecision": report.mprecision,
        "mrecall": report.mrecall, "pixel_accuracy": report.pixel_accuracy,
    }])
    print(f"{args.domain}/{args.split}: mIoU {report.miou:.4f}  mDSC {report.mdice:.4f}  "
          f"pixAcc {report.pixel_accuracy:.4f}")
    return EXIT_OK


def run_jobs(fn, jobs):
    """[fn(job) for job in jobs] on spawned workers, one per core and at most one
    per job.  Each runs pin_heap and one BLAS thread (numpy reads the variable set
    here as a worker imports it; it is restored after).  fn and jobs must pickle."""
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with ProcessPoolExecutor(min(len(os.sched_getaffinity(0)), len(jobs)), initializer=pin_heap,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, jobs))
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
        if saved is not None:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def run_cell(payload):
    """One seeded ablation run; executed in a worker process."""
    config_path, overrides, data_root = payload
    cfg = load_config(config_path, overrides)
    ncfg = cfg.net_config()
    tcfg = cfg.train_config()
    train_set = _load_split(data_root, "source", "train", ncfg.num_classes)
    val_set = _load_split(data_root, "source", "val", ncfg.num_classes)
    target_test = _load_split(data_root, "target", "test", ncfg.num_classes)
    net = N.SegNet(ncfg, seed=tcfg.seed)
    best, _, _ = TR.train(net, tcfg, train_set, val_set)
    target_rep = TR.evaluate(net, target_test, ncfg.num_classes)
    return {"val_miou": best["miou"], "target_miou": target_rep.miou}


def _ablation_cells(axis):
    if axis == "k":
        return [(f"k={k}", [f"net.k={k}"]) for k in K_SWEEP]
    if axis == "dcloss":
        return [(f"dc={mode}", [f"net.dc_mode={mode}"]) for mode in N.DC_MODES] \
            + [("dc=none", ["net.lambda2=0"])]
    if axis == "lambda":
        return [(f"l1={l1},l2={l2}", [f"net.lambda1={l1}", f"net.lambda2={l2}"])
                for l1, l2 in LAMBDA_SWEEP]
    if axis == "placement":
        return [
            (f"snr={row['snr']},isw={row['isw']}",
             [f"net.snr_stages=[{','.join(map(str, row['snr']))}]",
              f"net.isw_stages=[{','.join(map(str, row['isw']))}]"])
            for row in PLACEMENT_ROWS
        ]
    raise ConfigError(f"unknown ablation axis {axis!r}")


def cmd_ablate(args):
    cfg, out_dir = _prepare_run(args)
    cells = _ablation_cells(args.axis)
    payloads = [(args.config, (args.set or []) + overrides, cfg["data.root"])
                for _, overrides in cells]
    outcomes = run_jobs(run_cell, payloads)
    path = os.path.join(out_dir, "ablation.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "val_miou", "target_miou"])
        for (label, _), outcome in zip(cells, outcomes):
            writer.writerow([label, repr(outcome["val_miou"]), repr(outcome["target_miou"])])
    print(f"wrote {len(cells)} rows to {path}")
    return EXIT_OK


def cmd_gradcheck(args):
    modules = ("tensor", "snr", "isw", "net") if args.module == "all" else (args.module,)
    rows, ok = G.run(modules)
    for row in rows:
        mark = "pass" if row["passed"] else "FAIL"
        print(f"{mark}  {row['module']:>6s}.{row['op']:<22s} "
              f"max_rel_err={row['max_rel_err']:.3e}  tol={row['tol']:.0e}")
    if not ok:
        failed = [f"{r['module']}.{r['op']}" for r in rows if not r["passed"]]
        print(f"FAILED: {', '.join(failed)}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def pin_heap():
    """Fix glibc's heap thresholds, so arrays one command frees stay mapped for
    the next instead of being trimmed and faulted back in, and keep every
    thread on that one heap.  No-op on other libcs."""
    libc = ctypes.CDLL(None) if os.name == "posix" else None   # no ldconfig subprocess
    if hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt"):
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        # either one alone freezes the dynamic mmap threshold: 140-270k faults per eval
        libc.mallopt(-1, 128 << 20)   # M_TRIM_THRESHOLD: stops frees from trimming the heap top
        libc.mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD: stops arrays under 32 MiB being mmapped
        # M_ARENA_MAX: the eval threads share this heap; an arena each kept its own peak (+7 MiB)
        libc.mallopt(-8, 1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dife",
        description="Style-restitution + selective-whitening segmentation testbed. "
                    "Exit codes: 0 ok, 1 failing gradcheck row, 2 config/data error, "
                    "3 numerical failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write the two-domain synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="48x48")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="key=value")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a domain/split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--domain", choices=["source", "target"], required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--set", action="append", metavar="key=value")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run a seeded sweep along one axis")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=["k", "lambda", "placement", "dcloss"], required=True)
    p.add_argument("--set", action="append", metavar="key=value")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference suites per module")
    p.add_argument("--module", choices=["tensor", "snr", "isw", "net", "all"], default="all")
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    pin_heap()
    try:
        return args.fn(args)
    except (ConfigError, ContractError, D.FormatError, D.GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TR.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
