"""Rewrite bench/reference.json from the current program's outputs.

Run from the repository root, with the seeds to pin:

    python3 bench/reference.py 0 1 2 3

For every workload and seed it runs one cycle (train, then eval) and stores
final_loss, target_miou and the frozen ISW mask sizes. run.py compares the
warm-up cycle of a run against these values when its seed is listed. Only
regenerate after a change that is meant to alter the outputs, and say so.
"""

import json
import os
import shutil
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402


def main(seeds):
    run.import_program()
    from dife import cli
    import hooks
    table = {}
    for workload in sorted(run.WORKLOADS):
        for seed in seeds:
            run_dir = os.path.join(run.WORK, f"reference-{workload}-s{seed}")
            run.prepare(workload, seed, run_dir)
            rec = run.measured_cycle(cli, hooks.StepClock(run.STAGE_CHANNELS), run_dir, "cycle",
                                     run.WORKLOADS[workload]["warmup"])
            shutil.rmtree(run_dir, ignore_errors=True)
            if not rec["ok"]:
                run.fail(f"{workload} seed {seed}: {rec['error']}", code=1)
            problems = run.check_outputs(rec, workload, seed, {})
            if problems:
                run.fail(f"{workload} seed {seed}: {problems}", code=1)
            table.setdefault(workload, {})[str(seed)] = {
                "final_loss": rec["final_loss"],
                "target_miou": rec["target_miou"],
                "masks": {str(s): n for s, n in sorted(rec["masks"].items())},
            }
            print(workload, seed, table[workload][str(seed)], flush=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
