"""Write the output digests of one workload into ``bench/pinned.json``.

Usage, from the root of a checkout:

    python3 bench/pin.py --workload reference --seeds 0-31

For each seed it sets the workload up as ``run.py`` does, makes one
untraced pass and records the digest of its outputs (the report JSON
and CSV of ``evaluate``, or the three ``rank`` outputs). ``run.py``
fails every operation whose outputs differ from the pinned digest.
Re-pin only for a change that is meant to alter the program's output,
and say so in that change's description.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import ROOT, import_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    os.environ["MCRANK_THREADS"] = "1"
    problem = import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import checks
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_runs" / f"pin-{wl.name}"
    pinned = json.loads(checks.PINNED.read_text(encoding="utf-8"))
    for seed in seeds:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        ops = workloads.run_pass(wl, workloads.setup(wl, workdir, seed), workdir)
        failed = [reason for op in ops for reason in op.failures]
        if failed:
            print(f"error: seed {seed}: {failed}", file=sys.stderr)
            return 1
        pinned.setdefault(wl.name, {})[str(seed)] = checks.digest(op.output for op in ops)
        print(f"{wl.name} seed {seed} {pinned[wl.name][str(seed)]}", flush=True)
        # keep what is done if a later seed fails
        checks.PINNED.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
