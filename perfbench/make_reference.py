"""Write reference.json, the default-seed results the correctness gate
compares compare and simulate units against.

    python3 perfbench/make_reference.py

Rerun it only when the config generator changes; a change to straingrid
must pass against the committed file.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run
from checks import REFERENCE, compare_summary, final_summary, read_full_csv
from workloads import DEFAULT_SEED, WORKLOADS, unit_argv, write_configs


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    cli = run.fresh_import()
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    refs = {}
    try:
        for name in ("converge-small", "converge-wide", "simulate-artifacts"):
            w = WORKLOADS[name]
            refs[name] = []
            for config in write_configs(w, DEFAULT_SEED, work):
                out = work / "out"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(unit_argv(w, config, out))
                if code != 0:
                    raise SystemExit(f"{name}: {config.name} failed")
                if w.command == "compare":
                    refs[name].append(compare_summary(out))
                else:
                    *_, final = read_full_csv(out / "trajectory_full.csv", w.P, w.N)
                    refs[name].append(final_summary(final, w.N))
                shutil.rmtree(out)
                print(f"{name} {config.name}: done", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": refs}) + "\n")


if __name__ == "__main__":
    main()
