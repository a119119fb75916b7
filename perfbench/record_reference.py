"""Record perfbench/reference.json from the current commit.

Run from the repository root (takes a few minutes):

    python3 perfbench/record_reference.py

For every workload it runs each command over the whole run-seed pool in one
untraced pass and stores the exit code, the checked output values and the
SHA-256 of each trajectory.csv, plus the facts of the machine it ran on.
Re-record only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import HERE, WORK, checked_values, expand_commands, load_json, machine_facts
from run import run_pass, trajectory_sha256


def main() -> int:
    spec = load_json(HERE / "spec.json")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    commands = {}
    for index, (name, wl) in enumerate(spec["workloads"].items()):
        if wl["overlay"] is not None:
            (WORK / "overlay.json").write_text(json.dumps(wl["overlay"]), encoding="utf-8")
        cmds = expand_commands(spec, name, range(spec["seed_pool"]))
        result = run_pass(index, cmds, trace=False, deadline=time.monotonic() + 1800.0)
        for cmd, code, error in zip(cmds, result["exit_codes"], result["errors"]):
            if error is not None:
                print(f"{cmd['id']} raised:\n{error}", file=sys.stderr)
                return 1
            out_dir = result["dir"] / cmd["id"]
            commands[cmd["id"]] = {
                "exit": code,
                "values": checked_values(spec, cmd["kind"], out_dir),
                "trajectory_sha256": trajectory_sha256(out_dir),
            }
        print(f"{name}: {len(cmds)} commands in {result['wall_s']:.1f} s, "
              f"exit codes {sorted(set(result['exit_codes']))}")
    shutil.rmtree(WORK)
    reference = {"machine": machine_facts(), "commands": commands}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
