"""laycon benchmark: drives the `laycon` CLI over named workloads.

Run from the repository root:

    python3 perfbench/run.py --workload plan_track_b --seed 0 --seconds 20 --trace 0

Workloads, their commands and config overlays live in perfbench/spec.json.
Every pass runs in a fresh interpreter (perfbench/passrun.py), issuing the
workload's commands one after another (closed loop, one client). The
benchmark seed picks the run seeds from a fixed pool, so every output can be
checked against perfbench/reference.json (recorded with
perfbench/record_reference.py).

--trace 0 measures the end-to-end metrics with tracing off.
--trace 1 runs one untraced pass, then traced passes that wrap the laycon
modules from outside (perfbench/tracer.py), and reports per-layer metrics.
Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def machine_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


# ---------------------------------------------------------------------------
# workloads


def run_seeds_for(spec: dict, workload: str, seed: int) -> list[int]:
    """Run seeds a benchmark seed selects from the fixed pool."""
    k = spec["workloads"][workload]["run_seeds"]
    if not k:
        return []
    return sorted(random.Random(seed).sample(range(spec["seed_pool"]), k))


def expand_commands(spec: dict, workload: str, run_seeds) -> list[dict]:
    """[{"id", "kind", "argv"}] with {seed} and {overlay} filled in, {out} left open."""
    overlay = str(WORK / "overlay.json")
    out = []
    for template in spec["workloads"][workload]["commands"]:
        for seed in (run_seeds if "{seed}" in template["id"] else [None]):
            def fill(text):
                return text.replace("{seed}", str(seed)).replace("{overlay}", overlay)
            out.append({"id": fill(template["id"]), "kind": template["argv"][0],
                        "argv": [fill(a) for a in template["argv"]]})
    return out


# ---------------------------------------------------------------------------
# passes


def run_pass(index: int, commands, trace: bool, deadline: float) -> dict:
    """Run one pass in a fresh interpreter; return its result.json plus setup_s."""
    pass_dir = WORK / f"pass-{index:03d}"
    pass_dir.mkdir(parents=True)
    argvs = [[a.replace("{out}", str(pass_dir / c["id"])) for a in c["argv"]] for c in commands]
    plan = {"commands": argvs, "trace": trace}
    (pass_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    t_spawn = time.monotonic()
    with open(pass_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "passrun.py"), str(pass_dir)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"pass {index} did not finish before the run's time limit") from None
    if rc != 0:
        tail = (pass_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"pass {index} exited with code {rc}:\n{tail}")
    result = load_json(pass_dir / "result.json")
    result["setup_s"] = result["setup_end"] - t_spawn
    result["dir"] = pass_dir
    return result


# ---------------------------------------------------------------------------
# output checks


def _close(key: str, got, want, tolerances: dict) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(key, g, w, tolerances) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not math.isfinite(want):
            return got == want
        tol = tolerances["abs"].get(key, tolerances["rel_default"] * max(1.0, abs(want)))
        return abs(got - want) <= tol
    return type(got) is type(want) and got == want


def checked_values(spec: dict, kind: str, out_dir: Path) -> dict:
    """The headline values of one command's output file."""
    section = spec["checked_outputs"][kind]
    data = load_json(out_dir / section["file"])
    keys = sorted(data) if section["keys"] == "all" else section["keys"]
    return {k: data.get(k) for k in keys}


def trajectory_sha256(out_dir: Path) -> str | None:
    path = out_dir / "trajectory.csv"
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_command(spec: dict, ref: dict | None, cmd: dict, code, error, out_dir: Path) -> list[str]:
    """Why one command's exit code or outputs disagree with the reference."""
    if ref is None:
        return ["no reference recorded"]
    if error is not None:
        return [f"raised\n{error}"]
    if code != ref["exit"]:
        return [f"exit code {code}, reference {ref['exit']}"]
    try:
        values = checked_values(spec, cmd["kind"], out_dir)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    return [f"{key} = {values.get(key)!r}, reference {want!r}"
            for key, want in ref["values"].items()
            if not _close(key, values.get(key), want, spec["tolerances"])]


def check_pass(spec: dict, reference: dict, commands, result: dict):
    """Failed command count, problems, and per-run trajectory hash matches of one pass."""
    failed, problems, hash_matches = 0, [], []
    for cmd, code, error in zip(commands, result["exit_codes"], result["errors"]):
        ref = reference["commands"].get(cmd["id"])
        out_dir = result["dir"] / cmd["id"]
        found = check_command(spec, ref, cmd, code, error, out_dir)
        if found:
            failed += 1
            problems += [f"{cmd['id']}: {p}" for p in found]
        if ref and ref.get("trajectory_sha256"):
            hash_matches.append(trajectory_sha256(out_dir) == ref["trajectory_sha256"])
    return failed, problems, hash_matches


def output_bytes(result: dict, commands) -> dict:
    """Every output file of a pass, keyed by command id and file name."""
    files = {}
    for cmd in commands:
        out_dir = result["dir"] / cmd["id"]
        for path in sorted(out_dir.iterdir()):
            files[f"{cmd['id']}/{path.name}"] = path.read_bytes()
    return files


# ---------------------------------------------------------------------------
# the two modes


def _fmt(value, unit=""):
    if value is None:
        return "null (probe missing on this commit)"
    if isinstance(value, float):
        return f"{value:.6g} {unit}".rstrip()
    return f"{value} {unit}".rstrip()


class Run:
    """State of one benchmark invocation."""

    def __init__(self, spec, reference, workload, seed, seconds):
        self.spec, self.reference = spec, reference
        self.workload, self.seconds = workload, seconds
        self.run_seeds = run_seeds_for(spec, workload, seed)
        self.commands = expand_commands(spec, workload, self.run_seeds)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hash_matches: list[bool] = []

    def pass_(self, trace=False, keep=False) -> dict:
        result = run_pass(self.index, self.commands, trace, self.deadline)
        self.index += 1
        self.attempted += len(self.commands)
        failed, problems, matches = check_pass(self.spec, self.reference, self.commands, result)
        self.failed += failed
        self.problems += problems
        self.hash_matches += matches
        if not keep:
            shutil.rmtree(result["dir"])
        return result

    def passes(self, n_min, **kw) -> list[dict]:
        """Passes that fill the measuring window (at least n_min): another
        pass starts while at least half a pass's time of the window is left."""
        start, out = time.monotonic(), []
        while True:
            out.append(self.pass_(**kw))
            now = time.monotonic()
            per_pass = (now - start) / len(out)
            if now + 1.5 * per_pass > self.deadline:
                break
            if len(out) >= n_min and now - start + 0.5 * per_pass > self.seconds:
                break
        return out


def measure(run: Run) -> dict:
    passes = run.passes(MIN_PASSES)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    sim = [p["sim_seconds"] / p["wall_s"] for p in passes if p["sim_seconds"] > 0]
    for name, unit in END_TO_END:
        print(f"  {name:<12} {_fmt(values[name], unit)}  (median of {len(passes)} passes)")
    print(f"  sim_s_per_s  {_fmt(statistics.median(sim), '1/s') if sim else 'n/a (no simulation)'}")
    print(f"  fail_ratio   {run.failed / max(1, run.attempted):.6g}  ({run.failed} of {run.attempted} commands)")
    if run.hash_matches:
        print(f"  trajectory.csv equal to reference: {sum(run.hash_matches)} of {len(run.hash_matches)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def trace(run: Run) -> dict:
    from tracer import collect_workers, layer_metrics, merge_states

    units = {m["name"]: m["unit"] for m in load_json(Path("BENCHMARK.json"))["per_layer"]}

    plain = run.pass_(keep=True)
    traced = run.passes(MIN_TRACED_PASSES, trace=True, keep=True)
    reference_bytes = output_bytes(plain, run.commands)
    per_pass = []
    for result in traced:
        if output_bytes(result, run.commands) != reference_bytes:
            run.problems.append(f"trace: outputs of traced pass {result['dir'].name} differ from the untraced pass")
        snap = result["trace"]
        state = merge_states([snap["state"]] + collect_workers(result["dir"] / "workers"))
        per_pass.append(layer_metrics(state, snap["installed"]) + (snap["missing"],))
        shutil.rmtree(result["dir"])
    shutil.rmtree(plain["dir"])

    first, notes, missing = per_pass[0]
    values = {}
    for name, value in first.items():
        series = [m[name] for m, _, _ in per_pass]
        if units[name] == "count":
            if any(v != value for v in series):
                run.problems.append(f"trace: count {name} differs between traced passes: {series}")
            values[name] = value
        else:
            values[name] = None if value is None else statistics.median(series)
    values["cli.traj_hash_match"] = (sum(run.hash_matches) / len(run.hash_matches)
                                     if run.hash_matches else 0.0)
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced) - plain["wall_s"])

    for name, unit in units.items():
        print(f"  {name:<32} {_fmt(values[name], unit)}")
    print(f"  (times: median of {len(traced)} traced passes; counts must agree across them)")
    if notes["mpc.step_tail_percentile"] is not None:
        print(f"  mpc.step_tail_ms is p{notes['mpc.step_tail_percentile']:g} "
              f"of {notes['mpc.step_samples']} planner steps")
    else:
        print(f"  mpc.step_* read 0: {notes['mpc.step_samples']} planner steps, fewer than 20")
    if missing:
        print(f"  probes missing on this commit: {', '.join(missing)}")
    (WORK / f"trace-{run.workload}.json").write_text(
        json.dumps({"metrics": values, "notes": notes, "missing": missing}, indent=2),
        encoding="utf-8",
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    spec = load_json(HERE / "spec.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/laycon/cli.py").is_file():
        print("run from the repository root: src/laycon/cli.py not found", file=sys.stderr)
        return 2
    reference = load_json(HERE / "reference.json")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    overlay = spec["workloads"][args.workload]["overlay"]
    if overlay is not None:
        (WORK / "overlay.json").write_text(json.dumps(overlay), encoding="utf-8")

    run = Run(spec, reference, args.workload, args.seed, args.seconds)
    print(f"laycon benchmark  workload={args.workload}  seed={args.seed}  "
          f"run seeds={run.run_seeds or 'n/a'}  trace={args.trace}")
    print(f"  machine {machine_facts()}  reference recorded on {reference['machine']}")
    try:
        metrics = trace(run) if args.trace else measure(run)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    for problem in run.problems:
        print(f"  FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
