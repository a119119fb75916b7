"""Self-test of the benchmark itself (about a minute on 2 vCPUs).

Run from the repository root:

    python3 perfbench/selftest.py

Checks that
  * the benchmark seed changes the run seeds, repeats them for the same
    seed, and leaves certify_chain's commands unchanged;
  * the output check accepts the recorded reference, accepts a change within
    a tier-1 tolerance, and fails a tampered reference;
  * traced passes keep their outputs byte-identical to an untraced pass,
    their counts repeat exactly and match closed forms on this commit;
  * a probe whose symbol is missing turns its layer's metrics into None.
Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys

import run as bench
import tracer

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def fresh_work() -> None:
    shutil.rmtree(bench.WORK, ignore_errors=True)
    bench.WORK.mkdir()


def seeds(spec) -> None:
    pick = bench.run_seeds_for
    check(pick(spec, "plan_track_b", 0) != pick(spec, "plan_track_b", 1),
          "seed 0 and seed 1 pick different plan_track_b run seeds")
    check(pick(spec, "governed_full_b", 5) == pick(spec, "governed_full_b", 5),
          "the same seed picks the same run seeds")
    check(bench.expand_commands(spec, "certify_chain", pick(spec, "certify_chain", 0))
          == bench.expand_commands(spec, "certify_chain", pick(spec, "certify_chain", 7)),
          "certify_chain commands do not depend on the seed")


def tampering(spec, reference) -> None:
    fresh_work()
    commands = bench.expand_commands(spec, "plan_track_b", [0])
    commands += bench.expand_commands(spec, "certify_chain", [])
    result = bench.run_pass(0, commands, trace=False, deadline=bench.time.monotonic() + 170.0)
    failed, problems, matches = bench.check_pass(spec, reference, commands, result)
    check(failed == 0 and matches == [True], f"recorded reference passes the check {problems}")

    def failures_with(edit) -> int:
        tampered = copy.deepcopy(reference)
        edit(tampered["commands"])
        return bench.check_pass(spec, tampered, commands, result)[0]

    def scale(key, field, factor):
        def edit(cmds):
            cmds[key]["values"][field] *= factor
        return edit

    check(failures_with(scale("certify_b", "L_V", 1.001)) == 1,
          "certificate L_V off by 0.1% fails the check")
    check(failures_with(scale("run_b_0", "max_Phi", 1.001)) == 1,
          "summary max_Phi off by 0.1% fails the check")
    check(failures_with(lambda c: c["certify_b"].update(exit=0)) == 1,
          "a different exit code fails the check")
    check(failures_with(lambda c: c["certify_a"]["values"].update(
        kappa_P=c["certify_a"]["values"]["kappa_P"] + 2.0)) == 0,
          "kappa_P within the tier-1 tolerance of 3.0 passes")
    tampered = copy.deepcopy(reference)
    tampered["commands"]["run_b_0"]["trajectory_sha256"] = "0" * 64
    failed, _, matches = bench.check_pass(spec, tampered, commands, result)
    check(failed == 0 and matches == [False],
          "a trajectory hash mismatch is counted, not failed")
    shutil.rmtree(bench.WORK)


def traced(spec, reference, workload, seed, closed_forms) -> None:
    fresh_work()
    overlay = spec["workloads"][workload]["overlay"]
    if overlay is not None:
        (bench.WORK / "overlay.json").write_text(json.dumps(overlay), encoding="utf-8")
    run = bench.Run(spec, reference, workload, seed, seconds=0.0)
    with contextlib.redirect_stdout(io.StringIO()):
        metrics = bench.trace(run)
    check(not run.problems, f"{workload}: traced outputs byte-identical, counts repeat {run.problems}")
    for name, want in closed_forms(len(run.run_seeds)).items():
        got = metrics[name]["value"]
        check(got == want, f"{workload}: {name} = {got}, closed form {want}")
    shutil.rmtree(bench.WORK)


def missing_probe() -> None:
    sys.path.insert(0, "src")
    probes = tracer.PROBES
    try:
        tracer.PROBES = (("qp.solve", "laycon.qp", "NoSuchSolver.solve", "qp"),) + probes[1:]
        tr = tracer.Tracer(bench.WORK / "workers")
        tr.install()
    finally:
        tracer.PROBES = probes
    values, _ = tracer.layer_metrics(tr.state, tr.installed)
    check("qp.solve" in tr.missing and values["qp.solves"] is None
          and values["qp.optimal_ratio"] is None and values["mpc.plan_calls"] == 0,
          "a missing QpSolver makes only the qp.* metrics None")


def main() -> int:
    spec = bench.load_json(bench.HERE / "spec.json")
    reference = bench.load_json(bench.HERE / "reference.json")
    seeds(spec)
    tampering(spec, reference)
    b_steps, b_periods = 6000, 60  # scenario B: t_end 6 s, h 1 ms, t_s 0.1 s
    traced(spec, reference, "plan_track_b", 0, lambda n: {
        "sim.rk4_steps": n * b_steps, "hess.plant_rhs_calls": 4 * n * b_steps,
        "mpc.plan_calls": n * b_periods, "qp.solves": n * b_periods,
        "erg.gamma_calls": n * (b_steps + 1 + 4 * b_steps), "mpc.fallbacks": 0,
        "cli.traj_hash_match": 1.0,
    })
    traced(spec, reference, "certify_chain", 0, lambda n: {
        "qp.solves": 400, "mpc.plan_calls": 400, "sim.rk4_steps": 0,
    })
    traced(spec, reference, "invariance_sweep_a", 0, lambda n: {
        "sim.rk4_steps": 32 * 4000, "qp.solves": 0, "cli.load_bundle_calls": 1 + 1 + 32,
    })
    missing_probe()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
