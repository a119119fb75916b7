"""Per-layer spans and counters, attached to laycon from outside.

`Tracer.install()` wraps public functions and methods of the laycon
modules in place (every module-level binding of a wrapped function is
replaced, so `from .x import f` call sites are covered too). Spans are
aggregated in memory as (calls, inclusive ns, ns covered by child spans),
so a layer's self time is inclusive minus child time. A probe whose
symbol no longer exists is skipped and every metric that needs it reads
`None`; the untraced benchmark path never imports this module.

Sweep workers are forked from the traced process and inherit the wrappers.
The first task a worker runs resets the inherited state, and after each
task the worker writes its cumulative state to `worker_dir`; the parent
merges those files with `collect_workers()`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (span name, module, attribute path, kind)
#   timed   : span with inclusive/self time
#   count   : call count only (hot leaf functions, to keep overhead low)
#   samples : timed, and every duration kept for percentiles
#   qp      : timed, and the solution's iterations and status counted
#   plan    : timed, and fallbacks counted
#   worker  : timed; runs in a sweep worker and writes its state out
#   pool    : the executor class the sweep fans out with
PROBES = (
    ("qp.solve", "laycon.qp", "QpSolver.solve", "qp"),
    ("mpc.plan", "laycon.mpc", "plan", "plan"),
    ("mpc.build_qp", "laycon.mpc", "build_qp", "timed"),
    ("mpc.step", "laycon.mpc", "Planner.step", "samples"),
    ("mpc.estimate_lipschitz", "laycon.mpc", "estimate_lipschitz", "timed"),
    ("erg.gamma", "laycon.erg", "GammaEvaluator.gamma", "timed"),
    ("erg.gamma_i", "laycon.erg", "GammaEvaluator.gamma_i", "count"),
    ("erg.erg_rhs", "laycon.erg", "GammaEvaluator.erg_rhs", "timed"),
    ("erg.navigation_field", "laycon.erg", "GammaEvaluator.navigation_field", "timed"),
    ("sim.run_layered", "laycon.sim", "run_layered", "timed"),
    ("sim.rk4_step", "laycon.sim", "rk4_step", "timed"),
    ("hess.plant_rhs", "laycon.hess", "plant_rhs", "timed"),
    ("contracts.check_A_env", "laycon.contracts", "check_A_env", "timed"),
    ("contracts.check_G_safe", "laycon.contracts", "check_G_safe", "timed"),
    ("contracts.check_G_ref", "laycon.contracts", "check_G_ref", "timed"),
    ("contracts.check_G_track", "laycon.contracts", "check_G_track", "timed"),
    ("contracts.check_A_mis", "laycon.contracts", "check_A_mis", "timed"),
    ("contracts.check_G_iss", "laycon.contracts", "check_G_iss", "timed"),
    ("contracts.certificate_report", "laycon.contracts", "certificate_report", "timed"),
    ("iss_cert.calibrate_overshoot", "laycon.iss_cert", "calibrate_overshoot", "timed"),
    ("iss_cert.ultimate_level_optimized", "laycon.iss_cert", "ultimate_level_optimized", "timed"),
    ("cli.write_trajectory_csv", "laycon.cli", "write_trajectory_csv", "timed"),
    ("cli.dump_json", "laycon.cli", "dump_json", "timed"),
    ("cli.load_bundle", "laycon.cli", "load_bundle", "timed"),
    ("cli.sweep_worker", "laycon.cli", "_sweep_worker", "worker"),
    ("cli.sweep_pool", "laycon.cli", "ProcessPoolExecutor", "pool"),
    ("numkit.solve_lyapunov", "laycon.numkit", "solve_lyapunov", "timed"),
    ("numkit.invert_spd", "laycon.numkit", "invert_spd", "timed"),
    ("scenarios.scenario_a", "laycon.scenarios", "scenario_a", "timed"),
    ("scenarios.scenario_b", "laycon.scenarios", "scenario_b", "timed"),
)

MONITOR_SPANS = tuple(name for name, *_ in PROBES if name.startswith("contracts.check_"))


def _empty_state() -> dict:
    return {"spans": {}, "counters": {}, "samples": {}, "pool": {"wall_ns": 0, "slot_ns": 0}}


class Tracer:
    """Owns the span state of one process and the wrappers that feed it."""

    def __init__(self, worker_dir):
        self.worker_dir = os.fspath(worker_dir)
        self.pid = os.getpid()
        self.state = _empty_state()
        self.stack: list[list[int]] = []  # one [child ns] cell per open span
        self.installed: set[str] = set()
        self.missing: set[str] = set()

    # -- state ------------------------------------------------------------

    def _close(self, name: str, dur: int, child: int) -> None:
        span = self.state["spans"].setdefault(name, [0, 0, 0])
        span[0] += 1
        span[1] += dur
        span[2] += child
        if self.stack:
            self.stack[-1][0] += dur

    def count(self, key: str, n: int = 1) -> None:
        counters = self.state["counters"]
        counters[key] = counters.get(key, 0) + n

    def _enter_worker(self) -> None:
        """Drop the state a forked worker inherited from its parent."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.state = _empty_state()
            self.stack = []

    def _dump_worker(self) -> None:
        os.makedirs(self.worker_dir, exist_ok=True)
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.state, fh)
        os.replace(tmp, path)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, after=None, keep=False):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0]
            self.stack.append(cell)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self.stack.pop()
                self._close(name, dur, cell[0])
                if keep:
                    self.state["samples"].setdefault(name, []).append(dur)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _worker(self, name, fn):
        inner = self._timed(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter_worker()
            try:
                return inner(*args, **kwargs)
            finally:
                self._dump_worker()

        return wrapper

    def _pool(self, cls):
        tracer = self

        class TracedPool(cls):
            """Records the executor's lifetime and worker slots."""

            def __init__(self, *args, **kwargs):
                self._trace_t0 = time.perf_counter_ns()
                self._trace_cell = [0]
                tracer.stack.append(self._trace_cell)
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if tracer.stack and tracer.stack[-1] is self._trace_cell:
                        tracer.stack.pop()
                        dur = time.perf_counter_ns() - self._trace_t0
                        tracer._close("cli.sweep_pool", dur, self._trace_cell[0])
                        tracer.state["pool"]["wall_ns"] += dur
                        workers = getattr(self, "_max_workers", os.cpu_count())
                        tracer.state["pool"]["slot_ns"] += dur * workers

        return TracedPool

    def _wrap(self, name, kind, fn):
        if kind == "count":
            return self._counted(name, fn)
        if kind == "worker":
            return self._worker(name, fn)
        if kind == "pool":
            return self._pool(fn)
        if kind == "qp":
            def after(sol):
                self.count("qp.iterations", int(sol.iterations))
                self.count("qp.status." + sol.status.value)
            return self._timed(name, fn, after)
        if kind == "plan":
            def after(res):
                self.count("mpc.fallbacks", int(bool(res.fallback_used)))
            return self._timed(name, fn, after)
        return self._timed(name, fn, keep=(kind == "samples"))

    def install(self) -> None:
        """Wrap every probe whose symbol exists; remember the ones that do not."""
        laycon_modules = [m for key, m in list(sys.modules.items())
                          if m is not None and (key == "laycon" or key.startswith("laycon."))]
        for name, module_name, path, kind in PROBES:
            try:
                module = importlib.import_module(module_name)
                owner_path, _, attr = path.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            wrapped = self._wrap(name, kind, original)
            if owner is module:
                # rebind every module-level alias of the function
                for mod in laycon_modules + [module]:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
            else:
                setattr(owner, attr, wrapped)
            self.installed.add(name)

    def snapshot(self) -> dict:
        """A copy of the state, detached from later calls."""
        return json.loads(json.dumps({
            "state": self.state,
            "installed": sorted(self.installed),
            "missing": sorted(self.missing),
        }))


def merge_states(states) -> dict:
    """Sum span, counter and pool totals; concatenate samples."""
    out = _empty_state()
    for st in states:
        for name, (calls, total, child) in st["spans"].items():
            span = out["spans"].setdefault(name, [0, 0, 0])
            span[0] += calls
            span[1] += total
            span[2] += child
        for key, n in st["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + n
        for name, values in st["samples"].items():
            out["samples"].setdefault(name, []).extend(values)
        out["pool"]["wall_ns"] += st["pool"]["wall_ns"]
        out["pool"]["slot_ns"] += st["pool"]["slot_ns"]
    return out


def collect_workers(worker_dir) -> list[dict]:
    if not os.path.isdir(worker_dir):
        return []
    states = []
    for entry in sorted(os.listdir(worker_dir)):
        if entry.startswith("worker-") and entry.endswith(".json"):
            with open(os.path.join(worker_dir, entry), encoding="utf-8") as fh:
                states.append(json.load(fh))
    return states


def _percentile(sorted_ns, p):
    """Nearest-rank percentile of sorted nanosecond samples, in ms."""
    k = max(0, min(len(sorted_ns) - 1, -(-len(sorted_ns) * p // 100) - 1))
    return sorted_ns[int(k)] / 1e6


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int):
    """Highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p
    return None


# metric -> probes it needs; a missing probe makes the metric None
REQUIRES = {
    "qp.": ("qp.solve",),
    "mpc.plan_calls": ("mpc.plan",),
    "mpc.plan_s": ("mpc.plan",),
    "mpc.fallbacks": ("mpc.plan",),
    "mpc.build_qp_s": ("mpc.build_qp",),
    "mpc.step_": ("mpc.step",),
    "mpc.estimate_lipschitz_s": ("mpc.estimate_lipschitz",),
    "erg.gamma_calls": ("erg.gamma",),
    "erg.gamma_s": ("erg.gamma",),
    "erg.gamma_i_calls": ("erg.gamma_i",),
    "erg.erg_rhs_s": ("erg.erg_rhs",),
    "erg.navigation_s": ("erg.navigation_field",),
    "sim.rk4_": ("sim.rk4_step",),
    "sim.self_s": ("sim.run_layered", "sim.rk4_step"),
    "hess.": ("hess.plant_rhs",),
    "cli.sweep_": ("cli.sweep_worker", "cli.sweep_pool"),
    "contracts.monitor_s": MONITOR_SPANS,
    "contracts.certificate_report_s": ("contracts.certificate_report",),
    "iss_cert.calibrate_s": ("iss_cert.calibrate_overshoot",),
    "iss_cert.ultimate_level_s": ("iss_cert.ultimate_level_optimized",),
    "cli.csv_write_s": ("cli.write_trajectory_csv",),
    "cli.json_write_s": ("cli.dump_json",),
    "cli.load_bundle_calls": ("cli.load_bundle",),
    "numkit.solve_lyapunov_calls": ("numkit.solve_lyapunov",),
    "numkit.invert_spd_calls": ("numkit.invert_spd",),
    "scenarios.build_s": ("scenarios.scenario_a", "scenarios.scenario_b"),
}


def _needs(metric: str):
    for prefix, probes in REQUIRES.items():
        if metric == prefix or (prefix.endswith((".", "_")) and metric.startswith(prefix)):
            return probes
    return ()


def layer_metrics(state: dict, installed) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and notes on how they were taken.

    A ratio or percentile over zero samples reads 0 (the notes say so);
    a metric whose probe is missing on this commit reads None.
    """
    spans, counters = state["spans"], state["counters"]

    def calls(name):
        return spans.get(name, [0, 0, 0])[0]

    def secs(*names):
        return sum(spans.get(n, [0, 0, 0])[1] for n in names) / 1e9

    def self_secs(*names):
        return sum(spans.get(n, [0, 0, 0])[1] - spans.get(n, [0, 0, 0])[2] for n in names) / 1e9

    solves = calls("qp.solve")
    iters = counters.get("qp.iterations", 0)
    steps = sorted(state["samples"].get("mpc.step", []))
    tail_p = tail_percentile(len(steps))
    pool = state["pool"]
    values = {
        "qp.solves": solves,
        "qp.iterations": iters,
        "qp.iterations_per_solve": iters / solves if solves else 0.0,
        "qp.solve_s": secs("qp.solve"),
        "qp.optimal_ratio": counters.get("qp.status.optimal", 0) / solves if solves else 0.0,
        "qp.infeasible": counters.get("qp.status.infeasible", 0),
        "qp.iter_limit": counters.get("qp.status.iter_limit", 0),
        "mpc.plan_calls": calls("mpc.plan"),
        "mpc.plan_s": secs("mpc.plan"),
        "mpc.build_qp_s": secs("mpc.build_qp"),
        "mpc.fallbacks": counters.get("mpc.fallbacks", 0),
        "mpc.step_p50_ms": _percentile(steps, 50.0) if len(steps) >= 20 else 0.0,
        "mpc.step_tail_ms": _percentile(steps, tail_p) if tail_p is not None else 0.0,
        "mpc.estimate_lipschitz_s": secs("mpc.estimate_lipschitz"),
        "erg.gamma_calls": calls("erg.gamma"),
        "erg.gamma_i_calls": counters.get("erg.gamma_i", 0),
        "erg.gamma_s": secs("erg.gamma"),
        "erg.erg_rhs_s": secs("erg.erg_rhs"),
        "erg.navigation_s": secs("erg.navigation_field"),
        "sim.rk4_steps": calls("sim.rk4_step"),
        "sim.rk4_s": secs("sim.rk4_step"),
        "sim.self_s": self_secs("sim.run_layered", "sim.rk4_step"),
        "hess.plant_rhs_calls": calls("hess.plant_rhs"),
        "hess.plant_rhs_s": secs("hess.plant_rhs"),
        "cli.sweep_pool_util": (secs("cli.sweep_worker") * 1e9 / pool["slot_ns"]
                                if pool["slot_ns"] else 0.0),
        "cli.sweep_wait_s": pool["wall_ns"] / 1e9,
        "contracts.monitor_s": secs(*MONITOR_SPANS),
        "contracts.certificate_report_s": secs("contracts.certificate_report"),
        "iss_cert.calibrate_s": secs("iss_cert.calibrate_overshoot"),
        "iss_cert.ultimate_level_s": secs("iss_cert.ultimate_level_optimized"),
        "cli.csv_write_s": secs("cli.write_trajectory_csv"),
        "cli.json_write_s": secs("cli.dump_json"),
        "cli.load_bundle_calls": calls("cli.load_bundle"),
        "numkit.solve_lyapunov_calls": calls("numkit.solve_lyapunov"),
        "numkit.invert_spd_calls": calls("numkit.invert_spd"),
        "scenarios.build_s": secs("scenarios.scenario_a", "scenarios.scenario_b"),
    }
    installed = set(installed)
    for metric in values:
        if not set(_needs(metric)) <= installed:
            values[metric] = None
    notes = {
        "mpc.step_samples": len(steps),
        "mpc.step_tail_percentile": tail_p,
        "sweep_pools": calls("cli.sweep_pool"),
        "sweep_tasks": calls("cli.sweep_worker"),
    }
    return values, notes
