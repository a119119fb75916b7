"""Command-line surface: certify and run pipelines, CSV/JSON emission.

Configs are strict JSON documents (no comments). `laycon certify` computes
the complete offline certificate chain and writes certificate.json;
`laycon run` simulates one seeded scenario and writes trajectory.csv,
monitor.json, and summary.json; `laycon sweep` fans independent seeds
across processes and aggregates invariance evidence.

`laycon run` forks one writer process (POSIX only) that renders
trajectory.csv from the rows the simulation streams to it, so the CSV
render overlaps the simulation.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Annotated, Literal, get_args, get_origin

import numpy as np

from .contracts import ContractSpec, certificate_report, mismatch_bound_hess
from .erg import ErgConfig
from .errors import FieldValueError, field_hints
from .hess import ConstraintConfig, HessParams, LoadProfile
from .iss_cert import (
    coordinate_bound,
    iss_gain,
    noise_floor,
    settling_time,
    timing_check,
)
from .mpc import PlannerConfig, estimate_lipschitz, planner_iss_bound
from .numkit import eigenvalues
from .scenarios import CertificateInputs, RunBundle, scenario_a, scenario_b
from .sim import (
    COLUMNS,
    NonFiniteStateError,
    SimConfig,
    TrajectoryLog,
    calibrated_overshoot_for_run,
    invariant_violations,
    omega_entry_time,
    run_layered,
)


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def dump_json(obj, path: Path, indent: int | None = 2) -> None:
    """Write obj as sorted-key JSON. indent=None writes it on one line,
    which json encodes in C (an indent forces its pure-Python encoder).
    A path that cannot be written raises a RuntimeError that names it in
    one line."""
    text = json.dumps(obj, indent=indent, sort_keys=True, default=_json_default) + "\n"
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc.strerror or exc}") from None


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")


# ---------------------------------------------------------------------------
# config -> bundle
#
# Each section is one config dataclass, and each of its keys one field. A
# field marked DERIVED is computed from other sections by a from_hess
# constructor and never serialised; P, the governor and V_bar_h are derived
# by RunBundle itself. Defaults are the dataclass field defaults.
# load_bundle is the one constructor of a RunBundle.

_SECTIONS = ("scenario", "plant", "lyapunov_weight", "constraints", "erg", "planner",
             "contract", "sim", "load", "certificates")
# JSON types a scalar field accepts; bool is excluded from the numbers
_SCALARS = {float: (int, float), int: (int,), bool: (bool,), str: (str,)}


@functools.cache
def _schema(cls) -> dict:
    """Serialised fields of a config dataclass: name -> (type, required)."""
    hints = field_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls) if f.init and not f.metadata.get("derived")
    }


@contextmanager
def _at(path: str):
    """Report a ValueError or TypeError raised by a constructor as a
    ConfigError at path, or at path.field for a FieldValueError."""
    try:
        yield
    except FieldValueError as exc:
        raise ConfigError(f"{path}.{exc.field}", str(exc)) from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


def _field_value(hint, value, path: str):
    """A JSON value as a field value, checked against the field's annotation
    down to every leaf: a scalar field takes its JSON type (a float field
    only a finite number), an optional field null or its type, and a tuple
    field a list of its length whose elements are checked at path.<index>
    (a tuple of dataclasses a list of rows, each row's entries at
    path.<index>.<field>). A range that the annotation states, a bound or a
    Literal's values, is the dataclass's own check_fields."""
    if get_origin(hint) is Annotated:
        hint = get_args(hint)[0]
    if get_origin(hint) is Literal:
        return value
    if hint in _SCALARS:
        if not isinstance(value, _SCALARS[hint]) or isinstance(value, bool) is not (hint is bool):
            raise ConfigError(path, f"expected {hint.__name__}, got {value!r}")
        if hint is float and not math.isfinite(value):
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        return value
    args = get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (t for t in args if t is not type(None))
        return _field_value(hint, value, path)
    if is_dataclass(hint):
        return _row(hint, value, path)
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {value!r}")
    if Ellipsis in args:
        args = args[:1] * len(value)
    elif len(value) != len(args):
        raise ConfigError(path, f"expected {len(args)} values, got {len(value)}")
    return tuple(_field_value(t, v, f"{path}.{i}") for i, (t, v) in enumerate(zip(args, value)))


def _row(cls, value, path: str):
    """A dataclass from a list of its field values in field order; the
    trailing fields that have defaults may be left out."""
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {value!r}")
    schema = _schema(cls)
    required = sum(req for _, req in schema.values())
    if not required <= len(value) <= len(schema):
        raise ConfigError(path, f"expected {required} to {len(schema)} values, got {len(value)}")
    kwargs = {name: _field_value(hint, v, f"{path}.{name}")
              for (name, (hint, _)), v in zip(schema.items(), value)}
    with _at(path):
        return cls(**kwargs)


def _section(cfg: dict, key: str):
    """A top-level entry of the config document; every one is required."""
    if key not in cfg:
        raise ConfigError(key, "missing required key")
    return cfg[key]


def _load(cls, cfg: dict, key: str, build=None):
    """Construct cls, or build(**fields), from the section cfg[key]."""
    section = _section(cfg, key)
    if not isinstance(section, dict):
        raise ConfigError(key, f"expected an object, got {section!r}")
    schema = _schema(cls)
    for name in section:
        if name not in schema:
            raise ConfigError(f"{key}.{name}", "unknown key")
    kwargs = {}
    for name, (hint, required) in schema.items():
        if name in section:
            kwargs[name] = _field_value(hint, section[name], f"{key}.{name}")
        elif required:
            raise ConfigError(f"{key}.{name}", "missing required key")
    with _at(key):
        return (build or cls)(**kwargs)


def load_bundle(cfg: dict) -> RunBundle:
    """Build a run bundle from a complete config document. An unknown,
    missing or invalid key raises ConfigError naming its key path."""
    if not isinstance(cfg, dict):
        raise ConfigError("config", f"expected an object, got {cfg!r}")
    for key in cfg:
        if key not in _SECTIONS:
            raise ConfigError(key, "unknown key")
    plant = _load(HessParams, cfg, "plant")
    sim = _load(SimConfig, cfg, "sim")
    planner_cfg = profile = None
    if _section(cfg, "planner") is not None:
        planner_cfg = _load(PlannerConfig, cfg, "planner",
                            functools.partial(PlannerConfig.from_hess, plant, sim.t_s))
    if _section(cfg, "load") is not None:
        profile = _load(LoadProfile, cfg, "load")
    parts = dict(
        name=_field_value(str, _section(cfg, "scenario"), "scenario"),
        plant=plant,
        constraint_cfg=_load(ConstraintConfig, cfg, "constraints"),
        erg_cfg=_load(ErgConfig, cfg, "erg"),
        planner_cfg=planner_cfg,
        spec=_load(ContractSpec, cfg, "contract",
                   functools.partial(ContractSpec.from_hess, plant, sim.t_s, sim.w_max)),
        sim=sim,
        load_profile=profile,
        cert=_load(CertificateInputs, cfg, "certificates"),
    )
    weight = _field_value(tuple[tuple[float, float], tuple[float, float]],
                          _section(cfg, "lyapunov_weight"), "lyapunov_weight")
    try:
        return RunBundle(R=np.array(weight, dtype=float), **parts)
    except FieldValueError as exc:
        # the cross-section rule of RunBundle names its full key path
        raise ConfigError(exc.field, str(exc)) from None
    except (TypeError, ValueError) as exc:
        # the other sections are valid by now, so a failure here comes from R
        raise ConfigError("lyapunov_weight", str(exc)) from None


def _output_dir(path: str) -> Path:
    """The directory path, created with its parents if missing. A path
    that cannot be a directory (a regular file, or a path under one) raises
    a RuntimeError that names it in one line."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {path}: {exc.strerror or exc}") from None
    return out_dir


def read_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(path, f"cannot read: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def resolve_config(scenario: str | None, config_path: str | None) -> dict:
    """The config document of a command: scenario a's or b's document with
    the file's keys merged over it, or the file alone (scenario custom)."""
    if scenario not in ("a", "b", "custom", None):
        raise ConfigError("scenario", f"unknown scenario {scenario!r} (expected a, b, or custom)")
    if scenario in ("a", "b"):
        base = scenario_a() if scenario == "a" else scenario_b()
        if config_path:
            base = _merge(base, read_config(config_path))
        return base
    if config_path is None:
        raise ConfigError("config", "custom scenario requires --config")
    return read_config(config_path)


# ---------------------------------------------------------------------------
# certify


def build_certificate(bundle: RunBundle) -> dict:
    """Run the full offline certificate chain for one configuration."""
    plant, cert, P = bundle.plant, bundle.cert, bundle.P
    lam_e = plant.lambda_e
    B_norm = 1.0 / plant.c_bus

    v_bar_opt, theta_star, z_star = bundle.level
    v_bar_h = bundle.v_bar_h
    eps_l = [coordinate_bound(bundle.governor.pinv.mat, v_bar_h, i) for i in range(2)]

    # gamma_iss holds ||B|| = 1 / c_bus, so the bounds take w_max itself
    w_max = bundle.sim.w_max
    gamma_iss = iss_gain(cert.m_overshoot, B_norm, lam_e)
    eps = noise_floor(gamma_iss, w_max)
    r_bar_b = bundle.spec.r_bar[1]
    settling = settling_time(
        m=cert.m_overshoot, lambda_e=lam_e, gamma_iss=gamma_iss, r_bar=r_bar_b,
        eps=eps, kappa_lo=bundle.erg_cfg.kappa_lo * cert.kappa_lo,
        r_lo=cert.r_lo, delta=cert.settle_delta, w_max=w_max, M=cert.ff_residual_bound,
    )
    timing = timing_check(bundle.spec.t_s, settling)

    if cert.l_v is not None:
        l_v = cert.l_v
    elif bundle.planner_cfg is not None:
        l_v = estimate_lipschitz(bundle.planner_cfg, sample_count=200, sample_radius=0.5, seed=0)
    else:
        l_v = 0.0

    # the governor threshold where the governor starts; the peak reference
    # rate is the governor gain's upper range times that margin
    gamma_star = bundle.governor.gamma(bundle.v_start)
    kappa_max = bundle.erg_cfg.kappa_hi * gamma_star
    mismatch = mismatch_bound_hess(plant, settling, eps_l, kappa_max, cert.eta, cert.settle_delta)
    eps_t = planner_iss_bound(cert.lambda_min_p, cert.lambda_max_p, l_v, cert.lambda_min_q, mismatch.eps_e)

    return {
        "P": P.mat.tolist(),
        "eigenvalues": [z.real for z in eigenvalues(plant.error_matrix())],
        "kappa_P": P.cond(),
        "lambda_e": lam_e,
        "V_bar_h": float(v_bar_h),
        "V_bar_h_optimized": v_bar_opt,
        "theta_star_deg": math.degrees(theta_star),
        "z_star": list(z_star),
        "eps_L": [float(x) for x in eps_l],
        "gamma_iss": gamma_iss,
        "eps": eps,
        "tau1": settling.tau1,
        "tau2": settling.tau2,
        "tau_LL": settling.tau_LL,
        "tau1_max": settling.tau1,  # same as tau1; the key stays for readers of certificate.json
        "z_peak": settling.z_peak,
        "L_V": l_v,
        "eps_T": eps_t,
        "eps_E": mismatch.eps_e,
        "delta_tr_B": mismatch.delta_tr_b,
        "d_ss_B": mismatch.d_ss_b,
        "delta_tr_S": mismatch.delta_tr_s,
        "d_ss_S": mismatch.d_ss_s,
        "gamma_inf": gamma_star,
        **certificate_report(bundle.spec, v_bar_h, timing, eps_t, mismatch.eps_e, gamma_star),
    }


def cmd_certify(args) -> int:
    try:
        cfg = resolve_config(args.scenario, args.config)
        bundle = load_bundle(cfg)
        out_dir = _output_dir(args.out)
        certificate = build_certificate(bundle)
        path = out_dir / "certificate.json"
        dump_json(certificate, path)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"wrote {path}")
    for key in ("admissibility", "vertical_compat",
                "timing_period_covers_settling", "timing_decay_window_ok"):
        print(f"  {key}: {certificate[key]}")
    return 0 if certificate["all_ok"] else 2


# ---------------------------------------------------------------------------
# run


CSV_HEADER = ",".join(COLUMNS) + "\r\n"


def render_rows(rows: np.ndarray, period: int) -> str:
    """The CSV lines of rows, an (n, len(COLUMNS)) float array whose first
    row starts a sampling period of `period` rows.

    Each float is written as its repr, so parsing reproduces it exactly,
    in the bytes csv.writer's default dialect writes: comma-separated,
    CRLF-terminated and unquoted, since no float repr holds a comma, quote
    or line break. Within each period a column whose bits are all equal
    (so 0.0 and -0.0 differ) is rendered once into a %r row template, and
    the period's lines are that template repeated, filled in one % call."""
    lines = []
    for j in range(0, len(rows), period):
        sub = rows[j:j + period]
        bits = sub.view(np.uint64)
        fixed = (bits == bits[0]).all(axis=0)
        template = ",".join([repr(x) if f else "%r" for x, f in zip(sub[0].tolist(), fixed.tolist())])
        lines.append((template + "\r\n") * len(sub) % tuple(sub[:, ~fixed].ravel().tolist()))
    return "".join(lines)


class TrajectoryWriter:
    """A forked child that renders the rows piped to it into path.part.

    The parent creates path.part before it forks, so a path that cannot be
    written raises a RuntimeError that names it in one line. send(block)
    pipes one finished block of rows, as raw float64 bytes; the blocks must
    start at period boundaries and come in order. The child reads one
    period at a time, writes its lines, and leaves with exit code 0, or 1
    on any error. write_trajectory_csv waits for it; close() reaps the
    child and removes a .part file left behind, so after a failure no new
    file is left and an earlier one is kept.
    The child runs Python and numpy's elementwise code only, never the
    BLAS whose idle threads the parent may own, so forking is safe here.
    """

    def __init__(self, path: Path, period: int):
        self.part = _part(path)
        self.code = None  # the child's exit code, once reaped
        try:
            out = self.part.open("w", newline="", encoding="utf-8")
        except OSError as exc:
            raise RuntimeError(f"cannot write {self.part}: {exc.strerror or exc}") from None
        with out:  # closes the parent's copy; the child writes through its own
            read_fd, write_fd = os.pipe()
            self.pid = os.fork()
            if self.pid == 0:
                self._render(read_fd, write_fd, out, period)
        os.close(read_fd)
        self.pipe = open(write_fd, "wb")

    def _render(self, read_fd: int, write_fd: int, out, period: int):
        """The child's whole life: render, then leave without returning."""
        code = 1
        try:
            os.close(write_fd)  # so that the parent's close ends the stream
            chunk = period * len(COLUMNS) * 8  # one sampling period per read
            # a read buffer larger than the pipe drains it in one raw read, so
            # the parent's send does not wait for each period's render
            with open(read_fd, "rb", buffering=1 << 20) as pipe, out as fh:
                fh.write(CSV_HEADER)
                while data := pipe.read(chunk):
                    fh.write(render_rows(np.frombuffer(data).reshape(-1, len(COLUMNS)), period))
            code = 0
        except Exception as exc:
            print(f"trajectory writer: {exc}", file=sys.stderr, flush=True)
        finally:
            os._exit(code)  # never unwind into the parent's stack

    def send(self, block: np.ndarray) -> None:
        try:
            self.pipe.write(block)
        except BrokenPipeError:
            raise RuntimeError("trajectory writer exited early") from None

    def wait(self) -> int:
        """Close the pipe and reap the child (once); its exit code."""
        try:
            self.pipe.close()
        except BrokenPipeError:
            pass  # the child has left; its exit code says why
        if self.code is None:
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code

    def close(self) -> None:
        self.wait()
        self.part.unlink(missing_ok=True)


def write_trajectory_csv(writer: TrajectoryWriter) -> None:
    """Wait for the writer to render the rows still queued into its .part
    file. What it waits for is the CSV time left on run's critical path,
    after the render that overlapped the simulation."""
    code = writer.wait()
    if code != 0:
        raise RuntimeError(f"trajectory writer failed with exit code {code}")


def _part(path: Path) -> Path:
    """Where an output file is staged until its run's whole set is written."""
    return path.with_name(path.name + ".part")


def _move_into_place(paths: list[Path]) -> None:
    """Rename each path's staged .part file onto it. A path that is a
    directory would stop the renames halfway, so every path is checked
    before the first rename: a failure leaves no new file in place."""
    for path in paths:
        if path.is_dir():
            raise RuntimeError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    for path in paths:
        try:
            os.replace(_part(path), path)
        except OSError as exc:
            raise RuntimeError(f"cannot write {path}: {exc.strerror or exc}") from None


def summarize_run(bundle: RunBundle, log: TrajectoryLog, report) -> dict:
    v_bar_h = bundle.v_bar_h
    entry = omega_entry_time(log, v_bar_h)
    safety = report.violation_counts().get("G_safe", 0)
    max_w_tilde = float(np.max(np.abs(report.w_tilde))) if report.w_tilde.size else 0.0
    return {
        "K_live": report.k_live,
        "max_Phi": float(np.max(log.columns["Phi"])),
        "max_V_e": float(np.max(log.columns["V_e"])),
        "omega_h_entry_time": entry,
        "max_w_tilde": max_w_tilde,
        "V_bar_h": float(v_bar_h),
        "invariant_violations_after_entry": invariant_violations(log, v_bar_h),
        "safety_violations": int(safety),
        "fallback_count": int(log.fallback_steps.sum()),
    }


def monitor_to_dict(report, log: TrajectoryLog) -> dict:
    """Contract verdicts, plus one record per planner period of how hard
    its QP was (no timings, so the file stays byte-reproducible)."""
    return {
        "verdicts": {k: v.astype(np.int64).tolist() for k, v in report.verdicts.items()},
        "first_violation": dict(report.first_violation),
        "w_tilde": report.w_tilde.tolist(),
        "k_live": report.k_live,
        "all_pass": report.all_pass(),
        "planner": [
            {
                "status": p.qp.status.value,
                "iterations": p.qp.iterations,
                "active_set_size": len(p.qp.active_set),
                "kkt_residual": p.qp.kkt_residual,
            }
            for p in log.plans
        ],
    }


def cmd_run(args) -> int:
    try:
        overlay = {} if args.seed is None else {"sim": {"seed": args.seed}}
        bundle = load_bundle(_merge(resolve_config(args.scenario, args.config), overlay))
        out_dir = _output_dir(args.out)
        paths = [out_dir / name for name in ("trajectory.csv", "monitor.json", "summary.json")]
        writer = TrajectoryWriter(paths[0], bundle.sim.steps_per_period)
        staged = []  # the JSON .part files written so far
        try:
            log, report = run_layered(bundle, on_rows=writer.send)
            # staged while the writer renders the last rows
            summary = summarize_run(bundle, log, report)
            for path, obj, indent in ((paths[1], monitor_to_dict(report, log), None), (paths[2], summary, 2)):
                dump_json(obj, _part(path), indent)
                staged.append(_part(path))
            write_trajectory_csv(writer)
            _move_into_place(paths)
        finally:
            writer.close()
            for part in staged:
                part.unlink(missing_ok=True)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"wrote {out_dir}/trajectory.csv, monitor.json, summary.json")
    for key in ("K_live", "max_Phi", "max_V_e", "omega_h_entry_time",
                "safety_violations", "fallback_count"):
        print(f"  {key}: {summary[key]}")
    return 0 if summary["safety_violations"] == 0 else 1


# ---------------------------------------------------------------------------
# sweep


def _sweep_worker(payload):
    """One seed's record, or {"seed", "error"} if its state turned non-finite."""
    bundle, seed = payload
    bundle = bundle.with_seed(seed)
    try:
        log, report = run_layered(bundle)
    except NonFiniteStateError as exc:
        return {"seed": seed, "error": str(exc)}
    plant = bundle.plant
    m, _ = calibrated_overshoot_for_run(log, plant.lambda_e, 1.0 / plant.c_bus, bundle.sim.w_max)
    summary = summarize_run(bundle, log, report)
    return {
        "seed": seed,
        "phi_violations": int(np.sum(log.columns["Phi"] > 1e-9)),
        "invariant_violations": summary["invariant_violations_after_entry"],
        "safety_violations": summary["safety_violations"],
        "m_calibrated": m,
    }


def cmd_sweep(args) -> int:
    if args.seeds < 1:
        print("seed count must be at least 1", file=sys.stderr)
        return 1
    try:
        bundle = load_bundle(resolve_config(args.scenario, args.config))
        bundle.v_bar_h  # derived once here; each worker receives it with the bundle
        out_dir = _output_dir(args.out)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    payloads = [(bundle, seed) for seed in range(args.seeds)]
    if args.seeds == 1:
        outcomes = [_sweep_worker(payloads[0])]
    else:
        # read as a module attribute, so that __getattr__ imports it
        with sys.modules[__name__].ProcessPoolExecutor() as pool:
            outcomes = list(pool.map(_sweep_worker, payloads))
    failed = [r for r in outcomes if "error" in r]  # map keeps the seed order
    results = [r for r in outcomes if "error" not in r]
    ms = [r["m_calibrated"] for r in results]
    aggregate = {
        "seeds": args.seeds,
        "failed_seeds": [r["seed"] for r in failed],
        "phi_violation_total": sum(r["phi_violations"] for r in results),
        "invariant_violation_total": sum(r["invariant_violations"] for r in results),
        "safety_violation_total": sum(r["safety_violations"] for r in results),
        "m_values": ms,
        "m_min": min(ms) if ms else None,
        "m_max": max(ms) if ms else None,
        "m_mean": sum(ms) / len(ms) if ms else None,
        "per_seed": results,
    }
    path = out_dir / "aggregate.json"
    try:
        dump_json(aggregate, path)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"wrote {path}")
    print(f"  phi_violation_total: {aggregate['phi_violation_total']}")
    if ms:
        print(f"  m range: [{aggregate['m_min']:.3f}, {aggregate['m_max']:.3f}]")
    for r in failed:
        print(f"seed {r['seed']} failed: {r['error']}", file=sys.stderr)
    bad = aggregate["phi_violation_total"] + aggregate["safety_violation_total"] + len(failed)
    return 0 if bad == 0 else 1


def __getattr__(name: str):
    """cli.ProcessPoolExecutor, imported on first use: importing
    concurrent.futures costs run and certify tens of milliseconds of
    startup, and only sweep uses it."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="laycon",
        description="Layered MPC/ERG/ISS control: certificates, seeded runs, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="compute the offline certificate chain")
    p_cert.add_argument("--config", help="JSON config path")
    p_cert.add_argument("--scenario", default="custom")
    p_cert.add_argument("--out", default=".", help="output directory")
    p_cert.set_defaults(func=cmd_certify)

    p_run = sub.add_parser("run", help="simulate one seeded scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--config", help="JSON config path (overrides scenario defaults)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="seeded Monte-Carlo invariance sweep")
    p_sweep.add_argument("--scenario", default="a")
    p_sweep.add_argument("--config", help="JSON config path")
    p_sweep.add_argument("--seeds", type=int, required=True)
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
