"""Command-line surface: certify and run pipelines, CSV/JSON emission.

Configs are strict JSON documents (no comments). `laycon certify` computes
the complete offline certificate chain and writes certificate.json;
`laycon run` simulates one seeded scenario and writes trajectory.csv,
monitor.json, and summary.json; `laycon sweep` fans independent seeds
across processes and aggregates invariance evidence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, astuple, fields, is_dataclass
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from .contracts import ContractSpec, certificate_report, mismatch_bound_hess
from .erg import ErgConfig
from .errors import FieldValueError
from .hess import ConstraintConfig, HessParams, LoadProfile
from .iss_cert import (
    coordinate_bound,
    iss_gain,
    noise_floor,
    settling_time,
    timing_check,
)
from .mpc import PlannerConfig, PlannerIssData, estimate_lipschitz, planner_iss_bound
from .scenarios import CertificateInputs, RunBundle, mismatch_params_for, scenario_a, scenario_b
from .sim import (
    COLUMNS,
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


def dump_json(obj, path: Path) -> None:
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8",
    )


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")


# ---------------------------------------------------------------------------
# config <-> bundle
#
# Each section is one config dataclass, and each of its keys one field. A
# field marked DERIVED is computed from other sections by a from_hess
# constructor and never serialised; P, the governor and V_bar_h are derived
# by RunBundle itself. Defaults are the dataclass field defaults.

_SECTIONS = ("scenario", "plant", "lyapunov_weight", "constraints", "erg", "planner",
             "contract", "sim", "load", "certificates")
# JSON types a scalar field accepts; bool is excluded from the numbers
_SCALARS = {float: (int, float), int: (int,), bool: (bool,), str: (str,)}


@functools.cache
def _schema(cls) -> dict:
    """Serialised fields of a config dataclass: name -> (type, required)."""
    hints = get_type_hints(cls)
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
    """A JSON value as a field value: a scalar field takes its JSON type, a
    tuple field a list of its length (a tuple of dataclasses a list of
    rows), and a Literal field one of its values."""
    if hint in _SCALARS:
        if not isinstance(value, _SCALARS[hint]) or isinstance(value, bool) is not (hint is bool):
            raise ConfigError(path, f"expected {hint.__name__}, got {value!r}")
        return value
    if get_origin(hint) is Literal:
        if value not in get_args(hint):
            raise ConfigError(path, f"expected one of {', '.join(get_args(hint))}, got {value!r}")
        return value
    tup = next((t for t in (hint, *get_args(hint)) if get_origin(t) is tuple), None)
    if tup is None or value is None:
        return value
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {value!r}")
    items = get_args(tup)
    if Ellipsis not in items and len(value) != len(items):
        raise ConfigError(path, f"expected {len(items)} values, got {len(value)}")
    row_type = items[0]
    if is_dataclass(row_type):
        rows = []
        for i, row in enumerate(value):
            with _at(f"{path}.{i}"):
                rows.append(row_type(*row))
        return tuple(rows)
    return tuple(value)


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


def _dump(obj) -> dict | None:
    """Inverse of _load: the serialised fields, tuples as lists (and rows)."""
    if obj is None:
        return None
    out = {}
    for name in _schema(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, tuple):
            value = [list(astuple(v)) if is_dataclass(v) else v for v in value]
        out[name] = value
    return out


def bundle_to_config(bundle: RunBundle) -> dict:
    """Serialize a run bundle into the JSON config schema."""
    return {
        "scenario": bundle.name,
        "plant": _dump(bundle.plant),
        "lyapunov_weight": np.asarray(bundle.R).tolist(),
        "constraints": _dump(bundle.constraint_cfg),
        "erg": _dump(bundle.erg_cfg),
        "planner": _dump(bundle.planner_cfg),
        "contract": _dump(bundle.spec),
        "sim": _dump(bundle.sim),
        "load": _dump(bundle.load_profile),
        "certificates": _dump(bundle.cert),
    }


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
        name=_section(cfg, "scenario"),
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
    weight = _section(cfg, "lyapunov_weight")
    try:
        return RunBundle(R=np.asarray(weight, dtype=float), **parts)
    except FieldValueError as exc:
        # the cross-section rule of RunBundle names its full key path
        raise ConfigError(exc.field, str(exc)) from None
    except (TypeError, ValueError) as exc:
        # the other sections are valid by now, so a failure here comes from R
        raise ConfigError("lyapunov_weight", str(exc)) from None


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
    if scenario not in ("a", "b", "custom", None):
        raise ConfigError("scenario", f"unknown scenario {scenario!r} (expected a, b, or custom)")
    if scenario in ("a", "b"):
        base = bundle_to_config(scenario_a() if scenario == "a" else scenario_b())
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
    eigenvalues = sorted(np.linalg.eigvals(plant.error_matrix()).real, reverse=True)
    B_norm = 1.0 / plant.c_bus

    v_bar_opt, theta_star, z_star = bundle.level
    v_bar_h = bundle.v_bar_h
    eps_l = [coordinate_bound(P, v_bar_h, i) for i in range(2)]

    gamma_iss = iss_gain(cert.m_overshoot, B_norm, lam_e)
    eps = noise_floor(gamma_iss, cert.h_max)
    r_bar_b = bundle.spec.r_bar[1]
    settling = settling_time(
        m=cert.m_overshoot, lambda_e=lam_e, gamma_iss=gamma_iss, r_bar=r_bar_b,
        eps=eps, kappa_lo=bundle.erg_cfg.kappa_lo * cert.kappa_lo,
        r_lo=cert.r_lo, delta=cert.settle_delta, H_max=cert.h_max,
        M=cert.ff_residual_bound, mode=cert.settle_mode,
    )
    timing = timing_check(bundle.spec.t_s, settling)

    if cert.l_v is not None:
        l_v = cert.l_v
    elif bundle.planner_cfg is not None:
        l_v = estimate_lipschitz(bundle.planner_cfg, sample_count=200, sample_radius=0.5, seed=0)
    else:
        l_v = 0.0
    iss_data = PlannerIssData(cert.lambda_min_p, cert.lambda_max_p, l_v, cert.lambda_min_q)

    gamma_star = bundle.governor.gamma(bundle.v_start)
    mismatch = mismatch_bound_hess(mismatch_params_for(
        bundle, z_peak=settling.z_peak, tau1=settling.tau1, tau2=settling.tau2,
        eps1=eps_l[0], eps2=eps_l[1], gamma_star=gamma_star,
    ))
    eps_t = planner_iss_bound(iss_data, mismatch.eps_e)

    verdicts = certificate_report(bundle.spec, v_bar_h, settling, timing, eps_t, mismatch, gamma_star)
    return {
        "P": P.mat.tolist(),
        "eigenvalues": [float(x) for x in eigenvalues],
        "kappa_P": P.cond(),
        "lambda_e": lam_e,
        "V_bar_h": float(v_bar_h),
        "V_bar_h_optimized": float(v_bar_opt),
        "theta_star_deg": math.degrees(theta_star),
        "z_star": [float(z_star[0]), float(z_star[1])],
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
        "timing_period_covers_settling": verdicts.timing_period_covers_settling,
        "timing_decay_window_ok": verdicts.timing_decay_window_ok,
        "vertical_compat": verdicts.vertical_compat,
        "admissibility": verdicts.admissible_disturbance,
        "gamma_inf": verdicts.gamma_inf,
        "all_ok": verdicts.all_ok,
    }


def cmd_certify(args) -> int:
    try:
        cfg = resolve_config(args.scenario, args.config)
        bundle = load_bundle(cfg)
        certificate = build_certificate(bundle)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "certificate.json"
    dump_json(certificate, path)
    print(f"wrote {path}")
    for key in ("admissibility", "vertical_compat",
                "timing_period_covers_settling", "timing_decay_window_ok"):
        print(f"  {key}: {certificate[key]}")
    return 0 if certificate["all_ok"] else 2


# ---------------------------------------------------------------------------
# run


_CSV_BLOCK = 256  # steps rendered per write; keeps the float copies small


def write_trajectory_csv(log: TrajectoryLog, path: Path) -> None:
    """Full-precision decimal rendering; parsing reproduces the arrays exactly.

    Writes the bytes csv.writer's default dialect writes: comma-separated,
    CRLF-terminated, unquoted, since no name or float repr holds a comma,
    quote or line break."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(COLUMNS) + "\r\n")
        for j in range(0, log.n_rows, _CSV_BLOCK):
            block = log.data[:, j:j + _CSV_BLOCK].T.tolist()
            fh.writelines([",".join(map(repr, row)) + "\r\n" for row in block])


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
        "verdicts": {k: [int(b) for b in v] for k, v in report.verdicts.items()},
        "first_violation": dict(report.first_violation),
        "w_tilde": report.w_tilde.tolist(),
        "k_live": report.k_live,
        "all_pass": report.all_pass(),
        "planner": [
            {
                "status": sol.status.value,
                "iterations": sol.iterations,
                "active_set_size": len(sol.active_set),
                "kkt_residual": sol.kkt_residual,
            }
            for sol in log.plan_qps
        ],
    }


def execute_run(cfg: dict, seed: int | None = None):
    if seed is not None:
        cfg = _merge(cfg, {"sim": {"seed": seed}})
    bundle = load_bundle(cfg)
    return bundle, *run_layered(bundle)


def cmd_run(args) -> int:
    try:
        cfg = resolve_config(args.scenario, args.config)
        bundle, log, report = execute_run(cfg, args.seed)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(log, out_dir / "trajectory.csv")
    dump_json(monitor_to_dict(report, log), out_dir / "monitor.json")
    summary = summarize_run(bundle, log, report)
    dump_json(summary, out_dir / "summary.json")
    print(f"wrote {out_dir}/trajectory.csv, monitor.json, summary.json")
    for key in ("K_live", "max_Phi", "max_V_e", "omega_h_entry_time",
                "safety_violations", "fallback_count"):
        print(f"  {key}: {summary[key]}")
    return 0 if summary["safety_violations"] == 0 else 1


# ---------------------------------------------------------------------------
# sweep


def _sweep_worker(payload):
    cfg, seed = payload
    bundle, log, report = execute_run(cfg, seed)
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
        cfg = resolve_config(args.scenario, args.config)
        load_bundle(cfg)  # validate before fanning out
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    payloads = [(cfg, seed) for seed in range(args.seeds)]
    if args.seeds == 1:
        results = [_sweep_worker(payloads[0])]
    else:
        with ProcessPoolExecutor() as pool:
            results = list(pool.map(_sweep_worker, payloads))
    results.sort(key=lambda r: r["seed"])
    ms = [r["m_calibrated"] for r in results]
    aggregate = {
        "seeds": args.seeds,
        "phi_violation_total": sum(r["phi_violations"] for r in results),
        "invariant_violation_total": sum(r["invariant_violations"] for r in results),
        "safety_violation_total": sum(r["safety_violations"] for r in results),
        "m_values": ms,
        "m_min": min(ms),
        "m_max": max(ms),
        "m_mean": sum(ms) / len(ms),
        "per_seed": results,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "aggregate.json"
    dump_json(aggregate, path)
    print(f"wrote {path}")
    print(f"  phi_violation_total: {aggregate['phi_violation_total']}")
    print(f"  m range: [{aggregate['m_min']:.3f}, {aggregate['m_max']:.3f}]")
    bad = aggregate["phi_violation_total"] + aggregate["safety_violation_total"]
    return 0 if bad == 0 else 1


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
