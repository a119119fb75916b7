import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from helpers import NO_PLAN_RUN, bundle, bundle_to_config, read_trajectory_csv
from hypothesis import given, settings
from hypothesis import strategies as st

import laycon
from laycon import cli as cli_module
from laycon import mpc as mpc_module
from laycon import numkit as numkit_module
from laycon import scenarios as scenarios_module
from laycon import sim as sim_module
from laycon.cli import (
    CSV_HEADER,
    TrajectoryWriter,
    dump_json,
    load_bundle,
    main,
    render_rows,
    resolve_config,
    summarize_run,
    write_trajectory_csv,
)
from laycon.contracts import ContractSpec
from laycon.erg import ErgConfig
from laycon.errors import Bound, FieldValueError
from laycon.hess import ConstraintConfig, HessParams, LoadProfile, LoadSegment
from laycon.mpc import PlannerConfig
from laycon.scenarios import CertificateInputs, scenario_a, scenario_b
from laycon.sim import COLUMNS, STREAM_ROWS, NonFiniteStateError, SimConfig, run_layered


class TestConfigRoundTrip:
    @pytest.mark.parametrize("maker", [scenario_a, scenario_b])
    def test_document_survives_load(self, maker):
        doc = maker()
        assert bundle_to_config(load_bundle(doc)) == doc

    def test_load_span_covers_the_last_forecast(self):
        # scenario B's constant tail ends where the planner's last forecast does
        doc = scenario_b(t_end=3.0)
        assert doc["load"]["segments"][-1][1] == 3.0 + doc["planner"]["horizon"] * doc["sim"]["t_s"]

    @pytest.mark.parametrize("maker", [scenario_a, scenario_b])
    def test_bundle_survives_serialization(self, maker):
        original = bundle(maker())
        rebuilt = load_bundle(bundle_to_config(original))
        assert rebuilt.plant == original.plant
        assert rebuilt.erg_cfg == original.erg_cfg
        assert rebuilt.planner_cfg == original.planner_cfg
        assert rebuilt.spec == original.spec
        assert rebuilt.sim == original.sim
        assert np.allclose(rebuilt.R, original.R)
        assert len(rebuilt.governor.constraints) == len(original.governor.constraints)
        assert rebuilt.governor.constraints == original.governor.constraints
        assert rebuilt.cert == original.cert
        assert rebuilt.r_start == original.r_start
        assert rebuilt.v_start == original.v_start
        assert rebuilt.plant.lambda_e == original.plant.lambda_e
        assert rebuilt.v_bar_h == original.v_bar_h

    @settings(max_examples=60)
    @given(data=st.data())
    def test_config_survives_load(self, data):
        cfg = resolve_config(data.draw(st.sampled_from(["a", "b"])), None)
        margin = st.floats(min_value=1e-3, max_value=20.0)
        optional = st.none() | st.floats(min_value=0.0, max_value=10.0)
        cfg["constraints"] = {
            "mode": data.draw(st.sampled_from(["full", "input_only", "voltage_only"])),
            "kappa_bar": data.draw(margin),
            "d_bar_max": data.draw(margin),
            "d_bar_dot_max": data.draw(margin),
        }
        cfg["sim"]["w_max"] = data.draw(st.just(0.0) | st.floats(min_value=0.0, max_value=5.0))
        cfg["certificates"]["v_bar_h_override"] = data.draw(optional)
        cfg["certificates"]["l_v"] = data.draw(optional)
        cfg["sim"]["seed"] = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        assert bundle_to_config(load_bundle(cfg)) == cfg

    def test_override_merge(self, tmp_path):
        override = tmp_path / "override.json"
        override.write_text(json.dumps({"sim": {"seed": 42, "t_end": 1.0}}))
        cfg = resolve_config("a", str(override))
        assert cfg["sim"]["seed"] == 42
        assert cfg["sim"]["t_end"] == 1.0
        assert cfg["plant"]["k1"] == 25.0  # defaults retained


BAD_KEYS = [
    ("contract.eps_hh", lambda cfg: cfg["contract"].update(eps_hh=5)),
    # the convergence clause reads the goal from its one home, planner.e_b_goal
    ("contract.y_goal", lambda cfg: cfg["contract"].update(y_goal=5.0)),
    ("sim.typo", lambda cfg: cfg["sim"].update(typo=1)),
    ("planner.horizon", lambda cfg: cfg["planner"].pop("horizon")),
    ("load.segments", lambda cfg: cfg["load"].update(segments=[[0.0, 8.0, "constant"]])),
    ("load.segments.1.t_end", lambda cfg: cfg["load"]["segments"][1].__setitem__(1, 0.5)),
    ("load.segments.1.kind", lambda cfg: cfg["load"]["segments"][1].__setitem__(2, "bogus")),
    ("constraints.mode", lambda cfg: cfg["constraints"].update(mode="bogus")),
    ("sim.x0", lambda cfg: cfg["sim"].update(x0=[400.0, 0.0, 0.0])),
    ("certificates.settle_mode", lambda cfg: cfg["certificates"].update(settle_mode="bogus")),
    ("sim.disturbance", lambda cfg: cfg["sim"].update(disturbance="bogus")),
    ("plant.rho_d", lambda cfg: cfg["plant"].update(rho_d=5.0)),
    ("plant.k1", lambda cfg: cfg["plant"].update(k1=-5.0)),
    ("plant.lambda_b_gain", lambda cfg: cfg["plant"].update(lambda_b_gain=1.0)),
    ("erg.kappa_erg", lambda cfg: cfg["erg"].update(kappa_erg=-1.0)),
    ("erg.eta", lambda cfg: cfg["erg"].update(eta=0.0)),
    ("sim.h", lambda cfg: cfg["sim"].update(h=0.0)),
    ("constraints.kappa_bar", lambda cfg: cfg["constraints"].update(kappa_bar=-0.1)),
    ("planner.q_weight", lambda cfg: cfg["planner"].update(q_weight=-1.0)),
    ("sim.frozen_reference", lambda cfg: cfg.update(planner=None)),
    ("sim.mpc_on", lambda cfg: cfg["sim"].update(mpc_on=False)),
    # every leaf is checked against its annotation, tuple elements and
    # optional scalars included, and a float must be finite
    ("certificates.l_v", lambda cfg: cfg["certificates"].update(l_v="x")),
    # v0 is the governed voltage alone: the old (v_V, v_IB) pair is rejected
    ("sim.v0", lambda cfg: cfg["sim"].update(v0=[400.0, 0.0])),
    ("sim.v0", lambda cfg: cfg["sim"].update(v0="a")),
    ("contract.eps_l.0", lambda cfg: cfg["contract"].update(eps_l=["x", 1])),
    ("sim.w_max", lambda cfg: cfg["sim"].update(w_max=float("nan"))),
    ("sim.frozen_reference.0", lambda cfg: cfg["sim"].update(frozen_reference=[float("inf"), 0.0])),
    ("load.segments.2.level_start", lambda cfg: cfg["load"]["segments"][2].__setitem__(3, None)),
    ("lyapunov_weight.1.0", lambda cfg: cfg["lyapunov_weight"][1].__setitem__(0, "0")),
    ("scenario", lambda cfg: cfg.update(scenario=5)),
    # the certificate chain's inputs
    ("certificates.settle_delta", lambda cfg: cfg["certificates"].update(settle_delta=0.0)),
    ("certificates.kappa_lo", lambda cfg: cfg["certificates"].update(kappa_lo=0.0)),
    ("certificates.r_lo", lambda cfg: cfg["certificates"].update(r_lo=-1.0)),
    ("certificates.m_overshoot", lambda cfg: cfg["certificates"].update(m_overshoot=0.5)),
    ("certificates.h_max", lambda cfg: cfg["certificates"].update(h_max=-1.0)),
    ("certificates.ff_residual_bound", lambda cfg: cfg["certificates"].update(ff_residual_bound=-1.0)),
    ("certificates.v_bar_h_override", lambda cfg: cfg["certificates"].update(v_bar_h_override=-0.5)),
    ("sim.seed", lambda cfg: cfg["sim"].update(seed=-1)),
    # each contract tolerance is named, not only its section
    ("contract.eps_e", lambda cfg: cfg["contract"].update(eps_e=-1.0)),
    ("contract.eps_t", lambda cfg: cfg["contract"].update(eps_t=-0.5)),
    ("contract.eps_h", lambda cfg: cfg["contract"].update(eps_h=-1.0)),
    ("contract.delta", lambda cfg: cfg["contract"].update(delta=0.0)),
    # scenario b's input_only governor has two rows
    ("erg.eta_rep", lambda cfg: cfg["erg"].update(eta_rep=[0.1, 0.1, 0.1])),
    # rules across fields
    ("planner.e_b_goal", lambda cfg: cfg["planner"].update(e_b_goal=7.0)),
    # t_s / h overflows to inf, which steps_per_period cannot round
    ("sim.t_s", lambda cfg: cfg["sim"].update(t_s=1e308)),
    # the widths overflow to inf, which the planner QP cannot bound
    ("planner.e_s_range", lambda cfg: cfg["planner"].update(e_s_range=[-1e308, 1e308])),
    ("planner.e_b_range", lambda cfg: cfg["planner"].update(e_b_range=[-1e308, 1e308])),
]


# list nodes of the default documents that take any length; every other
# list is a tuple of fixed length, or a load segment row of 4 or 5 values
VARIABLE_LISTS = {("erg", "eta_rep"), ("load", "segments")}
SEGMENT_FIELDS = [f.name for f in dataclasses.fields(LoadSegment)]
SEGMENT_LENGTHS = range(sum(f.default is dataclasses.MISSING for f in dataclasses.fields(LoadSegment)),
                        len(SEGMENT_FIELDS) + 1)


def config_nodes(node, path=()):
    """(key path, value) of every entry of a config document, depth first:
    sections, lists and scalar leaves alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield (*path, key), value
        yield from config_nodes(value, (*path, key))


def key_path(path) -> str:
    """The key path load_bundle names for a node: a load segment's entries
    by field name, every other list element by index."""
    if path[:2] == ("load", "segments") and len(path) == 4:
        path = (*path[:3], SEGMENT_FIELDS[path[3]])
    return ".".join(map(str, path))


def bad_values(path, value):
    """Values that node's annotation rejects: a wrong type, a non-finite
    float, or a list of a length the node does not take. None is never
    drawn (a float leaf may be optional), only text or a bool for a None
    node (an optional float or pair), and no text for a text leaf (the
    scenario name is free)."""
    text, flag = st.text(max_size=3), st.booleans()
    if isinstance(value, list):
        wrong = st.floats() | text | flag
        if path in VARIABLE_LISTS:
            return wrong
        lengths = SEGMENT_LENGTHS if path[:2] == ("load", "segments") else (len(value),)
        return wrong | st.integers(0, 7).filter(lambda n: n not in lengths).map(lambda n: [0.0] * n)
    if isinstance(value, dict):
        return st.floats() | text | flag | st.just([])
    scalar_list = st.lists(st.floats(0.0, 1.0), max_size=2)
    if value is None:
        return text | flag
    if isinstance(value, bool):
        return st.floats() | st.integers(-3, 3) | text | scalar_list
    if isinstance(value, int):
        return st.floats() | text | flag | scalar_list
    if isinstance(value, float):
        return st.sampled_from([math.nan, math.inf, -math.inf]) | text | flag | scalar_list
    return st.floats() | st.integers(-3, 3) | flag | scalar_list


# the dataclass of each config section
SECTION_CLASSES = {
    "plant": HessParams, "constraints": ConstraintConfig, "erg": ErgConfig, "planner": PlannerConfig,
    "contract": ContractSpec, "sim": SimConfig, "load": LoadProfile, "certificates": CertificateInputs,
}


def bounded_leaves(hint, value, path):
    """(key path, bound, type) of each leaf at or below a config node, of
    annotation hint and value, whose annotation carries a Bound."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Annotated:
        yield path, hint.__metadata__[0], args[0]
    elif typing.get_origin(hint) is tuple:
        for i, v in enumerate(value or ()):
            yield from bounded_leaves(args[0] if Ellipsis in args else args[i], v, (*path, i))
    elif type(None) in args:
        (inner,) = (t for t in args if t is not type(None))
        yield from bounded_leaves(inner, value, path)


def document_bounded_leaves(cfg: dict) -> list:
    """bounded_leaves of every section of a config document."""
    return [leaf for section, cls in SECTION_CLASSES.items() if cfg[section] is not None
            for name, (hint, _) in cli_module._schema(cls).items()
            for leaf in bounded_leaves(hint, cfg[section].get(name), (section, name))]


def out_of_range(bound: Bound, kind: type):
    """Finite values at or below the bound that it rejects."""
    if kind is int:
        return st.integers(min_value=-2**31, max_value=int(bound.lo) - (0 if bound.strict else 1))
    return st.floats(max_value=bound.lo, exclude_max=not bound.strict, allow_nan=False, allow_infinity=False)


def certify_custom(cfg: dict, path, value) -> tuple[int, list[str]]:
    """certify's exit code and stderr lines on cfg with the entry at key
    path (a tuple of keys) replaced by value."""
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp, "cfg.json")
        doc.write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(err):
            code = main(["certify", "--scenario", "custom", "--config", str(doc), "--out", tmp])
    return code, err.getvalue().splitlines()


class TestConfigErrors:
    @pytest.mark.parametrize("key_path, spoil", BAD_KEYS, ids=[k for k, _ in BAD_KEYS])
    def test_bad_key_names_its_path(self, tmp_path, capsys, key_path, spoil):
        cfg = resolve_config("b", None)
        spoil(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["certify", "--scenario", "custom", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count(key_path) == 1
        assert err.count("config error") == 1

    @settings(max_examples=80)
    @given(data=st.data())
    def test_drawn_bad_value_names_its_path(self, data):
        # one entry of a default document replaced by a value its
        # annotation rejects: certify stops at that entry's key path
        cfg = resolve_config(data.draw(st.sampled_from(["a", "b"])), None)
        path, value = data.draw(st.sampled_from(list(config_nodes(cfg))))
        code, lines = certify_custom(cfg, path, data.draw(bad_values(path, value)))
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"config error at {key_path(path)}: "), lines

    @settings(max_examples=50)
    @given(data=st.data())
    def test_drawn_out_of_range_value_names_its_path(self, data):
        # one bounded leaf of a default document replaced by a finite value
        # at or below its bound: certify stops at that leaf's key path
        # before it builds anything
        cfg = resolve_config(data.draw(st.sampled_from(["a", "b"])), None)
        path, bound, kind = data.draw(st.sampled_from(document_bounded_leaves(cfg)))
        code, lines = certify_custom(cfg, path, data.draw(out_of_range(bound, kind)))
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"config error at {key_path(path)}: "), lines

    def test_every_bounded_leaf_is_drawn_from(self):
        # the leaves the test above draws from, in both documents together
        leaves = {key_path(path) for cfg in (scenario_a(), scenario_b())
                  for path, _, _ in document_bounded_leaves(cfg)}
        assert {"plant.k1", "sim.seed", "sim.w_max", "planner.horizon", "contract.eps_l.0", "contract.u_bounds.1",
                "certificates.m_overshoot", "certificates.l_v", "certificates.eta",
                "constraints.d_bar_max", "constraints.d_bar_dot_max"} <= leaves
        assert not {"plant.v_min", "sim.r_init_ib", "sim.x0.0", "planner.e_b_goal"} & leaves

    @pytest.mark.parametrize("cls, kwargs, field", [
        (SimConfig, {"t_end": 1.0, "t_s": 0.1, "disturbance": "bogus"}, "disturbance"),
        (LoadSegment, {"t_start": 0.0, "t_end": 1.0, "kind": "bogus", "level_start": 0.0}, "kind"),
        (ErgConfig, {"kappa_erg": 1.0, "eta": 0.1, "eta_rep": (0.1, -0.1)}, "eta_rep.1"),
        (ConstraintConfig, {"d_bar_max": -1.0}, "d_bar_max"),
        (CertificateInputs, {**scenario_a()["certificates"], "v_bar_h_override": -1.0}, "v_bar_h_override"),
    ])
    def test_direct_construction_is_checked(self, cls, kwargs, field):
        with pytest.raises(FieldValueError) as info:
            cls(**kwargs)
        assert info.value.field == field

    @pytest.mark.parametrize("text, key_path", [
        ('{"sim": {"w_max": NaN}}', "sim.w_max"),
        ('{"sim": {"w_max": -Infinity}}', "sim.w_max"),
        ('{"sim": {"frozen_reference": [1e400, 0]}}', "sim.frozen_reference.0"),
        ('{"certificates": {"settle_delta": 0}}', "certificates.settle_delta"),
        ('{"certificates": {"kappa_lo": 0}}', "certificates.kappa_lo"),
        ('{"certificates": {"h_max": -1}}', "certificates.h_max"),
        ('{"certificates": {"m_overshoot": 0.5}}', "certificates.m_overshoot"),
        ('{"certificates": {"l_v": -1}}', "certificates.l_v"),
        ('{"sim": {"seed": -1}}', "sim.seed"),
        ('{"contract": {"eps_e": -1}}', "contract.eps_e"),
        # a negative governor margin would widen its current limit, and a
        # negative eta would shrink the mismatch bound
        ('{"constraints": {"d_bar_max": -1.0}}', "constraints.d_bar_max"),
        ('{"constraints": {"d_bar_dot_max": -1.0}}', "constraints.d_bar_dot_max"),
        ('{"contract": {"eps_l": [-0.1, 0.005]}}', "contract.eps_l.0"),
        ('{"certificates": {"eta": -0.01}}', "certificates.eta"),
        ('{"contract": {"delta": 0}}', "contract.delta"),
        ('{"erg": {"eta_rep": [0.1, 0.1, 0.1]}}', "erg.eta_rep"),
        # B's planner scales the supercapacitor SOC by lambda_b_energy / lambda_s
        ('{"plant": {"lambda_s": 5e-324}}', "plant.lambda_s"),
        # the planner bound's value-function sandwich and descent coefficients
        ('{"certificates": {"lambda_min_p": 0}}', "certificates.lambda_min_p"),
        ('{"certificates": {"lambda_max_p": 0}}', "certificates.lambda_max_p"),
        ('{"certificates": {"lambda_min_q": -1}}', "certificates.lambda_min_q"),
        ('{"certificates": {"lambda_min_p": 2.0}}', "certificates.lambda_min_p"),
        # rules across the fields of one section
        ('{"plant": {"v_min": 420.0}}', "plant.v_min"),
        ('{"contract": {"u_bounds": [200.0, -1.0]}}', "contract.u_bounds.1"),
        # RK4 is unstable on the battery loop (h lambda_b_gain = 25), on
        # the fast error-matrix eigenvalue near -199.9 (h |lambda| = 4.0),
        # or on a complex pair with |h lambda| = 2.70 at 122 degrees, inside
        # the real limit 2.785 but where the step multiplies the mode by 1.109
        ('{"sim": {"h": 0.5, "t_s": 0.5}}', "sim.h"),
        ('{"plant": {"k2": 200.0}, "sim": {"h": 0.02}}', "sim.h"),
        ('{"plant": {"k1": 18225.0, "k2": 143.1, "lambda_b_gain": 100.0}, "sim": {"h": 0.02}}', "sim.h"),
    ])
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_bad_overlay_stops_every_command(self, tmp_path, capsys, command, text, key_path):
        path = tmp_path / "overlay.json"
        path.write_text(text)
        assert main([command, "--scenario", "a", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error at {key_path}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["overlay.json"]  # nothing written

    @pytest.mark.parametrize("text, key_path", [
        # a period shorter than one step is no whole number of steps
        ('{"sim": {"t_s": 1e-300}}', "sim.t_s"),
        # a horizon above MAX_HORIZON, rejected before the load's span is checked
        ('{"planner": {"horizon": 1001}}', "planner.horizon"),
        # the planner cost q ||x||^2 needs a positive weight
        ('{"planner": {"q_weight": 0.0}}', "planner.q_weight"),
    ])
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_bad_planner_overlay_stops_every_command(self, tmp_path, capsys, command, text, key_path):
        path = tmp_path / "overlay.json"
        path.write_text(text)
        assert main([command, "--scenario", "b", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error at {key_path}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["overlay.json"]  # nothing written

    @pytest.mark.parametrize("maker", [scenario_a, scenario_b])
    def test_step_count_is_capped_at_load(self, maker):
        # 10^12 steps: load_bundle rejects them, so no run allocates their log
        with pytest.raises(cli_module.ConfigError, match=r"^config error at sim\.t_end: "):
            bundle(maker(), {"sim": {"t_end": 1e9}})

    def test_planner_horizon_is_capped_at_load(self):
        # a 10^6-step horizon's QP rows alone would take 48 TB; load_bundle
        # rejects it, and no bundle builds a QP, so the cap itself loads
        with pytest.raises(cli_module.ConfigError, match=r"^config error at planner\.horizon: .*MAX_HORIZON"):
            bundle(scenario_b(), {"planner": {"horizon": 10**6}, "load": None})
        cap = bundle(scenario_b(), {"planner": {"horizon": mpc_module.MAX_HORIZON}, "load": None})
        assert cap.planner_cfg.horizon == mpc_module.MAX_HORIZON

    def test_forecast_grid_is_capped_at_load(self):
        # 10^6 periods times a 1000-step horizon: the run's forecast times
        # would be a 10^9-float array; load_bundle rejects the product, and
        # the cap itself loads
        with pytest.raises(cli_module.ConfigError, match=r"^config error at planner\.horizon: .*MAX_STEPS"):
            bundle(scenario_b(), {"sim": {"t_end": 1000.0, "t_s": 0.001}, "planner": {"horizon": 1000}, "load": None})
        cap = bundle(scenario_b(), {"sim": {"t_end": 1000.0, "t_s": 1.0}, "planner": {"horizon": 1000}, "load": None})
        assert cap.sim.n_steps // cap.sim.steps_per_period * cap.planner_cfg.horizon == sim_module.MAX_STEPS

    @pytest.mark.parametrize("command", [["run"], ["certify"], ["sweep", "--seeds", "2"]],
                             ids=["run", "certify", "sweep"])
    def test_off_grid_period_stops_every_command(self, tmp_path, capsys, command):
        # 0.0995 s is 99.5 steps of 1 ms: the loop would run 0.1-s periods
        # while the planner and the certificate read 0.0995 s
        path = tmp_path / "overlay.json"
        path.write_text('{"sim": {"t_s": 0.0995}}')
        argv = [command[0], "--scenario", "b", "--config", str(path), *command[1:], "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("config error at sim.t_s: ")
        assert [p.name for p in tmp_path.iterdir()] == ["overlay.json"]  # nothing written

    def test_step_count_cap_boundary(self):
        cap, h = sim_module.MAX_STEPS, 1e-3
        assert round(sim_module.SimConfig(t_end=cap * h, t_s=0.1, h=h).t_end / h) == cap
        with pytest.raises(ValueError, match="above MAX_STEPS"):
            sim_module.SimConfig(t_end=(cap + 1) * h, t_s=0.1, h=h)

    def test_load_segment_gap_names_segments(self, tmp_path, capsys):
        cfg = resolve_config("b", None)
        cfg["load"]["segments"][1][0] = 0.6
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["certify", "--scenario", "custom", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error at load.segments: ")


    @pytest.mark.parametrize("segments", [
        [[0.0, 1.0, "constant", 0.0, 0.0]],  # shorter than the run
        [[0.0, 7.0, "constant", -5.0, 0.0]],  # covers the run, not the last forecast at 7.8 s
        [[0.5, 8.0, "constant", -5.0, 0.0]],  # starts after the run
    ], ids=["short", "forecast", "late"])
    def test_load_shorter_than_the_run_names_segments(self, tmp_path, capsys, segments):
        cfg = resolve_config("b", None)
        cfg["load"]["segments"] = segments
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--scenario", "custom", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error at load.segments: ")
        assert not (tmp_path / "out").exists()


def count_level_calls(monkeypatch) -> dict:
    counts = {"ultimate_level_optimized": 0}
    original = scenarios_module.ultimate_level_optimized

    def counted(*args, **kwargs):
        counts["ultimate_level_optimized"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios_module, "ultimate_level_optimized", counted)
    return counts


class TestDerivedOnce:
    """The bundle derives the governor, its start point and V_bar_h once;
    run and certify read them from it."""

    def test_certify_evaluates_gamma_where_the_run_starts(self, tmp_path):
        # without v0 the governor starts at the frozen reference, not at (v_nom, 0)
        overlay = tmp_path / "v0_null.json"
        overlay.write_text(json.dumps({"sim": {"v0": None, "frozen_reference": [405.0, 0.0], "t_end": 0.2}}))
        main(["certify", "--scenario", "a", "--config", str(overlay), "--out", str(tmp_path)])
        assert main(["run", "--scenario", "a", "--config", str(overlay), "--out", str(tmp_path)]) == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        with (tmp_path / "trajectory.csv").open(newline="", encoding="utf-8") as fh:
            first = next(csv.DictReader(fh))
        assert cert["gamma_inf"] == float(first["Gamma_v"]) == 1592.045454545454

    def test_override_replaces_the_optimized_level(self, tmp_path):
        overridden = bundle(scenario_a(t_end=0.2), {"certificates": {"v_bar_h_override": 0.3}})
        assert overridden.v_bar_h == 0.3
        summary = summarize_run(overridden, *run_layered(overridden))
        dump_json(summary, tmp_path / "summary.json")
        assert json.loads((tmp_path / "summary.json").read_text())["V_bar_h"] == 0.3

    @pytest.mark.parametrize("argv, calls", [
        (["run", "--scenario", "b"], 0),  # V_bar_h is overridden, so the level is never read
        (["certify", "--scenario", "a"], 1),
    ], ids=["run_b", "certify_a"])
    def test_optimized_level_calls(self, tmp_path, monkeypatch, argv, calls):
        counts = count_level_calls(monkeypatch)
        overlay = tmp_path / "short.json"
        overlay.write_text(json.dumps({"sim": {"t_end": 0.5}}))
        main([*argv, "--config", str(overlay), "--out", str(tmp_path)])
        assert counts == {"ultimate_level_optimized": calls}

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "b", "--seed", "0"],
        ["certify", "--scenario", "a"],
    ], ids=["run_b", "certify_a"])
    def test_one_lyapunov_solve_per_command(self, tmp_path, monkeypatch, argv):
        # the scenario is a document, so the command's bundle is the only one built
        calls = []
        original = scenarios_module.solve_lyapunov

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(scenarios_module, "solve_lyapunov", counted)
        overlay = tmp_path / "short.json"
        overlay.write_text(json.dumps({"sim": {"t_end": 0.5}}))
        assert main([*argv, "--config", str(overlay), "--out", str(tmp_path)]) in (0, 2)
        assert len(calls) == 1

    @pytest.mark.parametrize("scenario", ["a", "b"])
    def test_one_inversion_per_certificate(self, tmp_path, monkeypatch, scenario):
        # the governor inverts P, and the tracking bounds read its inverse
        calls = []
        original = numkit_module.invert_spd

        def counted(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("laycon") and getattr(module, "invert_spd", None) is original:
                monkeypatch.setattr(module, "invert_spd", counted)
        assert main(["certify", "--scenario", scenario, "--out", str(tmp_path)]) in (0, 2)
        assert len(calls) == 1
        cert = json.loads((tmp_path / "certificate.json").read_text())
        inverse = original(np.array(cert["P"])).mat
        assert cert["eps_L"] == [math.sqrt(cert["V_bar_h"] * inverse[i, i]) for i in range(2)]

    def test_with_seed_shares_the_derived_values(self):
        base = bundle(scenario_a(t_end=0.2))
        level = base.level
        other = base.with_seed(5)
        assert (other.sim.seed, base.sim.seed) == (5, 0)
        assert other.P is base.P and other.governor is base.governor and other.level is level
        fresh = bundle(scenario_a(seed=5, t_end=0.2))
        assert np.array_equal(run_layered(other)[0].data, run_layered(fresh)[0].data)


def write_csv(rows: np.ndarray, path: Path, period: int) -> None:
    """Write rows through the forked writer that `run` uses."""
    writer = TrajectoryWriter(path, period)
    try:
        writer.send(np.ascontiguousarray(rows))
        write_trajectory_csv(writer)
        cli_module._move_into_place([path])
    finally:
        writer.close()


def csv_writer_bytes(rows: np.ndarray, path: Path) -> bytes:
    """The reference rendering: csv.writer over each float's repr."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow(map(repr, row.tolist()))
    return path.read_bytes()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTrajectoryCsv:
    def test_round_trip_exact(self, tmp_path):
        log, _ = run_layered(bundle(scenario_a(seed=2, t_end=0.5)))
        path = tmp_path / "trajectory.csv"
        write_csv(log.data.T, path, 100)
        parsed = read_trajectory_csv(path)
        for name, col in log.columns.items():
            assert np.array_equal(parsed[name], col), name
        assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]
        assert_no_child()

    def test_block_writer_matches_csv_writer(self, tmp_path):
        # special floats fill whole columns and whole steps, over more steps
        # than one read of the writer holds; within a period, a column may
        # hold one value throughout (rendered once into the row template),
        # or 0.0 next to -0.0, which the template must keep apart
        specials = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                    0.1 + 0.2, 1.2345678901234567e-200, 400.00000000000006]
        n_rows, period = 1203, 50
        rng = np.random.default_rng(0)
        data = rng.standard_normal((len(COLUMNS), n_rows)) * 10.0 ** rng.integers(-300, 300, (len(COLUMNS), n_rows))
        for k, value in enumerate(specials):
            data[:, k * 97 % n_rows] = value
            data[k, :] = value
        data[8, :] = np.repeat(rng.standard_normal(n_rows // period + 1), period)[:n_rows]
        data[9, :] = 0.0
        data[9, 3::period] = -0.0
        data[10, :] = -0.0
        data[11, :] = float("nan")
        data[12, :] = np.where(np.arange(n_rows) // period % 2, float("inf"), -float("inf"))
        path = tmp_path / "trajectory.csv"
        write_csv(data.T, path, period)
        assert path.read_bytes() == csv_writer_bytes(data.T, tmp_path / "reference.csv")
        for rows in (data.T[:1], data.T[:period], data.T[:period + 1]):
            assert render_rows(rows, period).encode() == csv_writer_bytes(rows, tmp_path / "r.csv")[len(CSV_HEADER):]

    def test_multi_block_run_writes_the_rendered_log(self, tmp_path, monkeypatch):
        logs = []

        def keep_log(*args, **kwargs):
            log, report = run_layered(*args, **kwargs)
            logs.append(log)
            return log, report

        monkeypatch.setattr(cli_module, "run_layered", keep_log)
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps({"sim": {"t_end": 2.0}}))
        out = tmp_path / "out"
        assert main(["run", "--scenario", "b", "--config", str(path), "--seed", "4", "--out", str(out)]) == 0
        (log,) = logs
        assert log.data.shape[1] > 2 * STREAM_ROWS
        written = (out / "trajectory.csv").read_bytes()
        assert written == (CSV_HEADER + render_rows(log.data.T, 100)).encode()
        assert written == csv_writer_bytes(log.data.T, tmp_path / "reference.csv")
        assert sorted(p.name for p in out.iterdir()) == ["monitor.json", "summary.json", "trajectory.csv"]
        assert_no_child()

    def test_header_contract(self, tmp_path):
        log, _ = run_layered(bundle(scenario_a(seed=0, t_end=0.2)))
        path = tmp_path / "trajectory.csv"
        write_csv(log.data.T, path, 100)
        header = path.read_text().splitlines()[0]
        assert header == "t,V_gr,I_S,I_B,E_S,E_B,v,r_V,r_IB,e1,e2,V_e,Gamma_v,Phi,w,d,u_S,u_B,fallback"


def fail_at_step(monkeypatch, step: int):
    """Make the run's RK4 loop raise NonFiniteStateError at the given step."""
    rk4 = sim_module.rk4_step
    calls = [0]

    def failing(rhs, x, t, h):
        calls[0] += 1
        if calls[0] == step:
            raise NonFiniteStateError(f"non-finite state at step {step}")
        return rk4(rhs, x, t, h)

    monkeypatch.setattr(sim_module, "rk4_step", failing)


def planner_raises(monkeypatch):
    """Make the run's first planner step raise ValueError."""
    def failing(self, y_k, d_forecast):
        raise ValueError("planner step failed")

    monkeypatch.setattr(mpc_module.Planner, "step", failing)


class TestFailedRunLeavesNoCsv:
    """A run that fails after its writer has started exits 1, reaps the
    writer, and leaves no trajectory.csv or .part file; an earlier
    trajectory.csv stays as it was."""

    CASES = {
        "planner_raises": ({}, planner_raises, "planner step failed"),
        "non_finite_state": ({"sim": {"w_max": 1e308}}, None, "non-finite state"),
        "fails_after_blocks_streamed": ({"sim": {"t_end": 2.0}}, lambda mp: fail_at_step(mp, 1500),
                                        "non-finite state at step 1500"),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("earlier", [False, True])
    def test_exit_1_and_no_file(self, tmp_path, monkeypatch, capsys, case, earlier):
        overlay, patch, message = self.CASES[case]
        if patch is not None:
            patch(monkeypatch)
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps(overlay))
        out = tmp_path / "out"
        out.mkdir()
        if earlier:
            (out / "trajectory.csv").write_bytes(b"an earlier run's bytes\r\n")
        assert main(["run", "--scenario", "b", "--config", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert_no_child()
        if earlier:
            assert [p.name for p in out.iterdir()] == ["trajectory.csv"]
            assert (out / "trajectory.csv").read_bytes() == b"an earlier run's bytes\r\n"
        else:
            assert list(out.iterdir()) == []

    def test_writer_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        def broken(rows, period):
            raise OSError("no space left")

        monkeypatch.setattr(cli_module, "render_rows", broken)  # the forked writer inherits it
        out = tmp_path / "out"
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps({"sim": {"t_end": 2.0}}))
        assert main(["run", "--scenario", "b", "--config", str(path), "--out", str(out)]) == 1
        assert "trajectory writer" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert_no_child()


class TestOutputDirectory:
    """An --out that cannot be a directory stops each command before its
    work, with one line on stderr and exit code 1, and leaves the file."""

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "a"],
        ["certify", "--scenario", "a"],
        ["sweep", "--scenario", "a", "--seeds", "1"],
    ], ids=["run", "certify", "sweep"])
    @pytest.mark.parametrize("where, code", [
        ("file", errno.EEXIST),
        ("under_file", errno.ENOTDIR),
    ], ids=["regular_file", "path_under_file"])
    def test_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys, argv, where, code):
        def no_work(*args, **kwargs):
            raise AssertionError("the command worked before it created its output directory")

        monkeypatch.setattr(cli_module, "run_layered", no_work)
        monkeypatch.setattr(cli_module, "build_certificate", no_work)
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker if where == "file" else blocker / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"cannot create output directory {out}: {os.strerror(code)}\n"
        assert blocker.read_text() == "kept\n"


class TestOutputFile:
    """An output file that cannot be written (a directory stands in its
    place) stops each command with one line on stderr and exit code 1, and
    no new file is moved into place."""

    @pytest.mark.parametrize("argv, name", [
        (["run", "--scenario", "a"], "trajectory.csv"),
        (["run", "--scenario", "a"], "trajectory.csv.part"),
        (["run", "--scenario", "a"], "monitor.json"),
        (["run", "--scenario", "a"], "summary.json"),
        (["run", "--scenario", "a"], "monitor.json.part"),
        (["run", "--scenario", "a"], "summary.json.part"),
        (["certify", "--scenario", "a"], "certificate.json"),
        (["sweep", "--scenario", "a", "--seeds", "1"], "aggregate.json"),
    ], ids=["run_csv", "run_csv_part", "run_monitor", "run_summary", "run_monitor_part",
            "run_summary_part", "certify", "sweep"])
    def test_exits_1_with_one_line(self, tmp_path, capsys, argv, name):
        overlay = tmp_path / "short.json"
        overlay.write_text(json.dumps({"sim": {"t_end": 0.2}}))
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main([*argv, "--config", str(overlay), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"cannot write {out / name}: {os.strerror(errno.EISDIR)}\n"
        assert [p.name for p in out.iterdir()] == [name]
        assert_no_child()

    @pytest.mark.parametrize("name", ["monitor.json.part", "summary.json.part"])
    def test_failed_run_keeps_the_earlier_outputs(self, tmp_path, name):
        overlay = tmp_path / "short.json"
        overlay.write_text(json.dumps({"sim": {"t_end": 0.2}}))
        out = tmp_path / "out"
        argv = ["run", "--scenario", "a", "--config", str(overlay), "--out", str(out)]
        assert main([*argv, "--seed", "1"]) == 0
        names = ("trajectory.csv", "monitor.json", "summary.json")
        earlier = {n: (out / n).read_bytes() for n in names}
        (out / name).mkdir()
        assert main([*argv, "--seed", "2"]) == 1
        assert sorted(p.name for p in out.iterdir()) == sorted([name, *names])
        assert {n: (out / n).read_bytes() for n in names} == earlier
        assert_no_child()


class TestCertify:
    def test_scenario_a_published_values(self, tmp_path):
        code = main(["certify", "--scenario", "a", "--out", str(tmp_path)])
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert abs(cert["V_bar_h"] - 0.51) <= 0.01
        assert abs(cert["kappa_P"] - 217.0) <= 3.0
        assert abs(cert["eps_L"][0] - 0.27) <= 0.01
        assert abs(cert["gamma_iss"] - 0.92) <= 0.005
        assert code in (0, 2)  # timing verdicts are honest, not forced green

    def test_certify_is_pure(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["certify", "--scenario", "b", "--out", str(a)])
        main(["certify", "--scenario", "b", "--out", str(b)])
        assert (a / "certificate.json").read_bytes() == (b / "certificate.json").read_bytes()

    def test_malformed_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_invalid_value_exits_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"plant": {"k1": -5.0}, "sim": {"t_end": 1.0, "t_s": 0.1}}))
        assert main(["certify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1

    @staticmethod
    def certify_a(out: Path, overlay: dict) -> dict:
        """Scenario A's certificate under overlay."""
        out.mkdir()
        path = out / "overlay.json"
        path.write_text(json.dumps(overlay))
        assert main(["certify", "--scenario", "a", "--config", str(path), "--out", str(out)]) in (0, 2)
        return json.loads((out / "certificate.json").read_text())

    def test_level_follows_the_disturbance_bound(self, tmp_path):
        # V_bar_h grows as H^2, H = sim.w_max / plant.c_bus
        base = self.certify_a(tmp_path / "base", {})
        half = self.certify_a(tmp_path / "half", {"sim": {"w_max": 1.5}})
        assert half["V_bar_h_optimized"] == pytest.approx(base["V_bar_h_optimized"] * (1.5 / 3.0) ** 2, rel=1e-12)

    def test_input_gain_is_charged_once(self, tmp_path):
        # gamma_iss = m ||B|| / lambda_e holds ||B|| = 1 / c_bus, so eps = m w_max / (c_bus lambda_e)
        base = self.certify_a(tmp_path / "base", {})
        cert = self.certify_a(tmp_path / "c_bus", {"plant": {"c_bus": 2.0}})
        assert cert["eps"] == pytest.approx(2.94 * 3.0 / (2.0 * cert["lambda_e"]), rel=1e-12)
        assert cert["V_bar_h_optimized"] == pytest.approx(base["V_bar_h_optimized"] / 4.0, rel=1e-12)

    def test_zero_budget_fails_compat_exits_2(self, tmp_path):
        override = tmp_path / "tight.json"
        override.write_text(json.dumps({"contract": {"eps_h": 1e-12}}))
        code = main(["certify", "--scenario", "b", "--config", str(override), "--out", str(tmp_path)])
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert not cert["vertical_compat"]
        assert code == 2


class TestRunCommand:
    def test_scenario_a_outputs(self, tmp_path):
        code = main(["run", "--scenario", "a", "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["safety_violations"] == 0
        assert summary["invariant_violations_after_entry"] == 0
        assert 0.82 <= summary["omega_h_entry_time"] <= 1.12
        monitor = json.loads((tmp_path / "monitor.json").read_text())
        assert monitor["first_violation"]["G_safe"] is None
        assert (tmp_path / "trajectory.csv").exists()

    def test_scenario_b_outputs(self, tmp_path):
        code = main(["run", "--scenario", "b", "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["K_live"] is not None
        assert summary["fallback_count"] == 0
        assert summary["max_Phi"] < 0.0

    def test_scenario_b_planner_trace(self, tmp_path):
        assert main(["run", "--scenario", "b", "--seed", "0", "--out", str(tmp_path)]) == 0
        planner = json.loads((tmp_path / "monitor.json").read_text())["planner"]
        assert len(planner) == 60
        assert {rec["status"] for rec in planner} == {"optimal"}
        # each period starts from the last one's active set; cold starts take ~3850
        assert sum(rec["iterations"] for rec in planner) < 400

    def test_infeasible_planner_falls_back(self, tmp_path):
        # the tightened SOC corridors close inside the horizon: in every
        # period a violated row turns dependent on the working set, and its
        # pure dual step ends the QP with a Farkas certificate
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps(NO_PLAN_RUN))
        out = tmp_path / "out"
        assert main(["run", "--scenario", "b", "--config", str(path), "--seed", "0", "--out", str(out)]) == 0
        planner = json.loads((out / "monitor.json").read_text())["planner"]
        assert len(planner) == 10
        assert {rec["status"] for rec in planner} == {"infeasible"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fallback_count"] == sum(rec["status"] != "optimal" for rec in planner)
        assert np.all(read_trajectory_csv(out / "trajectory.csv")["r_IB"] == 0.0)  # held from the start

    def test_goal_is_the_planner_goal(self, tmp_path):
        # E_B settles at the planner's goal, and the convergence clause
        # measures it against that same goal
        path = tmp_path / "overlay.json"
        path.write_text('{"planner": {"e_b_goal": 4.0}}')
        assert main(["run", "--scenario", "b", "--config", str(path), "--seed", "0", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["K_live"] == 18
        assert json.loads((tmp_path / "monitor.json").read_text())["all_pass"] is True

    def test_planner_less_scenario_b(self, tmp_path):
        # the planner layer is absent iff planner is null; the frozen
        # reference then holds for the whole run
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps({"planner": None, "sim": {"frozen_reference": [400.0, 0.0]}}))
        out = tmp_path / "out"
        assert main(["run", "--scenario", "b", "--config", str(path), "--seed", "0", "--out", str(out)]) == 0
        monitor = json.loads((out / "monitor.json").read_text())
        assert monitor["planner"] == []
        assert monitor["w_tilde"] == [] and monitor["k_live"] is None
        columns = read_trajectory_csv(out / "trajectory.csv")
        assert np.all(columns["r_V"] == 400.0) and np.all(columns["r_IB"] == 0.0)

    def test_unknown_scenario_exits_1(self, tmp_path):
        assert main(["run", "--scenario", "zz", "--out", str(tmp_path)]) == 1

    def test_zero_planner_weight_exits_1(self, tmp_path, capsys):
        cfg = resolve_config("b", None)
        cfg["planner"]["q_weight"] = 0.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--scenario", "custom", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.strip() == (
            "config error at planner.q_weight: q_weight must be > 0, got 0.0")
        assert not (tmp_path / "trajectory.csv").exists()


_FULL = {"mode": "full", "kappa_bar": 0.05, "d_bar_max": 5.5, "d_bar_dot_max": 10.0}

# SHA-256 of (trajectory.csv, monitor.json, summary.json) for 0.5 s runs,
# recorded on x86-64 Linux (Intel Xeon, 2 vCPU), Python 3.11.7, numpy 2.4.6
# with OpenBLAS 0.3.31. The scenario-A runs do not depend on the BLAS kernel
# (TestBlasKernels); the scenario-B runs do, since their planner QP runs on
# BLAS.
PINNED_RUNS = [
    ("a_mixed", "a", {"sim": {"t_end": 0.5}}, 1, (
        "1d276772eb5dd0df2948d997cdbd93285f43af64aa1be867eea2c875215f68a9",
        "530683abbf2f16de734e1af3d973a064b183daecbd50b168104280af44dcc62d",
        "ee903670170123abbf510e7ad767294731ef9e64f9809f1e6ca82ee144b3f1dc")),
    ("a_adversarial", "a", {"sim": {"t_end": 0.5, "disturbance": "adversarial"}}, 1, (
        "68be8dcfc57cad2cdd8a3c4ce276a1417772e9cbb25dee4c0ee96e1bb1f61440",
        "530683abbf2f16de734e1af3d973a064b183daecbd50b168104280af44dcc62d",
        "ee903670170123abbf510e7ad767294731ef9e64f9809f1e6ca82ee144b3f1dc")),
    ("a_none", "a", {"sim": {"t_end": 0.5, "disturbance": "none"}}, 1, (
        "8cc7fcdf1110f6a0867634faee2ba7e364e20db9fa5670d38e4cb051ca2173fc",
        "530683abbf2f16de734e1af3d973a064b183daecbd50b168104280af44dcc62d",
        "ee903670170123abbf510e7ad767294731ef9e64f9809f1e6ca82ee144b3f1dc")),
    ("b_mixed", "b", {"sim": {"t_end": 0.5}}, 3, (
        "869ab689317c0635de0fdee76773a38debac5e871775208769187c2714f00902",
        "b810ddeca5ec18ba4d45227dd77aa991a2c9e8d999febfad6e3bfca95177aef8",
        "73c1b8807581014bd5619525e24553629bed6d64e2f931480192a860d47c568a")),
    # full mode: rows that depend on v and on Gamma itself
    ("b_full", "b", {"sim": {"t_end": 0.5}, "constraints": _FULL}, 7, (
        "8a709d72d0af22c97461f09c4c8ea3a542146e254fef1bc80bdab1aef72a3ae8",
        "0d01577fab13d31194724370e26edc410f82bbfd76d5a719816d2de9683414b7",
        "1108b4868e59c80eac7fa61c2c33342fe5a963c45387e6591b553d6201061142")),
    # repulsion on: equal strengths on v_max/v_min cancel exactly while
    # v stays at 400, so this run writes the same bytes as b_full
    ("b_full_repulsion", "b", {"sim": {"t_end": 0.5}, "constraints": _FULL,
                               "erg": {"eta_rep": [0.1, 0.1, 0.05, 0.05, 0.1, 0.1]}}, 7, (
        "8a709d72d0af22c97461f09c4c8ea3a542146e254fef1bc80bdab1aef72a3ae8",
        "0d01577fab13d31194724370e26edc410f82bbfd76d5a719816d2de9683414b7",
        "1108b4868e59c80eac7fa61c2c33342fe5a963c45387e6591b553d6201061142")),
    # unequal strengths: the net repulsion pushes v away from v_max, until
    # attraction balances it at 400 - 0.15 eta = 399.9985
    ("b_full_repulsion_asym", "b", {"sim": {"t_end": 0.5}, "constraints": _FULL,
                                    "erg": {"eta_rep": [0.2, 0.05, 0.05, 0.05, 0.1, 0.1]}}, 7, (
        "98fa29aec188d37e29c506524adeeff1ee2c498aa4027f195ca161548473ab10",
        "27eb5401bd0a9d4a1338837168c4078afb9b182480409104465860d799733e50",
        "d40cd97644fc50edd3b51a8cd122a7e5eac8c7575e41b328fb48d4dc6063d03a")),
    # 1.05 s: ten sampling periods and a partial eleventh of 50 steps, whose
    # first row is read as a period start but runs no planner step
    ("a_mid_period", "a", {"sim": {"t_end": 1.05}}, 1, (
        "da7cc6fdaafb90ab4064180c42e98a95b62ae91d735d5a3faed36c74758b4f10",
        "c7a3580360208b17e604a7c391e29a2e29f04a6bd60cd2c65fa39bf057b5bd95",
        "ce872e0e5d6fb327e165b4c4c8c73e65955e643755a157ea0b7f9702643d0592")),
    ("b_mid_period", "b", {"sim": {"t_end": 1.05}}, 3, (
        "6e26c17ef84883f2b95715a12b432756650307096a6f82af5b0778068a215de3",
        "0d846c0e2dc71ea89e7f1741c8c78e01dc6c82f745c6c6d3296ab9a8563bec9b",
        "30d2fa81e95f66a6069f04a1556d04dfbebeb5d93c69164c7434f33fbe9484ae")),
]


class TestPinnedOutputs:
    @pytest.mark.parametrize("scenario, overlay, seed, hashes",
                             [case[1:] for case in PINNED_RUNS], ids=[case[0] for case in PINNED_RUNS])
    def test_run_writes_recorded_bytes(self, tmp_path, scenario, overlay, seed, hashes):
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps(overlay))
        out = tmp_path / "out"
        assert main(["run", "--scenario", scenario, "--config", str(path), "--seed", str(seed),
                     "--out", str(out)]) == 0
        names = ("trajectory.csv", "monitor.json", "summary.json")
        assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names) == hashes


def _numpy_blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "").lower()


# run in a child: the planner QPs of helpers.NO_PLAN_STEPS and NO_PLAN_RUN
# (argv: the NO_PLAN_RUN overlay, the output directory) all end infeasible
_NO_PLAN_CHILD = """
import json, sys
from pathlib import Path
from helpers import NO_PLAN_STEPS, no_plan_step
from laycon.cli import main
overlay, out = sys.argv[1:]
statuses = [no_plan_step(*case).qp.status.value for case in NO_PLAN_STEPS]
assert main(["run", "--scenario", "b", "--config", overlay, "--seed", "0", "--out", out]) == 0
statuses += [rec["status"] for rec in json.loads(Path(out, "monitor.json").read_text())["planner"]]
assert set(statuses) == {"infeasible"}, statuses
"""


# run in a child: the bits of the closed-form planar values, P, P^-1,
# lambda_e, the error matrix's eigenvalues, every Gamma denominator, Gamma
# at v_start and the optimized level (V_bar_h, theta_star, z_star), for
# scenarios A and B and for B with full governor rows (argv: the output file)
_PLANAR_CHILD = f"""
import sys
from pathlib import Path
from helpers import bundle
from laycon.numkit import eigenvalues
from laycon.scenarios import scenario_a, scenario_b
values = []
for b in (bundle(scenario_a()), bundle(scenario_b()), bundle(scenario_b(), {{"constraints": {_FULL!r}}})):
    values += b.P.mat.ravel().tolist() + b.governor.pinv.mat.ravel().tolist() + [b.plant.lambda_e]
    values += [part for z in eigenvalues(b.plant.error_matrix()) for part in (z.real, z.imag)]
    values += [row[3] for row in b.governor.rows] + [b.governor.gamma(b.v_start)]
    values += [b.level[0], b.level[1], *b.level[2]]
Path(sys.argv[1]).write_text(" ".join(float(x).hex() for x in values))
"""


@pytest.mark.skipif(not _numpy_blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
class TestBlasKernels:
    """What does not depend on the OpenBLAS kernel. P, P^-1, lambda_e, the
    error matrix's eigenvalues, the Gamma denominators, Gamma itself and the
    optimized level are closed forms in Python floats, so they come out
    bit-equal under every kernel, in both scenarios. `run --scenario a`
    writes the same bytes under every kernel, since every value the loop
    and the logs take from them is a fixed-order float form. Scenario B's
    bytes stay kernel-specific only through its planner QP, which runs on
    BLAS; a planner QP with no solution ends `infeasible` under every
    kernel."""

    KERNELS = (None, "Haswell", "Zen", "Nehalem", "Prescott")  # None: the one OpenBLAS picks

    def run_children(self, tmp_path, args) -> list[Path]:
        """Run `python *args out` once per kernel, all at once, each with its
        own output directory out; assert that each exits 0."""
        src = str(Path(laycon.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        procs = []
        try:
            for kernel in self.KERNELS:
                # OPENBLAS_CORETYPE is read when the child loads OpenBLAS
                env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
                env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, tests, env.get("PYTHONPATH"))))
                if kernel is not None:
                    env["OPENBLAS_CORETYPE"] = kernel
                out = tmp_path / (kernel or "default")
                procs.append((out, subprocess.Popen([sys.executable, *args, str(out)], env=env,
                                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)))
            for _, proc in procs:
                _, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, err.decode()
        finally:
            for _, proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        return [out for out, _ in procs]

    @pytest.mark.parametrize("disturbance", ["mixed", "adversarial"])
    def test_scenario_a_bytes_do_not_depend_on_the_kernel(self, tmp_path, disturbance):
        overlay = tmp_path / "overlay.json"
        overlay.write_text(json.dumps({"sim": {"t_end": 0.5, "disturbance": disturbance}}))
        outs = self.run_children(tmp_path, ["-m", "laycon.cli", "run", "--scenario", "a",
                                            "--config", str(overlay), "--seed", "0", "--out"])
        names = ("trajectory.csv", "monitor.json", "summary.json")
        hashes = [tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names)
                  for out in outs]
        assert hashes[1:] == [hashes[0]] * (len(self.KERNELS) - 1)

    def test_planar_numerics_do_not_depend_on_the_kernel(self, tmp_path):
        bits = [out.read_text() for out in self.run_children(tmp_path, ["-c", _PLANAR_CHILD])]
        assert bits[1:] == [bits[0]] * (len(self.KERNELS) - 1)

    def test_no_plan_is_infeasible_on_every_kernel(self, tmp_path):
        overlay = tmp_path / "overlay.json"
        overlay.write_text(json.dumps(NO_PLAN_RUN))
        self.run_children(tmp_path, ["-c", _NO_PLAN_CHILD, str(overlay)])


# run in a child: the modules that `run` and `certify` of scenario B load
# (argv: a short-run overlay, the output directory). The mixed disturbance
# and the Lipschitz estimate draw from numkit.UniformStream, and only
# `sweep` starts a process pool.
_FOOTPRINT_CHILD = """
import sys
from laycon.cli import main
overlay, out = sys.argv[1:]
assert main(["run", "--scenario", "b", "--config", overlay, "--out", out + "/run"]) == 0
assert main(["certify", "--scenario", "b", "--out", out + "/certify"]) in (0, 2)
loaded = sorted({"numpy.random", "concurrent.futures.process"} & sys.modules.keys())
assert not loaded, loaded
"""


def test_run_and_certify_leave_numpy_random_and_the_pool_unloaded(tmp_path):
    overlay = tmp_path / "short.json"
    overlay.write_text(json.dumps({"sim": {"t_end": 0.5}}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(Path(laycon.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_CHILD, str(overlay), str(tmp_path / "out")],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


class InProcessPool:
    """Stands in for ProcessPoolExecutor: maps the workers in this process,
    so the tests can count calls and patch what the workers run."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable):
        return list(map(fn, iterable))


class TestSweepCommand:
    def test_single_seed_matches_run(self, tmp_path):
        code = main(["sweep", "--scenario", "a", "--seeds", "1", "--out", str(tmp_path)])
        assert code == 0
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert agg["seeds"] == 1
        assert agg["phi_violation_total"] == 0
        assert agg["m_values"] == [agg["m_min"]]

    def test_aggregate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--scenario", "a", "--seeds", "3", "--out", str(a)])
        main(["sweep", "--scenario", "a", "--seeds", "3", "--out", str(b)])
        assert (a / "aggregate.json").read_bytes() == (b / "aggregate.json").read_bytes()

    def test_rejects_zero_seeds(self, tmp_path):
        assert main(["sweep", "--scenario", "a", "--seeds", "0", "--out", str(tmp_path)]) == 1

    def test_planner_less_config_without_reference_exits_1(self, tmp_path, capsys):
        # rejected before the seeds fan out, so no worker raises
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps({"planner": None}))
        assert main(["sweep", "--scenario", "b", "--config", str(path), "--seeds", "2",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error at sim.frozen_reference")
        assert not (tmp_path / "aggregate.json").exists()

    def test_level_is_derived_once_per_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_module, "ProcessPoolExecutor", InProcessPool)
        counts = count_level_calls(monkeypatch)
        overlay = tmp_path / "short.json"
        overlay.write_text(json.dumps({"sim": {"t_end": 0.5}}))
        assert main(["sweep", "--scenario", "a", "--config", str(overlay), "--seeds", "3",
                     "--out", str(tmp_path)]) == 0
        assert counts == {"ultimate_level_optimized": 1}
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert [r["seed"] for r in agg["per_seed"]] == [0, 1, 2]
        assert agg["failed_seeds"] == []

    def test_failed_seed_is_reported_and_the_rest_finish(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli_module, "ProcessPoolExecutor", InProcessPool)

        def run_or_fail(bundle):
            if bundle.sim.seed == 1:
                raise NonFiniteStateError("non-finite state at t=0.001000")
            return run_layered(bundle)

        monkeypatch.setattr(cli_module, "run_layered", run_or_fail)
        overlay = tmp_path / "short.json"
        overlay.write_text(json.dumps({"sim": {"t_end": 0.5}}))
        assert main(["sweep", "--scenario", "a", "--config", str(overlay), "--seeds", "3",
                     "--out", str(tmp_path)]) == 1
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert agg["failed_seeds"] == [1]
        assert agg["seeds"] == 3
        assert [r["seed"] for r in agg["per_seed"]] == [0, 2]
        assert len(agg["m_values"]) == 2 and agg["m_min"] <= agg["m_mean"] <= agg["m_max"]
        assert "seed 1 failed: non-finite state" in capsys.readouterr().err

    def test_no_finished_seed_gives_null_statistics(self, tmp_path, monkeypatch):
        # a disturbance bound this large overflows the first step of every seed
        monkeypatch.setattr(cli_module, "ProcessPoolExecutor", InProcessPool)
        overlay = tmp_path / "huge_w.json"
        overlay.write_text(json.dumps({"sim": {"w_max": 1e308}}))
        assert main(["sweep", "--scenario", "a", "--config", str(overlay), "--seeds", "2",
                     "--out", str(tmp_path)]) == 1
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert agg["failed_seeds"] == [0, 1]
        assert agg["per_seed"] == agg["m_values"] == []
        assert agg["m_min"] is agg["m_max"] is agg["m_mean"] is None
