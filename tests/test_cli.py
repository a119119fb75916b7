import csv
import hashlib
import json

import numpy as np
import pytest
from helpers import read_trajectory_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from laycon.cli import (
    bundle_to_config,
    load_bundle,
    main,
    resolve_config,
    write_trajectory_csv,
)
from laycon.scenarios import scenario_a, scenario_b
from laycon.sim import COLUMNS, TrajectoryLog, run_layered


class TestConfigRoundTrip:
    @pytest.mark.parametrize("maker", [scenario_a, scenario_b])
    def test_bundle_survives_serialization(self, maker):
        original = maker()
        rebuilt = load_bundle(bundle_to_config(original))
        assert rebuilt.plant == original.plant
        assert rebuilt.erg_cfg == original.erg_cfg
        assert rebuilt.planner_cfg == original.planner_cfg
        assert rebuilt.spec == original.spec
        assert rebuilt.sim == original.sim
        assert np.allclose(rebuilt.R, original.R)
        assert len(rebuilt.constraints) == len(original.constraints)
        assert rebuilt.constraints == original.constraints
        assert rebuilt.cert == original.cert

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
        cfg["certificates"]["h_max"] = data.draw(st.just(0.0) | st.floats(min_value=0.0, max_value=5.0))
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
    ("sim.typo", lambda cfg: cfg["sim"].update(typo=1)),
    ("planner.horizon", lambda cfg: cfg["planner"].pop("horizon")),
    ("load.segments", lambda cfg: cfg["load"].update(segments=[[0.0, 8.0, "constant"]])),
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
]


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


class TestTrajectoryCsv:
    def test_round_trip_exact(self, tmp_path):
        bundle = scenario_a(seed=2, t_end=0.5)
        log, _ = run_layered(bundle)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(log, path)
        parsed = read_trajectory_csv(path)
        for name, col in log.columns.items():
            assert np.array_equal(parsed[name], col), name

    def test_block_writer_matches_csv_writer(self, tmp_path):
        # special floats fill whole columns and whole steps, over more steps
        # than one block holds
        specials = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                    0.1 + 0.2, 1.2345678901234567e-200, 400.00000000000006]
        n_rows = 700
        rng = np.random.default_rng(0)
        data = rng.standard_normal((len(COLUMNS), n_rows)) * 10.0 ** rng.integers(-300, 300, (len(COLUMNS), n_rows))
        for k, value in enumerate(specials):
            data[:, k * 97 % n_rows] = value
            data[k, :] = value
        log = TrajectoryLog(
            data=data, y_samples=np.zeros((1, 2)), predictions=np.zeros((0, 2)),
            v_n_star=np.zeros(0), ref_points=np.zeros((1, 2)),
            fallback_steps=np.zeros(0, dtype=bool), plan_qps=[], t_s_eff=0.1,
        )
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(log, path)
        reference = tmp_path / "reference.csv"
        with reference.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(COLUMNS)
            for row in data.T:
                writer.writerow(map(repr, row.tolist()))
        assert path.read_bytes() == reference.read_bytes()

    def test_header_contract(self, tmp_path):
        bundle = scenario_a(seed=0, t_end=0.2)
        log, _ = run_layered(bundle)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(log, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,V_gr,I_S,I_B,E_S,E_B,v,r_V,r_IB,e1,e2,V_e,Gamma_v,Phi,w,d,u_S,u_B,fallback"


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

    def test_rank_deficient_planner_falls_back(self, tmp_path):
        # the tightened SOC corridors close inside the horizon and the small
        # cost weight lets the dual method pile 21 active rows onto 20
        # variables: every period's QP ends rank-deficient and falls back
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps({"sim": {"t_end": 1.0},
                                    "planner": {"q_weight": 1e-4, "tighten_eps_e": 0.25}}))
        out = tmp_path / "out"
        assert main(["run", "--scenario", "b", "--config", str(path), "--seed", "0", "--out", str(out)]) == 0
        planner = json.loads((out / "monitor.json").read_text())["planner"]
        assert len(planner) == 10
        assert "rank_deficient" in {rec["status"] for rec in planner}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fallback_count"] == sum(rec["status"] != "optimal" for rec in planner)
        assert np.all(read_trajectory_csv(out / "trajectory.csv")["r_IB"] == 0.0)  # held from the start

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
        assert capsys.readouterr().err.strip() == "condensed cost requires q_weight > 0"
        assert not (tmp_path / "trajectory.csv").exists()


_FULL = {"mode": "full", "kappa_bar": 0.05, "d_bar_max": 5.5, "d_bar_dot_max": 10.0}

# SHA-256 of (trajectory.csv, monitor.json, summary.json) for 0.5 s runs,
# recorded with the array-valued (numpy per step) simulation loop on x86-64
# Linux (Intel Xeon, 2 vCPU), Python 3.11.7, numpy 2.4.6. The loop must
# reproduce that evaluation bit for bit. Another numpy build or CPU may
# round its dot products differently and so write other bytes.
PINNED_RUNS = [
    ("a_mixed", "a", {"sim": {"t_end": 0.5}}, 1, (
        "4f23c45bef683d0dcfce3d3b6cd13648b9407fb2bc3577c8fed09a79558a3661",
        "f7ff973a01c808eeefef56dfe441911f4cdd06b8d3f192262a3ebb3ff988dd92",
        "ebadd941890ba32edd77e95b0e06a8842eec0e034c417b3d996f62663302ccd5")),
    ("a_adversarial", "a", {"sim": {"t_end": 0.5, "disturbance": "adversarial"}}, 1, (
        "9d2e6ac3b44879cf57ab495ed1c433253b1bbef822455e1b802d4a55b505f707",
        "f7ff973a01c808eeefef56dfe441911f4cdd06b8d3f192262a3ebb3ff988dd92",
        "ebadd941890ba32edd77e95b0e06a8842eec0e034c417b3d996f62663302ccd5")),
    ("a_none", "a", {"sim": {"t_end": 0.5, "disturbance": "none"}}, 1, (
        "cbc4c77da2432392abdf143aa4c43d28a9e0573cad043773300db9f14b67e27a",
        "f7ff973a01c808eeefef56dfe441911f4cdd06b8d3f192262a3ebb3ff988dd92",
        "ebadd941890ba32edd77e95b0e06a8842eec0e034c417b3d996f62663302ccd5")),
    ("b_mixed", "b", {"sim": {"t_end": 0.5}}, 3, (
        "1328fb9e846751d1a7786554377d82d9226f00e367e7f9a66ce294bc5574641d",
        "ca6b3137304caa728ff6e1a5a5a20a910bcd76354f7404d4b07773abc9bcea6b",
        "d25f31c6c94d2c3874e0618e2e901e7d960f054f21d7b4953ea4f93c54ec04a3")),
    # full mode: self-referential rows, so Gamma runs its fixed point
    ("b_full", "b", {"sim": {"t_end": 0.5}, "constraints": _FULL}, 7, (
        "6ece2ace85b12e01389c670b1d98f027143bd144ed55aa9cbf9602d90e03c094",
        "c144c0236c9ce27760599d0a4898552d71f786720ae62dd6495bb5af311a5a60",
        "bba8551e73647ae80c757890592c07704887995567b3c5f0847bd0e34c1157b7")),
    # repulsion on: equal strengths on v_max/v_min cancel exactly while
    # v_V stays at 400, so this run writes the same bytes as b_full
    ("b_full_repulsion", "b", {"sim": {"t_end": 0.5}, "constraints": _FULL,
                               "erg": {"eta_rep": [0.1, 0.1, 0.05, 0.05, 0.1, 0.1]}}, 7, (
        "6ece2ace85b12e01389c670b1d98f027143bd144ed55aa9cbf9602d90e03c094",
        "c144c0236c9ce27760599d0a4898552d71f786720ae62dd6495bb5af311a5a60",
        "bba8551e73647ae80c757890592c07704887995567b3c5f0847bd0e34c1157b7")),
    # unequal strengths: the net repulsion moves v_V
    ("b_full_repulsion_asym", "b", {"sim": {"t_end": 0.5}, "constraints": _FULL,
                                    "erg": {"eta_rep": [0.2, 0.05, 0.05, 0.05, 0.1, 0.1]}}, 7, (
        "73393bdd78dda663a41d113dd8c4c4b76c924112f33dedb8cbde2cb8d6b4e06a",
        "69d90787989537630b41cd740e934eea1be8cbef79948c61eedf1d117a15e9d9",
        "6e20fe7eb0c95e7e2d1c3606cd72a9aa685106ab71d62c60059db8b8baf41286")),
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
