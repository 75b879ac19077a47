"""Experiment driver outputs and CLI behavior."""

import hashlib
import json
import re

import numpy as np
import pytest

from ddvar.cli import main
from ddvar.config import ExperimentConfig, emit_config, parse_config
from ddvar.experiment import build_problem, run_experiment

from util import count_gain_solves


def small_cfg(**over):
    base = dict(nx=10, ny=8, n_steps=4, n_t=1, model="linear",
                boundary="prescribed", n_obs=10, sigma_o=0.2,
                formulation="is4dvar", n_outer=1, n_inner=20, seed=7)
    base.update(over)
    return ExperimentConfig(**base).validate()


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_build_problem_matches_config():
    cfg = small_cfg()
    prob = build_problem(cfg)
    assert prob.model.grid.nx == 10
    assert prob.obs.n_obs == 10
    assert prob.windows.n_t == 1
    assert prob.layout.has_boundary


def test_run_writes_expected_files(tmp_path):
    res = run_experiment(small_cfg(), out_dir=tmp_path)
    names = set(res.files)
    assert {"cost_history.csv", "solver_trace.csv", "timing.csv",
            "manifest.json"} <= names
    assert "dd_trace.csv" not in names and "messages.csv" not in names

    header, rows = read_rows(res.files["cost_history.csv"])
    assert header == ["outer", "inner", "J", "Jb", "Jo"]
    j = [float(r[2]) for r in rows]
    assert j[-1] < j[0]
    assert res.final_cost == j[-1]

    header, rows = read_rows(res.files["solver_trace.csv"])
    assert header == ["solver", "iteration", "residual", "J"]
    assert rows[0][0] == "is4dvar"
    assert len(rows) == len(res.history)


def test_manifest_lists_every_file_with_hashes(tmp_path):
    res = run_experiment(small_cfg(), out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 7
    listed = set(manifest["files"])
    emitted = {n for n in res.files if n != "manifest.json"}
    assert listed == emitted
    for name in listed:
        blob = (tmp_path / name).read_bytes()
        assert manifest["files"][name]["size"] == len(blob)
        assert manifest["files"][name]["sha256"] == \
            hashlib.sha256(blob).hexdigest()


def test_same_config_gives_byte_identical_csvs(tmp_path):
    a = run_experiment(small_cfg(impact=True), out_dir=tmp_path / "a")
    b = run_experiment(small_cfg(impact=True), out_dir=tmp_path / "b")
    compared = 0
    for name in a.files:
        if not name.endswith(".csv") or name == "timing.csv":
            continue
        assert a.files[name].read_bytes() == b.files[name].read_bytes(), name
        compared += 1
    assert compared >= 4  # cost history, trace, impact, sensitivity


def test_rpcg_matches_primal_cost_column(tmp_path):
    # same twin, two formulations: per-iteration J columns agree
    a = run_experiment(small_cfg(), out_dir=tmp_path / "p")
    b = run_experiment(small_cfg(formulation="rpcg"),
                       out_dir=tmp_path / "r")
    ja = [float(r[2]) for r in read_rows(a.files["cost_history.csv"])[1]]
    jb = [float(r[2]) for r in read_rows(b.files["cost_history.csv"])[1]]
    for x, y in zip(ja, jb):
        assert abs(x - y) <= 1e-8 * max(1.0, abs(x))


def test_dd_run_emits_trace_with_schema(tmp_path):
    cfg = small_cfg(nx=12, ny=10, formulation="dd4dvar", ntile_i=2,
                    ntile_j=1, n_t=1, sigma_o=1.0,
                    length_x=0.5, length_f=0.5, length_b=0.5, n_inner=30)
    res = run_experiment(cfg, out_dir=tmp_path)
    header, rows = read_rows(res.files["dd_trace.csv"])
    assert header == ["dd_iter", "tile", "window", "rhs_norm", "residual"]
    assert len(rows) >= 2
    tiles = {int(r[1]) for r in rows}
    assert tiles == {0, 1}
    # one row per outer iteration and block
    n_iter = len(rows) // 2
    assert [(int(r[0]), int(r[1]), int(r[2])) for r in rows] == [
        (n, t, 0) for n in range(1, n_iter + 1) for t in (0, 1)]
    assert all(float(r[3]) > 0.0 for r in rows)
    resid = [float(r[4]) for r in rows[1::2]]
    assert resid == [float(r[4]) for r in rows[0::2]]
    assert resid[-1] <= cfg.tau_dd
    # solver_trace: the same residuals behind the initial 1.0, and the
    # recurrence J, falling to the final cost
    sheader, srows = read_rows(res.files["solver_trace.csv"])
    assert sheader == ["solver", "iteration", "residual", "J"]
    assert [r[0] for r in srows] == ["dd4dvar"] * (n_iter + 1)
    assert [int(r[1]) for r in srows] == list(range(n_iter + 1))
    assert [float(r[2]) for r in srows] == [1.0] + resid
    j = [float(r[3]) for r in srows]
    assert all(b <= a for a, b in zip(j, j[1:]))
    assert j[-1] == pytest.approx(res.final_cost, rel=1e-10)
    # messages.csv: the world's log, one halo strip per tile and iteration
    mheader, mrows = read_rows(res.files["messages.csv"])
    assert mheader == ["step", "sender", "receiver", "tag", "bytes"]
    assert [int(r[0]) for r in mrows] == list(range(1, 2 * n_iter + 1))
    assert {(r[1], r[2]) for r in mrows} == {("0", "1"), ("1", "0")}
    assert [r[3] for r in mrows[:2]] == ["ras/1/west", "ras/1/east"]
    assert all(int(r[4]) > 0 for r in mrows)
    # timing: one block row per simulated rank, then the run's phases
    theader, trows = read_rows(res.files["timing.csv"])
    assert theader == ["phase", "rank", "seconds"]
    blocks = [r for r in trows if r[0] == "block"]
    assert [int(r[1]) for r in blocks] == list(range(res.n_ranks))
    assert res.n_ranks == 2
    phases = {r[0]: float(r[2]) for r in trows if r[0] != "block"}
    assert all(int(r[1]) == -1 for r in trows if r[0] != "block")
    assert set(phases) == {"setup", "solve", "impact", "total"}
    block_total = sum(float(r[2]) for r in blocks)
    assert 0.0 < block_total <= phases["solve"]
    assert phases["setup"] + phases["solve"] <= phases["total"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["converged"] is True
    assert manifest["iterations"] == [n_iter]
    assert {"dd_trace.csv", "messages.csv"} <= set(manifest["files"])
    # k_p of each rank's block: its strips and observations give rows
    sizes = manifest["capacitance_sizes"]
    assert len(sizes) == res.n_ranks and all(k > 0 for k in sizes)


def test_krylov_timing_and_manifest_convergence(tmp_path):
    res = run_experiment(small_cfg(n_inner=2), out_dir=tmp_path)
    header, rows = read_rows(res.files["timing.csv"])
    assert header == ["phase", "rank", "seconds"]
    assert [r[:2] for r in rows] == [["block", "0"], ["setup", "-1"],
                                     ["solve", "-1"], ["impact", "-1"],
                                     ["total", "-1"]]
    assert float(rows[3][2]) == 0.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    # a truncated inner loop is reported, not treated as a failure
    assert manifest["converged"] is False
    assert manifest["iterations"] == [2]
    assert res.converged is False


def _dd_cfg_file(tmp_path, **over):
    from importlib import resources

    text = (resources.files("ddvar") / "configs" / "dd.cfg").read_text()
    for key, value in over.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    path = tmp_path / "dd.cfg"
    path.write_text(text)
    return path


def test_cli_unconverged_dd_writes_outputs_and_exits_3(tmp_path, capsys):
    p = _dd_cfg_file(tmp_path, n_bar=1, impact="false")
    out = tmp_path / "o"
    code = main(["run", "--config", str(p), "--out", str(out)])
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is False
    assert manifest["iterations"] == [1]
    assert {"cost_history.csv", "dd_trace.csv", "timing.csv"} <= set(
        manifest["files"])


def _cli_dd_gap(tmp_path, cfg):
    """Run cfg through the CLI (must exit 0), then return the relative gap
    between the DD increment and a 1e-12 primal analysis."""
    from ddvar.grid import build_tiles
    from ddvar.schwarz import DDConfig, DDSolver

    out = tmp_path / "o"
    assert main(["run", "--config", str(write_cfg(tmp_path, cfg)), "--out",
                 str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is True
    prob = build_problem(cfg)
    tiles = build_tiles(prob.model.grid, cfg.ntile_i, cfg.ntile_j, cfg.halo)
    res = DDSolver(prob, tiles, DDConfig(n_bar=cfg.n_bar,
                                         tau_dd=cfg.tau_dd)).solve()
    assert manifest["iterations"] == [res.n_iterations]
    ref = prob.primal_analysis(tol=1e-12).x
    return float(np.linalg.norm(res.delta_z - ref) / np.linalg.norm(ref))


def test_cli_junction_observation_run_matches_global_analysis(tmp_path):
    """The C5 network at config seed 1 puts observation 35 in the cell at
    a four-tile junction; the run is accepted and reaches the global
    analysis."""
    from ddvar.acceptance import _c5_config

    cfg = _c5_config(2)
    cfg.seed = 1
    assert _cli_dd_gap(tmp_path, cfg) <= 1e-6


def test_cli_small_sigma_o_two_window_run_matches_global_analysis(tmp_path):
    """40x32, 2x4 tiles, N_t = 2, 160 observations at sigma_o = 0.1
    (config seed 14): converges within n_bar = 100."""
    from ddvar.acceptance import _c5_config

    cfg = _c5_config(2)
    cfg.seed, cfg.n_obs, cfg.sigma_o, cfg.n_bar = 14, 160, 0.1, 100
    assert _cli_dd_gap(tmp_path, cfg) <= 1e-6


def test_cli_dd_cfg_at_the_default_correlation_length(tmp_path):
    """dd.cfg with its length_* lines deleted, so every correlation length
    is at its default 2.0, converges to the global analysis."""
    from importlib import resources

    text = (resources.files("ddvar") / "configs" / "dd.cfg").read_text()
    text = re.sub(r"^length_\w+ = .*\n", "", text, flags=re.M)
    cfg = parse_config(text)
    assert "length" not in text
    assert cfg.length_x == cfg.length_f == cfg.length_b == 2.0
    assert _cli_dd_gap(tmp_path, cfg) <= 1e-6


def test_cli_narrow_tile_boxes_are_usage_error(tmp_path, capsys):
    # 8 nodes over 4 tiles with halo 1: boxes 3 nodes wide in y
    p = tmp_path / "narrow.cfg"
    p.write_text(emit_config(ExperimentConfig(
        nx=12, ny=8, formulation="dd4dvar", ntile_i=1, ntile_j=4, halo=1,
        seed=3)))
    out = tmp_path / "o"
    code = main(["run", "--config", str(p), "--out", str(out)])
    assert code == 1
    assert "config field ntile_j" in capsys.readouterr().err
    assert not out.exists()


def test_cli_truncated_krylov_run_exits_0(tmp_path):
    p = write_cfg(tmp_path, small_cfg(n_inner=2))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 0


def test_cli_rpcg_on_an_exhausted_krylov_space_exits_0(tmp_path):
    """Three observations: rpcg's third iteration exhausts the Krylov
    space and its recurrence value r'z rounds to a tiny negative number.
    That is convergence, not an indefinite G B G^T: the run exits 0 and
    the increment is rbl4dvar's."""
    cfg = ExperimentConfig(nx=11, ny=12, n_steps=4, n_t=3, model="linear",
                           boundary="prescribed", n_obs=3, sigma_o=0.3,
                           length_x=1.0, length_f=1.0, length_b=1.0,
                           formulation="rpcg", seed=17).validate()
    p = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    prob = build_problem(cfg)
    got = prob.dual_analysis(solver="rpcg")
    ref = prob.dual_analysis(solver="rbl4dvar")
    assert got.iterations == ref.iterations == 3
    assert np.linalg.norm(got.x_control - ref.x_control) \
        <= 1e-8 * np.linalg.norm(ref.x_control)


def test_impact_files_written_on_request(tmp_path):
    res = run_experiment(small_cfg(impact=True), out_dir=tmp_path)
    header, rows = read_rows(res.files["impact.csv"])
    assert header == ["platform", "count", "NL", "TL", "IC", "FC", "BC"]
    assert rows[-1][0] == "all"
    assert int(rows[-1][1]) == 10
    header, rows = read_rows(res.files["sensitivity.csv"])
    assert header == ["actual", "linearized", "gap"]
    assert float(rows[0][2]) <= 1e-6


def test_impact_run_shares_the_reports_gain_solves(tmp_path, monkeypatch):
    """One platform: K' s, that platform's K d (the analysis) and the
    shifted K (d + d) of the sensitivity check; manifest.json records
    them.  The nonlinear runs are the background's and the analysis's."""
    from ddvar.assim import AssimilationProblem

    calls = count_gain_solves(monkeypatch)
    calls["nl"] = 0
    run_nl = AssimilationProblem.run_with_increment

    def counted_run(self, z):
        calls["nl"] += 1
        return run_nl(self, z)

    monkeypatch.setattr(AssimilationProblem, "run_with_increment",
                        counted_run)
    run_experiment(small_cfg(impact=True), out_dir=tmp_path)
    assert calls == {"adjoint": 1, "forward": 2, "nl": 2}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["impact_gain_solves"] == {"adjoint": 1, "forward": 2}
    run_experiment(small_cfg(), out_dir=tmp_path / "plain")
    manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
    assert "impact_gain_solves" not in manifest


def test_impact_run_assembles_each_background_step_once(tmp_path,
                                                       monkeypatch):
    """Outer loop, impact, gain and sensitivity share the problem's one
    background operator: a 6-step burgers run assembles 6 step
    operators."""
    from ddvar.model import SurrogateModel

    built = []
    assemble = SurrogateModel._assemble

    def counted(self, state):
        built.append(self)
        return assemble(self, state)

    monkeypatch.setattr(SurrogateModel, "_assemble", counted)
    cfg = small_cfg(nx=16, ny=12, n_steps=6, n_t=2, model="burgers",
                    impact=True)
    run_experiment(cfg, out_dir=tmp_path)
    assert len(built) == 6


def test_obs_file_round_trip(tmp_path):
    from ddvar.observations import write_observations
    cfg = small_cfg()
    prob = build_problem(cfg)
    path = tmp_path / "obs.txt"
    write_observations(path, prob.obs)
    cfg2 = small_cfg(obs_file=str(path))
    prob2 = build_problem(cfg2)
    assert prob2.obs.n_obs == prob.obs.n_obs
    np.testing.assert_array_equal(prob2.obs.values, prob.obs.values)


# ------------------------------------------------------------------- CLI


def write_cfg(tmp_path, cfg):
    p = tmp_path / "exp.cfg"
    p.write_text(emit_config(cfg))
    return p


def test_cli_run_success(tmp_path, capsys):
    p = write_cfg(tmp_path, small_cfg())
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 0
    assert "final J" in out
    assert (tmp_path / "o" / "cost_history.csv").exists()


def test_cli_run_overrides(tmp_path):
    p = write_cfg(tmp_path, small_cfg())
    code = main(["run", "--config", str(p), "--seed", "9",
                 "--formulation", "rbl4dvar", "--out", str(tmp_path / "o")])
    assert code == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["seed"] == 9


def test_cli_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "cannot read config" in capsys.readouterr().err


def test_cli_bad_config_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("nx = 10\nwhat = 4\n")
    code = main(["run", "--config", str(p)])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["nx", "ny"])
def test_cli_grid_below_four_points_is_usage_error(tmp_path, capsys, field):
    # Grid needs 4 points per axis; the config must say so, not the run
    p = tmp_path / "small.cfg"
    p.write_text(re.sub(rf"^{field} = \d+$", f"{field} = 3",
                        emit_config(small_cfg()), flags=re.M))
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"config field {field}" in capsys.readouterr().err


def test_cli_dd_with_outer_loops_is_usage_error(tmp_path, capsys):
    # the DD never relinearizes, so a second outer loop would be ignored
    p = write_cfg(tmp_path, small_cfg(n_outer=2))
    code = main(["run", "--config", str(p), "--formulation", "dd4dvar",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "config field n_outer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_bad_formulation_flag_is_usage_error(tmp_path, capsys):
    p = write_cfg(tmp_path, small_cfg())
    code = main(["run", "--config", str(p), "--formulation", "3dvar"])
    assert code == 1


def test_cli_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "command" in capsys.readouterr().err


def test_cli_unknown_suite_is_usage_error():
    assert main(["verify", "--suite", "everything"]) == 1


def test_cli_verify_adjoint_suite(capsys):
    code = main(["verify", "--suite", "adjoint"])
    out = capsys.readouterr().out
    assert code == 0
    assert "C1 PASS" in out


def test_run_failure_maps_to_exit_2(tmp_path, capsys, monkeypatch):
    import ddvar.cli as cli

    def boom(cfg, out_dir=None):
        raise RuntimeError("model diverged while relinearizing")

    monkeypatch.setattr(cli, "run_experiment", boom)
    p = write_cfg(tmp_path, small_cfg())
    code = main(["run", "--config", str(p)])
    assert code == 2
    assert "model diverged" in capsys.readouterr().err
