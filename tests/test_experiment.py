"""Experiment driver outputs and CLI behavior."""

import hashlib
import json
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from ddvar.assim import dual_analysis
from ddvar.cli import main
from ddvar.config import (FORMULATIONS, ExperimentConfig, emit_config,
                          parse_config)
from ddvar.experiment import (_run_dd, _run_krylov, build_problem,
                              run_experiment)

from util import count_gain_solves


# a decomposed run that converges: 2 x 1 tiles, one window
DD_SMALL = dict(nx=12, ny=10, formulation="dd4dvar", ntile_i=2, ntile_j=1,
                n_t=1, sigma_o=1.0, length_x=0.5, length_f=0.5, length_b=0.5,
                n_inner=30)


def small_cfg(**over):
    base = dict(nx=10, ny=8, n_steps=4, n_t=1, model="linear",
                boundary="prescribed", n_obs=10, sigma_o=0.2,
                formulation="is4dvar", n_outer=1, n_inner=20, seed=7)
    base.update(over)
    return ExperimentConfig(**base).validate()


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_file_driven_problem_integrates_only_the_background(tmp_path,
                                                            monkeypatch):
    """A problem whose observations come from obs_file runs the model
    once, for the background, and has no truth; the synthesis path also
    runs the truth its observations sample."""
    from ddvar.model import SurrogateModel
    from ddvar.observations import write_observations

    steps = [0]

    def counted(self, *args, real=SurrogateModel.step_nl, **kw):
        steps[0] += 1
        return real(self, *args, **kw)
    monkeypatch.setattr(SurrogateModel, "step_nl", counted)

    cfg = small_cfg()
    synth = build_problem(cfg)
    assert steps[0] == 2 * cfg.n_steps
    assert synth.z_truth is not None
    path = tmp_path / "obs.txt"
    write_observations(path, synth.obs)
    steps[0] = 0
    read = build_problem(small_cfg(obs_file=str(path)))
    assert steps[0] == cfg.n_steps
    assert read.z_truth is None
    assert np.array_equal(read.x_b, synth.x_b)


@pytest.mark.parametrize("which", ["small", "c5"])
def test_background_is_the_x0_segment_of_a_whole_control_draw(which):
    """x_b, drawn through the x0 block alone, equals bit for bit the x0
    segment of B^1/2 applied to the whole-control draw of the seed."""
    from ddvar.acceptance import _c5_config

    cfg = small_cfg() if which == "small" else _c5_config(2)
    prob = build_problem(cfg)
    draw = np.random.default_rng(cfg.seed).standard_normal(prob.layout.n_z)
    want = prob.layout.views(prob.b_cov.apply_sqrt(draw))[0]
    assert np.array_equal(prob.x_b, want)


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
    """Every CSV but timing.csv, for a Krylov run and a decomposed run,
    both with the impact report (the decomposed one reusing its
    analysis)."""
    csvs = ["cost_history.csv", "impact.csv", "sensitivity.csv",
            "solver_trace.csv"]
    for name, cfg, names in (
            ("krylov", small_cfg(impact=True), csvs),
            ("dd", small_cfg(impact=True, **DD_SMALL),
             sorted(csvs + ["dd_trace.csv", "messages.csv"]))):
        a = run_experiment(cfg, out_dir=tmp_path / name / "a")
        b = run_experiment(cfg, out_dir=tmp_path / name / "b")
        compared = sorted(f for f in a.files
                          if f.endswith(".csv") and f != "timing.csv")
        assert compared == names
        for f in compared:
            assert a.files[f].read_bytes() == b.files[f].read_bytes(), \
                (name, f)


def test_rpcg_matches_primal_cost_column(tmp_path):
    # same twin, two formulations: per-iteration J columns agree
    a = run_experiment(small_cfg(), out_dir=tmp_path / "p")
    b = run_experiment(small_cfg(formulation="rbl4dvar"),
                       out_dir=tmp_path / "r")
    ja = [float(r[2]) for r in read_rows(a.files["cost_history.csv"])[1]]
    jb = [float(r[2]) for r in read_rows(b.files["cost_history.csv"])[1]]
    for x, y in zip(ja, jb):
        assert abs(x - y) <= 1e-8 * max(1.0, abs(x))


def test_dd_run_emits_trace_with_schema(tmp_path, monkeypatch):
    from ddvar.schwarz import DDSolver

    cfg = small_cfg(**DD_SMALL)
    solves = []
    solve = DDSolver.solve

    def recording_solve(self):
        out = solve(self)
        solves.append((self.problem, out))
        return out

    monkeypatch.setattr(DDSolver, "solve", recording_solve)
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
    assert j[-1] == res.final_cost
    # cost_history.csv: the recurrence's J, Jb and Jo, which agree with
    # the cost evaluated directly at the solve's increment
    (problem, dd), = solves
    direct = problem.cost(dd.delta_z)
    _, hrows = read_rows(res.files["cost_history.csv"])
    (row,) = hrows
    assert [int(c) for c in row[:2]] == [1, n_iter]
    for got, want in zip([float(c) for c in row[2:]],
                         (direct.J, direct.Jb, direct.Jo), strict=True):
        assert got == pytest.approx(want, rel=1e-10)
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
    assert "did not converge (stopped after 1 of at most n_bar = 1" \
        in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is False
    assert manifest["iterations"] == [1]
    assert {"cost_history.csv", "dd_trace.csv", "timing.csv"} <= set(
        manifest["files"])


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_cli_dd_nonpositive_alpha_is_usage_error(tmp_path, capsys, alpha):
    p = _dd_cfg_file(tmp_path)
    p.write_text(p.read_text() + f"alpha = {alpha}\n")
    out = tmp_path / "o"
    code = main(["run", "--config", str(p), "--out", str(out)])
    assert code == 1
    assert "config field alpha" in capsys.readouterr().err
    assert not out.exists()


def _cli_dd_gap(tmp_path, cfg, ref_tol=1e-12):
    """Run cfg through the CLI (must exit 0), then return the relative gap
    between the DD increment and a primal analysis to ref_tol."""
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
    ref = prob.primal_analysis(tol=ref_tol).x
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


def test_cli_narrow_tile_boxes_match_the_global_analysis(tmp_path):
    """8 nodes over 4 tiles with halo 1: the edge tiles' boxes are 3 nodes
    wide in y.  The blocks step with restricted global operators, which
    take any box shape, so the run exits 0 at the global analysis."""
    cfg = ExperimentConfig(nx=12, ny=8, formulation="dd4dvar", ntile_i=1,
                           ntile_j=4, halo=1, seed=3).validate()
    assert _cli_dd_gap(tmp_path, cfg, ref_tol=1e-13) <= 1e-6


def test_cli_truncated_krylov_run_exits_0(tmp_path):
    p = write_cfg(tmp_path, small_cfg(n_inner=2))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 0


def test_cli_rpcg_on_an_exhausted_krylov_space_exits_0(tmp_path):
    """Three observations: the third iteration of rbl4dvar's rpcg exhausts
    the Krylov space, and its r'z is rounding noise that may come out
    negative.  That is convergence, not an indefinite G B G^T: the run
    exits 0 and the increment is the primal route's."""
    cfg = ExperimentConfig(nx=11, ny=12, n_steps=4, n_t=3, model="linear",
                           boundary="prescribed", n_obs=3, sigma_o=0.3,
                           length_x=1.0, length_f=1.0, length_b=1.0,
                           formulation="rbl4dvar", seed=17).validate()
    p = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    prob = build_problem(cfg)
    got = dual_analysis(prob.background_operator(), prob.b_cov, prob.r_cov,
                        prob.background_innovations())
    ref = prob.primal_analysis(tol=1e-12)
    assert got.iterations == 3
    assert np.linalg.norm(got.x_control - ref.x) \
        <= 1e-8 * np.linalg.norm(ref.x)


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
    """One platform and a converged solve of one outer loop: K' s is the
    report's one gain solve, since the solve's increment is K d (the
    analysis), which the sensitivity check also reads without a solve of
    its own; manifest.json records them.  The nonlinear runs are the
    background's and the analysis's."""
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
    assert calls == {"adjoint": 1, "forward": 0, "nl": 2}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["impact_gain_solves"] == {"adjoint": 1, "forward": 0}
    run_experiment(small_cfg(), out_dir=tmp_path / "plain")
    manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
    assert "impact_gain_solves" not in manifest


@pytest.mark.parametrize("over,forward", [({}, 0), (DD_SMALL, 0),
                                          ({"n_outer": 2}, 1)],
                         ids=["is4dvar", "dd4dvar", "n_outer2"])
def test_impact_reuses_a_converged_single_loop_analysis(tmp_path,
                                                        monkeypatch, over,
                                                        forward):
    """A converged one-loop solve (is4dvar or dd4dvar) hands its increment
    to the report, which then solves only K' s; a second outer loop
    moves the increment off K d, so that run solves K d itself.  Either
    way impact.csv holds the solving path's values to 1e-8."""
    from ddvar.impact import column_section, observation_impact

    calls = count_gain_solves(monkeypatch)
    cfg = small_cfg(impact=True, **over)
    res = run_experiment(cfg, out_dir=tmp_path)
    assert res.converged
    assert calls == {"adjoint": 1, "forward": forward}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["impact_gain_solves"] == {"adjoint": 1,
                                              "forward": forward}

    prob = build_problem(cfg)
    functional = column_section(prob.model.grid, cfg.nx // 2, cfg.n_steps,
                                n_fields=prob.model.n_fields)
    want = observation_impact(prob, functional).rows()
    _, rows = read_rows(res.files["impact.csv"])
    assert [(r[0], int(r[1])) for r in rows] == [w[:2] for w in want]
    for row, ref in zip(rows, want):
        for got, exp in zip(map(float, row[2:]), ref[2:]):
            assert abs(got - exp) <= 1e-8 * abs(exp)


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


# record 3 of a valid file, edited: (field index, new text, message)
BAD_RECORDS = {
    "nan_x": (1, "nan", "observation x must be finite"),
    "nan_value": (4, "nan", "observation value must be finite"),
    "nan_variance": (5, "nan", "observation variance must be finite"),
    "inf_variance": (5, "inf", "observation variance must be finite"),
    "five_fields": (5, None, "line 3: expected six fields"),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_cli_rejects_a_bad_observation_record(tmp_path, capsys, case):
    """Non-finite locations, values and variances, and short records, end
    the run before any solve with exit 1, an input error like a malformed
    config, and a message naming the field (or the path and line), where
    a NaN used to surface as non-finite residual norms and an infinite
    variance ran to exit 0."""
    from ddvar.observations import write_observations
    path = tmp_path / "obs.txt"
    write_observations(path, build_problem(small_cfg()).obs)
    lines = path.read_text().splitlines()
    field, text, message = BAD_RECORDS[case]
    words = lines[2].split()
    if text is None:
        del words[field]
    else:
        words[field] = text
    lines[2] = " ".join(words)
    path.write_text("\n".join(lines) + "\n")
    p = write_cfg(tmp_path, small_cfg(obs_file=str(path)))
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "ddvar: observation file error:" in err
    assert message in err
    if text is None:
        assert str(path) in err
    assert not (tmp_path / "o" / "cost_history.csv").exists()


@pytest.mark.parametrize("case", ["missing", "not_text"])
def test_cli_rejects_an_unreadable_observation_file(tmp_path, capsys, case):
    """An obs_file that does not exist or is not text is an input error:
    exit 1 with the path in the message, and no outputs."""
    path = tmp_path / "obs.txt"
    if case == "not_text":
        path.write_bytes(b"1 0.5 0.5 gridded \xff\xfe 1.0\n")
    p = write_cfg(tmp_path, small_cfg(obs_file=str(path)))
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "ddvar: observation file error:" in err
    assert str(path) in err
    assert not (tmp_path / "o" / "cost_history.csv").exists()


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


# field, value and message of a config that validate() rejects where the
# run would stop with exit 2: the model's stability bounds, which it
# checks on construction, and the seed numpy's generator takes
UNRUNNABLE = {
    "dt": ("dt", "5.0",
           "config field dt: dt=5.0 violates the diffusive bound"),
    "advect_u": ("advect_u", "3.0",
                 "config field dt: advective CFL 0.600 exceeds 0.5"),
    "seed": ("seed", "-1", "config field seed: must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(UNRUNNABLE))
def test_cli_config_the_run_cannot_take_is_usage_error(tmp_path, capsys,
                                                       case):
    """dt = 5, advect_u = 3 at dt = 0.2 and seed = -1 exit 1 naming the
    field, and write nothing."""
    field, value, message = UNRUNNABLE[case]
    p = tmp_path / "exp.cfg"
    p.write_text(re.sub(rf"^{field} = .*$", f"{field} = {value}",
                        emit_config(small_cfg()), flags=re.M))
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_negative_seed_flag_is_usage_error(tmp_path, capsys):
    p = write_cfg(tmp_path, small_cfg())
    code = main(["run", "--config", str(p), "--seed", "-1",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "config field seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def assert_formulation_rejected(tmp_path, capsys, where, name):
    """formulation = name exits 1, lists every accepted name and writes
    nothing: in a config file validate() rejects it, on the command line
    the flag's choices do."""
    p = write_cfg(tmp_path, small_cfg())
    if where == "file":
        p.write_text(p.read_text().replace("formulation = is4dvar",
                                           f"formulation = {name}"))
        argv = ["run", "--config", str(p)]
    else:
        argv = ["run", "--config", str(p), "--formulation", name]
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert name in err
    assert all(n in err for n in FORMULATIONS)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["file", "flag"])
def test_cli_minres_is_usage_error(tmp_path, capsys, where):
    assert_formulation_rejected(tmp_path, capsys, where, "minres")


@pytest.mark.parametrize("where", ["file", "flag"])
def test_cli_rpcg_is_usage_error(tmp_path, capsys, where):
    """rpcg is the Krylov solver of rbl4dvar, not a formulation name."""
    assert_formulation_rejected(tmp_path, capsys, where, "rpcg")


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_cli_runs_every_formulation(tmp_path, formulation):
    """Every name the config accepts reaches a solver: a small run exits 0
    and writes its CSVs."""
    cfg = small_cfg(formulation=formulation)
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_cfg(tmp_path, cfg)), "--out",
                 str(out)]) == 0
    want = {"cost_history.csv", "solver_trace.csv", "timing.csv"}
    if formulation == "dd4dvar":
        want |= {"dd_trace.csv", "messages.csv"}
    assert {p.name for p in out.glob("*.csv")} == want
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == want
    assert manifest["converged"] is True
    header, rows = read_rows(out / "cost_history.csv")
    assert header == ["outer", "inner", "J", "Jb", "Jo"] and rows


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


@pytest.mark.parametrize("name,formulation", [("case2", "is4dvar"),
                                              ("case2", "rbl4dvar"),
                                              ("dd", "dd4dvar")])
def test_runs_are_exactly_invariant_to_a_power_of_two_scale(name,
                                                            formulation):
    """Scaling sigma_x, sigma_f, sigma_b and sigma_o by c = 2^-14 or 2^14
    scales the draws, the innovations and the increments by c exactly, so
    no stopping rule or floor may see the scale: the run takes the same
    iterations to the same J, bit for bit, with c times the increment."""
    text = (resources.files("ddvar") / "configs" / f"{name}.cfg").read_text()
    base = parse_config(text)
    run = _run_dd if formulation == "dd4dvar" else _run_krylov

    def solve(c):
        cfg = replace(base, formulation=formulation, **{
            key: getattr(base, key) * c
            for key in ("sigma_x", "sigma_f", "sigma_b", "sigma_o")})
        return run(build_problem(cfg.validate()), cfg)

    ref = solve(1.0)
    assert ref.converged
    for c in (2.0**-14, 2.0**14):
        got = solve(c)
        assert got.iterations == ref.iterations
        assert got.history[-1][2] == ref.history[-1][2]
        assert np.array_equal(got.analysis, c * ref.analysis)


@pytest.mark.parametrize("formulation", ["is4dvar", "dd4dvar"])
@pytest.mark.parametrize("key", ["sigma_x", "sigma_f", "sigma_b"])
def test_cli_small_prior_sigma_runs(tmp_path, capsys, key, formulation):
    """A prior standard deviation of 1e-4 passes validate() and runs: the
    default nugget, 1e-3 sigma^2, meets the relative floor."""
    over = DD_SMALL if formulation == "dd4dvar" else {}
    cfg = small_cfg(**{**over, key: 1e-4})
    assert main(["run", "--config", str(write_cfg(tmp_path, cfg)), "--out",
                 str(tmp_path / "o")]) == 0
    assert "final J" in capsys.readouterr().out
