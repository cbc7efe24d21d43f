import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import mkcs
from bench_instances import complete_graph, cycle_graph, myciel5
from mkcs import cli, cpadmm, graph, intadmm, projection
from mkcs.cli import (
    EXIT_INVALID_ARGS,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    RunConfig,
    build_parser,
    main,
    report_rows,
    resolve_config,
    run_bound,
    run_chromatic,
    run_report,
    run_solve,
)
from mkcs.cuts import CutFamily
from mkcs.graph import write_dimacs
from reference_helpers import random_graph

ROOT = Path(__file__).resolve().parents[1]

# every setting, as (table, field), where table None is RunConfig itself
SETTINGS = list(cli._SETTINGS.values())
# values that pass the checks where default + 1 would not, each with the
# value that the resolved config then holds
SETTING_SAMPLES = {
    "beta_decr": (0.25, 0.25),
    "k": ("2,3", "2,3"),
    "out": ("report.json", "report.json"),
    "families": ("t1,HOLE5", (CutFamily.T1, CutFamily.HOLE5)),
}
# the paper's tuning constants, fixed in the module that reads each of them
FIXED_CONSTANTS = (
    "beta", "gamma", "eps_admm_final", "max_inner_iter_final", "min_ineq_phase1",
    "max_ineq", "max_cuts_per_var", "min_impr_phase1", "max_clique_pairs",
    "max_holes", "eps_dyk", "dyk_max_cycles", "beta_min", "eps_int",
    "max_tries_without_impr", "min_iters_after_reset", "stall_window", "stall_fall",
    "max_growth_exponent",
)


def sample_value(f):
    """A valid value of the field's type that differs from its default,
    and the value that the resolved config holds for it."""
    if f.name in SETTING_SAMPLES:
        return SETTING_SAMPLES[f.name]
    if f.type == "bool":
        value = not f.default
    elif f.default is None:
        value = 7 if f.type.startswith("int") else 2.5
    else:
        value = f.default + 1
    return value, value


def assert_neither_key_nor_flag(instance, tmp_path, capsys, key):
    """``key`` exits 3 as an unknown config key, and so does its flag."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: 5.0}))
    assert (
        main(["bound", str(instance), "--k", "2", "--config", str(cfgfile)])
        == EXIT_INVALID_ARGS
    )
    assert f"unknown configuration key {key!r}" in capsys.readouterr().err
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main(["bound", str(instance), "--k", "2", flag, "5"])
    assert exc.value.code == EXIT_INVALID_ARGS
    # "unrecognized arguments", or for --beta "ambiguous option"
    assert flag in capsys.readouterr().err.splitlines()[-1]
    assert flag not in [o for a in build_parser()._actions for o in a.option_strings]


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.col"
    path.write_text(write_dimacs(cycle_graph(5)))
    return path


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.col"
    path.write_text(write_dimacs(complete_graph(5)))
    return path


class TestExitCodes:
    def test_success(self, c5_file, capsys):
        assert main(["bound", str(c5_file), "--k", "2"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["mode"] == "bound"

    def test_missing_file_is_parse_error(self, tmp_path):
        assert main(["bound", str(tmp_path / "nope.col"), "--k", "2"]) == EXIT_PARSE_ERROR

    def test_malformed_instance_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge x y\n")
        assert main(["bound", str(bad), "--k", "2"]) == EXIT_PARSE_ERROR

    def test_missing_k_invalid_args(self, c5_file):
        assert main(["bound", str(c5_file)]) == EXIT_INVALID_ARGS

    def test_out_of_range_k_invalid_args(self, c5_file):
        assert main(["bound", str(c5_file), "--k", "7"]) == EXIT_INVALID_ARGS

    def test_k_list_checked_before_the_first_run(self, c5_file, monkeypatch, capsys):
        solves = []

        def counting_cp_admm(*args, _real=cli.cp_admm, **kwargs):
            solves.append(args[1])
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, "cp_admm", counting_cp_admm)
        assert main(["bound", str(c5_file), "--k", "2,99"]) == EXIT_INVALID_ARGS
        assert "k must lie in [1, 5]" in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize("via_config", [False, True])
    def test_chromatic_rejects_k(self, c5_file, tmp_path, monkeypatch, capsys,
                                 via_config):
        solves = []

        def counting_cp_admm(*args, _real=cli.cp_admm, **kwargs):
            solves.append(args[1])
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, "cp_admm", counting_cp_admm)
        flags = ["--k", "99"]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"k": 2}))
            flags = ["--config", str(cfg)]
        assert main(["chromatic", str(c5_file), *flags]) == EXIT_INVALID_ARGS
        assert "chromatic mode picks its own k values" in capsys.readouterr().err
        assert solves == []

    def test_k_equal_to_n_accepted(self, c5_file, capsys):
        assert main(["bound", str(c5_file), "--k", "5"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ub"] == pytest.approx(5.0, abs=1e-6)
        assert main(["bound", str(c5_file), "--k", "6"]) == EXIT_INVALID_ARGS

    def test_unknown_mode_invalid_args(self, c5_file):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", str(c5_file), "--k", "2"])
        assert exc.value.code == EXIT_INVALID_ARGS

    def test_unknown_flag_invalid_args(self, c5_file):
        with pytest.raises(SystemExit) as exc:
            main(["bound", str(c5_file), "--k", "2", "--wat", "1"])
        assert exc.value.code == EXIT_INVALID_ARGS

    def test_unknown_family_invalid_args(self, c5_file):
        assert (
            main(["bound", str(c5_file), "--k", "2", "--families", "NOPE"])
            == EXIT_INVALID_ARGS
        )

    def test_bad_config_key_invalid_args(self, c5_file, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"not_a_param": 1}))
        assert (
            main(["bound", str(c5_file), "--k", "2", "--config", str(cfgfile)])
            == EXIT_INVALID_ARGS
        )

    def test_lp_backend_is_neither_a_key_nor_a_flag(self, c5_file, tmp_path,
                                                      capsys):
        # every bound takes its cut multipliers from the LP, so there is no
        # backend to choose
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"lp_backend": "none"}))
        assert (
            main(["bound", str(c5_file), "--k", "2", "--config", str(cfgfile)])
            == EXIT_INVALID_ARGS
        )
        assert "unknown configuration key 'lp_backend'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["bound", str(c5_file), "--k", "2", "--lp-backend", "none"])
        assert exc.value.code == EXIT_INVALID_ARGS
        assert "--lp-backend" not in build_parser().format_help()

    @pytest.mark.parametrize("key", ["time_limit_global", "time_limit_cliques",
                                     "time_limit_holes"])
    def test_removed_time_settings_are_unknown_keys(self, c5_file, tmp_path, capsys,
                                                    key):
        # --time-limit sets the one deadline of the whole run
        assert_neither_key_nor_flag(c5_file, tmp_path, capsys, key)

    def test_max_cliques_is_neither_a_key_nor_a_flag(self, c5_file, tmp_path, capsys):
        # every pool stops at the fixed MAX_POOL rows instead
        assert_neither_key_nor_flag(c5_file, tmp_path, capsys, "max_cliques")

    @pytest.mark.parametrize("value", ["-inf", "-1e-3", "-.5E-2", "-Infinity"])
    def test_negative_float_forms_are_flag_values(self, c5_file, value):
        # not taken for an unknown option: "expected one argument"
        args = build_parser().parse_args(["bound", str(c5_file), "--min-impr", value])
        assert resolve_config(args).admm.min_impr == float(value)

    def test_negative_exponent_value_reaches_the_range_check(self, c5_file, capsys):
        assert main(["bound", str(c5_file), "--k", "2", "--min-viol", "-1e-3"]) \
            == EXIT_INVALID_ARGS
        assert "min_viol must" in capsys.readouterr().err

    @pytest.mark.parametrize("key", FIXED_CONSTANTS)
    def test_fixed_constants_are_neither_keys_nor_flags(self, c5_file, tmp_path,
                                                        capsys, key):
        assert_neither_key_nor_flag(c5_file, tmp_path, capsys, key)

    @pytest.mark.parametrize("config, key", [
        ({"max_inner_iter": "50"}, "max_inner_iter"),
        ({"families": [1]}, "families"),
        ({"beta0": True}, "beta0"),
        ({"max_iterations": 2.5}, "max_iterations"),
        ({"time_limit": "5"}, "time_limit"),
        ({"stable_timing": "no"}, "stable_timing"),
        ({"k": [2.7]}, "k"),
        ({"k": True}, "k"),
        ({"out": 5}, "out"),
    ])
    def test_mistyped_config_value_invalid_args(self, c5_file, tmp_path, capsys,
                                                config, key):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        k_flag = [] if key == "k" else ["--k", "2"]
        assert (
            main(["bound", str(c5_file), "--config", str(cfgfile), *k_flag])
            == EXIT_INVALID_ARGS
        )
        assert f"{key} " in capsys.readouterr().err

    @pytest.mark.parametrize("config, key", [
        ({"seed": -1}, "seed"),
        ({"beta_incr": 1.0}, "beta_incr"),
        ({"max_inner_iter": 0}, "max_inner_iter"),
        ({"min_viol": math.nan}, "min_viol"),
        ({"min_viol": -1}, "min_viol"),
        ({"max_outer": 0}, "max_outer"),
        ({"eps_admm": math.inf}, "eps_admm"),
        ({"eps_admm": -1}, "eps_admm"),
        ({"min_ineq": math.nan}, "min_ineq"),
        ({"beta_decr": 1.0}, "beta_decr"),
        ({"time_limit": -5}, "time_limit"),
        ({"per_k_time_limit": -1}, "per_k_time_limit"),
        ({"beta0": 0}, "beta0"),
        ({"beta0": -1}, "beta0"),
        ({"beta_incr": math.nan}, "beta_incr"),
        ({"min_impr": math.nan}, "min_impr"),
        ({"beta_decr": 0.0}, "beta_decr"),
        ({"min_ineq": -1}, "min_ineq"),
        ({"max_iterations": -1}, "max_iterations"),
        ({"min_viol": math.inf}, "min_viol"),
        ({"min_ineq": math.inf}, "min_ineq"),
        ({"eps_admm": math.nan}, "eps_admm"),
    ])
    def test_out_of_range_solver_setting_invalid_args(self, c5_file, tmp_path,
                                                      capsys, config, key):
        # each of these ran a degenerate solve and exited 0, or ended in a
        # traceback
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        assert (
            main(["bound", str(c5_file), "--k", "2", "--config", str(cfgfile)])
            == EXIT_INVALID_ARGS
        )
        assert f"{key} must" in capsys.readouterr().err


class TestConfigResolution:
    def test_defaults_match_parameter_tables(self):
        # the phase-1 threshold n and the round cap 5n: TestCpAdmm's
        # test_phase1_threshold_and_round_cap
        cfg = RunConfig()
        admm = cfg.admm
        assert (cpadmm.BETA, cpadmm.GAMMA) == (1.2, 1.617)
        assert (admm.eps_admm, cpadmm.EPS_ADMM_FINAL) == (2e-4, 1e-5)
        assert (admm.max_inner_iter, cpadmm.MAX_INNER_ITER_FINAL) == (2000, 10000)
        assert admm.min_viol == 1e-2 and cpadmm.MAX_CUTS_PER_VAR == 5
        assert (admm.min_impr, cpadmm.MIN_IMPR_PHASE1) == (0.025, 0.25)
        assert cfg.time_limit == 3600.0
        assert graph.MAX_POOL == 200_000
        assert (projection.EPS_DYK, projection.DYK_MAX_CYCLES) == (1e-2, 100)
        assert admm.resolved(20).min_ineq == 5.0
        intp = cfg.intp
        assert (intp.beta0, intp.beta_incr) == (0.05, 1.0001)
        assert (intp.beta_decr, intadmm.BETA_MIN) == (0.85, 0.001)  # the paper halves
        assert intadmm.EPS_INT == 1e-3 and intadmm.MAX_TRIES_WITHOUT_IMPR == 3
        assert (intp.max_iterations, intadmm.MIN_ITERS_AFTER_RESET) == (60000, 10)

    def test_settable_keys_and_generated_flags(self):
        # a new setting is a deliberate edit of these lists
        assert list(cli._SETTINGS) == [
            "k", "out", "time_limit", "expensive_tests", "stable_timing",
            "per_k_time_limit",
            "eps_admm", "max_inner_iter", "min_viol", "min_ineq", "min_impr",
            "seed", "families", "max_outer",
            "beta0", "beta_incr", "beta_decr", "max_iterations",
        ]
        groups = build_parser()._action_groups
        # only the positionals and --config are written by hand
        assert [a.dest for g in groups[:2] for a in g._group_actions] == [
            "mode", "instance", "help", "config"]
        generated = [a.option_strings[0] for g in groups[2:] for a in g._group_actions]
        assert generated == [
            "--k", "--out", "--time-limit", "--expensive-tests", "--stable-timing",
            "--per-k-time-limit",
            "--eps-admm", "--max-inner-iter", "--min-viol", "--min-ineq",
            "--min-impr", "--seed", "--families", "--max-outer",
            "--beta0", "--beta-incr", "--beta-decr", "--max-iterations",
        ]
        assert [g.title for g in groups[2:]] == [
            "run settings", "solver parameters", "integer solver parameters"]

    def test_flag_overrides_file_overrides_default(self, tmp_path, c5_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"seed": 7, "min_viol": 0.5}))
        parser = build_parser()
        args = parser.parse_args(
            ["bound", str(c5_file), "--k", "2", "--config", str(cfgfile),
             "--min-viol", "0.25"]
        )
        cfg = resolve_config(args)
        assert cfg.admm.seed == 7             # from file
        assert cfg.admm.min_viol == 0.25      # flag wins
        assert cfg.admm.min_impr == 0.025     # default preserved

    @pytest.mark.parametrize("table, f", SETTINGS, ids=[f.name for _, f in SETTINGS])
    def test_flag_and_config_key_set_the_same_value(self, table, f, tmp_path,
                                                     c5_file):
        value, held = sample_value(f)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({f.name: value}))
        parser = build_parser()
        flag = "--" + f.name.replace("_", "-")
        flag_args = [flag] if f.type == "bool" else [flag, str(value)]
        by_flag = resolve_config(
            parser.parse_args(["bound", str(c5_file), *flag_args])
        )
        by_file = resolve_config(
            parser.parse_args(["bound", str(c5_file), "--config", str(cfgfile)])
        )
        for cfg in (by_flag, by_file):
            got = getattr(cfg if table is None else getattr(cfg, table), f.name)
            assert got == held and type(got) is type(held)
        if f.type == "bool":
            # --no-x overrides the file's true
            cfg = resolve_config(parser.parse_args(
                ["bound", str(c5_file), "--config", str(cfgfile), "--no-" + flag[2:]]))
            assert getattr(cfg, f.name) is False

    def test_int_config_value_accepted_for_a_float(self, tmp_path, c5_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"min_viol": 2, "families": ["t1"]}))
        args = build_parser().parse_args(
            ["bound", str(c5_file), "--config", str(cfgfile)]
        )
        cfg = resolve_config(args)
        assert cfg.admm.min_viol == 2
        assert cfg.admm.families == (CutFamily.T1,)

    def test_families_by_name(self, c5_file):
        args = build_parser().parse_args(
            ["bound", str(c5_file), "--families", "hole5,T1"]
        )
        families = resolve_config(args).admm.families
        assert families == (CutFamily.HOLE5, CutFamily.T1)


class TestRunModes:
    def test_run_bound_report_fields(self, c5_file):
        cfg = RunConfig(instance=str(c5_file), stable_timing=True)
        report, res = run_bound(cfg, cycle_graph(5), 2, math.inf)
        assert report["schema"] == 1
        assert report["n"] == 5 and report["k"] == 2
        assert report["ub"] >= report["lb_hint"]
        assert report["time_ub"] == 0.0
        assert report["cuts"]["total"] == len(res.cuts)

    def test_run_solve_adds_lower_bound(self, c5_file):
        cfg = RunConfig(instance=str(c5_file), stable_timing=True)
        report, _, int_res = run_solve(cfg, cycle_graph(5), 2, math.inf)
        assert report["mode"] == "solve"
        assert report["lb"] == 4
        assert report["lb"] <= int(report["ub"] + 1e-9)
        assert report["gap"] == pytest.approx(report["ub"] - report["lb"])
        assert report["optimal"] == (int(report["ub"] + 1e-9) == report["lb"])
        assert int_res.coloring.check(cycle_graph(5), 2)

    def test_solve_k5_optimal(self, k5_file):
        cfg = RunConfig(instance=str(k5_file))
        report, _, _ = run_solve(cfg, complete_graph(5), 2, math.inf)
        assert report["lb"] == 2
        assert report["optimal"] is True

    @pytest.mark.parametrize("flags", [
        ["--time-limit", "0"],
        ["--seed", "14", "--max-iterations", "2000"],
    ], ids=["no-time", "sweep-cap"])
    def test_solve_reports_at_least_the_greedy_colouring(self, tmp_path, flags):
        # acceptance criterion 5's case 14, where the integer stage ends
        # without a convergence event: at once, or at a 2,000-sweep cap
        # (its first event comes at sweep 4,373)
        g = random_graph(12, 0.7, 2014)
        path = tmp_path / "g.col"
        path.write_text(write_dimacs(g))
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "--k", "3", *flags, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert not report["feasible_found"]
        assert report["lb_source"] == "greedy"
        assert report["lb"] == report["lb_hint"] > 0
        assert report["gap"] == pytest.approx(report["ub"] - report["lb"])
        # the benchmark's own correctness gate
        spec = importlib.util.spec_from_file_location(
            "benchmark_gate", ROOT / "perfbench" / "gate.py")
        gate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gate)
        assert gate.check_report(report, SimpleNamespace(mode="solve", k=3), g) == []

    def test_chromatic_k5_exact(self, k5_file):
        report = run_chromatic(RunConfig(instance=str(k5_file)), complete_graph(5),
                               math.inf)
        assert report["chi_lower_bound"] == 5
        assert report["k"] is None
        ks = [s["k"] for s in report["steps"]]
        assert ks[0] == 1 and ks == sorted(ks)

    def test_chromatic_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.col"
        path.write_text("p edge 6 0\n")
        assert main(["chromatic", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["chi_lower_bound"] == 1
        assert len(report["steps"]) == 1

    def test_chromatic_petersen(self):
        from bench_instances import petersen
        from mkcs.cli import chromatic_search
        from mkcs.oracle import chi_exact

        g = petersen()
        value, _ = chromatic_search(g)
        assert value <= chi_exact(g) == 3
        assert value == 3

    def test_bound_k5_value(self, k5_file):
        cfg = RunConfig(instance=str(k5_file))
        report, _ = run_bound(cfg, complete_graph(5), 2, math.inf)
        assert 1.95 <= report["ub"] <= 2.1

    def test_oracle_alpha(self, k5_file, capsys):
        assert main(["oracle", str(k5_file), "--k", "2"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["alpha_k"] == 2

    def test_oracle_chi(self, c5_file, capsys):
        assert main(["oracle", str(c5_file)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["chi"] == 3

    def test_oracle_guard_maps_to_invalid_args(self, tmp_path):
        path = tmp_path / "big.col"
        path.write_text(write_dimacs(random_graph(20, 0.3, 0)))
        assert main(["oracle", str(path), "--k", "2"]) == EXIT_INVALID_ARGS


class TestOutputs:
    def test_out_files_written(self, c5_file, tmp_path):
        out = tmp_path / "r" / "c5.json"
        code = main(
            ["solve", str(c5_file), "--k", "2", "--out", str(out),
             "--stable-timing"]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert (tmp_path / "r" / "c5.trace.jsonl").exists()
        assert (tmp_path / "r" / "c5.cuts.jsonl").exists()
        assert (tmp_path / "r" / "c5.int_trace.jsonl").exists()

    def test_k_list_produces_runs_and_csv(self, c5_file, tmp_path, capsys):
        out = tmp_path / "multi.json"
        code = main(["bound", str(c5_file), "--k", "1,2", "--out", str(out),
                     "--stable-timing"])
        assert code == EXIT_OK
        wrapper = json.loads(out.read_text())
        assert [r["k"] for r in wrapper["runs"]] == [1, 2]
        csv_lines = (tmp_path / "multi.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 3  # header + one row per k
        assert (tmp_path / "multi.k1.trace.jsonl").exists()
        assert (tmp_path / "multi.k2.trace.jsonl").exists()

    def test_malformed_k_rejected(self, c5_file):
        assert main(["bound", str(c5_file), "--k", "2,x"]) == EXIT_INVALID_ARGS

    def test_repeated_k_rejected(self, c5_file, tmp_path, capsys):
        out = tmp_path / "dup.json"
        assert main(["bound", str(c5_file), "--k", "1,3,3",
                     "--out", str(out)]) == EXIT_INVALID_ARGS
        assert "k value 3 repeated" in capsys.readouterr().err
        cfg = tmp_path / "dup_cfg.json"
        cfg.write_text(json.dumps({"k": [2, 1, 2]}))
        assert main(["bound", str(c5_file), "--config", str(cfg),
                     "--out", str(out)]) == EXIT_INVALID_ARGS
        assert "k value 2 repeated" in capsys.readouterr().err
        assert not list(tmp_path.glob("dup*.csv"))

    def test_byte_identical_reruns(self, c5_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name / "c5.json"
            main(["solve", str(c5_file), "--k", "2", "--seed", "3",
                  "--out", str(out), "--stable-timing"])
            blob = b"".join(
                (out.parent / f).read_bytes()
                for f in sorted(p.name for p in out.parent.iterdir())
            )
            outs.append(blob)
        assert outs[0] == outs[1]


class TestRunReport:
    def _fake_report(self, graph="g", k=2, ub=4.5, lb=4):
        return {
            "graph": graph, "n": 5, "density": 0.5, "k": k, "ub": ub,
            "lb": lb, "time_ub": 0.1, "time_lb": 0.2, "inner_iters": 10,
            "outer_iters": 2, "cuts": {"total": 3},
        }

    def test_single_row(self):
        lines = run_report([self._fake_report()]).strip().split("\n")
        assert len(lines) == 2
        assert lines[0].count(",") == 10  # 11 columns
        assert report_rows([self._fake_report()])[0]["cuts"] == 3

    def test_empty_gives_header_only(self):
        assert run_report([]).strip().split("\n") == [
            "graph,n,density,k,ub,lb,time_ub,time_lb,inner_iters,outer_iters,cuts"
        ]

    def test_same_instance_two_rows(self):
        reports = [self._fake_report(k=2), self._fake_report(k=3)]
        rows = run_report(reports).strip().split("\n")[1:]
        assert len(rows) == 2
        assert rows[0].split(",")[0] == rows[1].split(",")[0] == "g"

    def test_byte_stable(self):
        reports = [self._fake_report()]
        assert run_report(reports) == run_report(reports)

    def test_oracle_report_fills_both_bounds_with_alpha_k(self, k5_file, capsys):
        assert main(["oracle", str(k5_file), "--k", "2", "--stable-timing"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        row = report_rows([report])[0]
        assert row["ub"] == row["lb"] == report["alpha_k"] == 2
        assert run_report([report]).split("\n")[1].split(",")[4:6] == ["2", "2"]

    def test_bound_report_uses_lb_hint(self, c5_file):
        cfg = RunConfig(instance=str(c5_file), stable_timing=True)
        report, _ = run_bound(cfg, cycle_graph(5), 2, math.inf)
        rows = report_rows([report])
        assert rows[0]["lb"] == report["lb_hint"]


def test_readme_cli_section_names_every_setting():
    # the README lists the keys by hand; the flags are generated
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    assert [key for key in cli._SETTINGS if f"`{key}`" not in section] == []


def test_importing_the_cli_loads_no_scipy():
    # no mode imports scipy: the integer stage's low-rank PSD step loads
    # its LAPACK extension module alone, on first use
    src = Path(mkcs.__file__).resolve().parents[1]
    code = (
        "import sys, mkcs.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_solve_loads_lapack_without_scipy_linalg(tmp_path):
    # the low-rank PSD step needs LAPACK, not all of scipy.linalg; within
    # 100 sweeps the rank of myciel5 at k = 4 falls below its threshold.
    # The greedy colouring draws from the standard library, so neither
    # numpy.random nor, through its import of secrets, OpenSSL is loaded
    instance = tmp_path / "myciel5.col"
    instance.write_text(write_dimacs(myciel5()))
    src = Path(mkcs.__file__).resolve().parents[1]
    code = (
        "import sys, mkcs.cli; "
        f"code = mkcs.cli.main(['solve', {str(instance)!r}, '--k', '4', "
        "'--max-iterations', '100', "
        f"'--out', {str(tmp_path / 'report.json')!r}]); "
        "print(code, [m in sys.modules for m in ('scipy.linalg._flapack', "
        "'scipy.linalg', 'scipy._lib._array_api', 'numpy.random', '_hashlib')])"
    )
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip().splitlines()[-1] == "0 [True, False, False, False, False]"


def test_bound_loads_no_lp_stack(tmp_path):
    # the cut multipliers come from the projection, so a bound run with
    # cuts (myciel5 at k = 4 accepts 52) never imports the LP solver; nor
    # does its greedy colouring import numpy.random or OpenSSL
    instance = tmp_path / "myciel5.col"
    instance.write_text(write_dimacs(myciel5()))
    src = Path(mkcs.__file__).resolve().parents[1]
    code = (
        "import sys, mkcs.cli; "
        f"code = mkcs.cli.main(['bound', {str(instance)!r}, '--k', '4', "
        f"'--out', {str(tmp_path / 'report.json')!r}]); "
        "print(code, sorted(m for m in ('scipy.optimize', 'scipy.sparse', "
        "'numpy.random', '_hashlib') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip().splitlines()[-1] == "0 []"
    assert json.loads((tmp_path / "report.json").read_text())["cuts"]["total"] > 0
