import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mkcs
from bench_instances import complete_graph, cycle_graph, myciel5
from mkcs.cli import (
    EXIT_INVALID_ARGS,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    RunConfig,
    build_parser,
    chromatic_lower_bound,
    main,
    report_rows,
    resolve_config,
    run_bound,
    run_report,
    run_solve,
)
from mkcs.cpadmm import AdmmParams
from mkcs.cuts import CutFamily
from mkcs.graph import write_dimacs
from mkcs.intadmm import IntAdmmParams

# every parameter-table field with a generated flag, as (table, field)
SOLVER_SETTINGS = [
    (table, f)
    for table, cls in (("admm", AdmmParams), ("intp", IntAdmmParams))
    for f in dataclasses.fields(cls)
    if f.name not in ("seed", "families")
]
# values that pass the tables' checks where default + 1 would not
SETTING_SAMPLES = {"gamma": 1.5, "beta_decr": 0.25}


def sample_value(f):
    """A valid value of the field's type that differs from its default."""
    if f.name in SETTING_SAMPLES:
        return SETTING_SAMPLES[f.name]
    if f.default is None:
        return 7 if f.type.startswith("int") else 2.5
    return f.default + 1


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

    @pytest.mark.parametrize("config, key", [
        ({"max_inner_iter": "50"}, "max_inner_iter"),
        ({"families": [1]}, "families"),
        ({"beta": True}, "beta"),
        ({"max_iterations": 2.5}, "max_iterations"),
        ({"time_limit": "5"}, "time_limit"),
        ({"stable_timing": "no"}, "stable_timing"),
        ({"k": [2.7]}, "k"),
        ({"k": True}, "k"),
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
        ({"dyk_max_cycles": 0}, "dyk_max_cycles"),
        ({"eps_dyk": -1}, "eps_dyk"),
        ({"max_inner_iter": 0}, "max_inner_iter"),
        ({"max_inner_iter_final": 0}, "max_inner_iter_final"),
        ({"beta": -1}, "beta"),
        ({"max_outer": 0}, "max_outer"),
        ({"max_cuts_per_var": 0}, "max_cuts_per_var"),
        ({"eps_admm": -1}, "eps_admm"),
        ({"eps_admm_final": 0}, "eps_admm_final"),
        ({"time_limit_global": -5}, "time_limit_global"),
        ({"time_limit": -5}, "time_limit"),
        ({"per_k_time_limit": -1}, "per_k_time_limit"),
    ])
    def test_out_of_range_solver_setting_invalid_args(self, c5_file, tmp_path,
                                                      capsys, config, key):
        # each of these ran a degenerate solve and exited 0
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        assert (
            main(["bound", str(c5_file), "--k", "2", "--config", str(cfgfile)])
            == EXIT_INVALID_ARGS
        )
        assert f"{key} must" in capsys.readouterr().err


class TestConfigResolution:
    def test_defaults_match_parameter_tables(self):
        cfg = RunConfig()
        admm = cfg.admm
        assert (admm.beta, admm.gamma) == (1.2, 1.617)
        assert (admm.eps_admm, admm.eps_admm_final) == (1e-4, 1e-5)
        assert (admm.max_inner_iter, admm.max_inner_iter_final) == (2000, 10000)
        assert admm.min_viol == 1e-2 and admm.max_cuts_per_var == 5
        assert (admm.min_impr, admm.min_impr_phase1) == (0.025, 0.25)
        assert admm.time_limit_global == 3600.0
        assert admm.time_limit_cliques == 10.0 and admm.time_limit_holes == 10.0
        assert admm.max_cliques == admm.max_clique_pairs == admm.max_holes == 100000
        assert admm.eps_dyk == 1e-2
        resolved = admm.resolved(20)
        assert resolved.min_ineq == 5.0
        assert resolved.min_ineq_phase1 == 20.0
        assert resolved.max_ineq == 100
        intp = cfg.intp
        assert (intp.beta0, intp.beta_incr) == (0.05, 1.0001)
        assert (intp.beta_decr, intp.beta_min) == (0.5, 0.001)
        assert intp.eps_int == 1e-3 and intp.max_tries_without_impr == 3

    def test_flag_overrides_file_overrides_default(self, tmp_path, c5_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"seed": 7, "beta": 2.0}))
        parser = build_parser()
        args = parser.parse_args(
            ["bound", str(c5_file), "--k", "2", "--config", str(cfgfile),
             "--beta", "1.5"]
        )
        cfg = resolve_config(args)
        assert cfg.admm.seed == 7        # from file
        assert cfg.admm.beta == 1.5      # flag wins
        assert cfg.admm.gamma == 1.617   # default preserved

    @pytest.mark.parametrize(
        "table, f", SOLVER_SETTINGS, ids=[f.name for _, f in SOLVER_SETTINGS]
    )
    def test_flag_and_config_key_set_the_same_value(self, table, f, tmp_path,
                                                     c5_file):
        value = sample_value(f)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({f.name: value}))
        parser = build_parser()
        flag = "--" + f.name.replace("_", "-")
        by_flag = resolve_config(
            parser.parse_args(["bound", str(c5_file), flag, str(value)])
        )
        by_file = resolve_config(
            parser.parse_args(["bound", str(c5_file), "--config", str(cfgfile)])
        )
        for cfg in (by_flag, by_file):
            got = getattr(getattr(cfg, table), f.name)
            assert got == value and type(got) is type(value)

    def test_int_config_value_accepted_for_a_float(self, tmp_path, c5_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"beta": 2, "families": ["t1"]}))
        args = build_parser().parse_args(
            ["bound", str(c5_file), "--config", str(cfgfile)]
        )
        cfg = resolve_config(args)
        assert cfg.admm.beta == 2
        assert cfg.admm.families == (CutFamily.T1,)

    def test_families_by_name(self, c5_file):
        args = build_parser().parse_args(
            ["bound", str(c5_file), "--families", "hole5,T1"]
        )
        families = resolve_config(args).admm_params().families
        assert families == (CutFamily.HOLE5, CutFamily.T1)


class TestRunModes:
    def test_run_bound_report_fields(self, c5_file):
        cfg = RunConfig(instance=str(c5_file), k=2, stable_timing=True)
        report, res = run_bound(cfg)
        assert report["schema"] == 1
        assert report["n"] == 5 and report["k"] == 2
        assert report["ub"] >= report["lb_hint"]
        assert report["time_ub"] == 0.0
        assert report["cuts"]["total"] == len(res.cuts)

    def test_run_solve_adds_lower_bound(self, c5_file):
        cfg = RunConfig(instance=str(c5_file), k=2, stable_timing=True)
        report, _, int_res = run_solve(cfg)
        assert report["mode"] == "solve"
        assert report["lb"] == 4
        assert report["lb"] <= int(report["ub"] + 1e-9)
        assert report["gap"] == pytest.approx(report["ub"] - report["lb"])
        assert report["optimal"] == (int(report["ub"] + 1e-9) == report["lb"])
        assert int_res.coloring.check(cycle_graph(5), 2)

    def test_solve_k5_optimal(self, k5_file):
        cfg = RunConfig(instance=str(k5_file), k=2)
        report, _, _ = run_solve(cfg)
        assert report["lb"] == 2
        assert report["optimal"] is True

    def test_chromatic_k5_exact(self, k5_file):
        cfg = RunConfig(instance=str(k5_file))
        value, report = chromatic_lower_bound(cfg)
        assert value == 5
        assert report["chi_lower_bound"] == 5
        ks = [s["k"] for s in report["steps"]]
        assert ks[0] == 1 and ks == sorted(ks)

    def test_chromatic_empty_graph(self, tmp_path):
        path = tmp_path / "empty.col"
        path.write_text("p edge 6 0\n")
        value, report = chromatic_lower_bound(RunConfig(instance=str(path)))
        assert value == 1
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
        cfg = RunConfig(instance=str(k5_file), k=2)
        report, _ = run_bound(cfg)
        assert 1.95 <= report["ub"] <= 2.1

    def test_oracle_alpha(self, k5_file, capsys):
        assert main(["oracle", str(k5_file), "--k", "2"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["alpha_k"] == 2

    def test_oracle_chi(self, c5_file, capsys):
        assert main(["oracle", str(c5_file)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["chi"] == 3

    def test_oracle_guard_maps_to_invalid_args(self, tmp_path):
        from mkcs.graph import random_graph

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
        csv_text, json_text = run_report([self._fake_report()])
        lines = csv_text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].count(",") == 10  # 11 columns
        assert json.loads(json_text)[0]["cuts"] == 3

    def test_empty_gives_header_only(self):
        csv_text, _ = run_report([])
        assert csv_text.strip().split("\n") == [
            "graph,n,density,k,ub,lb,time_ub,time_lb,inner_iters,outer_iters,cuts"
        ]

    def test_same_instance_two_rows(self):
        reports = [self._fake_report(k=2), self._fake_report(k=3)]
        csv_text, _ = run_report(reports)
        rows = csv_text.strip().split("\n")[1:]
        assert len(rows) == 2
        assert rows[0].split(",")[0] == rows[1].split(",")[0] == "g"

    def test_byte_stable(self):
        reports = [self._fake_report()]
        assert run_report(reports) == run_report(reports)

    def test_bound_report_uses_lb_hint(self, c5_file):
        cfg = RunConfig(instance=str(c5_file), k=2, stable_timing=True)
        report, _ = run_bound(cfg)
        rows = report_rows([report])
        assert rows[0]["lb"] == report["lb_hint"]


def test_importing_the_cli_loads_no_scipy():
    # scipy costs about 0.3 s of start-up; only the integer stage's
    # low-rank PSD step loads it, on first use
    src = Path(mkcs.__file__).resolve().parents[1]
    code = (
        "import sys, mkcs.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_bound_loads_no_lp_stack(tmp_path):
    # the cut multipliers come from the projection, so a bound run with
    # cuts (myciel5 at k = 4 accepts 52) never imports the LP solver
    instance = tmp_path / "myciel5.col"
    instance.write_text(write_dimacs(myciel5()))
    src = Path(mkcs.__file__).resolve().parents[1]
    code = (
        "import sys, mkcs.cli; "
        f"code = mkcs.cli.main(['bound', {str(instance)!r}, '--k', '4', "
        f"'--out', {str(tmp_path / 'report.json')!r}]); "
        "print(code, sorted(m for m in ('scipy.optimize', 'scipy.sparse') "
        "if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip().splitlines()[-1] == "0 []"
    assert json.loads((tmp_path / "report.json").read_text())["cuts"]["total"] > 0
