import hashlib
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import groundhold as gh
from groundhold.cli import main
from mpsread import parse_mps


@pytest.fixture()
def bundle(tmp_path):
    path = tmp_path / "inst"
    code = main(["gen", "--flights", "5", "--horizon", "6", "--seed", "42",
                 "--out", str(path)])
    assert code == 0
    return path


def _read_json(path):
    return json.loads(path.read_text())


class TestGen:
    def test_bundle_passes_validation(self, bundle):
        inst = gh.load_instance(bundle)
        assert gh.validate_schedule(inst.schedule) == []
        assert inst.capacities

    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert main(["gen", "--seed", "9", "--out", str(tmp_path / name)]) == 0
        for fname in ("schedule.csv", "connections.csv", "capacity.csv", "params.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_invalid_param_exits_2(self, tmp_path, capsys):
        code = main(["gen", "--flights", "0", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err


@pytest.fixture()
def worked_bundle(tmp_path):
    """The hand-checked single-flight instance as an on-disk bundle."""
    sched = gh.FlightSchedule(gh.TimeHorizon(2), (gh.Flight("f1", "A", 1, 1.0),), (), 2.0)
    history = {"A": [gh.CapacityHistoryRecord("0", "A", 1)]}
    path = tmp_path / "worked"
    gh.write_instance(path, sched, history)
    return path


class TestSolve:
    def test_dr_worked_instance(self, worked_bundle, tmp_path):
        out = tmp_path / "res.json"
        code = main(["solve", str(worked_bundle), "--model", "dr", "--epsilon", "0.4",
                     "--support", "0:1", "--out", str(out)])
        assert code == 0
        doc = _read_json(out)
        assert doc["schema"] == "ghp-solve/1"
        assert doc["status"] == "optimal"
        assert doc["objective"] == pytest.approx(1.6)
        assert doc["policy"]["assignments"] == {"f1": 1}
        assert doc["alpha"] == pytest.approx(4.0)
        assert doc["beta"] == {"1": pytest.approx(0.0)}
        assert doc["stats"]["nodes"] >= 1

    def test_sp_worked_instance(self, worked_bundle, tmp_path):
        out = tmp_path / "res.json"
        code = main(["solve", str(worked_bundle), "--model", "sp", "--out", str(out)])
        assert code == 0
        assert _read_json(out)["objective"] == pytest.approx(0.0)

    def test_dr_without_epsilon_is_usage_error(self, worked_bundle, capsys):
        assert main(["solve", str(worked_bundle), "--model", "dr"]) == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_infeasible_exits_1(self, tmp_path):
        sched = gh.FlightSchedule(
            gh.TimeHorizon(1),
            (gh.Flight("f1", "A", 1, 1.0), gh.Flight("f2", "A", 1, 1.0)), (), 2.0)
        history = {"A": [gh.CapacityHistoryRecord("0", "A", 1)]}
        path = tmp_path / "tight"
        gh.write_instance(path, sched, history)
        out = tmp_path / "res.json"
        code = main(["solve", str(path), "--model", "det", "--capacity", "1",
                     "--out", str(out)])
        assert code == 1
        assert _read_json(out)["status"] == "infeasible"

    def test_node_limit_exits_3(self, tmp_path):
        # a bundle whose dr solve still branches (25 nodes) on the by-time
        # connection rows
        code = main(["gen", "--flights", "16", "--horizon", "12",
                     "--seed", "4", "--out", str(tmp_path / "inst")])
        assert code == 0
        out = tmp_path / "res.json"
        full = main(["solve", str(tmp_path / "inst"), "--model", "dr",
                     "--epsilon", "0.5", "--out", str(out)])
        assert full == 0
        assert _read_json(out)["stats"]["nodes"] > 1
        limited = main(["solve", str(tmp_path / "inst"), "--model", "dr",
                        "--epsilon", "0.5", "--node-limit", "1", "--out", str(out)])
        assert limited == 3
        assert _read_json(out)["status"] == "node-limit"

    def test_missing_bundle_exits_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "ghost"), "--model", "sp"]) == 2

    def test_dr_maghp_on_two_airports(self, tmp_path):
        code = main(["gen", "--flights", "4", "--airports", "2", "--seed", "3",
                     "--out", str(tmp_path / "net")])
        assert code == 0
        out = tmp_path / "res.json"
        code = main(["solve", str(tmp_path / "net"), "--model", "dr-maghp",
                     "--epsilon", "0.5", "--out", str(out)])
        assert code == 0
        doc = _read_json(out)
        assert set(doc["alpha"]) == {"AP0", "AP1"}
        assert set(doc["beta"]) == {"AP0", "AP1"}

    def test_beta_keys_are_capacity_strings(self, tmp_path):
        # two-digit capacities: the keys sort as text, so "10" < "8"
        bundle = tmp_path / "wide"
        assert main(["gen", "--flights", "6", "--cap-min", "8", "--cap-max", "12",
                     "--support-size", "5", "--seed", "5", "--out", str(bundle)]) == 0
        out = tmp_path / "res.json"
        assert main(["solve", str(bundle), "--model", "dr", "--epsilon", "0.5",
                     "--out", str(out)]) == 0
        support = gh.load_instance(bundle).capacities["AP0"].support_points
        keys = list(_read_json(out)["beta"])
        assert keys == sorted(str(xi) for xi in support)
        assert any(k.startswith("1") for k in keys) and any(len(k) == 1 for k in keys)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda p: {k: v for k, v in p.items() if k != "num_slots"},
                     "params.json: missing 'num_slots'", id="no-num-slots"),
        pytest.param(lambda p: {**p, "num_slots": None},
                     "params.json: num_slots None is not a number", id="null-num-slots"),
        pytest.param(lambda p: {**p, "airborne_cost": None},
                     "params.json: airborne_cost None is not a number", id="null-airborne-cost"),
        pytest.param(lambda p: {**p, "airborne_cost": math.nan},
                     "[non-finite-airborne-cost]", id="nan-airborne-cost"),
        pytest.param(lambda p: [p], "params.json: expected a JSON object, got list", id="list"),
        pytest.param(lambda p: {**p, "num_slots": 8.9},
                     "params.json: num_slots 8.9 is not a whole number", id="fractional-num-slots"),
    ])
    def test_malformed_params_exits_2(self, bundle, capsys, edit, message):
        params = bundle / "params.json"
        params.write_text(json.dumps(edit(_read_json(params))))
        assert main(["solve", str(bundle), "--model", "sp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_usage_error_from_argparse(self):
        assert main(["solve"]) == 2            # missing instance and model
        assert main(["no-such-command"]) == 2


class TestSweep:
    def test_jobs_do_not_change_bytes(self, bundle, tmp_path):
        args = ["sweep", str(bundle), "--omega", "0,0.5,1", "--sizes", "10,20",
                "--seed", "7"]
        assert main(args + ["--jobs", "1", "--out", str(tmp_path / "s1")]) == 0
        assert main(args + ["--jobs", "4", "--out", str(tmp_path / "s4")]) == 0
        files1 = sorted(p.name for p in (tmp_path / "s1").iterdir())
        files4 = sorted(p.name for p in (tmp_path / "s4").iterdir())
        assert files1 == files4
        for name in files1:
            assert (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s4" / name).read_bytes()

    def test_table_shape_and_samples(self, bundle, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(bundle), "--omega", "0,1", "--sizes", "5",
                     "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "table.csv").read_text().splitlines()
        assert lines[0] == "# schema: ghp-sweep/1"
        assert len(lines) == 2 + (2 + 2) * 1   # header rows + (det, sp, dr x2) x 1 size
        sample_files = sorted(p.name for p in out.iterdir() if p.name.startswith("samples_"))
        assert sample_files == [
            "samples_det_5.csv", "samples_dr_eps0.0_5.csv",
            "samples_dr_eps1.0_5.csv", "samples_sp_5.csv"]
        body = (out / "samples_sp_5.csv").read_text().splitlines()
        assert body[0] == "cost" and len(body) == 6

    def test_default_omega_accepted(self, bundle, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(bundle), "--sizes", "5", "--seed", "1",
                     "--out", str(out)]) == 0
        rows = (out / "table.csv").read_text().splitlines()[2:]
        dr_eps = [r.split(",")[1] for r in rows if r.startswith("dr,")]
        assert dr_eps == [repr(e) for e in gh.DEFAULT_OMEGA]

    def test_eval_distribution_from_file(self, bundle, tmp_path):
        shifted = tmp_path / "shifted.csv"
        shifted.write_text("slot,airport,throughput\n0,AP0,0\n1,AP0,1\n")
        out = tmp_path / "sweep"
        assert main(["sweep", str(bundle), "--omega", "0", "--sizes", "4",
                     "--eval", str(shifted), "--seed", "2", "--out", str(out)]) == 0

    def test_requires_out(self, bundle):
        assert main(["sweep", str(bundle), "--omega", "0", "--sizes", "4"]) == 2

    @pytest.mark.parametrize("sizes", ["5,0", "0", "5,-3"])
    def test_bad_sample_size_exits_2_before_any_solve(self, bundle, tmp_path, capsys, monkeypatch, sizes):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_milp was called")

        monkeypatch.setattr(gh.evaluate, "solve_milp", no_solve)
        assert main(["sweep", str(bundle), "--sizes", sizes, "--out", str(tmp_path / "sweep")]) == 2
        assert capsys.readouterr().err == "error: sample size must be >= 1\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--node-limit", "0", "node_limit must be >= 1"),
        ("--jobs", "0", "jobs must be >= 1"),
        ("--jobs", "-1", "jobs must be >= 1"),
    ])
    def test_bad_flag_exits_2_before_any_solve(self, bundle, tmp_path, capsys, monkeypatch, flag, value, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_milp was called")

        monkeypatch.setattr(gh.evaluate, "solve_milp", no_solve)
        assert main(["sweep", str(bundle), "--sizes", "4", flag, value, "--out", str(tmp_path / "sweep")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sweep").exists()

    def test_solves_run_on_the_calling_thread(self, bundle, tmp_path, monkeypatch):
        # --jobs is accepted and ignored: det, sp and each radius solve on
        # the main thread
        threads = []
        solve_milp = gh.evaluate.solve_milp

        def spy(*args, **kwargs):
            threads.append(threading.get_ident())
            return solve_milp(*args, **kwargs)

        monkeypatch.setattr(gh.evaluate, "solve_milp", spy)
        assert main(["sweep", str(bundle), "--omega", "0,0.5,1", "--sizes", "4",
                     "--jobs", "4", "--out", str(tmp_path / "sweep")]) == 0
        assert threads == [threading.main_thread().ident] * 5

    # sha256 over the sorted file names and bytes of the output directory,
    # recorded before sweeps scored each distinct policy and capacity once
    GOLDEN = "685f104286d15f7e50dbad51f8fdec2bbcb4767e58f8651f84b834d007ed9fd0"

    @staticmethod
    def _tree_digest(path):
        h = hashlib.sha256()
        for p in sorted(path.iterdir()):
            h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
        return h.hexdigest()

    def test_golden_bytes_at_any_jobs(self, tmp_path):
        inst = tmp_path / "inst"
        assert main(["gen", "--flights", "8", "--horizon", "8", "--seed", "2",
                     "--out", str(inst)]) == 0
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", str(inst), "--sizes", "50,300", "--seed", "3",
                         "--jobs", jobs, "--out", str(out)]) == 0
            assert self._tree_digest(out) == self.GOLDEN

        rows = [line.split(",") for line in (out / "table.csv").read_text().splitlines()[2:]]
        by_policy = {}
        for model, eps, size, _, mean, std, policy in rows:
            label = model if not eps else f"{model}_eps{eps}"
            body = (out / f"samples_{label}_{size}.csv").read_bytes()
            by_policy.setdefault((policy, size), set()).add((mean, std, body))
        assert len(by_policy) < len(rows)  # some radii share a policy
        assert all(len(scored) == 1 for scored in by_policy.values())


class TestEvaluate:
    def test_reevaluates_saved_policy(self, worked_bundle, tmp_path, capsys):
        res = tmp_path / "res.json"
        assert main(["solve", str(worked_bundle), "--model", "dr", "--epsilon", "1.0",
                     "--support", "0:1", "--out", str(res)]) == 0
        out = tmp_path / "eval.csv"
        assert main(["evaluate", str(worked_bundle), "--result", str(res),
                     "--sizes", "8,16", "--seed", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema: ghp-eval/1"
        assert len(lines) == 4

    def test_policy_missing_a_flight_exits_2(self, worked_bundle, tmp_path, capsys):
        result = tmp_path / "res.json"
        result.write_text(json.dumps({"policy": {"assignments": {"other": 1}}}))
        assert main(["evaluate", str(worked_bundle), "--result", str(result)]) == 2
        assert "missing flight 'f1'" in capsys.readouterr().err

    def test_result_without_policy_rejected(self, worked_bundle, tmp_path):
        res = tmp_path / "res.json"
        res.write_text('{"schema": "ghp-solve/1", "policy": null}')
        assert main(["evaluate", str(worked_bundle), "--result", str(res)]) == 2

    @pytest.mark.parametrize("doc", [
        [{"policy": {"assignments": {"f1": 1}}}],
        {"policy": [{"f1": 1}]},
        {"policy": {"ground_delays": {"f1": 0}}},
        {"policy": {"assignments": None}},
        {"policy": {"assignments": {"f1": None}}},
    ])
    def test_malformed_result_document_exits_2(self, worked_bundle, tmp_path, capsys, doc):
        res = tmp_path / "res.json"
        res.write_text(json.dumps(doc))
        assert main(["evaluate", str(worked_bundle), "--result", str(res)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: result document ") and err.count("\n") == 1

    @pytest.mark.parametrize("slot, problem", [
        (1.5, "1.5 is not a whole number"),   # int() would read slot 1
        (True, "True is not a whole number"),  # int() would read slot 1
        ("2.0", "'2.0' is not a number"),
    ])
    def test_non_integer_slot_exits_2(self, worked_bundle, tmp_path, capsys, slot, problem):
        res = tmp_path / "res.json"
        res.write_text(json.dumps({"policy": {"assignments": {"f1": slot}}}))
        assert main(["evaluate", str(worked_bundle), "--result", str(res), "--out", str(tmp_path / "e.csv")]) == 2
        assert capsys.readouterr().err == f"error: result document {res}: slot of flight 'f1' {problem}\n"
        assert not (tmp_path / "e.csv").exists()

    # sha256 of the output, recorded before the draw and the scoring moved
    # to numpy arrays
    GOLDEN = "66a510c19871ab3d0e89a90aeb1db94160c4c1d84d63507869834f44e118f017"

    def test_golden_bytes(self, tmp_path):
        inst, res, out = tmp_path / "inst", tmp_path / "res.json", tmp_path / "eval.csv"
        assert main(["gen", "--flights", "8", "--horizon", "8", "--seed", "2", "--out", str(inst)]) == 0
        assert main(["solve", str(inst), "--model", "dr", "--epsilon", "0.5", "--out", str(res)]) == 0
        assert main(["evaluate", str(inst), "--result", str(res), "--sizes", "50,20000", "--seed", "3",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN

    def test_whole_float_slot_is_that_slot(self, worked_bundle, tmp_path):
        outs = []
        for slot in (2, 2.0):
            res = tmp_path / f"res{slot!r}.json"
            res.write_text(json.dumps({"policy": {"assignments": {"f1": slot}}}))
            outs.append(tmp_path / f"eval{slot!r}.csv")
            assert main(["evaluate", str(worked_bundle), "--result", str(res), "--sizes", "8",
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestExportMps:
    def test_deterministic_model_parses(self, worked_bundle, tmp_path):
        out = tmp_path / "model.mps"
        assert main(["export-mps", str(worked_bundle), "--model", "det",
                     "--out", str(out)]) == 0
        parsed = parse_mps(out.read_text())
        assert parsed.num_cols == 2          # x[f1,1], x[f1,2]
        assert parsed.binaries == {"C0", "C1"}

    def test_dr_column_count_matches_dimension_formula(self, worked_bundle, tmp_path):
        out = tmp_path / "model.mps"
        assert main(["export-mps", str(worked_bundle), "--model", "dr",
                     "--epsilon", "0.4", "--support", "0:1", "--out", str(out)]) == 0
        parsed = parse_mps(out.read_text())
        assert parsed.num_cols == 2 + 2 * 2 + 1 + 1  # binaries + queues + alpha + beta

    def test_bad_out_path_exits_2(self, worked_bundle, tmp_path):
        code = main(["export-mps", str(worked_bundle), "--model", "det",
                     "--out", str(tmp_path / "no" / "dir" / "m.mps")])
        assert code == 2


_SOLVER_FLAGS = ("--gap", "--feasibility-tol", "--integrality-tol", "--branching", "--node-order")


class TestRemovedFlags:
    @pytest.mark.parametrize("command, flag", [
        ("solve", "--seed"), ("solve", "--jobs"),
        ("export-mps", "--seed"), ("export-mps", "--jobs"),
        ("gen", "--jobs"), ("evaluate", "--jobs"),
    ] + [(command, flag) for command in ("solve", "sweep") for flag in _SOLVER_FLAGS])
    def test_flag_that_did_nothing_exits_2(self, bundle, tmp_path, capsys, command, flag):
        result = tmp_path / "res.json"
        assert main(["solve", str(bundle), "--model", "sp", "--out", str(result)]) == 0
        argv = {
            "solve": ["solve", str(bundle), "--model", "sp"],
            "sweep": ["sweep", str(bundle), "--omega", "0", "--sizes", "4"],
            "export-mps": ["export-mps", str(bundle), "--model", "sp"],
            "gen": ["gen"],
            "evaluate": ["evaluate", str(bundle), "--result", str(result)],
        }[command] + ["--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert main(argv + [flag, "1"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# (model, flag, value) for each model flag the model does not read
_IGNORED_MODEL_FLAGS = [
    ("det", "--epsilon", "0.5"), ("sp", "--epsilon", "0.5"),
    ("det", "--support", "0:4"), ("sp", "--support", "0:4"),
    ("sp", "--capacity", "2"), ("dr", "--capacity", "2"), ("dr-maghp", "--capacity", "2"),
    ("dr-maghp", "--airport", "AP0"),
]


class TestModelFlags:
    @pytest.mark.parametrize("command", ("solve", "export-mps"))
    @pytest.mark.parametrize("model, flag, value", _IGNORED_MODEL_FLAGS)
    def test_flag_the_model_ignores_exits_2(self, bundle, tmp_path, capsys, command, model, flag, value):
        argv = [command, str(bundle), "--model", model]
        if model in ("dr", "dr-maghp"):
            argv += ["--epsilon", "0.5"]
        assert main(argv + ["--out", str(tmp_path / "without")]) == 0
        capsys.readouterr()
        assert main(argv + [flag, value, "--out", str(tmp_path / "with")]) == 2
        assert capsys.readouterr().err == f"error: {flag} does nothing for model {model!r}\n"
        assert not (tmp_path / "with").exists()


def _raise(error):
    def fail(*args, **kwargs):
        raise error
    return fail


_NUMERICAL = gh.NumericalInstabilityError("singular basis")
_EXTRACTION = gh.PolicyExtractionError("flight 'f1' has 2 active slots; expected exactly one")


class TestEngineErrors:
    @pytest.mark.parametrize("command, owner, name, error", [
        ("solve", "groundhold.cli", "solve_milp", _NUMERICAL),
        ("solve", "groundhold.cli", "extract_policy", _EXTRACTION),
        ("sweep", "groundhold.evaluate", "solve_milp", _NUMERICAL),
        ("sweep", "groundhold.evaluate", "extract_policy", _EXTRACTION),
        ("sweep --jobs 2", "groundhold.evaluate", "solve_milp", _NUMERICAL),
        ("sweep --jobs 2", "groundhold.evaluate", "extract_policy", _EXTRACTION),
    ])
    def test_engine_error_exits_4(self, bundle, tmp_path, capsys, monkeypatch, command, owner, name, error):
        monkeypatch.setattr(f"{owner}.{name}", _raise(error))
        argv = command.split() + [str(bundle)] + {
            "solve": ["--model", "sp"],
            "sweep": ["--omega", "0", "--sizes", "4"],
        }[command.split()[0]]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == f"error: {error}\n"


class TestOutCheckedFirst:
    @pytest.fixture(autouse=True)
    def _no_work(self, bundle, tmp_path, capsys, monkeypatch):
        """In ``tmp_path``, a saved result ``res.json``, a file ``file`` and a
        directory ``dir``; then loading a bundle or solving fails."""
        monkeypatch.chdir(tmp_path)
        assert main(["solve", str(bundle), "--model", "sp", "--out", "res.json"]) == 0
        Path("file").write_text("kept\n")
        Path("dir").mkdir()
        capsys.readouterr()
        for owner in ("groundhold.cli", "groundhold.evaluate"):
            monkeypatch.setattr(f"{owner}.solve_milp", _raise(AssertionError("solve_milp was called")))
        monkeypatch.setattr("groundhold.cli.load_instance", _raise(AssertionError("bundle was loaded")))

    @pytest.mark.parametrize("command, flags, out, holder", [
        ("solve", ["--model", "dr", "--epsilon", "0.5"], "missing/r.json", "missing"),
        ("evaluate", ["--result", "res.json"], "missing/e.csv", "missing"),
        ("export-mps", ["--model", "sp"], "missing/m.mps", "missing"),
        ("sweep", ["--omega", "0,0.5", "--sizes", "4"], "file", "file"),
        ("sweep", ["--omega", "0,0.5", "--sizes", "4"], "file/sweep", "file"),
    ])
    def test_unwritable_out_exits_2_before_any_work(self, bundle, capsys, command, flags, out, holder):
        assert main([command, str(bundle), *flags, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: cannot write --out {out}: {holder} is not a directory\n"
        assert not Path("missing").exists()
        assert Path("file").read_text() == "kept\n"

    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--model", "sp"]),
        ("evaluate", ["--result", "res.json"]),
        ("export-mps", ["--model", "sp"]),
    ])
    def test_out_naming_a_directory_exits_2_before_any_work(self, bundle, capsys, command, flags):
        assert main([command, str(bundle), *flags, "--out", "dir"]) == 2
        assert capsys.readouterr().err == "error: cannot write --out dir: it is a directory\n"
        assert list(Path("dir").iterdir()) == []


@pytest.fixture()
def two_airports(tmp_path):
    """Two airports, flights alternating AP0/AP1 (f1 at AP0, f2 at AP1), no connections."""
    path = tmp_path / "net"
    assert main(["gen", "--flights", "8", "--horizon", "6", "--airports", "2", "--density", "0",
                 "--seed", "4", "--out", str(path)]) == 0
    return path


class TestSingleAirport:
    def test_solve_matches_filtered_schedule(self, two_airports, tmp_path):
        out = tmp_path / "res.json"
        assert main(["solve", str(two_airports), "--model", "sp", "--airport", "AP1",
                     "--out", str(out)]) == 0
        doc = _read_json(out)
        inst = gh.load_instance(two_airports)
        sched = gh.FlightSchedule(
            inst.schedule.horizon,
            tuple(f for f in inst.schedule.flights if f.airport == "AP1"),
            (),
            inst.schedule.airborne_cost,
        )
        model = gh.build_s_saghp(sched, inst.capacities["AP1"])
        sol = gh.solve_milp(model)
        assert doc["airport"] == "AP1"
        assert doc["objective"] == pytest.approx(sol.objective, abs=1e-9)
        assert doc["policy"]["assignments"] == gh.extract_policy(model, sol, sched).assignments

    def test_connection_across_airports_exits_2(self, two_airports, capsys):
        (two_airports / "connections.csv").write_text("pred_id,succ_id,slack_slots\nf1,f2,0\n")
        assert main(["solve", str(two_airports), "--model", "sp", "--airport", "AP0"]) == 2
        assert capsys.readouterr().err == "error: connection f1->f2 crosses airports; use dr-maghp\n"

    def test_unknown_airport_exits_2(self, two_airports, capsys):
        assert main(["solve", str(two_airports), "--model", "sp", "--airport", "ZZ"]) == 2
        assert capsys.readouterr().err == "error: airport 'ZZ' not in bundle (has ['AP0', 'AP1'])\n"

    @pytest.mark.parametrize("records", ["AP0 only", "none", "no file"])
    @pytest.mark.parametrize("model", [["sp", "--airport", "AP1"], ["dr-maghp", "--epsilon", "0.5"]])
    def test_airport_without_capacity_records_exits_2(self, two_airports, capsys, records, model):
        capacity = two_airports / "capacity.csv"
        if records == "no file":
            capacity.unlink()
        else:
            kept = [line for line in capacity.read_text().splitlines()[1:] if records == "AP0 only" and ",AP0," in line]
            capacity.write_text("\n".join(["slot,airport,throughput", *kept]) + "\n")
        assert main(["solve", str(two_airports), "--model", *model]) == 2
        missing = "AP1" if records == "AP0 only" or model[0] == "sp" else "AP0"
        assert capsys.readouterr().err == f"error: bundle has no capacity records for airport {missing!r}\n"


_RADIUS_ERRORS = {
    "solve --model dr --epsilon nan": "error: radius must be a finite number, got nan\n",
    "solve --model dr --epsilon inf": "error: radius must be a finite number, got inf\n",
    "solve --model dr-maghp --epsilon nan": "error: radius must be a finite number, got nan\n",
    "sweep --omega 0,nan --sizes 4": "error: radius must be a finite number, got nan\n",
    "solve --model dr --epsilon -1": "error: radius must be nonnegative, got -1.0\n",
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", _RADIUS_ERRORS)
    def test_radius_exits_2(self, bundle, tmp_path, capsys, command):
        name, *flags = command.split()
        assert main([name, str(bundle), *flags, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == _RADIUS_ERRORS[command]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cost", ["nan", "inf"])
    def test_ground_cost_exits_2(self, bundle, capsys, cost):
        schedule = bundle / "schedule.csv"
        header, first, *rest = schedule.read_text().splitlines()
        first = ",".join(first.split(",")[:3] + [cost])
        schedule.write_text("\n".join([header, first, *rest]) + "\n")
        assert main(["solve", str(bundle), "--model", "sp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: schedule invalid: [non-finite-ground-cost] flight 'f1' ground_cost {cost}")
        assert err.count("\n") == 1


def _library_exceptions() -> list[type]:
    """Every exception class defined in a ``groundhold`` module."""
    found = []
    for info in pkgutil.iter_modules(gh.__path__):
        if info.name.startswith("__"):  # __main__ runs the CLI on import
            continue
        module = importlib.import_module(f"groundhold.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__]
    return sorted(found, key=lambda cls: cls.__name__)


class TestExitCodeContract:
    def test_discovery_finds_the_known_errors(self):
        names = {cls.__name__ for cls in _library_exceptions()}
        assert {"IngestError", "ModelError", "NumericalInstabilityError",
                "PolicyExtractionError"} <= names

    @pytest.mark.parametrize("error", _library_exceptions(), ids=lambda cls: cls.__name__)
    def test_every_library_error_has_an_exit_code(self, bundle, capsys, monkeypatch, error):
        monkeypatch.setattr("groundhold.cli.load_instance", _raise(error("boom")))
        code = main(["solve", str(bundle), "--model", "sp"])
        assert code == (2 if issubclass(error, ValueError) else 4)
        assert capsys.readouterr().err == "error: boom\n"


class TestParserReuse:
    def test_one_process_runs_commands_in_turn(self, bundle, tmp_path, capsys):
        # the parser is built once per process; a failed command leaves
        # nothing behind that the next one sees
        from groundhold import cli
        assert cli._build_parser() is cli._build_parser()
        capsys.readouterr()
        assert main(["solve", str(bundle), "--model", "dr", "--epsilon", "nan"]) == 2
        assert capsys.readouterr().err == "error: radius must be a finite number, got nan\n"
        assert main(["solve", str(bundle), "--model", "nope"]) == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

        res = tmp_path / "res.json"
        assert main(["solve", str(bundle), "--model", "sp", "--out", str(res)]) == 0
        doc = _read_json(res)
        assert (doc["model"], doc["epsilon"], doc["status"]) == ("sp", None, "optimal")

        out = tmp_path / "sweep"
        assert main(["sweep", str(bundle), "--omega", "0", "--sizes", "4", "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"wrote sweep results to {out}\n", "")
        assert len((out / "table.csv").read_text().splitlines()) == 2 + 3  # det, sp, dr


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_python(code: str, *args: str, **env: str) -> str:
    """Standard output of ``code`` run by a new interpreter that finds this
    ``groundhold`` first; ``env`` replaces the BLAS thread variables."""
    environ = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    environ.update(env)
    src = str(Path(gh.__file__).resolve().parents[1])
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=environ,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestSetUpFootprint:
    def test_sweep_loads_neither_numpy_random_nor_numpy_ma(self, bundle, tmp_path):
        # numpy.random and numpy.ma each cost about 12 ms of import in every
        # fresh process, concurrent.futures and logging about 6 ms together,
        # and the sweep needs none of them; it must be a new interpreter,
        # since scipy and hypothesis load them here
        modules = ("numpy.random", "numpy.ma", "concurrent.futures", "logging")
        code = (
            "import sys\n"
            "from groundhold.cli import main\n"
            "assert main(['sweep', sys.argv[1], '--omega', '0,0.5', '--sizes', '50', '--out', sys.argv[2]]) == 0\n"
            f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
        )
        out = _fresh_python(code, str(bundle), str(tmp_path / "sweep")).splitlines()
        assert out == [f"wrote sweep results to {tmp_path / 'sweep'}", "[]"]


class TestBlasThreads:
    CODE = (
        "import os, groundhold, numpy\n"
        "print(*(os.environ[v] for v in {names!r}))\n"
        "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)\n"
    ).format(names=_BLAS_VARS)

    def test_one_thread_by_default(self):
        # numpy reads the setting when it loads, so one thread means the
        # package set it before any submodule imported numpy
        assert _fresh_python(self.CODE).split() == ["1", "1", "1", "1"]

    def test_user_setting_wins(self):
        out = _fresh_python(self.CODE, **dict.fromkeys(_BLAS_VARS, "2")).split()
        assert out[:3] == ["2", "2", "2"]
