import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonautolin.catalog import BUILDERS
from nonautolin.cli import RunConfig, _report_text, main, run_command
from nonautolin.errors import ConfigError


def run(args):
    return main(args)


def load(path):
    return json.loads(Path(path).read_text())


class TestCheckCommand:
    def test_ex1_passes(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = run(["check", "--system", "ex1", "--lambda", "0.693",
                  "--gamma-scale", "0.9", "--out", str(out)])
        assert rc == 0
        rep = load(out)
        assert rep["verdict"] == "pass"
        assert rep["schema_version"] == "1"
        assert rep["hypothesis"]["q_bound"] < 1.0
        assert rep["hypothesis"]["bc4_ok"] is True

    def test_emo_fails_with_divergence_witness(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = run(["check", "--system", "emo", "--c", "0.01", "--window", "50",
                  "--out", str(out)])
        assert rc == 1
        rep = load(out)
        assert rep["verdict"] == "fail"
        j_verdicts = {
            n: entry["j_series"]["verdict"] for n, entry in rep["hypothesis"]["ac2"].items()
        }
        assert all(v == "divergent" for v in j_verdicts.values())

    def test_gamma_scale_zero_passes_with_zero_sums(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = run(["check", "--system", "ex1", "--gamma-scale", "0", "--out", str(out)])
        assert rc == 0
        rep = load(out)
        assert rep["hypothesis"]["bc2"]["partial_sum"] == 0.0
        assert rep["hypothesis"]["q_bound"] == 0.0

    def test_envelope_bounds_a_partial_sum_above_the_cap(self, tmp_path):
        # end_cfg's second-variable sum at n = 21 passes the explosion cap
        # (1e6) inside the window, but its deta envelope bounds both tails
        out = tmp_path / "rep.json"
        rc = run(["check", "--system", "end_cfg", "--n-min", "21", "--n-max", "21",
                  "--out", str(out)])
        assert rc == 0
        ac9 = load(out)["hypothesis"]["ac9"]["21"]
        assert ac9["verdict"] == "converged"
        assert ac9["partial_sum"] > 1e6 and ac9["tail_bound"] is not None

    def test_overflowing_partial_sum_writes_valid_report(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        import nonautolin

        out = tmp_path / "rep.json"
        rc = run(["check", "--system", "emo", "--c", "0.3", "--lambda", "0.05",
                  "--window", "2000", "--n-min", "0", "--n-max", "0", "--out", str(out)])
        assert rc == 1
        rep = load(out)
        schema = json.loads(
            (Path(nonautolin.__file__).parent / "report_schema.json").read_text()
        )
        jsonschema.validate(rep, schema)
        ac9 = rep["hypothesis"]["ac9"]["0"]
        assert ac9["partial_sum"] is None and ac9["verdict"] == "divergent"
        assert rep["verdict"] == "fail"

    def test_nan_green_span_is_inconclusive(self, tmp_path):
        # at lambda = 10 a window of 80 overflows ex1's Green span to inf and
        # its norms to NaN: an arithmetic failure, reported as inconclusive
        out = tmp_path / "rep.json"
        rc = run(["check", "--system", "ex1", "--lambda", "10", "--window", "80",
                  "--n-min", "0", "--n-max", "0", "--out", str(out)])
        assert rc == 1
        rep = load(out)
        hyp = rep["hypothesis"]
        series = [hyp["bc2"], hyp["bc3"], *hyp["ac2"]["0"].values(), hyp["ac9"]["0"]]
        assert [s["verdict"] for s in series] == ["inconclusive"] * 5
        assert hyp["bc2"]["partial_sum"] is None
        assert rep["verdict"] == "fail"

    @pytest.mark.parametrize("command", [["check"], ["conjugate", "--force"],
                                         ["derivatives", "--force"]])
    def test_overflowing_green_span_exits_1_without_warnings(self, tmp_path, command):
        # the span's overflow is caught as an arithmetic failure, so no numpy
        # warning reaches stderr and every phase still writes its report
        import os
        import subprocess
        import sys

        import nonautolin

        out = tmp_path / "rep.json"
        env = dict(os.environ, PYTHONPATH=str(Path(nonautolin.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "nonautolin.cli", *command, "--system", "ex1",
             "--lambda", "10", "--window", "80", "--n-min", "0", "--n-max", "0",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        rep = load(out)
        failure = "arithmetic failure in the Green span at n=0"
        assert rep["hypothesis"]["advanced_error"].startswith(failure)
        for section in ("inverse", "equivariance", "jacobians"):
            if rep[section] is not None:
                errors = rep[section]["errors"]
                assert errors and all(e["error"].startswith(failure) for e in errors)

    def test_stdout_json(self, capsys):
        rc = run(["check", "--system", "remm", "--gamma-scale", "0.5",
                  "--n-min", "-3", "--n-max", "3", "--window", "20"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] == "pass"

    def test_singular_operator_in_window_writes_valid_report(self, monkeypatch):
        # A_{hi + w} has no inverse: certify reports it, in place of raising
        # SingularOperatorError out of run_command
        jsonschema = pytest.importorskip("jsonschema")
        import numpy as np

        import nonautolin
        from nonautolin import cli
        from nonautolin.system import (CouplingSpec, DriverSpec, OperatorSeq, SpaceSpec,
                                       SystemSpec, WeightSeq)

        singular = SystemSpec(
            space=SpaceSpec(dim_x=2, dim_y=0, norm_kind="max"),
            a=OperatorSeq(lambda n: np.diag([1.0, 0.0] if n == 5 else [2.0, 0.5])),
            p=WeightSeq.constant(np.diag([0.0, 1.0])),
            f=CouplingSpec.zero(2, 0),
            g=DriverSpec.trivial(),
        )
        monkeypatch.setattr(cli, "build_system", lambda cfg: singular)
        rep = cli.run_command("check", RunConfig(n_min=0, n_max=0, window_halfwidth=5))
        rep = json.loads(json.dumps(rep, allow_nan=False))
        schema = json.loads(
            (Path(nonautolin.__file__).parent / "report_schema.json").read_text()
        )
        jsonschema.validate(rep, schema)
        hyp = rep["hypothesis"]
        assert hyp["bc2"]["verdict"] == hyp["bc3"]["verdict"] == "inconclusive"
        assert hyp["bc4_ok"] is False and hyp["bc4_worst_index"] == 5
        assert hyp["advanced_error"].startswith("singular operator at index 5")
        assert rep["verdict"] == "fail"


class TestConjugateCommand:
    def test_ex1_small_run(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = run(["conjugate", "--system", "ex1", "--gamma-scale", "0.5",
                  "--n-min", "-2", "--n-max", "2", "--out", str(out)])
        assert rc == 0
        rep = load(out)
        assert rep["inverse"]["ok"] is True
        assert rep["inverse"]["max_residual"] <= rep["inverse"]["threshold"]
        assert rep["equivariance"]["ok"] is True
        assert rep["equivariance"]["max_residual"] <= 1e-7
        assert rep["jacobians"] is None

    def test_gate_blocks_uncertified_system(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = run(["conjugate", "--system", "emo", "--c", "0.01",
                  "--n-min", "-1", "--n-max", "1", "--out", str(out)])
        assert rc == 1
        rep = load(out)
        assert rep["equivariance"] is None  # phase skipped without --force

    def test_force_runs_and_records_probe_errors(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = run(["conjugate", "--system", "emo", "--c", "0.01", "--force",
                  "--n-min", "0", "--n-max", "0", "--out", str(out)])
        assert rc == 1
        rep = load(out)
        assert rep["inverse"] is not None
        assert rep["inverse"]["errors"]  # contraction violations per n


    def test_non_finite_trajectory_exits_1_without_warnings(self, tmp_path):
        # probes at 1e300 overflow within a few steps of their walks: each
        # probe whose values turn non-finite loses its own rows, its error
        # naming the index where they did, and no numpy warning or Picard
        # iteration on NaN follows.  All but the centre probe overflow at
        # n = 0 itself; the centre one, within 1.25e299 of 0, keeps its
        # inverse row and overflows at a later index of its equivariance steps
        import os
        import re
        import subprocess
        import sys

        import numpy as np

        import nonautolin
        from nonautolin.cli import probe_grid

        params = tmp_path / "huge.json"
        params.write_text(json.dumps({"system": "ex1", "probe_extent": 1e300,
                                      "n_min": 0, "n_max": 0}))
        out = tmp_path / "rep.json"
        env = dict(os.environ, PYTHONPATH=str(Path(nonautolin.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "nonautolin.cli", "conjugate", "--force",
             "--system", str(params), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        rep = load(out)
        grid = probe_grid(2, 5, 1e300, np.random.default_rng(0)).tolist()
        centre = 12
        assert np.max(np.abs(grid[centre])) < 1.25e299
        for section in ("inverse", "equivariance"):
            rows, errors = rep[section]["rows"], rep[section]["errors"]
            at = {grid.index(e["probe"]): e for e in errors}
            assert len(at) == len(errors) and all(e["n"] == 0 for e in errors)
            assert sorted([*at, *(grid.index(r["probe"]) for r in rows)]) == list(range(25))
            for i, e in at.items():
                m = re.fullmatch(r"non-finite value in the residual tables at m=(\d+)",
                                 e["error"])
                assert m and (int(m[1]) > 0) == (i == centre), (i, e)
        assert [r["probe"] for r in rep["inverse"]["rows"]] == [grid[centre]]
        assert not rep["equivariance"]["rows"]

    def test_an_overflowing_probe_loses_only_its_rows(self, tmp_path, capsys):
        # at 1e296 only the probes at x_1 = +-1e296, grid indices 0-4 and
        # 20-24, overflow, in the walks of index 10 of their equivariance
        # steps: the report is schema-valid, the inverse table keeps its 25
        # rows, and the equivariance table has rows for exactly the other
        # 15 probes and one error for each of those 10
        jsonschema = pytest.importorskip("jsonschema")
        import numpy as np

        import nonautolin
        from nonautolin.cli import probe_grid

        params = tmp_path / "p.json"
        params.write_text(json.dumps({"system": "ex1", "probe_extent": 1e296,
                                      "n_min": 0, "n_max": 0}))
        out = tmp_path / "rep.json"
        assert run(["conjugate", "--system", str(params), "--force", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        rep = load(out)
        schema = json.loads(
            (Path(nonautolin.__file__).parent / "report_schema.json").read_text()
        )
        jsonschema.validate(rep, schema)
        grid = probe_grid(2, 5, 1e296, np.random.default_rng(0)).tolist()
        inv, equi = rep["inverse"], rep["equivariance"]
        assert [r["probe"] for r in inv["rows"]] == grid and not inv["errors"]
        assert [grid.index(r["probe"]) for r in equi["rows"]] == list(range(5, 20))
        assert [grid.index(e["probe"]) for e in equi["errors"]] == [*range(5), *range(20, 25)]
        assert all(e["n"] == 0 and e["error"] == "non-finite value in the residual tables at m=10"
                   for e in equi["errors"])
        # an error entry names its probe
        table = {**equi, "errors": [{"n": 0, "error": "x"}]}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**rep, "equivariance": table}, schema)


class TestDerivativesCommand:
    def test_non_finite_blocks_are_listed_per_probe(self, tmp_path, capsys, monkeypatch):
        # at fd_step 1e300 the walks of every probe's d_h stencil overflow:
        # the one batched validate_jacobians call of n = 0 lists one error per
        # probe, naming the blocks that are not finite, and no row
        import nonautolin.cli as cli

        calls = []
        validate = cli.validate_jacobians
        monkeypatch.setattr(cli, "validate_jacobians",
                            lambda *a, **kw: calls.append(a[1]) or validate(*a, **kw))
        out = tmp_path / "rep.json"
        assert run(["derivatives", "--system", "ex1", "--fd-step", "1e300", "--n-min", "0",
                    "--n-max", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "" and calls == [0]
        jac = load(out)["jacobians"]
        assert not jac["rows"] and len(jac["errors"]) == 12
        assert len({tuple(e["probe"]) for e in jac["errors"]}) == 12
        assert all(e["n"] == 0 and e["error"].startswith("non-finite Jacobian blocks at n=0: ")
                   for e in jac["errors"])

    def test_unresolvable_probes_are_listed_errors(self):
        # at |z| ~ 1e200 the steps 1e-5 and 1e-6 are below the probes' ulp,
        # so no finite difference can check a Jacobian: each probe is an
        # error naming the resolution, not seven rows at rel_error 1.0
        from nonautolin.cli import run_command

        cfg = RunConfig(system="ex1", probe_extent=1e200, n_min=0, n_max=0, force=True)
        rep = run_command("derivatives", cfg)
        jac = rep["jacobians"]
        assert rep["verdict"] == "fail" and not jac["ok"] and not jac["rows"]
        assert len(jac["errors"]) == cfg.jacobian_probe_cap
        assert all(e["n"] == 0 and e["error"].startswith("finite-difference resolution")
                   for e in jac["errors"])

    def test_end_cfg_run(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = run(["derivatives", "--system", "end_cfg", "--gamma-scale", "0.9",
                  "--n-min", "-2", "--n-max", "2", "--out", str(out)])
        assert rc == 0
        rep = load(out)
        assert rep["jacobians"]["ok"] is True
        assert rep["jacobians"]["max_rel_error"] <= 1e-4
        kinds = {r["kind"] for r in rep["jacobians"]["rows"]}
        assert "d_barh_deta" in kinds and "d_h_deta" in kinds


class TestReportCommand:
    def test_report_writes_json_and_csv(self, tmp_path):
        out = tmp_path / "run"
        rc = run(["report", "--system", "ex1", "--gamma-scale", "0.5",
                  "--n-min", "-2", "--n-max", "2", "--out", str(out)])
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["equivariance.csv", "inverse.csv", "jacobians.csv", "report.json"]
        header = (out / "inverse.csv").read_text().splitlines()[0]
        assert header.startswith("n,xi0,xi1,value0,value1,residual,tail_bound")

    def test_report_validates_against_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        import nonautolin

        out = tmp_path / "run"
        rc = run(["report", "--system", "ex1", "--gamma-scale", "0.5",
                  "--n-min", "-1", "--n-max", "1", "--out", str(out)])
        assert rc == 0
        schema = json.loads(
            (Path(nonautolin.__file__).parent / "report_schema.json").read_text()
        )
        jsonschema.validate(load(out / "report.json"), schema)

    def test_one_engine_serves_both_phases(self, monkeypatch):
        # report builds one engine, after the check gate, for the conjugate
        # and derivatives phases; the derivatives rows it gives are those of
        # a fresh engine
        import nonautolin.cli as cli

        built = []
        engine_cls = cli.ConjugacyEngine

        def counted(*args, **kwargs):
            built.append(engine_cls(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "ConjugacyEngine", counted)
        gated = RunConfig(system="emo", system_params={"c": 0.01}, n_min=0, n_max=0)
        assert cli.run_command("report", gated)["verdict"] == "fail" and built == []
        cfg = RunConfig(system="ex1", system_params={"gamma_scale": 0.5}, n_min=-1, n_max=1,
                        jacobian_probe_cap=4)
        rep = cli.run_command("report", cfg)
        assert rep["verdict"] == "pass" and len(built) == 1
        monkeypatch.undo()
        fresh, ok = cli.phase_derivatives(cfg, cli._engine(cfg, cli.build_system(cfg)))
        assert ok and rep["jacobians"]["rows"] == fresh["rows"]

    def test_determinism(self, tmp_path):
        args = ["report", "--system", "ex1", "--gamma-scale", "0.5",
                "--n-min", "-1", "--n-max", "1", "--seed", "7"]
        rc1 = run(args + ["--out", str(tmp_path / "a")])
        rc2 = run(args + ["--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        rep_a = load(tmp_path / "a" / "report.json")
        rep_b = load(tmp_path / "b" / "report.json")
        rep_a.pop("timing")
        rep_b.pop("timing")
        assert rep_a == rep_b


class TestReportText:
    """The report writer lays out the indentation itself and encodes the
    scalars with json's C encoder; its bytes are json.dumps's."""

    @staticmethod
    def _dumps(report):
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)

    @pytest.mark.parametrize("command, system", [("check", "ex2"), ("conjugate", "end_cfg"),
                                                 ("derivatives", "remm"), ("report", "ex1")])
    def test_bytes_equal_json_dumps(self, command, system):
        cfg = RunConfig(system=system, n_min=0, n_max=1, probes_per_axis=2, steps=2)
        report = run_command(command, cfg)
        assert report[{"check": "hypothesis", "conjugate": "inverse", "derivatives": "jacobians",
                       "report": "jacobians"}[command]] is not None
        assert _report_text(report) == self._dumps(report)

    def test_bytes_equal_json_dumps_on_odd_values(self):
        report = {"b": {}, "a": [1, 2.5, True, None, "x, y: [z]", [], {}, -0.0, 5e-324, 10 ** 20],
                  "keys": [{3: 1, 1.5: 2}, {True: 3}, {None: 4}], "tuple": ("t", (1, 2.0)),
                  "text": "\u00e9\n\"q\"\\", "nested": [[1, 2], [{"k": [3.0]}]],
                  "tables": [[{"a": 1.0, "b": None, "c": [1, 2.0], "d": "x"},
                              {"a": 2.5, "b": 0.5, "c": [3.0, 4.0], "d": "y, [z]"}],
                             [{"v": [1.0, 2.0]}, {"v": [3.0]}], [{"w": {"k": 1}}, {"w": 2}],
                             [{"p": 1}, {"q": 2}], [{"r": True}, {"r": -7}]]}
        assert _report_text(report) == self._dumps(report)

    @pytest.mark.parametrize("bad", [{"x": float("nan")}, {"x": [1.0, float("inf")]},
                                     {"rows": [{"residual": float("-inf")}]}, {"x": object()},
                                     {(1, 2): 3}])
    def test_a_value_json_rejects_raises_as_json_dumps_does(self, bad):
        with pytest.raises((ValueError, TypeError)) as expected:
            self._dumps(bad)
        with pytest.raises(expected.type) as got:
            _report_text(bad)
        assert str(got.value) == str(expected.value)


class TestFarIndices:
    # closed-form envelopes (2^|n|, 4^|n|, 9^|n|, e^{lam |n|}) and ex2's gamma
    # overflow a double at these indices; they used to end in a traceback
    @pytest.mark.parametrize("system,n", [("ex1", 1030), ("remm", 520), ("end_cfg", 330),
                                          ("ex2", 1030)])
    @pytest.mark.parametrize("command", [["check"], ["conjugate", "--force"]])
    def test_overflowing_closed_forms_write_valid_reports(self, tmp_path, system, n, command):
        jsonschema = pytest.importorskip("jsonschema")
        import nonautolin

        out = tmp_path / "rep.json"
        rc = run([*command, "--system", system, "--n-min", str(n), "--n-max", str(n),
                  "--window", "5", "--out", str(out)])
        # nothing is certified where an envelope overflows
        assert rc == 1
        rep = load(out)
        assert rep["verdict"] == "fail"
        schema = json.loads(
            (Path(nonautolin.__file__).parent / "report_schema.json").read_text()
        )
        jsonschema.validate(rep, schema)
        hyp = rep["hypothesis"]
        series = [hyp["bc2"], hyp["bc3"], *hyp["ac9"].values()]
        series += [e for pair in hyp["ac2"].values() for e in pair.values()]
        assert series
        for est in series:
            assert est["verdict"] != "converged" or est["tail_bound"] is not None
        assert not hyp["advanced_series_ok"]


class TestConfigHandling:
    def test_unknown_system_exits_2(self, capsys):
        assert run(["check", "--system", "nope"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["check", "--system", "ex1", "--window", "not-an-int"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("lam", ["40", "1e-4"])
    def test_out_of_range_lambda_exits_2(self, lam, capsys):
        # lam = 40 overflowed e^{lam (|k| + 1)} in ex1's gamma, lam = 1e-4 the
        # product prod (1 + e^{-lam |j|}) in its budget; both were tracebacks
        assert run(["check", "--system", "ex1", "--lambda", lam]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_end_alias_exits_2(self, capsys):
        assert run(["check", "--system", "end"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_parameter_file(self, capsys):
        assert run(["check", "--system", "missing.json"]) == 2

    @pytest.mark.parametrize("make", [lambda p: p.mkdir(), lambda p: p.write_bytes(b"\xff\xfe{}")],
                             ids=["directory", "not_utf8"])
    def test_unreadable_parameter_file_exits_2(self, make, tmp_path, capsys):
        path = tmp_path / "params.json"
        make(path)
        assert run(["check", "--system", str(path)]) == 2
        assert "configuration error: cannot read parameter file" in capsys.readouterr().err

    def test_parameter_file_round_trip(self, tmp_path):
        params = {
            "system": "ex2",
            "theta_ratio": 2.0,
            "rotation_angle": 0.3,
            "gamma_scale": 0.7,
            "n_min": -2,
            "n_max": 2,
            "window_halfwidth": 30,
        }
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(params))
        out = tmp_path / "rep.json"
        rc = run(["check", "--system", str(pfile), "--out", str(out)])
        assert rc == 0
        rep = load(out)
        assert rep["config"]["system"] == "ex2"
        assert rep["config"]["window_halfwidth"] == 30

    def test_parameter_file_rejects_unknown_keys(self, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"system": "ex1", "wat": 1}))
        assert run(["check", "--system", str(pfile)]) == 2

    def test_parameter_file_accepts_every_field_but_force(self, tmp_path, capsys):
        params = {
            "system": "ex1", "lambda": 0.7, "dim_half": 1, "gamma_scale": 0.5,
            "theta_ratio": 2.0, "rotation_angle": 0.0, "c": None, "rho_scale": 1.0,
            "window_halfwidth": 8, "n_min": 0, "n_max": 0, "probes_per_axis": 2,
            "probe_extent": 1.0, "series_tol": 1e-9, "fp_tol": 1e-10, "fd_step": 1e-6,
            "seed": 0, "steps": 2, "bc_probes": 4, "jacobian_probe_cap": 2,
            "equivariance_threshold": 1e-7, "jacobian_threshold": 1e-4,
            "inverse_threshold": None,
        }
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(params))
        assert run(["check", "--system", str(pfile), "--out", str(tmp_path / "rep.json")]) == 0
        for key, value in (("force", True), ("system_params", {}), ("variant", "ex1")):
            pfile.write_text(json.dumps({**params, key: value}))
            assert run(["check", "--system", str(pfile)]) == 2
            assert "unknown parameter-file keys" in capsys.readouterr().err

    def test_flags_override_file(self, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"system": "ex1", "gamma_scale": 0.9}))
        out = tmp_path / "rep.json"
        rc = run(["check", "--system", str(pfile), "--gamma-scale", "0.1",
                  "--n-min", "-1", "--n-max", "1", "--out", str(out)])
        assert rc == 0
        assert load(out)["config"]["system_params"]["gamma_scale"] == 0.1

    def test_flags_override_file_for_system_and_run_settings(self, tmp_path):
        # the file used to win over --window, --n-min and the other run flags
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"system": "ex1", "gamma_scale": 0.9,
                                     "window_halfwidth": 12, "n_min": -3, "n_max": 3}))
        out = tmp_path / "rep.json"
        rc = run(["check", "--system", str(pfile), "--gamma-scale", "0.2", "--window", "30",
                  "--n-min", "0", "--n-max", "0", "--out", str(out)])
        assert rc == 0
        config = load(out)["config"]
        assert config["system_params"] == {"gamma_scale": 0.2}
        assert (config["window_halfwidth"], config["n_min"], config["n_max"]) == (30, 0, 0)

    def test_csv_format_requires_out(self, capsys):
        assert run(["check", "--system", "ex1", "--format", "csv",
                    "--n-min", "-1", "--n-max", "1"]) == 2

    @pytest.mark.parametrize("fmt, target", [("json", "directory"), ("csv", "file")])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, fmt, target):
        # a JSON --out that is a directory, and a CSV --out directory that is a file
        out = tmp_path / "taken"
        if target == "directory":
            out.mkdir()
        else:
            out.write_text("kept\n")
        rc = run(["check", "--system", "ex1", "--n-min", "0", "--n-max", "0",
                  "--format", fmt, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"configuration error: cannot write {out}")
        assert out.is_dir() if target == "directory" else out.read_text() == "kept\n"

    @pytest.mark.parametrize("key, value", [
        ("window_halfwidth", 5.5), ("n_min", 1.0), ("n_max", "3"), ("probes_per_axis", True),
        ("steps", 2.5), ("bc_probes", None), ("jacobian_probe_cap", 1.5), ("seed", 0.5),
        ("seed", -1), ("steps", -1), ("bc_probes", 0), ("jacobian_probe_cap", 0),
        ("probe_extent", -1.0), ("probe_extent", 9e307),
    ])
    def test_parameter_file_bad_integer_exits_2(self, tmp_path, capsys, key, value):
        # each of these ended in a traceback with exit code 1 (a negative
        # probe_extent, or one with 2 * probe_extent overflowing, in the bc1
        # sampler's rng.uniform); zero bc probes passed bc1 without a single
        # sample.  The n range is in the file, as an --n-min or --n-max flag
        # would override the value under test.
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"system": "ex1", "n_min": 0, "n_max": 0, key: value}))
        assert run(["check", "--system", str(pfile)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, file_params", [
        (["check"], {"probe_extent": "x"}),
        (["check"], {"probe_extent": float("nan")}),
        (["check"], {"jacobian_threshold": "x"}),
        (["check", "--system", "ex1", "--series-tol", "nan"], None),
        (["conjugate", "--system", "ex1", "--fp-tol", "nan"], None),
        (["derivatives", "--system", "ex1", "--fd-step", "inf"], None),
        (["check", "--system", "ex2", "--theta-ratio", "inf"], None),
        (["check", "--system", "ex1", "--rotation-angle", "nan"], None),
        (["check", "--system", "emo", "--c", "nan"], None),
        (["check"], {"gamma_scale": True}),
        (["check"], {"lambda": 0.5, "lam": 0.6}),
    ])
    def test_non_finite_or_non_numeric_float_exits_2(self, tmp_path, capsys, argv, file_params):
        # each of these ended in a traceback with exit code 1, or (a string
        # threshold, a bool gamma_scale, a lam beside a lambda) ran to exit code 0
        if file_params is not None:
            pfile = tmp_path / "params.json"
            pfile.write_text(json.dumps({"system": "ex1", **file_params}))
            argv = argv + ["--system", str(pfile)]
        assert run(argv + ["--n-min", "0", "--n-max", "0"]) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["equivariance_threshold", "jacobian_threshold",
                                     "inverse_threshold"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_threshold_exits_2(self, tmp_path, capsys, key, value):
        # each of these ran every phase and exited 1, with every table
        # failing a threshold that no residual or error can meet
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"system": "ex1", "n_min": 0, "n_max": 0, key: value}))
        assert run(["report", "--system", str(pfile), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: thresholds must be positive")
        assert not (tmp_path / "rep").exists()

    def test_emo_ratio_rounding_to_one_exits_2(self, capsys):
        # e^{-lambda} rounds to 1: emo's envelopes were built lazily, inside
        # certify, and the ValueError ended in a traceback with exit code 1
        assert run(["check", "--system", "emo", "--lambda", "1e-17",
                    "--n-min", "0", "--n-max", "0", "--window", "3"]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_run_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(system="ex1", series_tol=-1.0)
        with pytest.raises(ConfigError):
            RunConfig(system="ex1", n_min=5, n_max=1)
        with pytest.raises(ConfigError):
            RunConfig(system="bogus")
        with pytest.raises(ConfigError):
            RunConfig(system="ex1", force=1)


FLAG_FLOATS = st.sampled_from([0.0, -1.0, -1e300, 1e-300, 0.5, 1.0, 3.0, 1e300,
                               math.nan, math.inf, -math.inf])
FLOAT_FLAGS = ("--lambda", "--gamma-scale", "--c", "--theta-ratio", "--rotation-angle",
               "--series-tol", "--fp-tol", "--fd-step")


@st.composite
def run_argv(draw):
    """A command line over the config space, plus a parameter file with the
    system and the probe counts that keep every phase tiny."""
    params = {
        "system": draw(st.sampled_from(sorted(BUILDERS))),
        "probes_per_axis": draw(st.integers(1, 2)),
        "jacobian_probe_cap": 1,
        "steps": draw(st.integers(0, 2)),
        "bc_probes": draw(st.integers(1, 4)),
    }
    argv = [draw(st.sampled_from(("check", "conjugate", "derivatives")))]
    if draw(st.booleans()):
        argv.append("--force")
    for flag in draw(st.lists(st.sampled_from(FLOAT_FLAGS), unique=True)):
        argv.append(f"{flag}={draw(FLAG_FLOATS)!r}")  # "=" keeps "-inf" a value, not a flag
    n_min = draw(st.integers(-2, 2))
    n_max = n_min + draw(st.integers(-1, 1))
    window = draw(st.integers(-1, 8))
    return argv + ["--n-min", str(n_min), "--n-max", str(n_max), "--window", str(window)], params


@settings(derandomize=True, deadline=None, max_examples=300)
@given(run=run_argv())
def test_check_config_space_ends_in_report_or_config_error(run):
    """Every check, conjugate or derivatives configuration, forced or not,
    ends in a schema-valid report (exit 0 or 1) or in a configuration error
    (exit 2), never in a traceback."""
    jsonschema = pytest.importorskip("jsonschema")
    import nonautolin

    argv, params = run
    schema = json.loads((Path(nonautolin.__file__).parent / "report_schema.json").read_text())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        pfile, out = Path(tmp) / "params.json", Path(tmp) / "rep.json"
        pfile.write_text(json.dumps(params))
        rc = main(argv + ["--system", str(pfile), "--out", str(out)])
        if rc == 2:
            assert err.getvalue().startswith("configuration error:")
        else:
            assert rc in (0, 1)
            rep = load(out)
            jsonschema.validate(rep, schema)
            assert rep["verdict"] == ("pass" if rc == 0 else "fail")
