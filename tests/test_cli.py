"""End-to-end command tests: exit codes, reports, and emitted files."""

import json
from pathlib import Path

import numpy as np
import pytest

from coherentctl import cli
from coherentctl.cli import main
from coherentctl.problemfile import loads_problem
from coherentctl.stabilization import controller_from_parameter
from coherentctl.statespace import log_grid

from conftest import exact_cavity_parameter, coupled_cavity_loop, scalar_demo_loop

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name):
    return str(FIXTURES / name)


def run_json(capsys, argv):
    """Invoke the front end with --json and return (exit_code, report)."""
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def decode_realization(block):
    """Re-ingest an emitted abcd block through the document decoder."""
    prob = loads_problem(json.dumps({"plant": {"abcd": block}}))
    return prob.abcd


class TestCheckPr:
    def test_cavity_passes(self, capsys):
        assert main(["check-pr", fx("cavity_pr.json")]) == 0
        out = capsys.readouterr().out
        assert "PR-CHECK result=PASS" in out
        assert "j-unitarity residual" in out

    def test_scaled_scattering_fails_on_feedthrough(self, capsys):
        code, report = run_json(capsys, ["check-pr", fx("cavity_notpr.json")])
        assert code == 1
        assert report["passed"] is False
        assert report["feedthrough_ok"] is False
        assert report["feedthrough_gap"] == pytest.approx(0.21, rel=1e-6)

    def test_malformed_complex_entry_is_input_error(self, capsys):
        assert main(["check-pr", fx("malformed_complex.json")]) == 2
        err = capsys.readouterr().err
        assert "plant.slh.L1[0][0]" in err

    def test_unknown_key_is_input_error(self, capsys):
        assert main(["check-pr", fx("malformed_key.json")]) == 2
        assert "step_size" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys):
        assert main(["check-pr", str(FIXTURES / "no_such.json")]) == 2

    def test_json_report_fields(self, capsys):
        code, report = run_json(capsys, ["check-pr", fx("cavity_pr.json")])
        assert code == 0
        assert report["command"] == "check-pr"
        assert report["passed"] is True
        assert report["residual"] < 1e-8
        assert report["n_states_minimal"] == 2

    def test_rate_scaled_network_is_minimal(self, capsys):
        # a realizable passive network of 4 modes and 2 fields at GHz rates in
        # rad/s: H1 scaled by 1e9 and L1 by sqrt(1e9) from the pipebench draw
        # _draw_network(default_rng(19), 4, 2, False), written by dumps_17g
        code, report = run_json(capsys, ["check-pr", fx("network_fast.json")])
        assert (code, report["passed"], report["n_states_minimal"]) == (0, True, 8)

    def test_grid_points_is_usage_error(self, capsys):
        # the check samples no grid
        assert main(["check-pr", fx("cavity_pr.json"), "--grid-points", "17"]) == 2
        code, report = run_json(capsys, ["check-pr", fx("cavity_pr.json")])
        assert code == 0 and "grid_points" not in report

    def test_tol_override_can_force_failure(self, capsys):
        code, report = run_json(
            capsys, ["check-pr", fx("cavity_pr.json"), "--tol", "1e-20"]
        )
        assert code == 1
        assert report["residual_ok"] is False


class TestFactorize:
    def test_scalar_demo_matches_library_factors(self, capsys):
        code, report = run_json(capsys, ["factorize", fx("scalar_demo.json")])
        assert code == 0
        assert report["bezout_residual"] <= 1e-8
        _, cf = scalar_demo_loop()
        om = log_grid(1e-2, 1e2, 13)
        for name, factor in (
            ("m", cf.m_factor()),
            ("u", cf.u_factor()),
            ("n", cf.n_factor()),
            ("v", cf.v_factor()),
            ("vhat", cf.vhat_factor()),
            ("uhat", cf.uhat_factor()),
            ("nhat", cf.nhat_factor()),
            ("mhat", cf.mhat_factor()),
        ):
            emitted = decode_realization(report["factors"][name])
            assert (
                np.abs(emitted.response(om) - factor.response(om)).max() < 1e-12
            ), name

    def test_unstabilizable_names_the_mode(self, capsys):
        assert main(["factorize", fx("unstabilizable.json")]) == 1
        err = capsys.readouterr().err
        assert "unstabilizable" in err
        assert "1" in err

    def test_zero_policy_on_stable_plant_gives_trivial_factors(self, capsys):
        code, report = run_json(
            capsys, ["factorize", fx("t1_zero.json")]
        )
        assert code == 0
        om = log_grid(1e-1, 1e1, 7)
        m = decode_realization(report["factors"]["m"])
        u = decode_realization(report["factors"]["u"])
        assert np.abs(m.response(om) - np.eye(1)).max() < 1e-14
        assert np.abs(u.response(om)).max() < 1e-14
        assert np.abs(np.asarray(report["gains"]["f"], dtype=float)).max() == 0.0

    def test_human_dump_includes_residual_summary(self, capsys):
        assert main(["factorize", fx("scalar_demo.json")]) == 0
        out = capsys.readouterr().out
        assert "FACTORIZE result=PASS" in out
        assert "factor mhat" in out

    def test_tol_override_can_force_failure(self, capsys):
        assert main(["factorize", fx("scalar_demo.json"), "--tol", "1e-20"]) == 1


class TestSynthesizeH2:
    def test_feasible_fixture_passes_and_writes_bundle(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        code, report = run_json(
            capsys, ["synthesize-h2", fx("coupled_h2.json"), "--out", str(out)]
        )
        assert code == 0
        assert report["passed"] is True
        assert report["cost"]["final"] <= report["cost"]["initial"]
        assert report["verdicts"]["qhat_membership"]["in_qhat"] is True
        assert report["verdicts"]["closed_loop_stable"] is True
        assert report["verdicts"]["controller_pr"]["passed"] is True
        for name in ("result.json", "trace.csv", "profile.csv"):
            assert (out / name).exists()

    def test_trace_csv_shape_and_row_budget(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(["synthesize-h2", fx("coupled_h2.json"), "--out", str(out)])
        capsys.readouterr()
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,E,grad_norm,step_norm,constraint_residual,alpha"
        max_iters = 50  # from the fixture's descent section
        assert 2 <= len(lines) <= max_iters + 1 + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[4]) < 1e-6

    def test_profile_csv_sorted(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(["synthesize-h2", fx("coupled_h2.json"), "--out", str(out)])
        capsys.readouterr()
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[0] == "omega,sigma_max"
        omegas = [float(line.split(",")[0]) for line in lines[1:]]
        assert omegas == sorted(omegas)
        assert len(omegas) == 17  # fixture grid

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["synthesize-h2", fx("coupled_h2.json"), "--out", str(out_a)])
        main(["synthesize-h2", fx("coupled_h2.json"), "--out", str(out_b)])
        capsys.readouterr()
        for name in ("result.json", "trace.csv", "profile.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_emitted_controller_round_trips_to_library_response(
        self, tmp_path, capsys
    ):
        out = tmp_path / "bundle"
        code, report = run_json(
            capsys, ["synthesize-h2", fx("coupled_h2.json"), "--out", str(out)]
        )
        assert code == 0
        emitted = decode_realization(report["controller"])
        _, cf = coupled_cavity_loop()
        reference = controller_from_parameter(cf, exact_cavity_parameter(1))
        om = log_grid(1e-2, 1e2, 21)
        assert np.abs(emitted.response(om) - reference.response(om)).max() < 1e-12

    def test_from_controller_initialization_matches_explicit(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a, rep_a = run_json(
            capsys, ["synthesize-h2", fx("coupled_h2.json"), "--out", str(out_a)]
        )
        code_b, rep_b = run_json(
            capsys, ["synthesize-h2", fx("coupled_h2_fc.json"), "--out", str(out_b)]
        )
        assert code_a == code_b == 0
        assert rep_b["fit_residual"] < 1e-9
        assert rep_a["cost"]["final"] == pytest.approx(
            rep_b["cost"]["final"], rel=1e-12
        )

    def test_zero_constraint_tolerance_is_infeasible(self, tmp_path, capsys):
        original = json.loads(Path(fx("coupled_h2.json")).read_text())
        original["descent"]["constraint_tol"] = 0.0
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps(original))
        assert main(["synthesize-h2", str(strict), "--out", str(tmp_path / "o")]) == 1
        assert "InfeasibleStart" in capsys.readouterr().err

    def test_loose_tolerance_keeps_controller_realizability(self, tmp_path, capsys):
        # the channel-mixing output weight of the two-channel cavity leaves
        # the order-4 descent short of the realizable set; --tol loosens
        # only the parameter residual, so the controller's own
        # realizability verdict still fails the run
        doc = json.loads(Path(fx("coupled_h2.json")).read_text())
        doc["weights"]["w_out"] = {
            "a": [[[-10.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                  [[0.0, 0.0], [-3.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                  [[0.0, 0.0], [0.0, 0.0], [-3.0, 0.0], [0.0, 0.0]],
                  [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-10.0, 0.0]]],
            "b": [[[10.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, 0.0]],
                  [[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [10.0, 0.0]]],
            "c": [[[0.7, 0.0], [0.3, 0.0], [0.0, 0.0], [0.0, 0.0]],
                  [[0.0, 0.0], [0.0, 0.0], [0.3, 0.0], [0.7, 0.0]]],
            "d": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        }
        zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        doc["youla"]["order"] = 4
        doc["youla"]["q_init"] += [zero] * 3
        doc["descent"] = {"max_iters": 40, "grad_tol": 1e-6, "constraint_tol": 1e-6,
                          "correction_period": 5}
        path = tmp_path / "mixing.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(
            capsys, ["synthesize-h2", str(path), "--tol", "10", "--out", str(tmp_path / "o")]
        )
        verdicts = report["verdicts"]
        assert verdicts["qhat_membership"]["in_q"] is True
        assert verdicts["controller_pr"]["passed"] is False
        assert verdicts["qhat_membership"]["in_qhat"] is False
        assert code == 1 and report["passed"] is False

    def test_grid_points_without_grid_section_is_input_error(self, tmp_path, capsys):
        doc = json.loads(Path(fx("coupled_h2.json")).read_text())
        del doc["grid"]
        path = tmp_path / "gridless.json"
        path.write_text(json.dumps(doc))
        argv = ["synthesize-h2", str(path), "--out", str(tmp_path / "o")]
        assert main(argv + ["--grid-points", "5"]) == 2
        assert "--grid-points needs a 'grid' section" in capsys.readouterr().err

    def test_missing_youla_section_is_input_error(self, tmp_path, capsys):
        code = main(
            ["synthesize-h2", fx("cavity_pr.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "youla" in capsys.readouterr().err


class TestEvalHinf:
    def test_allpass_loop_has_unit_norm(self, tmp_path, capsys):
        profile = tmp_path / "profile.csv"
        code, report = run_json(
            capsys, ["eval-hinf", fx("allpass_hinf.json"), "--out", str(profile)]
        )
        assert code == 0
        assert report["norm"] == pytest.approx(1.0, abs=1e-5)
        lines = profile.read_text().splitlines()
        assert lines[0] == "omega,sigma_max"
        omegas = [float(line.split(",")[0]) for line in lines[1:]]
        assert omegas == sorted(omegas)
        sigmas = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(abs(s - 1.0) for s in sigmas) < 1e-8

    def test_dead_coupling_makes_norm_parameter_independent(self, tmp_path, capsys):
        prof_a, prof_b = tmp_path / "a.csv", tmp_path / "b.csv"
        code_a, rep_a = run_json(
            capsys,
            [
                "eval-hinf",
                fx("t1_zero.json"),
                "--q-from",
                fx("q_static_phase.json"),
                "--out",
                str(prof_a),
            ],
        )
        code_b, rep_b = run_json(
            capsys,
            [
                "eval-hinf",
                fx("t1_zero.json"),
                "--q-from",
                fx("q_zero_scalar.json"),
                "--out",
                str(prof_b),
            ],
        )
        assert code_a == code_b == 0
        assert rep_a["norm"] == rep_b["norm"]
        assert rep_a["norm"] == pytest.approx(1.0, rel=1e-4)
        assert prof_a.read_bytes() == prof_b.read_bytes()

    def test_grid_points_override_controls_profile(self, tmp_path, capsys):
        code, report = run_json(
            capsys,
            [
                "eval-hinf",
                fx("t1_zero.json"),
                "--grid-points",
                "11",
                "--out",
                str(tmp_path / "p.csv"),
            ],
        )
        assert code == 0
        assert report["grid_points"] == 11

    def test_grid_points_without_grid_section_is_input_error(self, tmp_path, capsys):
        # without a grid section the grid spans the weights at a fixed size
        argv = ["eval-hinf", fx("cavity_pr.json"), "--out", str(tmp_path / "p.csv")]
        assert main(argv + ["--grid-points", "5"]) == 2
        assert "--grid-points needs a 'grid' section" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()
        code, report = run_json(capsys, argv)
        assert code == 0 and report["grid_points"] == 33

    def test_q_file_without_parameter_is_input_error(self, tmp_path, capsys):
        code = main(
            [
                "eval-hinf",
                fx("t1_zero.json"),
                "--q-from",
                fx("scalar_demo.json"),
                "--out",
                str(tmp_path / "p.csv"),
            ]
        )
        assert code == 2
        assert "youla" in capsys.readouterr().err

    def test_wrong_shape_parameter_names_the_slots(self, tmp_path, capsys):
        code = main(
            [
                "eval-hinf",
                fx("allpass_hinf.json"),
                "--q-from",
                fx("q_zero_scalar.json"),
                "--out",
                str(tmp_path / "p.csv"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "input error: parameter block (1, 1) does not fit slots (2, 2)\n"
        )


class TestClosedLoop:
    def test_quantum_controller_closes_stably(self, capsys):
        code, report = run_json(
            capsys,
            [
                "closed-loop",
                fx("cavity_pr.json"),
                "--q-from",
                fx("q_from_controller.json"),
            ],
        )
        assert code == 0
        assert report["stable"] is True
        assert report["abscissa"] < -0.5
        emitted = decode_realization(report["controller"])
        assert emitted.shape == (2, 2)

    def test_loop_at_structural_order(self, capsys):
        # plant (2 states) + controller (2 plant states + 2 parameter states)
        code, report = run_json(
            capsys,
            ["closed-loop", fx("cavity_pr.json"), "--q-from", fx("q_from_controller.json")],
        )
        assert code == 0
        assert report["loop_states"] == 6

    def test_non_stabilizing_controller_is_domain_failure(self, capsys):
        code = main(
            [
                "closed-loop",
                fx("cavity_pr.json"),
                "--q-from",
                fx("q_unstable_controller.json"),
            ]
        )
        assert code == 1
        assert "NotInYoulaRange" in capsys.readouterr().err

    def test_human_verdict_line(self, capsys):
        code = main(
            [
                "closed-loop",
                fx("cavity_pr.json"),
                "--q-from",
                fx("q_from_controller.json"),
            ]
        )
        assert code == 0
        assert "CLOSED-LOOP result=STABLE" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--tol", "1"], ["--grid-points", "5"]])
    def test_tuning_flags_are_usage_errors(self, capsys, flag):
        # closed-loop has no tolerance and samples no grid
        argv = ["closed-loop", fx("cavity_pr.json"), "--q-from", fx("q_from_controller.json")]
        assert main(argv + flag) == 2


class TestBareYoulaSection:
    """A ``youla`` section with only ``beta`` and ``order`` is the zero parameter."""

    @pytest.mark.parametrize("command", ["eval-hinf", "closed-loop"])
    def test_same_report_as_explicit_zero_coefficients(self, tmp_path, capsys, command):
        zero = [[[[0.0, 0.0]] * 2] * 2] * 3
        explicit = tmp_path / "q_explicit.json"
        explicit.write_text(
            json.dumps({"youla": {"beta": 2.0, "order": 2, "q_init": zero}})
        )
        runs = []
        for q_file in (fx("q_zero_basis.json"), str(explicit)):
            argv = [command, fx("cavity_pr.json"), "--q-from", q_file]
            profile = tmp_path / f"{len(runs)}.csv"
            if command == "eval-hinf":
                argv += ["--out", str(profile)]
            code, report = run_json(capsys, argv)
            report.pop("profile_csv", None)
            text = profile.read_bytes() if command == "eval-hinf" else None
            runs.append((code, report, text))
        assert runs[0] == runs[1]
        # plant (2 states) + controller (2 plant states + the parameter's
        # order-2 chain on 2 channels)
        if command == "closed-loop":
            assert runs[0][1]["loop_states"] == 2 + 2 + 2 * 2


class TestInvocation:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["renormalize", "x.json"]) == 2

    def test_missing_required_out_flag(self, capsys):
        assert main(["synthesize-h2", fx("coupled_h2.json")]) == 2

    def test_nonpositive_grid_points_rejected(self, capsys):
        assert main(["factorize", fx("cavity_pr.json"), "--grid-points", "0"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_one_parser_serves_consecutive_calls(self, tmp_path, capsys):
        # the parser is built once per process: no call may see the flags
        # or the subcommand of the call before it
        csv, bundle = str(tmp_path / "profile.csv"), str(tmp_path / "bundle")
        calls = [
            ["check-pr", fx("cavity_pr.json"), "--tol", "1e-30"],
            ["check-pr", fx("cavity_pr.json")],
            ["factorize", fx("scalar_demo.json"), "--grid-points", "9", "--tol", "1e-30"],
            ["factorize", fx("scalar_demo.json")],
            ["eval-hinf", fx("allpass_hinf.json"), "--grid-points", "9", "--out", csv],
            ["eval-hinf", fx("allpass_hinf.json"), "--out", csv],
            ["synthesize-h2", fx("coupled_h2.json"), "--tol", "1e-30", "--out", bundle],
            ["synthesize-h2", fx("coupled_h2.json"), "--out", bundle],
            ["check-pr", fx("cavity_pr.json"), "--grid-points", "9"],
            ["closed-loop", fx("cavity_pr.json"), "--q-from", fx("q_zero_basis.json")],
        ]

        def run(argv):
            code = main(argv + ["--json"])
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        shared = [run(argv) for argv in calls]
        assert cli._parser() is cli._parser()
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [1, 0, 1, 0, 0, 0, 1, 0, 2, 0]

    def test_removed_gain_options_are_usage_errors(self, capsys):
        # the eigenvalue-assignment policy and the seed that fed it are gone
        assert main(["factorize", fx("scalar_demo.json"), "--policy", "assign"]) == 2
        assert main(["factorize", fx("scalar_demo.json"), "--seed", "3"]) == 2
