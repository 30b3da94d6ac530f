"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_circuits_lists_suite(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        assert "s298" in out and "s5378" in out

    def test_plan_s27(self, capsys):
        code = main(["plan", "s27"])
        out = capsys.readouterr().out
        assert "interconnect planning: s27" in out
        assert code in (0, 1)  # 1 = not converged, still a valid run

    def test_verify_reports_equivalence(self, capsys):
        assert main(["verify"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_unknown_circuit_exits_2(self, capsys):
        assert main(["plan", "s9999"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line message, no traceback
        assert "unknown circuit" in err and "s9999" in err

    def test_table1_unknown_circuit_exits_2(self, capsys):
        assert main(["table1", "s9999"]) == 2
        assert "s9999" in capsys.readouterr().err

    def test_plan_flow_error_exits_2(self, capsys, monkeypatch):
        from repro import __main__ as cli
        from repro.errors import PlanningError

        def _boom(*_a, **_k):
            raise PlanningError("synthetic flow failure")

        monkeypatch.setattr("repro.core.plan_interconnect", _boom)
        assert main(["plan", "s27"]) == 2
        err = capsys.readouterr().err
        assert "synthetic flow failure" in err
        assert cli.EXIT_ERROR == 2

    def test_infeasible_distinguished_from_not_converged(self, monkeypatch):
        """Exit 3 = infeasible target period, exit 1 = not converged."""
        import repro.core as core
        from repro import __main__ as cli

        class _It:
            infeasible = True

        class _Outcome:
            converged = False
            final = _It()

            def report(self):
                return "stub report"

        monkeypatch.setattr(core, "plan_interconnect", lambda *a, **k: _Outcome())
        assert main(["plan", "s27"]) == cli.EXIT_INFEASIBLE
        _It.infeasible = False
        assert main(["plan", "s27"]) == cli.EXIT_NOT_CONVERGED

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bench_is_not_a_command(self, capsys):
        # Benchmarks run through perfbench/run.py, per-stage timing
        # through `plan --trace` + `trace summarize`.
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "summarize"],
        ["trace", "validate"],
        ["trace", "flamegraph"],
        ["verify"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_non_utf8_file_is_a_typed_error(argv, tmp_path, capsys):
    """Reading a file that is not UTF-8 fails with exit 2, not a traceback."""
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff" + b'{"schema": "repro-trace/1"}\n')
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "error:" in captured.err


class TestVerifyCLI:
    """End-to-end coverage of ``plan --verify`` / ``verify <target>``."""

    @pytest.fixture(scope="class")
    def ckpt_dir(self, tmp_path_factory):
        import contextlib
        import io

        root = tmp_path_factory.mktemp("cli-vckpt")
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(
                ["plan", "s27", "--quick", "--verify",
                 "--checkpoint-dir", str(root)]
            )
        assert code in (0, 1)
        assert "verification:" in buffer.getvalue()
        return root

    def test_audit_clean_checkpoint(self, ckpt_dir, capsys):
        assert main(["verify", str(ckpt_dir)]) == 0
        out = capsys.readouterr().out
        assert "s27" in out and "all pass" in out

    def test_injected_fault_exits_5(self, ckpt_dir, capsys):
        code = main(
            ["verify", str(ckpt_dir), "--inject-result-fault", "retime_label"]
        )
        captured = capsys.readouterr()
        assert code == 5
        assert "retime_label" in captured.err
        assert "retiming" in captured.out  # owning checker named

    def test_outcome_json_round_trip(self, ckpt_dir, tmp_path, capsys):
        path = tmp_path / "outcome.json"
        code = main(
            ["plan", "s27", "--quick", "--verify",
             "--outcome-json", str(path)]
        )
        capsys.readouterr()
        assert code in (0, 1) and path.exists()
        assert main(["verify", str(path)]) == 0
        assert "all pass" in capsys.readouterr().out

    def test_missing_target_exits_2(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_inject_without_target_exits_2(self, capsys):
        code = main(["verify", "--inject-result-fault", "retime_label"])
        assert code == 2
        assert "target" in capsys.readouterr().err

    def test_unknown_fault_kind_exits_2(self, ckpt_dir, capsys):
        code = main(
            ["verify", str(ckpt_dir), "--inject-result-fault", "bitrot"]
        )
        assert code == 2
        assert "unknown result fault kind" in capsys.readouterr().err
