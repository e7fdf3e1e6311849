"""CLI coverage for the lint-code / analyze-plan subcommands and their
shared exit-code + --format json contract."""

import json

from repro.api import Session
from repro.cli import main
class TestLintCode:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("X = 1\n")
        assert main(["lint-code", str(target)]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main(["lint-code", str(target)]) == 1
        out = capsys.readouterr().out
        assert "CL201" in out
        assert "dirty.py:3" in out

    def test_default_target_is_repro_package(self, capsys):
        # The shipped sources are the lint gate's subject; the default
        # invocation must agree with the gate and exit clean.
        assert main(["lint-code"]) == 0

    def test_rule_selection(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main(["lint-code", str(target), "--rules", "CL204"]) == 0

    def test_unknown_rule_id_exits_two(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("X = 1\n")
        assert main(["lint-code", str(target), "--rules", "CL999"]) == 2
        assert "unknown code rule" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main(["lint-code", str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["warnings"] == 0
        [record] = payload["diagnostics"]
        assert record["rule"] == "CL201"
        assert record["severity"] == "error"
        assert record["location"].endswith("dirty.py:3")


class TestAnalyzePlan:
    def test_builtin_workload_clean_exits_zero(self, capsys):
        code = main(
            ["analyze-plan", "--workload", "sales", "--rows", "800"]
        )
        assert code == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_json_format(self, capsys):
        code = main(
            [
                "analyze-plan",
                "--workload",
                "customers",
                "--rows",
                "600",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"diagnostics": [], "errors": 0, "warnings": 0}

    def test_states_rendering(self, capsys):
        code = main(
            [
                "analyze-plan",
                "--workload",
                "sales",
                "--rows",
                "600",
                "--queries",
                "region;region,state",
                "--states",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- abstract states --" in out
        assert "raw" in out

    def test_missing_source_exits_two(self, capsys):
        assert main(["analyze-plan"]) == 2
        assert "provide a CSV path or --workload" in capsys.readouterr().err

    def test_unknown_rule_id_exits_two(self, capsys):
        code = main(
            [
                "analyze-plan",
                "--workload",
                "sales",
                "--rows",
                "600",
                "--rules",
                "PV999",
            ]
        )
        assert code == 2
        assert "unknown physical rule" in capsys.readouterr().err

    def test_parallel_lowering_clean(self, capsys, monkeypatch):
        # Force each parallel mode and check the plan carries it.
        lowered = []
        lower = Session.lower

        def spy(self, *args, **kwargs):
            lowered.append(lower(self, *args, **kwargs))
            return lowered[-1]

        monkeypatch.setattr(Session, "lower", spy)
        for mode in ("wavefront", "morsel"):
            code = main(
                [
                    "analyze-plan",
                    "--workload",
                    "lineitem",
                    "--rows",
                    "800",
                    "--parallelism",
                    "2",
                    "--mode",
                    mode,
                ]
            )
            assert code == 0
            assert lowered[-1].mode == mode
            assert lowered[-1].waves
