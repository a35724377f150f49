"""CLI contract: exit codes, human output, JSON report shape, artifacts."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_MODULE = textwrap.dedent(
    """
    import time

    def measure(fn):
        start = time.time()
        fn()
        return time.time() - start
    """
)


def write_tree(tmp_path, source):
    package = tmp_path / "src" / "repro" / "demo"
    package.mkdir(parents=True)
    module = package / "module.py"
    module.write_text(source, encoding="utf-8")
    return module


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, "def ok():\n    return 1\n")
        assert main([str(tmp_path)]) == 0
        assert "OK: 0 findings" in capsys.readouterr().out

    def test_findings_exit_one_with_rendered_locations(self, tmp_path, capsys):
        module = write_tree(tmp_path, BAD_MODULE)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"{module}:" in out
        assert "RPR004" in out
        assert "2 finding(s)" in out

    def test_missing_path_and_syntax_error_exit_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nowhere")]) == 2
        broken = write_tree(tmp_path, "def broken(:\n")
        assert main([str(broken)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_paths_exits_two(self, capsys):
        assert main([]) == 2
        assert "no paths" in capsys.readouterr().err


class TestJsonReport:
    def test_json_stdout_shape(self, tmp_path, capsys):
        write_tree(tmp_path, BAD_MODULE)
        assert main([str(tmp_path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["version"] == 1
        assert report["files"] == 1
        assert report["counts_by_code"] == {"RPR004": 2}
        assert {finding["code"] for finding in report["findings"]} == {"RPR004"}

    def test_json_output_artifact_written_even_when_clean(self, tmp_path, capsys):
        write_tree(tmp_path, "def ok():\n    return 1\n")
        artifact = tmp_path / "ANALYSIS_report.json"
        assert main([str(tmp_path), "--json-output", str(artifact)]) == 0
        capsys.readouterr()
        report = json.loads(artifact.read_text(encoding="utf-8"))
        assert report["ok"] is True
        assert report["findings"] == []

    def test_suppressed_findings_are_accounted(self, tmp_path, capsys):
        write_tree(
            tmp_path,
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # repro: ignore[RPR004] - wall-clock label\n",
        )
        artifact = tmp_path / "report.json"
        assert main([str(tmp_path), "--json-output", str(artifact)]) == 0
        capsys.readouterr()
        report = json.loads(artifact.read_text(encoding="utf-8"))
        assert report["findings"] == []
        assert [finding["code"] for finding in report["suppressed"]] == ["RPR004"]


class TestModuleEntryPoint:
    def test_list_rules_via_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        for code in [f"RPR00{n}" for n in (1, 2, 4, 5, 6, 7, 8)] + ["RPR900"]:
            assert code in result.stdout
