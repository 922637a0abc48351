"""Tests for the determinism/aliasing linter (repro.analysis.lint).

The fixture package ``tests/lint_fixtures/`` carries one intentionally
broken and one clean snippet per rule.  Broken fixtures mark each line
that must fire with a ``# expect: RULE`` comment; the tests assert the
linter reports exactly those (rule, line) pairs and nothing else.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULE_TITLES,
    Finding,
    apply_baseline,
    lint_paths,
    load_baseline,
    main,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_ROOT = Path(__file__).resolve().parent / "lint_fixtures"

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z]\d+)")

FIXTURES = sorted(
    p.relative_to(FIXTURE_ROOT).as_posix()
    for p in FIXTURE_ROOT.rglob("*.py")
)


def _expected_markers(path: Path):
    expected = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        match = _EXPECT_RE.search(line)
        if match:
            expected.setdefault(match.group(1), []).append(lineno)
    return {rule: sorted(lines) for rule, lines in expected.items()}


class TestFixtures:
    def test_fixture_package_covers_every_rule(self):
        rules = set()
        for rel in FIXTURES:
            rules |= set(_expected_markers(FIXTURE_ROOT / rel))
        assert rules == set(RULE_TITLES)

    def test_every_rule_has_a_clean_twin(self):
        broken = {f for f in FIXTURES if f.endswith("_broken.py")}
        for name in broken:
            assert name.replace("_broken.py", "_clean.py") in FIXTURES

    @pytest.mark.parametrize("rel", FIXTURES)
    def test_fixture_fires_exactly_where_marked(self, rel):
        path = FIXTURE_ROOT / rel
        expected = _expected_markers(path)
        findings = lint_paths([path], root=FIXTURE_ROOT)
        got = {}
        for finding in findings:
            got.setdefault(finding.rule, []).append(finding.line)
        got = {rule: sorted(lines) for rule, lines in got.items()}
        assert got == expected, f"{rel}: expected {expected}, linter reported {got}"

    def test_clean_fixtures_have_no_markers(self):
        for rel in FIXTURES:
            if rel.endswith("_clean.py"):
                assert _expected_markers(FIXTURE_ROOT / rel) == {}


class TestRepoTree:
    def test_src_scripts_benchmarks_lint_clean(self):
        """The shipped tree has zero non-baselined violations."""
        findings = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "scripts", REPO_ROOT / "benchmarks"],
            root=REPO_ROOT,
        )
        suppressions = load_baseline(REPO_ROOT / "lint-baseline.json")
        unused = apply_baseline(findings, suppressions)
        live = [f for f in findings if not f.baselined]
        assert live == [], "\n".join(f.format() for f in live)
        assert unused == [], f"stale baseline entries: {unused}"


class TestBaseline:
    def _finding(self, **kwargs):
        defaults = dict(
            rule="D004",
            path="src/repro/verification/linearizability.py",
            line=10,
            col=0,
            symbol="Checker._search",
            message="id() used as a collection key",
        )
        defaults.update(kwargs)
        return Finding(**defaults)

    def test_matching_entry_suppresses(self):
        finding = self._finding()
        unused = apply_baseline(
            [finding],
            [
                {
                    "rule": "D004",
                    "path": "verification/linearizability.py",
                    "symbol": "Checker._search",
                    "reason": "identity map, never ordered",
                }
            ],
        )
        assert finding.baselined
        assert finding.reason == "identity map, never ordered"
        assert unused == []

    def test_non_matching_entry_reported_unused(self):
        finding = self._finding()
        entry = {"rule": "D001", "path": "nope.py", "symbol": "x", "reason": "r"}
        unused = apply_baseline([finding], [entry])
        assert not finding.baselined
        assert unused == [entry]

    def test_one_entry_suppresses_all_findings_of_its_triple(self):
        findings = [self._finding(line=10), self._finding(line=40)]
        unused = apply_baseline(
            findings,
            [
                {
                    "rule": "D004",
                    "path": "linearizability.py",
                    "symbol": "Checker._search",
                    "reason": "r",
                }
            ],
        )
        assert all(f.baselined for f in findings)
        assert unused == []


class TestCli:
    def test_exit_one_on_violations(self, capsys):
        rc = main([str(FIXTURE_ROOT / "d002_broken.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "D002" in out

    def test_exit_zero_on_clean_input(self, capsys):
        rc = main([str(FIXTURE_ROOT / "d002_clean.py")])
        assert rc == 0

    def test_exit_two_on_bad_baseline(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("not json")
        rc = main([str(FIXTURE_ROOT / "d002_clean.py"), "--baseline", str(bad)])
        assert rc == 2

    def test_baseline_suppression_via_cli(self, tmp_path, capsys):
        target = FIXTURE_ROOT / "d004_broken.py"
        findings = lint_paths([target], root=FIXTURE_ROOT)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "suppressions": [
                        {
                            "rule": f.rule,
                            "path": f.path,
                            "symbol": f.symbol,
                            "reason": "fixture-intentional",
                        }
                        for f in findings
                    ]
                }
            )
        )
        rc = main([str(target), "--baseline", str(baseline)])
        assert rc == 0

    def test_json_report_written(self, tmp_path):
        report = tmp_path / "report.json"
        rc = main(
            [str(FIXTURE_ROOT / "sim" / "d001_broken.py"), "--json", str(report), "--quiet"]
        )
        assert rc == 1
        payload = json.loads(report.read_text())
        assert payload["live"] >= 1
        assert payload["baselined"] == 0
        rules = {item["rule"] for item in payload["findings"]}
        assert rules == {"D001"}

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(FIXTURE_ROOT / "m002_broken.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "M002" in proc.stdout

    def test_syntax_error_reported_as_e999(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        rc = main([str(bad)])
        assert rc == 1
        assert "E999" in capsys.readouterr().out


class TestRunLintScript:
    def test_explicit_paths_pass_through(self):
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "run_lint.py"),
                str(FIXTURE_ROOT / "d004_broken.py"),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 1
        assert "D004" in proc.stdout
