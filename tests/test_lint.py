"""The invariant linter: rules, fixtures, suppressions, CLI.

Every rule is exercised against a golden bad/good fixture pair under
``tests/fixtures/lint`` -- the same files ``repro lint --explain`` renders,
so examples and behavior cannot drift apart.  The meta-test at the bottom
is the repo's own gate: the shipped tree must lint clean.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import RULES, lint_paths
from repro.analysis.lint.cli import run_lint
from repro.analysis.lint.explain import explain_rule
from repro.analysis.lint.layers import layer_of, layering_violation
from repro import cli as repro_cli

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"


def _slug(rule_name):
    return rule_name.replace("-", "_")


def _lint_fixture(name, **kwargs):
    return lint_paths(
        [str(FIXTURES / name)], repo_root=REPO_ROOT, **kwargs
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_at_least_five_rules(self):
        assert len(RULES) >= 5

    def test_expected_rules_present(self):
        assert set(RULES) >= {
            "determinism",
            "hash-surface",
            "layering",
            "telemetry-inert",
            "console",
        }

    @pytest.mark.parametrize("rule_name", sorted(RULES))
    def test_rule_metadata(self, rule_name):
        rule = RULES[rule_name]
        assert rule.severity in {"error", "warning"}
        assert rule.summary
        assert len(rule.rationale) > 40  # a real rationale, not a stub

    @pytest.mark.parametrize("rule_name", sorted(RULES))
    def test_every_rule_has_fixture_pair(self, rule_name):
        assert (FIXTURES / f"{_slug(rule_name)}_bad.py").is_file()
        assert (FIXTURES / f"{_slug(rule_name)}_good.py").is_file()


# ---------------------------------------------------------------------------
# Golden fixtures: each rule fires on its bad example, not on its good one
# ---------------------------------------------------------------------------


class TestGoldenFixtures:
    @pytest.mark.parametrize("rule_name", sorted(RULES))
    def test_bad_fixture_fires(self, rule_name):
        report = _lint_fixture(f"{_slug(rule_name)}_bad.py")
        fired = {finding.rule for finding in report.findings}
        assert rule_name in fired
        # The bad fixture is crafted for exactly one rule: no bycatch.
        assert fired == {rule_name}

    @pytest.mark.parametrize("rule_name", sorted(RULES))
    def test_good_fixture_clean(self, rule_name):
        report = _lint_fixture(f"{_slug(rule_name)}_good.py")
        assert report.findings == []
        assert report.errors == []

    def test_findings_carry_location_and_severity(self):
        report = _lint_fixture("determinism_bad.py")
        for finding in report.findings:
            assert finding.path.endswith("determinism_bad.py")
            assert finding.line > 0
            assert finding.severity == "error"
            assert finding.message


# ---------------------------------------------------------------------------
# Layer map
# ---------------------------------------------------------------------------


class TestLayers:
    def test_layer_of(self):
        assert layer_of("repro.hashing") == "base"
        assert layer_of("repro.sim.engine") == "model"
        assert layer_of("repro.obs.state") == "obs"
        assert layer_of("repro.runtime.jobs") == "runtime"
        assert layer_of("repro.cli.run") == "app"
        assert layer_of("numpy") is None

    def test_forbidden_edges(self):
        assert layering_violation("repro.sim.engine", "repro.obs.state")
        assert layering_violation("repro.obs.state", "repro.runtime.jobs")
        assert layering_violation("repro.power.models", "repro.runtime.cache")

    def test_allowed_edges(self):
        assert layering_violation("repro.runtime.jobs", "repro.sim.engine") is None
        assert layering_violation("repro.cli.fleet", "repro.fleet.service") is None
        assert layering_violation("repro.sim.engine", "repro.config") is None


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppression:
    def test_inline_pragma_waives_the_finding(self):
        report = _lint_fixture("suppressed.py")
        assert report.findings == []
        assert report.suppressed == 1

    def test_pragma_only_waives_named_rule(self, tmp_path):
        victim = tmp_path / "wrong_pragma.py"
        victim.write_text(
            'print("x")  # reprolint: disable=determinism\n', encoding="utf-8"
        )
        report = lint_paths([str(victim)], repo_root=tmp_path)
        assert [finding.rule for finding in report.findings] == ["console"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_exit_zero_on_clean_file(self):
        code = run_lint(
            [str(FIXTURES / "console_good.py")], repo_root=REPO_ROOT
        )
        assert code == 0

    @pytest.mark.parametrize("rule_name", sorted(RULES))
    def test_exit_nonzero_on_each_bad_fixture(self, rule_name):
        code = run_lint(
            [str(FIXTURES / f"{_slug(rule_name)}_bad.py")], repo_root=REPO_ROOT
        )
        assert code == 1

    def test_unknown_rule_is_usage_error(self, capsys):
        code = run_lint([], rules=["no-such-rule"], repo_root=REPO_ROOT)
        assert code == 2
        assert "no-such-rule" in capsys.readouterr().err

    def test_json_report_shape(self, capsys):
        code = run_lint(
            [str(FIXTURES / "layering_bad.py")], as_json=True, repo_root=REPO_ROOT
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "layering"
        assert finding["severity"] == "error"
        assert finding["line"] > 0

    def test_explain_renders_fixture_examples(self, capsys):
        for rule_name in sorted(RULES):
            code = run_lint([], explain=rule_name, repo_root=REPO_ROOT)
            assert code == 0
            text = capsys.readouterr().out
            assert RULES[rule_name].rationale[:40] in text.replace("\n", " ")
            assert "Fires on:" in text
            assert "Clean:" in text

    def test_explain_matches_rule_rationale(self):
        text = explain_rule("hash-surface", repo_root=REPO_ROOT)
        assert "WidgetSpec" in text  # sourced from the fixture, not prose

    def test_repro_cli_wires_lint_subcommand(self, capsys):
        code = repro_cli.main(["lint", str(FIXTURES / "console_good.py")])
        assert code == 0
        code = repro_cli.main(["lint", str(FIXTURES / "console_bad.py")])
        assert code == 1
        code = repro_cli.main(["lint", "--list-rules"])
        assert code == 0
        assert "determinism" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The gate itself: the shipped tree is clean
# ---------------------------------------------------------------------------


class TestShippedTree:
    def test_zero_findings_over_the_repo(self):
        report = lint_paths(repo_root=REPO_ROOT)
        assert report.errors == []
        assert report.findings == [], "\n".join(
            finding.render() for finding in report.findings
        )
        assert report.files_scanned > 100  # the walk actually covered the tree

    def test_fixture_violations_are_not_swept_into_the_walk(self):
        report = lint_paths(repo_root=REPO_ROOT)
        assert not any("fixtures" in finding.path for finding in report.findings)
