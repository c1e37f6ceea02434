"""Smoke test for the python -m repro.bench command-line entry point."""

import os
import subprocess
import sys


def test_cli_prints_all_tables():
    env = dict(os.environ)
    env["REPRO_BENCH_DATASETS"] = "d1"
    completed = subprocess.run(
        [sys.executable, "-m", "repro.bench", "d1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=900,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    for marker in (
        "Table VI",
        "Figure 3",
        "Table VII(a)",
        "Table VIII",
        "Table IX",
        "Table X",
        "Table XI",
    ):
        assert marker in completed.stdout


def test_cli_rejects_unknown_dataset():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.bench", "d99"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    # The error names the offender and lists every valid dataset.
    assert "d99" in completed.stderr
    assert "d1" in completed.stderr and "d10" in completed.stderr


class TestArgumentParsing:
    """In-process coverage of the CLI's validation and policy flags."""

    def _parse(self, *argv):
        from repro.bench.__main__ import parse_args

        return parse_args(list(argv))

    def test_defaults(self):
        args = self._parse()
        assert args.datasets == []
        assert args.timeout is None
        assert args.max_retries == 2
        assert not args.strict

    def test_policy_flags_reach_the_policy(self):
        from repro.bench.__main__ import policy_from_args

        args = self._parse(
            "d1", "--timeout", "900", "--max-retries", "5",
            "--memory-budget", "2048", "--strict",
        )
        policy = policy_from_args(args)
        assert policy.timeout == 900.0
        assert policy.memory_budget_mb == 2048.0
        assert policy.max_retries == 5
        assert policy.strict

    def test_unknown_dataset_message_lists_valid_names(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            self._parse("d1", "nope")
        err = capsys.readouterr().err
        assert "nope" in err
        assert "valid names are" in err

    def test_invalid_budgets_rejected(self):
        import pytest

        for argv in (
            ["--timeout", "0"],
            ["--max-retries", "-1"],
            ["--save-every", "0"],
        ):
            with pytest.raises(SystemExit):
                self._parse(*argv)

    def test_workers_flag(self):
        import pytest

        assert self._parse().workers is None
        assert self._parse("--workers", "4").workers == 4
        assert self._parse("--workers", "0").workers == 0  # one per CPU
        with pytest.raises(SystemExit):
            self._parse("--workers", "-1")

    def test_prune_flag(self, capsys):
        import pytest

        assert self._parse().prune is False
        assert self._parse("--prune").prune is True
        with pytest.raises(SystemExit) as excinfo:
            self._parse("--no-prune")
        assert excinfo.value.code == 2
        assert "--no-prune" in capsys.readouterr().err
