"""The benchmark harness CLI: stamping, name selection, compare mode.

Runs the cheapest benchmark in-process (``event_scheduling``, ~10 ms) so the
CLI contract is covered without paying for the full suite.
"""

import json

import numpy as np
import pytest

from repro.sim import bench


def _run(argv):
    return bench.main(argv)


def test_report_is_stamped(tmp_path):
    out = tmp_path / "report.json"
    assert _run(["event_scheduling", "--repeats", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == bench.SCHEMA_VERSION
    assert report["numpy"] == np.__version__
    assert isinstance(report["git_commit"], str) and report["git_commit"]
    # Schema v3: the compiled-backend stamps are gone with the backends.
    assert not {"engine_backend", "numba", "cython"} & set(report)
    assert set(report["benchmarks"]) == {"event_scheduling"}
    entry = report["benchmarks"]["event_scheduling"]
    assert entry["units"] == 10_000
    assert entry["wall_s"] > 0
    assert entry["rate_per_s"] > 0


def test_unknown_benchmark_name_is_refused(capsys):
    with pytest.raises(SystemExit) as excinfo:
        _run(["no_such_benchmark"])
    assert excinfo.value.code != 0
    err = capsys.readouterr().err
    assert "no_such_benchmark" in err
    assert "event_scheduling" in err  # the valid names are listed


def test_registry_covers_every_bench_function():
    prefix = "bench_"
    defined = {
        name[len(prefix):]
        for name in vars(bench)
        if name.startswith(prefix)
    }
    assert defined == set(bench.BENCHMARKS)


def test_compare_flags_only_real_regressions(tmp_path):
    baseline = {
        "git_commit": "cafe",
        "benchmarks": {
            "fast": {"units": 1, "wall_s": 1.0, "rate_per_s": 100.0},
            "slow": {"units": 1, "wall_s": 1.0, "rate_per_s": 100.0},
            "gone": {"units": 1, "wall_s": 1.0, "rate_per_s": 100.0},
        },
    }
    current = {
        "git_commit": "beef",
        "benchmarks": {
            "fast": {"units": 1, "wall_s": 1.0, "rate_per_s": 90.0},
            "slow": {"units": 1, "wall_s": 1.0, "rate_per_s": 40.0},
            "new": {"units": 1, "wall_s": 1.0, "rate_per_s": 1.0},
        },
    }
    comparison = bench.compare_reports(baseline, current, tolerance=0.5)
    assert comparison["regressions"] == ["slow"]
    assert comparison["benchmarks"]["fast"]["regressed"] is False
    assert comparison["benchmarks"]["slow"]["ratio"] == pytest.approx(0.4)
    # Benchmarks present on only one side are skipped, not errors.
    assert "gone" not in comparison["benchmarks"]
    assert "new" not in comparison["benchmarks"]


def test_compare_respects_per_benchmark_thresholds():
    baseline = {
        "git_commit": "cafe",
        "benchmarks": {
            "fig4_slice": {"units": 1, "wall_s": 1.0, "rate_per_s": 100.0},
            "rng_draws": {"units": 1, "wall_s": 1.0, "rate_per_s": 100.0},
        },
    }
    current = {
        "git_commit": "beef",
        "benchmarks": {
            # 45/s: below the default 0.5 band but inside fig4's 0.6 band.
            "fig4_slice": {"units": 1, "wall_s": 1.0, "rate_per_s": 45.0},
            "rng_draws": {"units": 1, "wall_s": 1.0, "rate_per_s": 45.0},
        },
    }
    comparison = bench.compare_reports(
        baseline, current, tolerance=0.5, thresholds=bench.THRESHOLDS
    )
    assert comparison["regressions"] == ["rng_draws"]
    assert comparison["benchmarks"]["fig4_slice"]["tolerance"] == 0.6
    assert comparison["benchmarks"]["rng_draws"]["tolerance"] == 0.5


def _impossible_baseline(tmp_path):
    baseline = {
        "git_commit": "cafe",
        "benchmarks": {
            "event_scheduling": {
                "units": 10_000,
                "wall_s": 1e-9,
                "rate_per_s": 1e12,  # unattainable: guarantees a regression
            }
        },
    }
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    return baseline_path


def test_compare_cli_gates_on_regressions(tmp_path, capsys):
    """A regression beyond threshold fails the run (the CI gate)."""
    comparison_path = tmp_path / "comparison.json"
    code = _run(
        [
            "event_scheduling",
            "--repeats",
            "1",
            "--compare",
            str(_impossible_baseline(tmp_path)),
            "--compare-out",
            str(comparison_path),
        ]
    )
    assert code == 1
    comparison = json.loads(comparison_path.read_text())
    assert comparison["regressions"] == ["event_scheduling"]
    assert "FAIL" in capsys.readouterr().err


def test_compare_warn_is_the_escape_hatch(tmp_path, capsys):
    """--compare-warn restores warn-only behaviour: exit 0 regardless."""
    code = _run(
        [
            "event_scheduling",
            "--repeats",
            "1",
            "--compare",
            str(_impossible_baseline(tmp_path)),
            "--compare-warn",
        ]
    )
    assert code == 0
    assert "WARNING" in capsys.readouterr().err


def test_archived_backend_stamps_are_ignored(tmp_path, capsys):
    """Reports archived before schema v3 (``BENCH_8.json``) carry an
    ``engine_backend`` stamp; it no longer gates anything."""
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps(
            {
                "git_commit": "cafe",
                "engine_backend": "numba-0.59.1",
                "benchmarks": {
                    "event_scheduling": {
                        "units": 10_000,
                        "wall_s": 1.0,
                        "rate_per_s": 1.0,  # trivially passes the gate
                    }
                },
            }
        )
    )
    code = _run(
        ["event_scheduling", "--repeats", "1", "--compare", str(baseline_path)]
    )
    assert code == 0
    assert "no regressions" in capsys.readouterr().err


def test_backend_dispatch_benchmark_runs(tmp_path):
    out = tmp_path / "report.json"
    assert _run(["backend_dispatch", "--repeats", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    entry = report["benchmarks"]["backend_dispatch"]
    assert entry["units"] == 20_000
    assert entry["rate_per_s"] > 0
