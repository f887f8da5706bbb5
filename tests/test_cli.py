"""CLI: argument parsing and end-to-end command runs (scaled down)."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.cli import build_parser, main
from repro.runners.full_report import SECTIONS, ReportParams, banner
from repro.validate.specs import SPECS

QUICK_FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "fixtures",
    "results-quick.json",
)

# Figure commands are single-section reports: run them inline, uncached
# and without a results file so they leave nothing in the working tree.
NO_LEFTOVERS = ("--no-cache", "--results", "none", "--jobs", "1")


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list(capsys):
    out = run_cli(capsys, "list")
    assert "streamcluster" in out
    assert "suffer-blocking" in out
    assert out.count("\n") >= 33  # 32 benchmarks + header


def test_suite_vanilla_and_optimized(capsys):
    out = run_cli(
        capsys, "suite", "is", "--threads", "16", "--cores", "4",
        "--scale", "0.2",
    )
    assert "is: 16 threads on 4 cores (vanilla kernel)" in out
    assert "execution time" in out
    out = run_cli(
        capsys, "suite", "is", "--threads", "16", "--cores", "4",
        "--scale", "0.2", "--optimized",
    )
    assert "(optimized kernel)" in out


def test_suite_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["suite", "doom3"])


def test_fig04(capsys):
    out = run_cli(capsys, "fig04", *NO_LEFTOVERS)
    assert "rnd-r" in out and "128MB" in out


def test_fig02(capsys):
    out = run_cli(capsys, "fig02", *NO_LEFTOVERS)
    assert "per-switch cost" in out


def test_fig01_subset_scaled(capsys):
    out = run_cli(capsys, "fig01", "--scale", "0.15", *NO_LEFTOVERS)
    assert "Figure 1" in out
    assert "lu" in out


def test_table1_alias_exists():
    ap = build_parser()
    args = ap.parse_args(["table1", "--scale", "0.1"])
    assert args.sections == ["fig09"]
    assert args.results == "results-fig09.json"


def test_figure_command_prints_the_report_section(capsys):
    """`repro fig02 --quick` prints the fig02 section of `repro all
    --quick` byte for byte; the committed quick fixture is that run's
    results artifact."""
    with open(QUICK_FIXTURE, encoding="utf-8") as f:
        fixture = json.load(f)
    res = {entry["id"]: entry["result"] for entry in fixture["results"]}
    section = next(s for s in SECTIONS if s.key == "fig02")
    expected = io.StringIO()
    banner(section.title, expected)
    section.render(ReportParams(scale=0.3, quick=True), res, expected)
    out = run_cli(capsys, "fig02", "--quick", *NO_LEFTOVERS)
    assert out.partition("\nspecs: ")[0] == expected.getvalue()


def test_figure_command_reuses_the_cache(tmp_path):
    argv = ["fig02", "--quick", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache")]
    for name in ("cold", "warm"):
        assert main(argv + ["--results", str(tmp_path / name)]) == 0
    with open(tmp_path / "warm", encoding="utf-8") as f:
        assert json.load(f)["cache"]["simulated"] == 0


@pytest.mark.parametrize("argv", [
    ["fig09", "--smt"],
    ["fig12", "--duration-ms", "300"],
    ["table2", "--duration-ms", "300"],
])
def test_removed_figure_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_single_section_validation_includes_specs_reading_it(
        capsys, tmp_path):
    """Table 1 and the PSI telemetry checks read fig09's runs, so a
    fig09-only report evaluates them too."""
    readers = [s for s in SPECS
               if s.section in ("fig09", "table1", "telemetry")]
    assert any(s.section == "table1" for s in readers)
    out = run_cli(capsys, "fig09", "--quick", "--validate",
                  "--metrics-dir", str(tmp_path), *NO_LEFTOVERS)
    n = len(readers)
    assert f"{n} specs: {n} match" in out
