"""Tests for the command-line interface: subcommands, output, exit codes."""

import io
import json
import re
import subprocess
import sys

import pytest

from coverage_lab.cli import main, parse_grid, parse_point
from coverage_lab.data import builtin_spec_text
from coverage_lab.model import load_spec


@pytest.fixture()
def spec_path_factory(tmp_path):
    def make(name: str) -> str:
        path = tmp_path / name
        path.write_text(builtin_spec_text(name), encoding="utf-8")
        return str(path)
    return make


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            pairs.setdefault(key.strip(), value)
    return pairs


# --- argument parsing helpers ----------------------------------------------

def test_parse_point():
    assert list(parse_point("1,-2.5", 2)) == [1.0, -2.5]
    with pytest.raises(ValueError):
        parse_point("1,2,3", 2)
    with pytest.raises(ValueError):
        parse_point("1,abc", 2)


def test_parse_grid():
    assert parse_grid("20x20") == (20, 20)
    assert parse_grid("3X4") == (3, 4)
    with pytest.raises(ValueError):
        parse_grid("20x")
    with pytest.raises(ValueError):
        parse_grid("0x5")


# --- coverage ---------------------------------------------------------------

def test_coverage_command_fig3(capsys, spec_path_factory):
    spec = spec_path_factory("fig3.json")
    code, out, _ = run_cli(capsys, "coverage", "--classifier", spec,
                           "--point=-15,10")
    assert code == 0
    pairs = kv(out)
    assert pairs["kind"] == "bounded"
    assert abs(float(pairs["radius"]) - 6.5) < 1e-3
    assert "witness_center" in pairs and "certificate" in pairs


def test_coverage_command_exceeds_cap(capsys, spec_path_factory):
    spec = spec_path_factory("linear.json")
    code, out, _ = run_cli(capsys, "coverage", "--classifier", spec,
                           "--point", "0,5", "--cap", "1000")
    assert code == 0
    pairs = kv(out)
    assert pairs["kind"] == "exceeds_cap"
    assert float(pairs["cap"]) == 1000.0
    assert int(pairs["witness_count"]) >= 3


def test_coverage_command_sampled_certificate(capsys, spec_path_factory):
    spec = spec_path_factory("fig1.json")
    code, out, _ = run_cli(capsys, "coverage", "--classifier", spec,
                           "--point=9,60", "--budget", "5000")
    assert code == 0
    pairs = kv(out)
    assert pairs["method"] == "lower_bound" and pairs["certificate"] == "unfalsified"
    assert int(pairs["certificate_samples"]) > 0
    assert int(pairs["certificate_seed"]) >= 0


def test_coverage_refinement_point_exit_3(capsys, spec_path_factory):
    spec = spec_path_factory("refined_linear.json")
    code, out, err = run_cli(capsys, "coverage", "--classifier", spec,
                             "--point", "2,0")
    assert code == 3
    assert "query error" in err


def test_coverage_missing_spec_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "coverage", "--classifier",
                           str(tmp_path / "nope.json"), "--point", "0,0")
    assert code == 2
    assert "spec error" in err


def test_coverage_broken_spec_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "coverage", "--classifier", str(bad),
                           "--point", "0,0")
    assert code == 2
    assert "spec error" in err


def test_directory_paths_exit_2(capsys, spec_path_factory, tmp_path):
    # a directory where a file is expected is a usage error, not a failed
    # verification
    spec = spec_path_factory("linear.json")
    for argv in (("refine", "--classifier", spec, "--out", str(tmp_path)),
                 ("coverage", "--classifier", str(tmp_path), "--point", "0,0"),
                 ("field", "--classifier", spec, "--points-file", str(tmp_path))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "spec error" in err and str(tmp_path) in err


def test_nonfinite_literal_exit_2(capsys, tmp_path):
    spec = tmp_path / "inf.json"
    spec.write_text(json.dumps({"dimension": 2, "labels": {
        "A": {"analytic": "x2 - x1 < 1e999"},
        "B": {"analytic": "x2 - x1 >= 1e999"}}}), encoding="utf-8")
    out = tmp_path / "refined.json"
    code, _, err = run_cli(capsys, "refine", "--classifier", str(spec), "--out", str(out))
    assert code == 2
    assert "numeric literal 1e999 is not finite (at byte 10)" in err
    assert not out.exists()


_PAIR = {"U": {"analytic": "x2 > 0"}, "D": {"analytic": "x2 <= 0"}}


@pytest.mark.parametrize("spec, field", [
    ('{"dimension": 2, "labels": {"U": {"halfspace": {"a": [0, -1], "b": 1e999}}}}',
     "offset b"),
    ('{"dimension": 2, "labels": {"U": {"halfspace": {"a": [1e200, 1e200], "b": 0}}}}',
     "normal a"),
    (json.dumps({"dimension": 2, "domain_box": [[-1e308, -1], [1e308, 1]], "labels": _PAIR}),
     "domain_box"),
    (json.dumps({"dimension": 2, "domain_box": [[-1e200, -1], [1e200, 1]], "labels": _PAIR}),
     "domain_box"),
], ids=["offset", "normal", "extent", "diameter"])
def test_spec_numbers_that_are_not_finite_exit_2(capsys, tmp_path, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(spec, encoding="utf-8")
    code, _, err = run_cli(capsys, "coverage", "--classifier", str(path),
                           "--point=0,1", "--cap", "10", "--tol", "1e-3")
    assert code == 2 and field in err, err


def test_a_box_with_an_infinite_diameter_returns_at_once(tmp_path):
    # the sampled search started at radius diameter * 1e-3 = inf and
    # divided it by 8 forever
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dimension": 2, "domain_box": [[-1e200, -1], [1e200, 1]],
                                "labels": _PAIR}), encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "coverage_lab.cli", "coverage",
                          "--classifier", str(path), "--point=0,1", "--cap", "10",
                          "--tol", "1e-3"], capture_output=True, text=True, timeout=20)
    assert run.returncode == 2 and "domain_box" in run.stderr, run.stderr


def test_coverage_bad_point_exit_2(capsys, spec_path_factory):
    spec = spec_path_factory("fig3.json")
    code, _, err = run_cli(capsys, "coverage", "--classifier", spec,
                           "--point", "1,2,3")
    assert code == 2


@pytest.mark.parametrize("limits", [("--cap", "10", "--tol", "10"), ("--tol", "0"),
                                    ("--cap", "-1")])
def test_coverage_tol_not_below_cap_exit_2(capsys, spec_path_factory, limits):
    spec = spec_path_factory("fig3.json")
    code, out, err = run_cli(capsys, "coverage", "--classifier", spec,
                             "--point", "5,0", *limits)
    assert code == 2 and not out
    assert "0 < tol < cap" in err


@pytest.mark.parametrize("cap", ["1e14", "inf"])
def test_coverage_cap_beyond_the_float_spacing_exit_2(capsys, spec_path_factory, cap):
    spec = spec_path_factory("linear.json")
    code, out, err = run_cli(capsys, "coverage", "--classifier", spec,
                             "--point=0,3", "--cap", cap)
    assert code == 2 and not out
    assert f"cap={float(cap):g}" in err


def test_coverage_negative_budget_exit_2(capsys, spec_path_factory):
    spec = spec_path_factory("fig1.json")
    code, out, err = run_cli(capsys, "coverage", "--classifier", spec,
                             "--point=9,60", "--budget", "-5")
    assert code == 2 and not out
    assert "budget >= 0" in err


def test_reserved_label_name_exit_2(capsys, tmp_path):
    path = tmp_path / "reserved.json"
    path.write_text(json.dumps({"dimension": 2, "labels": {
        "refinement": {"analytic": "x2 < 0"}, "B": {"analytic": "x2 >= 0"}}}),
        encoding="utf-8")
    for argv in (("structure", "--classifier", str(path)),
                 ("coverage", "--classifier", str(path), "--point=0,-3")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        assert "reserved" in err


def test_a_closed_stdout_pipe_exits_141_quietly(capsys, monkeypatch, spec_path_factory):
    # as `coverage-lab structure ... | true`: the reader left before the report
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["structure", "--classifier", spec_path_factory("linear.json")])
    assert code == 141
    assert capsys.readouterr().err == ""


# --- field ------------------------------------------------------------------

def test_field_command_writes_csv(capsys, spec_path_factory, tmp_path):
    spec = spec_path_factory("fig3.json")
    out_path = tmp_path / "field.csv"
    code, out, _ = run_cli(capsys, "field", "--classifier", spec,
                           "--grid", "20x20", "--budget", "2000",
                           "--out", str(out_path))
    assert code == 0
    pairs = kv(out)
    assert int(pairs["points"]) == 400
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 401  # header + one row per point
    assert lines[0].startswith("x1,x2,")


def test_field_command_structured_format(capsys, spec_path_factory, tmp_path):
    spec = spec_path_factory("trivial.json")
    out_path = tmp_path / "field.json"
    code, out, _ = run_cli(capsys, "field", "--classifier", spec,
                           "--grid", "3x3", "--cap", "100",
                           "--budget", "1000",
                           "--out", str(out_path), "--format", "structured")
    assert code == 0
    data = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(data["points"]) == 9


def test_field_points_file(capsys, spec_path_factory, tmp_path):
    spec = spec_path_factory("fig3.json")
    pts = tmp_path / "points.txt"
    pts.write_text("5,0\n-15,10\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "field", "--classifier", spec,
                           "--points-file", str(pts), "--budget", "2000")
    assert code == 0
    assert int(kv(out)["points"]) == 2


def test_field_needs_grid_or_points(capsys, spec_path_factory):
    spec = spec_path_factory("fig3.json")
    code, _, err = run_cli(capsys, "field", "--classifier", spec)
    assert code == 2


# --- refine + structure pipeline --------------------------------------------

def test_refine_then_structure_pipeline(capsys, spec_path_factory, tmp_path):
    spec = spec_path_factory("linear.json")
    refined_path = tmp_path / "refined.json"
    code, out, _ = run_cli(capsys, "refine", "--classifier", spec,
                           "--out", str(refined_path))
    assert code == 0
    assert kv(out)["refined"] == "true"
    refined = load_spec(refined_path)
    assert not refined.ordinary

    code, out, _ = run_cli(capsys, "structure", "--classifier",
                           str(refined_path), "--budget", "10000")
    assert code == 0
    pairs = kv(out)
    assert pairs["kind"] == "refined_linear"
    assert "hyperplane" in pairs


@pytest.mark.parametrize("name, kind", [
    ("fig1", "not_refined_linear"), ("fig3", "not_refined_linear"),
    ("linear", "refined_linear"), ("refined_linear", "refined_linear"),
    ("generalized_linear", "refined_linear"), ("trivial", "trivial")])
def test_structure_on_a_spec_and_its_refinement(capsys, spec_path_factory, tmp_path,
                                                name, kind):
    # the spec's known kind with no sampled (lower_bound) coverage attached,
    # on the spec and on the refinement that `refine --out` writes; refining
    # that refinement again writes the same file. refined_linear lists M =
    # {x2 > 0}, on the positive side of its hyperplane, first
    refined, again = tmp_path / "refined.json", tmp_path / "again.json"
    for spec, out in ((spec_path_factory(f"{name}.json"), refined), (str(refined), again)):
        code, verdict, _ = run_cli(capsys, "structure", "--classifier", spec)
        assert code == 0
        lines = verdict.splitlines()
        assert f"kind: {kind}" in lines and "lower_bound" not in verdict
        if name == "refined_linear":
            assert "labels: M,N" in lines
        code, _, _ = run_cli(capsys, "refine", "--classifier", spec, "--out", str(out))
        assert code == 0
    assert again.read_bytes() == refined.read_bytes()


def test_refine_takes_no_query_limits(capsys, spec_path_factory):
    spec = spec_path_factory("linear.json")
    for flag in ("--cap", "--budget", "--seed", "--tol"):
        with pytest.raises(SystemExit) as exc:
            main(["refine", "--classifier", spec, flag, "1"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_structure_verdict_json_out(capsys, spec_path_factory, tmp_path):
    spec = spec_path_factory("fig3.json")
    out_path = tmp_path / "verdict.json"
    code, out, _ = run_cli(capsys, "structure", "--classifier", spec,
                           "--budget", "10000", "--out", str(out_path))
    assert code == 0
    verdict = json.loads(out_path.read_text(encoding="utf-8"))
    assert verdict["kind"] == "not_refined_linear"


def test_structure_prints_and_writes_the_witness_coverage(capsys, tmp_path):
    # three labels: not refined linear, with the slab's bounded coverage as
    # evidence
    spec = tmp_path / "slabs.json"
    spec.write_text(json.dumps({"dimension": 2, "labels": {
        "L": {"halfspace": {"a": [1, 0], "b": -1, "closed": False}},
        "S": {"polytope": {"halfspaces": [{"a": [-1, 0], "b": 1}, {"a": [1, 0], "b": 1}]}},
        "R": {"halfspace": {"a": [-1, 0], "b": -1, "closed": False}}}}), encoding="utf-8")
    out_path = tmp_path / "verdict.json"
    code, out, _ = run_cli(capsys, "structure", "--classifier", str(spec),
                           "--out", str(out_path))
    assert code == 0
    printed = kv(out)
    assert printed["kind"] == "not_refined_linear"
    assert re.fullmatch(r"Bounded\(radius=[0-9.]+\) \(exact\)", printed["witness_coverage"])
    assert json.loads(out_path.read_text(encoding="utf-8"))["witness_coverage"] \
        == printed["witness_coverage"]


# --- compare ----------------------------------------------------------------

def test_compare_command(capsys, spec_path_factory):
    spec1 = spec_path_factory("fig3.json")
    code, out, _ = run_cli(capsys, "compare", "--classifier", spec1,
                           "--other", spec1, "--point", "5,0",
                           "--budget", "2000")
    assert code == 0
    assert kv(out)["relation"] == "equal"


def test_compare_reports_skipped(capsys, spec_path_factory, tmp_path):
    spec1 = spec_path_factory("refined_linear.json")
    spec2 = spec_path_factory("linear.json")
    code, out, _ = run_cli(capsys, "compare", "--classifier", spec1,
                           "--other", spec2, "--point", "2,0",
                           "--budget", "2000")
    assert code == 0
    assert "skipped" in kv(out)


def test_compare_points_file_gives_one_entry_per_point_in_file_order(
        capsys, spec_path_factory, tmp_path):
    spec = spec_path_factory("fig3.json")
    points = tmp_path / "points.txt"
    points.write_text("10,10\n\n5,0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "compare", "--classifier", spec, "--other", spec,
                           "--points-file", str(points), "--budget", "0")
    assert code == 0
    entries = [line.split(": ", 1)[1] for line in out.splitlines()
               if line.startswith("point: ")]
    assert entries == ["10,10", "5,0"]
    assert out.count("relation: equal") == 2


def test_compare_needs_a_point_or_a_points_file(capsys, spec_path_factory):
    spec = spec_path_factory("fig3.json")
    code, out, err = run_cli(capsys, "compare", "--classifier", spec, "--other", spec)
    assert code == 2 and out == ""
    assert err == "error: compare needs --point or --points-file\n"


# --- verify -----------------------------------------------------------------

def test_verify_subset_determinism(capsys, tmp_path):
    # run the cheap determinism criterion through the library hook the CLI
    # uses; the full-suite CLI path is covered by the acceptance tests
    from coverage_lab.verify import run_suite
    ok1, rep1 = run_suite(seed=0, numbers=(3,))
    ok2, rep2 = run_suite(seed=0, numbers=(3,))
    assert ok1 and ok2
    assert rep1 == rep2
    assert rep1.startswith("suite: theorems\nseed: 0\n")
    assert rep1.rstrip().endswith("overall: pass")


def test_verify_command_writes_report(capsys, tmp_path, monkeypatch):
    import coverage_lab.cli as cli_mod

    real_run_suite = cli_mod.verify_mod.run_suite
    monkeypatch.setattr(cli_mod.verify_mod, "run_suite",
                        lambda seed: real_run_suite(seed=seed, numbers=(3,)))
    out_path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorems",
                           "--seed", "0", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == out
