import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liecurv
from liecurv import families
from liecurv.cli import main, parse_matrix
from liecurv.verify import DEFAULT_TOL

from test_verify import _certificate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_parse_matrix_forms(tmp_path):
    m = parse_matrix("diag:1,2,3")
    assert np.allclose(m, np.diag([1.0, 2, 3]))
    m = parse_matrix("1,0,0,0,1,0,0,0,1")
    assert np.allclose(m, np.eye(3))
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0]]))
    m = parse_matrix(f"@{path}")
    assert np.allclose(m, 2.0 * np.eye(3))
    with pytest.raises(ValueError):
        parse_matrix("1,2,3,4,5")  # not square
    with pytest.raises(ValueError):
        parse_matrix("diag:1,2,3,4")  # bad dimension
    asym = [0.0] * 36
    asym[1] = 1.0  # entry (0,1) without its mirror
    with pytest.raises(ValueError):
        parse_matrix(",".join(str(v) for v in asym))


def test_check_family_exits_zero(capsys):
    """A quotient member closes on the lifted Pluecker bound: exact, with
    lower_bound <= min_value <= lower_bound + 2 delta for the margin delta
    of that bound."""
    code, payload = run_cli(
        capsys, "check", "--family", "s3-action", "--a", "1", "--b", "1",
        "--lambda", "1,1,1",
    )
    assert code == 0
    assert payload["schema_version"] == 3
    result = payload["results"][0]
    assert result["verdict"] == "NonnegativeWithinBudget"
    assert result["exact"] is True
    phi = families.s3_action_phi(families.S3ActionParams(1.0, 1.0, (1.0, 1.0, 1.0)))
    delta = _certificate(liecurv.LeftInvariantMetric(liecurv.so4(), phi))[2]
    assert result["lower_bound"] <= result["min_value"] <= result["lower_bound"] + 2.0 * delta


def test_check_negative_metric_exits_one(capsys):
    code, payload = run_cli(capsys, "check", "--phi", "diag:1.4,1,1,1,1,1")
    assert code == 1
    result = payload["results"][0]
    assert result["verdict"] == "NegativeWitness"
    assert result["witness"] is not None and len(result["witness"]) == 2


def test_check_three_dimensional_metric(capsys):
    code, payload = run_cli(capsys, "check", "--phi", "diag:1.2,1,1")
    assert code == 0
    assert payload["results"][0]["min_value"] >= -1e-9
    assert payload["results"][0]["exact"] is True


def test_invalid_inputs_exit_two(capsys, tmp_path):
    assert main(["check", "--phi", "diag:1,2"]) == 2
    assert main(["check", "--phi", "diag:1,1,1,1,1,-1"]) == 2  # not positive definite
    assert main(["check"]) == 2  # no metric given
    assert main(["reproduce", "--suite", "missing"]) == 2
    assert main(["path", "--family", "torus", "--c", "2", "--t-grid", "0.9"]) == 2
    capsys.readouterr()
    # JSON files that hold no square matrix: a scalar, an object, a 3x6
    # list and a 3-D list
    bad_files = {
        "scalar": 5,
        "object": {"a": 1},
        "wide": [[1.0] * 6] * 3,
        "cube": [[[1.0] * 3] * 3] * 3,
    }
    for name, data in bad_files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        for argv in (["check", "--phi", f"@{path}"], ["infinitesimal", "--psi", f"@{path}"]):
            assert main(argv) == 2, (name, argv)
            captured = capsys.readouterr()
            assert captured.out == "", (name, argv)
            expected = "number array" if name == "object" else str(np.shape(data))
            assert expected in captured.err, (name, argv, captured.err)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_inputs_exit_two(capsys, bad):
    argvs = [
        ["check", "--phi", f"diag:{bad},1,1,1,1,1"],
        ["check", "--family", "s3-action", "--a", bad],
        ["infinitesimal", "--psi", f"diag:{bad},0,0,0,0,0"],
        ["infinitesimal", "--family", "torus", "--c", bad],
        ["path", "--psi", f"diag:0.1,{bad},0,0,0,0", "--t-grid", "0.5"],
        ["path", "--family", "s3-action", "--alpha", bad, "--t-grid", "0.5"],
        ["check", "--phi", "diag:1.4,1,1,1,1,1", "--tol", bad],
        ["infinitesimal", "--family", "torus", "--c", "0.5", "--tol", bad],
        ["path", "--family", "torus", "--c", "0.5", "--t-grid", "0.5", "--tol", bad],
    ]
    for argv in argvs:
        assert main(argv) == 2, argv
        assert capsys.readouterr().out == "", argv


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_infinitesimal_family_flags(capsys):
    code, payload = run_cli(
        capsys, "infinitesimal", "--family", "torus", "--c", "0.5", "--d", "-0.2",
        "--a1", "0.3", "--a2", "0.9", "--a3", "0.4",
    )
    assert code == 0
    assert abs(payload["results"][0]["min_value"]) < 1e-9


def test_path_scan_with_csv(capsys, tmp_path):
    csv = tmp_path / "scan.csv"
    code, payload = run_cli(
        capsys, "path", "--family", "s3-action", "--alpha", "0", "--beta", "0",
        "--lambda", "1,1,1.2", "--t-grid", "0.3,0.6", "--csv", str(csv),
    )
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,min_value,verdict"
    assert len(lines) == 3
    assert all(line.endswith("NonnegativeWithinBudget") for line in lines[1:])
    assert [r["t"] for r in payload["results"]] == [0.3, 0.6]


def test_family_emits_matrix(capsys):
    code, payload = run_cli(
        capsys, "family", "--family", "torus", "--c", "1", "--d", "1", "--tau", "1,0.2,1",
    )
    assert code == 0
    mat = np.array(payload["results"][0]["matrix"])
    assert mat.shape == (6, 6)
    assert np.allclose(mat, mat.T)


def test_family_constraint_violation_exits_two(capsys):
    code = main(["family", "--family", "torus", "--c", "1", "--d", "1", "--tau", "1.5,0,1"])
    capsys.readouterr()
    assert code == 2


def test_reproduce_lists_required_suites(capsys):
    code, payload = run_cli(capsys, "reproduce", "--list")
    assert code == 0
    names = {row["suite"] for row in payload["results"]}
    assert {"lemma-2.2-fd", "example-2.3", "eq-yy", "th1-identities", "obs-3.2-paths"} <= names


def test_reproduce_suite_runs_and_passes(capsys):
    code, payload = run_cli(capsys, "reproduce", "--suite", "eq-yy", "--seed", "7")
    assert code == 0
    assert payload["results"][0]["pass"] is True
    assert all(row["value"] <= row["tol"] for row in payload["residuals"])


def test_every_suite_passes_within_time_budget():
    """Each suite passes at seed 7 within 60 s, and a second run at the same
    seed gives the same report."""
    import time

    from liecurv.suites import SUITES, run_suite

    for name in SUITES:
        start = time.monotonic()
        result = run_suite(name, seed=7)
        elapsed = time.monotonic() - start
        assert result.passed, f"{name}: {[r.to_dict() for r in result.rows if not r.passed]}"
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
        assert run_suite(name, seed=7).to_dict() == result.to_dict(), name


def test_output_file_and_seed_env(tmp_path, capsys, monkeypatch):
    """``reproduce`` records LIECURV_SEED; ``check`` draws nothing, so its
    report holds no seed."""
    monkeypatch.setenv("LIECURV_SEED", "123")
    for argv in (["check", "--phi", "diag:1,1,1,1,1,1"], ["reproduce", "--suite", "eq-yy"]):
        out = tmp_path / "report.json"
        code = main([*argv, "-o", str(out)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"].get("seed") == (123 if argv[0] == "reproduce" else None)


def test_reports_roundtrip_and_are_deterministic(tmp_path, capsys):
    argv = ["check", "--phi", "diag:1.4,1,1,1,1,1"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(argv + ["-o", str(out1)])
    main(argv + ["-o", str(out2)])
    capsys.readouterr()
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_workers_flag_is_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--phi", "diag:1,1,1", "--workers", "2"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_unwritable_output_exits_two(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    assert main(["reproduce", "--list", "-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        # only reproduce draws, so only reproduce takes --seed
        ["check", "--phi", "diag:1,1,1", "--seed", "-1"],
        ["check", "--phi", "diag:1,1,1,1,1,1", "--seed", "-1"],
        ["reproduce", "--suite", "eq-yy", "--seed", "1.5"],
        ["family", "--family", "torus", "--seed", "3"],
        ["check", "--phi", "diag:1,1,1,1,1,1", "--seed", "7"],
        ["infinitesimal", "--family", "torus", "--seed", "7"],
        ["path", "--family", "torus", "--t-grid", "0.1", "--seed", "7"],
        # the search bounds are fixed, so no verdict command takes them
        *([*command, flag, "9"] for command in (
            ["check", "--phi", "diag:1,1,1,1,1,1"],
            ["infinitesimal", "--family", "torus"],
            ["path", "--family", "torus", "--t-grid", "0.1"],
        ) for flag in ("--samples", "--restarts", "--iters")),
    ],
)
def test_bad_or_removed_flag_exits_two(capsys, argv):
    """A bad seed, a seed given to a command that draws nothing, and a
    removed search-budget flag exit 2: a removed flag is refused, never
    ignored."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if argv[0] != "reproduce":
        assert f"unrecognized arguments: {argv[-2]}" in captured.err


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_bad_seed_env_exits_two(capsys, monkeypatch, value):
    """``reproduce`` refuses a bad LIECURV_SEED; ``check`` never reads it."""
    monkeypatch.setenv("LIECURV_SEED", value)
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--list"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "LIECURV_SEED" in captured.err
    code, payload = run_cli(capsys, "check", "--phi", "diag:1,1,1")
    assert code == 0 and "seed" not in payload["config"]


@pytest.mark.parametrize("argv", [
    ["check", "--phi", "diag:1.4,1,1,1,1,1"],
    ["check", "--phi", "diag:1.2,1,1"],
    ["infinitesimal", "--family", "torus", "--c", "0.5", "--a1", "0.3"],
    ["path", "--family", "torus", "--c", "0.5", "--t-grid", "0.1,0.2"],
])
def test_verdict_payloads_hold_no_seed_or_budget(capsys, argv):
    """The verdict commands draw nothing and run fixed search bounds: neither
    the config nor any result of their schema-3 payload holds a seed or a
    budget field."""
    _, payload = run_cli(capsys, *argv)
    assert payload["schema_version"] == 3
    assert payload["results"]
    for fields in (payload["config"], *payload["results"]):
        assert not {"seed", "samples", "restarts", "iters"} & set(fields)


# (kind, family, flags without a default, the builder's matrix at the
# defaults the README documents)
FAMILY_DEFAULTS = [
    (
        "metric",
        "product",
        ["--phi1", "diag:1,2,3", "--phi2", "diag:2,2,1"],
        lambda: families.product_phi(
            families.ProductParams(np.diag([1.0, 2, 3]), np.diag([2.0, 2, 1]))
        ),
    ),
    ("metric", "torus", [], lambda: families.torus_phi(families.TorusParams(1.0, 1.0, np.eye(2)))),
    (
        "metric",
        "s3-action",
        [],
        lambda: families.s3_action_phi(families.S3ActionParams(1.0, 1.0, np.ones(3))),
    ),
    ("derivative", "torus", [], lambda: families.torus_psi(0.0, 0.0, 0.0, 0.0, 0.0)),
    ("derivative", "s3-action", [], lambda: families.s3_action_psi(0.0, 0.0, np.ones(3))),
]


@pytest.mark.parametrize(
    "kind, family, required, expected", FAMILY_DEFAULTS, ids=[f"{k}-{f}" for k, f, *_ in FAMILY_DEFAULTS]
)
def test_family_defaults_agree_across_commands(capsys, kind, family, required, expected):
    """``family`` emits the builder's matrix at the documented defaults, and
    check/infinitesimal record the same family config for the same flags."""
    code, payload = run_cli(capsys, "family", "--kind", kind, "--family", family, *required)
    assert code == 0
    assert np.array_equal(np.array(payload["results"][0]["matrix"]), expected())
    source = {k: v for k, v in payload["config"].items() if k != "kind"}
    command = "check" if kind == "metric" else "infinitesimal"
    _, report = run_cli(capsys, command, "--family", family, *required)
    assert {k: v for k, v in report["config"].items() if k != "tol"} == source


@pytest.mark.parametrize(
    "argv, named",
    [
        (["family", "--family", "torus", "--a", "5", "--alpha", "3"], "--a, --alpha"),
        (["family", "--kind", "derivative", "--family", "torus", "--tau", "1,0,1"], "--tau"),
        (["check", "--family", "s3-action", "--c", "5"], "--c"),
        (["infinitesimal", "--family", "s3-action", "--a1", "0.2"], "--a1"),
        (["path", "--family", "torus", "--alpha", "0.1", "--t-grid", "0.1"], "--alpha"),
        (["check", "--phi", "diag:1,1,1", "--d", "2"], "--d"),
    ],
)
def test_stray_family_flags_exit_two(capsys, argv, named):
    """A family flag that the chosen family (or a given matrix) does not
    take is named and exits 2; it is never silently dropped."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {named} not accepted" in captured.err


@pytest.mark.parametrize("kind, choices", [
    ("metric", "product, torus, s3-action"),
    ("derivative", "torus, s3-action"),
])
def test_family_without_family_flag_names_it(capsys, kind, choices):
    assert main(["family", "--kind", kind]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --family is required: one of {choices}" in captured.err


def test_seed_env_is_read_on_every_call(monkeypatch, capsys):
    for value in ("3", "8"):
        monkeypatch.setenv("LIECURV_SEED", value)
        _, payload = run_cli(capsys, "reproduce", "--suite", "eq-yy")
        assert payload["config"]["seed"] == int(value)
    monkeypatch.delenv("LIECURV_SEED")
    _, payload = run_cli(capsys, "reproduce", "--suite", "eq-yy")
    assert payload["config"]["seed"] == 0


def test_no_flag_leaks_into_the_next_call(monkeypatch, capsys):
    monkeypatch.delenv("LIECURV_SEED", raising=False)
    _, payload = run_cli(capsys, "check", "--phi", "diag:1,1,1", "--tol", "1e-3")
    assert payload["config"]["tol"] == 1e-3
    _, payload = run_cli(capsys, "check", "--phi", "diag:1,1,1")
    assert payload["config"]["tol"] == DEFAULT_TOL
    _, payload = run_cli(capsys, "reproduce", "--suite", "eq-yy", "--seed", "5")
    assert payload["config"]["seed"] == 5
    _, payload = run_cli(capsys, "reproduce", "--suite", "eq-yy")
    assert payload["config"]["seed"] == 0


def _count_parsers(monkeypatch) -> list:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_main_builds_its_parser_once(monkeypatch, capsys):
    main(["reproduce", "--list"])  # the parser exists from here on
    built = _count_parsers(monkeypatch)
    main(["reproduce", "--list"])
    main(["check", "--phi", "diag:1,1,1"])
    capsys.readouterr()
    assert built == []


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import liecurv.cli\n"
        "assert built == [], built\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(liecurv.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
