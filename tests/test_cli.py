import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bewitness
from bewitness import states
from bewitness.cli import main

SCALING_CSV = (
    "seed,n_copies,witness_be,sep_bound,overhead_dim,v_crit\n"
    "0,1,0.375,0.25,6,0.6\n"
    "0,2,0.140625,0.0625,36,0.428571428571\n"
    "0,3,0.052734375,0.015625,216,0.293023255814\n"
)


def _write_state(path, state, convention="k=4i+j+1"):
    data = states.state_to_dict(state)
    data["convention"] = convention
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_scaling_csv_exact_bytes(capsys):
    assert main(["scaling", "--n-max", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out == SCALING_CSV


def test_scaling_rerun_byte_identical(capsys):
    main(["scaling", "--n-max", "4", "--format", "csv"])
    first = capsys.readouterr().out
    main(["scaling", "--n-max", "4", "--format", "csv"])
    assert capsys.readouterr().out == first


def test_scaling_json_echoes_seed_and_exact_fractions(capsys):
    assert main(["scaling", "--n-max", "2", "--seed", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] == 5
    rows = data["rows"]
    assert rows[0]["v_crit_exact"] == "3/5"
    assert rows[1]["v_crit_exact"] == "3/7"
    assert rows[1]["witness_be"] == 0.140625


def test_scaling_rejects_bad_range(capsys):
    assert main(["scaling", "--n-max", "0"]) == 2
    assert main(["scaling", "--n-max", "512"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "scaling: --n-max must lie in 1..511"


def test_scaling_prints_every_column_positive_up_to_its_limit(capsys):
    assert main(["scaling", "--n-max", "511", "--format", "csv"]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert last[1] == "511"
    assert min(float(last[2]), float(last[3]), float(last[5])) > 0


# one small successful command line per command
SMALL_RUNS = (
    ["state-info"],
    ["witness", "--n-copies", "2", "--method", "closed"],
    ["scaling", "--n-max", "3"],
    ["seesaw", "--kind", "classical", "--channel-dim", "4",
     "--restarts", "2", "--max-iters", "50"],
    ["ccnr-search", "--local-dim", "4", "--restarts", "1", "--max-iters", "50"],
    ["verify", "--state", "rho_be"],
)


def test_out_file_matches_stdout(tmp_path, capsys):
    for argv in SMALL_RUNS:
        for fmt in ("json", "csv"):
            out = tmp_path / f"{argv[0]}.{fmt}"
            assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
            assert out.read_bytes() == capsys.readouterr().out.encode(), (argv, fmt)


def _json_file(tmp_path, data):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _state_file(tmp_path, convention="k=4i+j+1", n_copies=1, entry=None, fields=None):
    """A copy of the target state's power, with one (index, value) entry set
    and top-level `fields` replaced."""
    data = states.state_to_dict(states.tensor_power(states.rho_be(), n_copies))
    data["convention"] = convention
    if entry:
        data["lambdas"][entry[0]] = entry[1]
    data.update(fields or {})
    return _json_file(tmp_path, data)


# each builds, in a temporary directory, a command line that main refuses
REFUSALS = {
    "scaling-n-max-0": lambda tmp: ["scaling", "--n-max", "0"],
    "scaling-n-max-subnormal": lambda tmp: ["scaling", "--n-max", "512"],
    "state-info-missing-file": lambda tmp: ["state-info", "--state", str(tmp / "missing.json")],
    "state-info-wrong-tag": lambda tmp: [
        "state-info", "--state", _state_file(tmp, convention="k=4j+i+1")],
    "state-info-non-finite": lambda tmp: [
        "state-info", "--state", _state_file(tmp, entry=(3, float("nan")))],
    "state-info-not-psd": lambda tmp: [
        "state-info", "--state", _state_file(tmp, entry=(3, 5.0))],
    "state-info-top-level-list": lambda tmp: [
        "state-info", "--state", _json_file(tmp, [states.state_to_dict(states.rho_be())])],
    "state-info-top-level-number": lambda tmp: ["state-info", "--state", _json_file(tmp, 1)],
    "state-info-lambdas-object": lambda tmp: [
        "state-info", "--state", _state_file(tmp, fields={"lambdas": {"1": 0.25}})],
    "state-info-lambdas-entry-object": lambda tmp: [
        "state-info", "--state", _state_file(tmp, entry=(3, {}))],
    "state-info-lambdas-strings": lambda tmp: [
        "state-info", "--state", _state_file(tmp, fields={"lambdas": [
            str(v) for v in states.state_to_dict(states.rho_be())["lambdas"]]})],
    "state-info-lambdas-entry-false": lambda tmp: [
        "state-info", "--state", _state_file(tmp, fields={"lambdas": [0.25, False] + [0] * 14})],
    "verify-lambdas-booleans": lambda tmp: [
        "verify", "--state", _state_file(tmp, fields={"lambdas": [0.25] + [False] * 15})],
    "state-info-fractional-copies": lambda tmp: [
        "state-info", "--state", _state_file(tmp, fields={"n_copies": 1.5})],
    "state-info-string-copies": lambda tmp: [
        "state-info", "--state", _state_file(tmp, fields={"n_copies": "1"})],
    "state-info-float-overflow": lambda tmp: [
        "state-info", "--state", _state_file(tmp, entry=(3, 10**400))],
    "state-info-huge-copies": lambda tmp: [
        "state-info", "--state", _state_file(tmp, fields={"n_copies": 10**8})],
    "verify-float-overflow": lambda tmp: [
        "verify", "--state", _state_file(tmp, entry=(3, 10**400))],
    "verify-top-level-list": lambda tmp: ["verify", "--state", _json_file(tmp, [])],
    "verify-lambdas-object": lambda tmp: [
        "verify", "--state", _state_file(tmp, fields={"lambdas": {}})],
    "witness-classical-two-copies": lambda tmp: [
        "witness", "--strategy", "classical-d4", "--n-copies", "2"],
    "witness-classical-closed": lambda tmp: [
        "witness", "--strategy", "classical-d4", "--method", "closed"],
    "witness-brute-three-copies": lambda tmp: ["witness", "--n-copies", "3", "--method", "brute"],
    "witness-zero-samples": lambda tmp: ["witness", "--n-copies", "2", "--samples", "0"],
    "witness-negative-samples": lambda tmp: [
        "witness", "--method", "factored", "--samples", "-1"],
    "witness-negative-seed": lambda tmp: ["witness", "--method", "factored", "--seed", "-1"],
    "seesaw-negative-seed": lambda tmp: [
        "seesaw", "--kind", "classical", "--channel-dim", "4", "--seed", "-1"],
    "seesaw-nan-tol": lambda tmp: [
        "seesaw", "--kind", "classical", "--channel-dim", "4", "--tol", "nan"],
    "ccnr-search-negative-seed": lambda tmp: [
        "ccnr-search", "--local-dim", "4", "--seed", "-1"],
    "seesaw-channel-dim-17": lambda tmp: ["seesaw", "--kind", "classical", "--channel-dim", "17"],
    "ccnr-search-local-dim-5": lambda tmp: ["ccnr-search", "--local-dim", "5"],
    "ccnr-search-zero-restarts": lambda tmp: [
        "ccnr-search", "--local-dim", "4", "--restarts", "0"],
    "verify-wrong-tag": lambda tmp: ["verify", "--state", _state_file(tmp, convention="k=4j+i+1")],
    "verify-two-copies": lambda tmp: ["verify", "--state", _state_file(tmp, n_copies=2)],
    "scaling-unwritable-out": lambda tmp: [
        "scaling", "--n-max", "1", "--out", str(tmp / "no-dir" / "x.json")],
    "verify-unwritable-out": lambda tmp: [
        "verify", "--state", "rho_be", "--out", str(tmp / "no-dir" / "x.txt")],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", REFUSALS)
def test_every_refusal_is_one_stderr_line(tmp_path, capsys, case, fmt):
    argv = REFUSALS[case](tmp_path)
    assert main(argv + ["--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{argv[0]}: "), captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["scaling", "--n-max", "1"], ["verify", "--state", "rho_be"]])
def test_unwritable_out_refuses_before_printing(tmp_path, capsys, argv):
    path = tmp_path / "no-dir" / "x.out"
    assert main(argv + ["--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{argv[0]}: cannot write --out {path}: No such file or directory\n"
    assert not path.parent.exists()


def test_witness_be_brute(capsys):
    assert main(["witness", "--strategy", "be", "--method", "brute"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["value"] - 0.375) < 1e-9
    assert data["method"] == "brute_force"
    assert data["seed"] == 0


def test_witness_classical_d4(capsys):
    assert main(["witness", "--strategy", "classical-d4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["value"] - 0.25) < 1e-12


def test_witness_closed_form_four_copies(capsys):
    assert main(["witness", "--n-copies", "4", "--method", "closed"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["value"] - 0.375**4) < 1e-15


def test_witness_usage_errors(capsys):
    assert main(["witness", "--strategy", "classical-d4", "--n-copies", "2"]) == 2
    assert "one-copy" in capsys.readouterr().err
    assert main(["witness", "--strategy", "classical-d4", "--method", "closed"]) == 2
    assert main(["witness", "--strategy", "classical-d4", "--method", "factored"]) == 2
    assert "needs the entangled strategy" in capsys.readouterr().err
    assert main(["witness", "--n-copies", "3", "--method", "brute"]) == 2
    assert "one or two copies" in capsys.readouterr().err
    for method in ("factored", "brute"):
        assert main(["witness", "--n-copies", "2", "--method", method, "--samples", "0"]) == 2
        assert "count >= 1" in capsys.readouterr().err


def test_witness_workers_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_witness_factored_two_copies(capsys):
    code = main(["witness", "--n-copies", "2", "--method", "factored",
                 "--samples", "400", "--seed", "3"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    # sampled estimate of 0.140625; loose statistical tolerance
    assert abs(data["value"] - 0.140625) < 0.08


def test_state_info_builtin(capsys):
    assert main(["state-info"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["report"]["is_ppt"] is True
    assert abs(data["report"]["ccnr"] - 1.5) < 1e-12
    assert "certifies entanglement" in data["separability_note"]
    assert data["state"]["convention"] == "k=4i+j+1"


def test_state_info_maximally_mixed_file(tmp_path, capsys):
    mm = states.mix_with_white_noise(states.rho_be(), 0.0)
    path = _write_state(tmp_path / "mm.json", mm)
    assert main(["state-info", "--state", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["report"]["ccnr"] - 0.25) < 1e-12
    assert "consistent with separability" in data["separability_note"]


def test_state_info_noisy_state_at_critical_visibility(tmp_path, capsys):
    mixed = states.mix_with_white_noise(states.rho_be(), 0.6)
    path = _write_state(tmp_path / "v06.json", mixed)
    assert main(["state-info", "--state", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["witness_closed_form"] - 0.25) < 1e-12


def test_state_info_malformed_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["state-info", "--state", str(bad)]) == 2
    assert "cannot load" in capsys.readouterr().err
    assert main(["state-info", "--state", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_state_info_rejects_non_finite_file(tmp_path, capsys, bad):
    data = states.state_to_dict(states.rho_be())
    data["lambdas"][3] = bad
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["state-info", "--state", str(path)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_state_info_rejects_non_psd_file(tmp_path, capsys):
    lam = states.rho_be().lambdas.copy()
    lam[3] = 5.0     # lambda_4
    path = _write_state(tmp_path / "not_psd.json",
                        states.BlochDiagonalState(n_copies=1, lambdas=lam))
    assert main(["state-info", "--state", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a state: minimum eigenvalue -" in captured.err


def test_state_info_three_copy_non_power_is_usage_error(tmp_path, capsys):
    lam = states.tensor_power(states.rho_be(), 3).lambdas.copy()
    lam[96] = -lam[96]
    path = _write_state(tmp_path / "bent3.json",
                        states.BlochDiagonalState(n_copies=3, lambdas=lam))
    assert main(["state-info", "--state", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a state: minimum eigenvalue -0.00016276" in captured.err


def test_state_info_sign_mismatch_is_usage_error(tmp_path, capsys):
    pair = states.mix_with_white_noise(states.tensor_power(states.rho_be(), 2), 0.3)
    lam = pair.lambdas.copy()
    lam[17] = -lam[17]
    path = _write_state(tmp_path / "flip2.json",
                        states.BlochDiagonalState(n_copies=2, lambdas=lam))
    assert main(["state-info", "--state", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "flat index 18" in captured.err


def test_witness_closed_form_six_copies_skips_tensor_power(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("closed form must not build the tensor power")

    monkeypatch.setattr(states, "tensor_power", refuse)
    assert main(["witness", "--n-copies", "6", "--method", "closed"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 0.375**6
    assert data["task"]["channel_dim"] == 4**6 and data["n_copies"] == 6


def test_seesaw_classical_csv_row(capsys):
    code = main(["seesaw", "--kind", "classical", "--channel-dim", "4",
                 "--restarts", "3", "--max-iters", "100", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "seed,kind,channel_dim,best_value,converged"
    assert lines[1] == "0,classical,4,0.2421875,True"
    assert len(lines) == 2


def test_seesaw_json_report(capsys):
    code = main(["seesaw", "--kind", "classical", "--channel-dim", "16",
                 "--restarts", "2", "--max-iters", "50"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["summary"]["best_value"] - 1.0) < 1e-12
    assert len(data["report"]["restart_values"]) == 2
    assert data["report"]["config"]["channel_dim"] == 16


def test_seesaw_rejects_bad_dimension(capsys):
    assert main(["seesaw", "--kind", "classical", "--channel-dim", "17"]) == 2
    assert "2..16" in capsys.readouterr().err


def test_ccnr_search_small_run(capsys):
    code = main(["ccnr-search", "--local-dim", "4",
                 "--restarts", "2", "--max-iters", "100"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["best_value"] >= 1.499
    assert data["summary"]["best_value"] <= 1.5 + 1e-6
    assert data["report"]["config"]["n_restarts"] == 2


def test_ccnr_search_refuses_unsupported_dimension(capsys):
    assert main(["ccnr-search", "--local-dim", "5"]) == 2
    err = capsys.readouterr().err
    assert "power of two in {4, 8, 16}" in err
    assert "got 5" in err
    assert main(["ccnr-search", "--local-dim", "4", "--restarts", "0"]) == 2


def test_verify_corrupted_sign_file_fails(tmp_path, capsys):
    lam = states.rho_be().lambdas.copy()
    lam[6] = -lam[6]
    broken = states.BlochDiagonalState(n_copies=1, lambdas=lam)
    path = _write_state(tmp_path / "bad_sign.json", broken)
    assert main(["verify", "--state", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL 00-convention" in out
    assert "FAIL 01-spectrum" in out


def test_verify_swapped_convention_fails(tmp_path, capsys):
    # local unitary relabeling: spectrum passes, coefficient table does not
    swapped = states.rho_be(swap_digits=True)
    path = _write_state(tmp_path / "swapped.json", swapped)
    assert main(["verify", "--state", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL 00-convention" in out
    assert "PASS 01-spectrum" in out


def test_verify_wrong_tag_is_usage_error(tmp_path, capsys):
    path = _write_state(tmp_path / "tag.json", states.rho_be(),
                        convention="k=4j+i+1")
    assert main(["verify", "--state", path]) == 2
    assert "cannot load" in capsys.readouterr().err


@pytest.mark.parametrize("n_copies", [2, 3])
def test_verify_multi_copy_state_is_usage_error(tmp_path, capsys, n_copies):
    power = states.tensor_power(states.rho_be(), n_copies)
    path = _write_state(tmp_path / "power.json", power)
    assert main(["verify", "--state", path]) == 2
    assert f"got {n_copies} copies" in capsys.readouterr().err


def test_verify_builtin_state_passes(capsys):
    assert main(["verify", "--state", "rho_be"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out



def _run_in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:       # argparse usage error
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def _run_alone(argv):
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": str(Path(bewitness.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from bewitness.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    return proc.stdout, proc.stderr, proc.returncode


def test_in_process_calls_share_no_state(tmp_path, capsys, monkeypatch):
    """In-process `main` calls share one parser.  A sequence of them (two
    refusals, an --out call, a CSV call, then calls on the defaults) gives
    for each line the stdout, stderr, exit code and --out bytes of the
    same line run alone in a fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")
    out = tmp_path / "scaling.json"
    sequence = (
        (["witness", "--strategy", "classical-d4", "--n-copies", "2"], 2),
        (["witness", "--method", "dense"], 2),
        (["scaling", "--n-max", "2", "--seed", "4", "--out", str(out)], 0),
        (["witness", "--method", "factored", "--samples", "64", "--seed", "3",
          "--format", "csv"], 0),
        (["scaling"], 0),
        (["witness"], 0),
    )
    for argv, code in sequence:
        got = _run_in_process(argv, capsys)
        got_out = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        want = _run_alone(argv)
        want_out = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        assert got == want and got[2] == code, argv
        assert got_out == want_out and (got_out is None) == ("--out" not in argv), argv
