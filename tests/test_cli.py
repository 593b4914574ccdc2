"""CLI: construction, checks, sweeps, reproducible outputs, exit codes."""

import json
import os
import re

import pytest

from spinqec import cli


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_code_build_toric(capsys):
    code, out, _ = run(["code", "build", "--family", "toric", "--L", "3"], capsys)
    assert code == 0
    assert out.strip() == "[[18,2,3]]"


def test_code_build_hp_cyclic_98_6_4(capsys):
    code, out, _ = run(
        ["code", "build", "--family", "hp-cyclic", "--h1", "11", "--n1", "7",
         "--h2", "1101", "--n2", "7", "--distance-cap", "4", "--json"],
        capsys,
    )
    assert code == 0
    first, doc = out.strip().split("\n")
    assert first == "[[98,6,4]]"
    assert json.loads(doc)["d_exact"] is True


def test_code_build_gallager_deterministic(capsys):
    argv = ["code", "build", "--family", "gallager", "--h", "2", "--v", "3",
            "--nc", "6", "--seed", "1", "--distance-cap", "2"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_code_save_and_info(tmp_path, capsys):
    path = str(tmp_path / "toric2.json")
    code, _, _ = run(["code", "build", "--family", "toric", "--L", "2", "--save", path], capsys)
    assert code == 0 and os.path.exists(path)
    code, out, _ = run(["code", "info", "--load", path], capsys)
    assert code == 0
    assert out.strip() == "[[8,2,2]]"


def test_check_suites_pass(capsys):
    code, out, err = run(["check", "all"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(r["passed"] for r in doc["results"])
    assert err.count("PASS") == 5


def test_check_single_suite(capsys, tmp_path):
    path = str(tmp_path / "report.json")
    code, out, _ = run(["check", "expansion", "--out", path], capsys)
    assert code == 0
    assert json.loads(open(path).read())["results"][0]["name"] == "expansion"


def test_decode_sweep_reproducible(tmp_path, capsys):
    args = ["decode", "sweep", "--sizes", "2,3", "--p-grid", "0.06,0.10",
            "--trials", "60", "--seed", "5"]
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    run(args + ["--out", a, "--threads", "1"], capsys)
    run(args + ["--out", b, "--threads", "3"], capsys)
    assert open(a).read() == open(b).read()
    lines = open(a).read().splitlines()
    assert lines[0].startswith("# spinqec")
    assert any(l.startswith("# config_hash=") for l in lines)
    assert any(l.startswith("# seed=") for l in lines)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "code_index,n,p,beta,p_succ,stderr,mean_ratio"
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 4  # 2 sizes x 2 p


def test_mc_run_trace(tmp_path, capsys):
    path = str(tmp_path / "trace.csv")
    code, out, _ = run(
        ["mc", "run", "--size", "2", "--p", "0.08", "--sweeps", "300",
         "--burn-in", "50", "--seed", "2", "--out", path],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.splitlines()[-1])
    assert "energy" in doc and "specific_heat" in doc
    lines = open(path).read().splitlines()
    assert sum(1 for l in lines if not l.startswith("#")) == 1 + 250


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "toric", "L": 2}))
    code, out, _ = run(["--config", str(cfg), "code", "build"], capsys)
    assert code == 0 and out.strip() == "[[8,2,2]]"
    # explicit flag wins over the config value
    code, out, _ = run(["--config", str(cfg), "code", "build", "--L", "3"], capsys)
    assert code == 0 and out.strip() == "[[18,2,3]]"


def test_outdir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "results"))
    run(["decode", "sweep", "--sizes", "2,3", "--p-grid", "0.08",
         "--trials", "20", "--seed", "1", "--out", "sweep.csv", "--threads", "1"], capsys)
    assert (tmp_path / "results" / "sweep.csv").exists()


_BAD_ARGS = {
    "bad-action": "decode bogus-action",
    "no-family": "code build",
    "p-zero": "mc run --p 0",
    "unknown-sector": "mc run --sector Q",
    "burn-in-past-sweeps": "mc run --sweeps 5 --burn-in 200",
    "one-retained-sweep": "mc run --size 2 --sweeps 201 --burn-in 200 --seed 1",
    "grid-with-p-zero": "decode sweep --p-grid 0:0.1:0.05",
    "zero-trials": "decode sweep --trials 0",
    "one-size": "decode sweep --sizes 2",
    "size-over-budget": "decode sweep --sizes 4,5",
}


@pytest.mark.parametrize("argv", list(_BAD_ARGS.values()), ids=list(_BAD_ARGS))
def test_usage_error_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert re.match(r"spinqec( \w+)?: error: ", err.splitlines()[-1])


def test_bad_polynomial_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["code", "build", "--family", "hp-cyclic", "--h1", "12x"])
    assert exc.value.code == 2
