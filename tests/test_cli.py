"""CLI: argument plumbing, output routing, exit codes."""

import re

from hbpc.cli import build_parser, main
from hbpc.harness import parse_csv


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.problem == "scalar_pow"
    assert args.q == 4 and args.kmax == 3
    assert args.variant == "alg1"
    assert args.nsteps == [40, 80, 160, 320, 640]
    assert args.study == "convergence"
    assert not args.parallel and not args.timing


def test_schedule_mode(capsys):
    rc = main(["--simulate-schedule", "--variant", "alg2", "--kmax", "5",
               "--nsteps", "10,20"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "variant,kmax,N,cycles,serial_cycles"
    assert lines[1] == "Alg2,5,10,24,60"
    assert lines[2] == "Alg2,5,20,44,120"


def test_schedule_mode_rejects_a_variant_without_a_pipeline(capsys):
    rc = main(["--simulate-schedule", "--variant", "limit", "--nsteps", "10"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: variant 'Limit' has no pipeline" in captured.err


def test_convergence_study_to_file(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    rc = main(["--problem", "scalar_pow", "--q", "4", "--kmax", "3",
               "--nsteps", "8,16,32", "--out", str(out)])
    assert rc == 0
    table = parse_csv(str(out), 0.25)
    assert [r.n for r in table.rows] == [8, 16, 32]
    assert all(len(r.errs) == 4 for r in table.rows)
    assert "estimated orders per iterate:" in capsys.readouterr().err


def test_convergence_study_to_stdout(capsys):
    rc = main(["--nsteps", "8,16"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("N,err_k0")
    # two rows cannot support a slope fit, so no order line appears
    assert "estimated orders" not in captured.err


def test_speedup_study_format(capsys):
    rc = main(["--study", "speedup", "--kmax", "3", "--nsteps", "8,16",
               "--timing"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "N,kmax,serial_s,parallel_s,speedup,theoretical"
    assert len(lines) == 3
    assert float(lines[1].split(",")[5]) > 1.0
    for n, line in zip(("8", "16"), lines[1:]):
        cells = line.split(",")
        assert cells[:2] == [n, "3"]
        assert len(cells) == 6
        assert all(re.fullmatch(r"-?\d\.\d{16}e[+-]\d\d", c) for c in cells[2:])


def test_limit_study_requires_eps(capsys):
    rc = main(["--study", "limit", "--problem", "van_der_pol",
               "--nsteps", "15"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_problem_is_a_config_error(capsys):
    rc = main(["--problem", "lorenz", "--nsteps", "8,16"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_reference_is_a_solver_error(capsys, monkeypatch):
    monkeypatch.delenv("HBPC_REF_CACHE", raising=False)
    rc = main(["--problem", "pareschi_russo", "--nsteps", "8,16"])
    assert rc == 1
    assert "solver error" in capsys.readouterr().err


def test_multi_eps_rejected_for_convergence(capsys):
    rc = main(["--eps", "0.1,0.01", "--nsteps", "8,16"])
    assert rc == 2
