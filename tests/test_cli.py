import json

import numpy as np
import pytest

from qlattice.cli import main
from qlattice.golden import KNOWN_INCONSISTENT, REFERENCE, worked_example
from qlattice.lattice import Subspace, leq
from qlattice.serialize import dump_json, matrix_to_json, subspace_to_json
from qlattice.sweeps import SweepConfig
from qlattice.tolerances import Tolerance


@pytest.fixture
def example_files(tmp_path):
    H1, H2, H3, rho = worked_example()
    paths = {}
    for name, H in (("h1", H1), ("h2", H2), ("h3", H3)):
        p = tmp_path / f"{name}.json"
        dump_json(subspace_to_json(H), str(p))
        paths[name] = str(p)
    p = tmp_path / "rho.json"
    dump_json(matrix_to_json(rho.matrix), str(p))
    paths["rho"] = str(p)
    return paths


def test_repro_reports_known_failures(capsys):
    code = main(["repro"])
    out = capsys.readouterr().out
    assert code == 1
    assert "D(1,2,3)" in out
    assert "FAIL" in out and "pass" in out
    assert "failing records:" in out
    # the reproducible rows must pass
    for name in ("D(1,2)", "varpi1", "E[D(1,2)]"):
        line = next(l for l in out.splitlines() if f" {name} " in f" {l.strip()} " or l.strip().startswith(name))
        assert "pass" in line


def test_repro_prints_records_in_reference_order(capsys):
    assert KNOWN_INCONSISTENT <= set(REFERENCE)
    main(["repro"])
    out = capsys.readouterr().out
    table = out.splitlines()[1:1 + len(REFERENCE)]
    assert [line.split()[0] for line in table] == list(REFERENCE)


def test_sweep_exit_zero_and_deterministic(capsys):
    argv = ["sweep", "--d", "3", "--trials", "4", "--seed", "11", "--check", "e3,moments"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "pass" in first


def test_sweep_rejects_unknown_check(capsys):
    assert main(["sweep", "--d", "3", "--check", "nonsense"]) == 2
    assert "UnknownCheck" in capsys.readouterr().err


def test_sweep_rejects_zero_trials(capsys):
    assert main(["sweep", "--d", "3", "--trials", "0"]) == 2
    assert "InvalidConfig" in capsys.readouterr().err


def test_coherent_demo(capsys):
    code = main(["coherent", "--d", "3", "--labels", "0,0;1,1", "--shift", "1,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"{np.log(2):.9f}" in out
    assert "covariance" in out


def test_coherent_rejects_even_dimension(capsys):
    assert main(["coherent", "--d", "4", "--labels", "0,0"]) == 2
    assert "EvenDimension" in capsys.readouterr().err


def test_coherent_position_basis(tmp_path, capsys):
    fid = tmp_path / "fid.json"
    dump_json(matrix_to_json(np.array([[1.0], [0.0], [0.0]])), str(fid))
    code = main(["coherent", "--d", "3", "--fiducial", str(fid),
                 "--labels", "0,0;0,1;0,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace: 3.000000" in out


def test_coherent_rejects_zero_fiducial(tmp_path, capsys):
    fid = tmp_path / "fid.json"
    dump_json(matrix_to_json(np.zeros((3, 1))), str(fid))
    with np.errstate(invalid="ignore"):  # the command normalizes 0 / 0
        code = main(["coherent", "--d", "3", "--fiducial", str(fid),
                     "--labels", "0,0;1,0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: NonUnitFiducial: ")


def test_mobius_command_matches_reference(example_files, capsys):
    code = main(["mobius", example_files["h1"], example_files["h2"],
                 "--rho", example_files["rho"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "E = -0.701" in out
    assert "classification: lower" in out
    matrix = json.loads(out[:out.index("eigenvalues")])
    flat = np.array([complex(re, im) for re, im in matrix["data"]]).reshape(3, 3)
    assert abs(flat[0, 0].real - 0.019) <= 5e-3


def test_mobius_orthogonal_lines_zero(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    dump_json({"d": 2, "vectors": [[[1, 0], [0, 0]]]}, str(a))
    dump_json({"d": 2, "vectors": [[[0, 0], [1, 0]]]}, str(b))
    assert main(["mobius", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "trace: 0.000" in out
    matrix = json.loads(out[:out.index("eigenvalues")])
    assert all(abs(re) <= 1e-12 and abs(im) <= 1e-12 for re, im in matrix["data"])


def test_mobius_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["mobius", str(bad), str(bad)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_eps_env_override(monkeypatch):
    from qlattice.tolerances import default_tolerance
    monkeypatch.setenv("QLATTICE_EPS", "1e-6")
    assert default_tolerance().identity_eps == 1e-6
    monkeypatch.delenv("QLATTICE_EPS")
    assert default_tolerance().identity_eps == 1e-9


def test_sweep_reads_eps_env(monkeypatch, capsys):
    monkeypatch.setenv("QLATTICE_EPS", "1e-6")
    assert main(["sweep", "--d", "3", "--trials", "2", "--check", "e3"]) == 0
    assert "tol=1.0e-06" in capsys.readouterr().out


def test_mobius_classification_reads_eps_env(example_files, monkeypatch, capsys):
    # E[D(1,2)] = -0.701 is "lower" at the default, inside an identity_eps of 0.9
    monkeypatch.setenv("QLATTICE_EPS", "0.9")
    assert main(["mobius", example_files["h1"], example_files["h2"],
                 "--rho", example_files["rho"]]) == 0
    assert "classification: additive" in capsys.readouterr().out


def test_library_ignores_eps_env(monkeypatch):
    # only the command line reads QLATTICE_EPS; library defaults are Tolerance()
    monkeypatch.setenv("QLATTICE_EPS", "1e-6")
    assert SweepConfig(3, 2, 1).tolerances == Tolerance()
    near = Subspace.line([1, 1e-8, 0])
    assert not leq(near, Subspace.line([1, 0, 0]))


@pytest.mark.parametrize("argv, env, error", [
    (["mobius", "{h1}"], None, "InvalidArgument"),
    (["mobius", "{h1}", "{h2}", "--rho", "{half}"], None, "InvalidMatrix"),
    (["coherent", "--d", "3", "--labels", "0,0;1"], None, "ParseError"),
    (["coherent", "--d", "3", "--labels", "0,0;1,x"], None, "ParseError"),
    (["coherent", "--d", "3", "--labels", "0,0", "--shift", "1"], None, "ParseError"),
    (["coherent", "--d", "3", "--labels", ""], None, "ParseError"),
    (["sweep", "--d", "3", "--trials", "1"], "abc", "ParseError"),
    (["sweep", "--d", "3", "--trials", "1"], "2", "InvalidArgument"),
], ids=["one-subspace", "rho-trace", "label-pair", "label-int", "shift-pair",
        "no-labels", "eps-text", "eps-range"])
def test_bad_input_is_a_typed_error(argv, env, error, example_files, tmp_path,
                                    monkeypatch, capsys):
    half = tmp_path / "half.json"
    dump_json(matrix_to_json(np.eye(3) / 2.0), str(half))
    if env is not None:
        monkeypatch.setenv("QLATTICE_EPS", env)
    assert main([arg.format(half=half, **example_files) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}: ")
