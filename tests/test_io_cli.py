import json

import numpy as np
import pytest

from oblique import coordinate_operator
from oblique.cli import main
from oblique.errors import ValidationError
from oblique.matio import matrix_from_dict, matrix_to_dict, read_matrix


def write_matrix(path, a):
    path.write_text(json.dumps(matrix_to_dict(np.asarray(a, dtype=float))))
    return str(path)


# ---------------------------------------------------------------------------
# matrix I/O


def test_matrix_dict_round_trip(rng):
    a = rng.standard_normal((3, 4))
    np.testing.assert_array_equal(matrix_from_dict(matrix_to_dict(a)), a)


def test_matrix_json_file_round_trip(tmp_path, rng):
    a = rng.standard_normal((2, 5))
    path = write_matrix(tmp_path / "a.json", a)
    np.testing.assert_array_equal(read_matrix(path), a)


def test_matrix_csv_round_trip(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.5,2.0\n-3.25,0.0\n")
    np.testing.assert_array_equal(read_matrix(str(p)), [[1.5, 2.0], [-3.25, 0.0]])


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]},
        {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, float("nan")]},
        {"rows": 0, "cols": 2, "data": []},
        {"rows": 2, "data": [1.0, 2.0]},
    ],
)
def test_matrix_dict_rejects_malformed(payload):
    with pytest.raises(ValidationError):
        matrix_from_dict(payload)


def test_csv_rejects_non_finite(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,inf\n2.0,3.0\n")
    with pytest.raises(ValidationError):
        read_matrix(str(p))


def test_csv_rejects_ragged(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValidationError):
        read_matrix(str(p))


# ---------------------------------------------------------------------------
# manifests


def test_polynomial_manifest_family(tmp_path):
    from oblique.builtins import family_from_manifest

    manifest = {
        "kind": "kernel",
        "map": {"dom_dim": 2, "components": [[[1.0, [2, 0]], [1.0, [0, 2]]]]},
        "x0": [0.0, 1.0],
    }
    fam = family_from_manifest(manifest)
    a = coordinate_operator(fam.base_subspace, fam.complement, fam.eval([0.3, 0.6]))
    assert abs(a.alpha[0, 0]) == pytest.approx(0.5, abs=1e-10)


def test_explicit_manifest_family():
    from oblique.builtins import family_from_manifest

    manifest = {
        "kind": "explicit",
        "points": [[0.0, 0.0], [1.0, 0.0]],
        "bases": [
            {"rows": 2, "cols": 1, "data": [1.0, 0.0]},
            {"rows": 2, "cols": 1, "data": [1.0, 1.0]},
        ],
    }
    fam = family_from_manifest(manifest)
    v = np.array([2.0, 2.0])
    assert np.linalg.norm(v - fam.eval([1.0, 0.0]).orthogonal_projector() @ v) <= 1e-12
    from oblique.errors import EvalError

    with pytest.raises(EvalError):
        fam.eval([0.5, 0.5])


def test_manifest_rejects_unknown_kind():
    from oblique.builtins import family_from_manifest

    with pytest.raises(ValidationError):
        family_from_manifest({"kind": "mystery"})


# ---------------------------------------------------------------------------
# CLI behavior and exit codes


def test_cli_gi_invertible(tmp_path, capsys):
    a = [[2.0, 1.0], [1.0, 1.0]]
    code = main(["gi", "--a", write_matrix(tmp_path / "a.json", a)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    got = matrix_from_dict(out["A_plus"])
    np.testing.assert_allclose(got, np.linalg.inv(a), atol=1e-12)
    assert max(out["residuals"].values()) <= 1e-10


def test_cli_gi_with_prescribed_complements(tmp_path, capsys):
    a_path = write_matrix(tmp_path / "a.json", [[1.0, 0.0], [0.0, 0.0]])
    r_path = write_matrix(tmp_path / "r.json", [[1.0], [1.0]])
    n_path = write_matrix(tmp_path / "n.json", [[0.0], [1.0]])
    code = main(["gi", "--a", a_path, "--r-plus", r_path, "--n-plus", n_path])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(matrix_from_dict(out["A_plus"]), [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)


def test_cli_conditions_all_false(tmp_path, capsys):
    a_path = write_matrix(tmp_path / "a.json", [[1.0, 0.0], [0.0, 0.0]])
    t_path = write_matrix(tmp_path / "t.json", [[1.0, 0.0], [0.0, 0.5]])
    code = main(["conditions", "--a", a_path, "--t", t_path])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agree"] is True
    assert all(v is False for v in out["conditions"].values())


def test_cli_conditions_with_explicit_inverse(tmp_path, capsys):
    a = [[1.0, 0.0], [0.0, 0.0]]
    # oblique inverse: sends e1 -> (1, 1), kills e2
    ainv = [[1.0, 0.0], [1.0, 0.0]]
    code = main(
        [
            "conditions",
            "--a", write_matrix(tmp_path / "a.json", a),
            "--ainv", write_matrix(tmp_path / "ai.json", ainv),
            "--t", write_matrix(tmp_path / "t.json", [[1.0, 0.05], [0.0, 0.0]]),
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert all(out["conditions"].values())


def test_cli_conditions_ball_exit_code(tmp_path, capsys):
    a_path = write_matrix(tmp_path / "a.json", [[1.0, 0.0], [0.0, 0.0]])
    t_path = write_matrix(tmp_path / "t.json", [[3.0, 0.0], [0.0, 0.0]])
    assert main(["conditions", "--a", a_path, "--t", t_path]) == 3


def test_cli_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2, "cols": 2, "data": [1, 2, 3]}')
    assert main(["gi", "--a", str(bad)]) == 2


def test_cli_integrate_builtin_circle(tmp_path, capsys):
    csv_path = tmp_path / "patch.csv"
    out_path = tmp_path / "patch.json"
    code = main(
        [
            "integrate", "--builtin", "sphere_2d", "--step", "2e-3",
            "--emit-csv", str(csv_path), "--out", str(out_path),
        ]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    amb = np.array(payload["ambient"])
    i = int(np.argmin(np.abs(amb[:, 0] - 0.6)))
    assert amb[i, 1] == pytest.approx(0.8, abs=1e-6)
    assert payload["diagnostics"]["tangency_residual"] <= 1e-6
    header, first = csv_path.read_text().splitlines()[:2]
    assert header == "x0,psi0"
    assert len(first.split(",")) == 2


def test_cli_integrate_manifest_requires_extent(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"kind": "kernel", "map": "sphere_2d", "x0": [0.0, 1.0]}))
    assert main(["integrate", "--manifest", str(manifest)]) == 2


def test_cli_chart_report(tmp_path, capsys):
    code = main(["chart", "--builtin", "sec4_2x2", "--samples", "20", "--seed", "3"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m0_dim"] == 3
    assert out["rank_failures"] == 0
    assert out["round_trip_max"] <= 1e-10
    assert out["tangency_residual"] <= 1e-6
    assert out["tangent_span_dim"] == out["expected_dim"] == 3


def test_cli_chart_rank_mismatch(tmp_path):
    a_path = write_matrix(tmp_path / "a.json", [[1.0, 0.0], [0.0, 0.0]])
    assert main(["chart", "--a", a_path, "--k", "2", "--samples", "2"]) == 2


def test_cli_verify_unknown_suite():
    with pytest.raises(SystemExit):  # argparse rejects non-registry names
        main(["verify", "bogus"])


def test_cli_verify_deterministic(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "thm1_5", "--trials", "25", "--seed", "11", "--out", str(p1)]) == 0
    assert main(["verify", "thm1_5", "--trials", "25", "--seed", "11", "--out", str(p2)]) == 0
    a, b = json.loads(p1.read_text()), json.loads(p2.read_text())
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


@pytest.mark.parametrize(
    "argv",
    [
        ["chart", "--builtin", "sec4_2x2", "--samples", "-3"],
        ["chart", "--builtin", "sec4_2x2", "--samples", "0"],
        ["chart", "--builtin", "sec4_2x2", "--curves", "-4"],
        ["chart", "--builtin", "sec4_2x2", "--seed", "-1"],
        ["verify", "thm1_1", "--trials", "-2"],
        ["verify", "thm1_1", "--trials", "0"],
        ["verify", "thm1_1", "--seed", "-1"],
    ],
)
def test_cli_rejects_counts_and_seeds_below_their_floor(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {argv[-2]} must be at least")
