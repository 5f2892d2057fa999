import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oblique import coordinate_operator
from oblique.builtins import builtin_family
from oblique.cli import main
from oblique.errors import ValidationError
from oblique.frobenius import integrate, tangency_check
from oblique.matio import dump_json, matrix_from_dict, matrix_to_dict, read_matrix
from oblique.suites import run_suite


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
        {"rows": 2.7, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0]},
        {"rows": True, "cols": 4, "data": [1.0, 2.0, 3.0, 4.0]},
        {"rows": 2, "cols": "2", "data": [1.0, 2.0, 3.0, 4.0]},
        {"rows": 2, "cols": 2, "data": ["1", True, 3, 4]},
        {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, False]},
        {"rows": 2, "cols": 2, "data": "1234"},
        {"rows": 1, "cols": 1, "data": [10**400]},
    ],
)
def test_matrix_dict_rejects_malformed(payload):
    with pytest.raises(ValidationError):
        matrix_from_dict(payload)


def test_matrix_dict_takes_whole_numbers_and_integer_entries():
    got = matrix_from_dict({"rows": 2.0, "cols": 1, "data": [1, 0]})
    assert got.dtype == float and got.tolist() == [[1.0], [0.0]]


# ---------------------------------------------------------------------------
# report writer: json.dumps(obj, indent=2) + "\n", byte for byte

_NUMBERS = (st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324])
            | st.integers() | st.integers(2**64, 2**300) | st.integers(-(2**300), -(2**64))
            | st.booleans() | st.none())
_ROWS = st.lists(st.lists(_NUMBERS, min_size=1, max_size=4) | st.tuples(_NUMBERS, _NUMBERS),
                 min_size=1, max_size=5)
_JSON = st.recursive(
    _NUMBERS | st.text() | _ROWS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text() | st.integers() | st.floats() | st.booleans() | st.none(), inner,
                                     max_size=5)),
    max_leaves=40,
)


def _as_json(obj):
    return json.dumps(obj, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(_JSON)
def test_dump_json_is_json_dumps_indent_2(obj):
    assert dump_json(obj) == _as_json(obj)


_F64 = [np.float64(v) for v in (0.1, 1.0 / 3.0, -0.0, 5e-324, 1e308, -2.5e-300, math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize(
    "obj",
    [_F64[1], _F64, tuple(_F64), [_F64, _F64[::-1]], [[v] for v in _F64], {"x": _F64, "y": {"z": _F64[3]}},
     [1, _F64[0], "a", None, [_F64[2], True]], {"rows": [[_F64[0], 2], (3.5, _F64[6])]}],
)
def test_dump_json_writes_np_float64_as_json_does(obj):
    assert dump_json(obj) == _as_json(obj)


def test_dump_json_writes_the_verify_and_integrate_reports_as_json_does():
    report = run_suite("all", 5, 7).to_dict()
    family = builtin_family("sphere_3d")
    patch = integrate(family, 0.5, 1e-2, grid_points=21)
    tangency_check(patch, family)
    for obj in (report, patch.to_dict()):
        same = dump_json(obj) == _as_json(obj)  # outside the assert: pytest diffs 0.1 MB texts slowly
        assert same


def _cyclic():
    items = [1.0]
    items.append(items)
    return {"items": items}


@pytest.mark.parametrize("obj", [{"a": {1, 2}}, [1.0, np.int64(3)], _cyclic(), [[1.0, 2.0], [np.bool_(True)]]])
def test_dump_json_raises_what_json_raises(obj):
    with pytest.raises(Exception) as expected:
        json.dumps(obj, indent=2)
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        dump_json(obj)


def test_dump_json_writes_the_text_it_returns(tmp_path):
    path = tmp_path / "report.json"
    report = {"name": "caf\u00e9", "psi": [[0.5, -0.0], [math.nan, 1e300]]}
    text = dump_json(report, path)
    assert path.read_text(encoding="utf-8") == text == _as_json(report)


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


@pytest.mark.parametrize("fixed", [{"x0": [1.0, 0.0, 0.0, 0.0]}, {"estar": {"rows": 4, "cols": 1, "data": [0, 1, 0, 0]}},
                                   {"rank_tol": 1e-6}, {}])
def test_cli_sec4_manifest_refuses_keys_the_builtin_fixes(tmp_path, fixed):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"kind": "kernel", "map": "sec4_2x2", **fixed}))
    argv = ["integrate", "--manifest", str(manifest), "--extent", "0.1", "--grid", "3", "--step", "1e-2"]
    assert main([*argv, "--out", str(tmp_path / "patch.json")]) == (2 if fixed else 0)


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


def _write(path, text):
    path.write_text(text)
    return str(path)


def _directory(path):
    path.mkdir()
    return str(path)


def _bytes(path, data):
    path.write_bytes(data)
    return str(path)


def _matrix_file(name, text):
    return lambda tmp_path: ["gi", "--a", _write(tmp_path / name, text)]


def _manifest(payload):
    return lambda tmp_path: ["integrate", "--manifest", _write(tmp_path / "m.json", json.dumps(payload)),
                             "--extent", "0.1"]


@pytest.mark.parametrize(
    "make_argv, message",
    [
        (_matrix_file("m.csv", "1.0,2.0\n3.0,x\n"), r"m\.csv:2: could not convert string to float: 'x'"),
        (_matrix_file("m.csv", "1.0,nan\n"), r"m\.csv:1: non-finite entries rejected"),
        (_matrix_file("m.csv", "\n  \n"), r"m\.csv: empty matrix"),
        (lambda tmp_path: ["gi", "--a", str(tmp_path / "missing.json")], r"no such file: .*missing\.json"),
        (lambda tmp_path: ["gi", "--a", str(tmp_path / "missing.csv")], r"no such file: .*missing\.csv"),
        (_matrix_file("bad.json", '{"rows": 1,\n "cols": 1,,\n "data": [1.0]}'), r"bad\.json:2: invalid JSON"),
        (_matrix_file("m.json", '{"rows": 2.7, "cols": 2, "data": [1, 2, 3, 4]}'),
         r"m\.json: rows must be a whole number, got 2\.7"),
        (_matrix_file("m.json", '{"rows": 2, "cols": 2, "data": ["1", true, 3, 4]}'),
         r"m\.json: data entries must be numbers, got '1'"),
        (_manifest({"kind": "explicit", "points": [[0.0, 1.0]],
                    "bases": [{"rows": 2, "cols": True, "data": [1, 0]}]}),
         r"bases\[0\]: cols must be a whole number, got True"),
        (_manifest({"kind": "kernel", "map": {"dom_dim": 2, "components": [[[1.0, [2, 0, 0]]]]}, "x0": [0.0, 1.0]}),
         "polynomial exponents must be nonnegative, one per variable"),
        (_manifest({"kind": "kernel", "map": {"dom_dim": 2, "components": [[[1.0, [2, 0]]]]}}),
         "kernel manifest with a polynomial map needs x0"),
        (_manifest({"kind": "kernel", "map": 3, "x0": [0.0, 1.0]}),
         "kernel manifest needs map: builtin name or polynomial spec"),
        (_manifest({"kind": "explicit", "points": [[0.0, 1.0], [1.0, 0.0]],
                    "bases": [{"rows": 2, "cols": 1, "data": [1.0, 0.0]}]}),
         "explicit manifest: points and bases must align and be nonempty"),
        (lambda tmp_path: ["gi", "--a", write_matrix(tmp_path / "a.json", np.eye(2)),
                           "--r-plus", write_matrix(tmp_path / "r.json", np.eye(2))],
         "--r-plus and --n-plus must be given together"),
        (lambda tmp_path: ["verify", "thm1_2", "--tol", "0"], "--tol must be positive"),
        (lambda tmp_path: ["integrate", "--builtin", "sphere_3d", "--grid", "5", "--step", "nan"],
         "step must be finite and positive, got nan"),
        (lambda tmp_path: ["integrate", "--builtin", "sphere_2d", "--extent", "inf"],
         r"extents must be finite, got \[inf\]"),
        # files that exist but cannot be read as UTF-8 text, and outputs that cannot be written
        (lambda tmp_path: ["gi", "--a", _directory(tmp_path / "d.json")], r"d\.json: cannot read: Is a directory"),
        (lambda tmp_path: ["gi", "--a", _directory(tmp_path / "d.csv")], r"d\.csv: cannot read: Is a directory"),
        (lambda tmp_path: ["gi", "--a", _bytes(tmp_path / "m.json", b'{"rows": 1, "cols": 1, "data": [1.0]} \xe9')],
         r"m\.json: not UTF-8 text: unexpected end of data at byte 38"),
        (lambda tmp_path: ["gi", "--a", _bytes(tmp_path / "m.csv", b"1.0,\xff\n")],
         r"m\.csv: not UTF-8 text: invalid start byte at byte 4"),
        (lambda tmp_path: ["integrate", "--manifest", _directory(tmp_path / "m.json"), "--extent", "0.1"],
         r"m\.json: cannot read: Is a directory"),
        (lambda tmp_path: ["integrate", "--manifest", _bytes(tmp_path / "m.json", b"\xfe\xff{}"), "--extent", "0.1"],
         r"m\.json: not UTF-8 text: invalid start byte at byte 0"),
        (lambda tmp_path: ["gi", "--a", write_matrix(tmp_path / "a.json", np.eye(2)), "--out", _directory(tmp_path / "out")],
         r"out: cannot write: Is a directory"),
        (lambda tmp_path: ["integrate", "--builtin", "sphere_2d", "--grid", "5", "--emit-csv", _directory(tmp_path / "csv")],
         r"csv: cannot write: Is a directory"),
        # a tolerance every comparison fails, and one no margin can pass
        (lambda tmp_path: ["verify", "thm1_1", "--trials", "8", "--tol", "nan"],
         "--tol must be positive and finite, got nan"),
        (lambda tmp_path: ["verify", "all", "--tol", "inf"], "--tol must be positive and finite, got inf"),
    ],
)
def test_cli_file_manifest_and_flag_errors_exit_2(tmp_path, capsys, make_argv, message):
    assert main(make_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert re.search(message, err)


def test_cli_verify_tol_sets_tol_num_and_cond_tol(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "thm1_2", "--trials", "3", "--tol", "1e-7", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["tol_num"] == 1e-7
    assert config["cond_tol"] == 100 * 1e-7
