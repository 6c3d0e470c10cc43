import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sunmesh import (
    Coupler,
    EulerAngles,
    MeshPlan,
    ToleranceError,
    clements_decompose,
    depth,
    matrix_from_json,
    matrix_to_json,
    parameter_count,
    plan_from_json,
    plan_to_json,
    random_unitary_qr,
    triangle_decompose,
)
from sunmesh.cli import main


def write_matrix(tmp_path, m, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_json(m)))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_identity_summary(tmp_path, capsys):
    path = write_matrix(tmp_path, np.eye(4))
    code, out, err = run_cli(["decompose", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"] == {"command": "decompose", "tol": 1e-10, "seed": 0}
    assert len(doc["couplers"]) == 6
    assert "scheme=triangle boxes=6 depth=5" in err


@pytest.mark.parametrize("scheme", ["triangle", "reck", "clements"])
def test_decompose_then_reconstruct_roundtrips(tmp_path, capsys, scheme):
    m = random_unitary_qr(4, seed=5)
    mpath = write_matrix(tmp_path, m)
    ppath = str(tmp_path / "plan.json")
    code, _, _ = run_cli(["decompose", mpath, "--scheme", scheme, "--output", ppath], capsys)
    assert code == 0
    code, out, _ = run_cli(["reconstruct", ppath], capsys)
    assert code == 0
    back = matrix_from_json(json.loads(out))
    assert np.abs(back - m).max() < 1e-9


def test_decompose_canonical_parameter_count(tmp_path, capsys):
    path = write_matrix(tmp_path, random_unitary_qr(4, seed=6))
    code, out, _ = run_cli(["decompose", path, "--canonical"], capsys)
    assert code == 0
    plan = plan_from_json(json.loads(out))
    assert parameter_count(plan) == 15


def test_canonical_rejected_for_other_schemes(tmp_path, capsys):
    path = write_matrix(tmp_path, np.eye(3))
    code, _, err = run_cli(["decompose", path, "--scheme", "reck", "--canonical"], capsys)
    assert code == 3
    assert "triangle" in err


def test_decompose_clements_depth_is_n(tmp_path, capsys):
    path = write_matrix(tmp_path, random_unitary_qr(5, seed=7))
    code, out, _ = run_cli(["decompose", path, "--scheme", "clements"], capsys)
    assert code == 0
    assert depth(plan_from_json(json.loads(out))) == 5


def test_bad_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "rows": [')
    code, _, err = run_cli(["decompose", str(path)], capsys)
    assert code == 1
    assert "invalid JSON" in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(["decompose", "/no/such/file.json"], capsys)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_failed_write_exits_1_with_one_line(tmp_path, capsys):
    # the summary note follows the write, so a failed write prints only the error
    path = write_matrix(tmp_path, np.eye(3))
    code, out, err = run_cli(["decompose", path, "--output", str(tmp_path / "no" / "f")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_nonunitary_exits_3(tmp_path, capsys):
    path = write_matrix(tmp_path, np.diag([1.0, 2.0]))
    code, _, err = run_cli(["decompose", path], capsys)
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1


def test_tolerance_failure_exits_2(tmp_path, capsys, monkeypatch):
    def explode(plan, m, tol=1e-10):
        raise ToleranceError("forced", residual=1.0)

    monkeypatch.setattr("sunmesh.decompose.canonicalize", explode)
    path = write_matrix(tmp_path, np.eye(3))
    code, _, err = run_cli(["decompose", path, "--canonical"], capsys)
    assert code == 2
    assert "forced" in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_compare_identity_n9_csv(tmp_path, capsys):
    code, out, _ = run_cli(
        ["compare", "--n", "9", "--format", "csv", "--loss-db", "0.2"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "scheme,boxes,depth,parameters,offdiag_generator_types,"
        "generator_savings,max_mode_couplers,worst_loss_db"
    )
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["triangle"][1:7] == ["36", "15", "80", "8", "28", "15"]
    assert rows["reck"][1:7] == ["36", "36", "108", "36", "0", "36"]
    assert rows["clements"][1:7] == ["36", "9", "108", "8", "28", "9"]
    assert float(rows["triangle"][7]) == pytest.approx(3.0)
    assert float(rows["reck"][7]) == pytest.approx(7.2)
    assert float(rows["clements"][7]) == pytest.approx(1.8)


def test_compare_matrix_input_json(tmp_path, capsys):
    path = write_matrix(tmp_path, random_unitary_qr(4, seed=8))
    code, out, _ = run_cli(["compare", path, "--loss-db", "0.1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["loss_db"] == 0.1
    by_scheme = {row["scheme"]: row for row in doc["schemes"]}
    assert by_scheme["triangle"]["offdiag_generator_types"] == 3
    assert by_scheme["triangle"]["generator_savings"] == 3
    assert by_scheme["reck"]["generator_savings"] == 0
    assert by_scheme["clements"]["depth"] == 4


def test_compare_n2_schemes_mostly_coincide(capsys):
    code, out, _ = run_cli(["compare", "--n", "2"], capsys)
    assert code == 0
    rows = {row["scheme"]: row for row in json.loads(out)["schemes"]}
    keys = ("boxes", "depth", "parameters", "offdiag_generator_types")
    assert [rows["triangle"][k] for k in keys] == [1, 1, 3, 1]
    assert [rows["reck"][k] for k in keys] == [1, 1, 3, 1]
    # clements pads with an identity coupler to reach its fixed depth
    assert rows["clements"]["boxes"] == 2
    assert rows["clements"]["depth"] == 2


def test_compare_without_input_exits_3(capsys):
    code, _, _ = run_cli(["compare"], capsys)
    assert code == 3


def test_sample_haar_is_byte_deterministic(capsys):
    _, first, _ = run_cli(["sample-haar", "--n", "5", "--seed", "3"], capsys)
    _, second, _ = run_cli(["sample-haar", "--n", "5", "--seed", "3"], capsys)
    assert first == second
    plan = plan_from_json(json.loads(first))
    assert len(plan.couplers) == 10


# SHA-256 of the lift documents below, so a change to either lift route
# that moves any output bit shows (NumPy 2.4.6 with scipy-openblas 0.3.31
# on x86-64; another BLAS may move the last bits)
LIFT_SHA256 = {
    ("plan", 2): "9c6056ea7cee8c002b4e200e85ead8c01a91e199a4a6805798b21eeefe3318a8",
    ("plan", 3): "799a954c7f542d9578060aeaa8dcfb405e9c3923e2965dfe0e00968220d5eb8d",
    ("matrix", 2): "08669b28f482bfc475424585349e4faa37bba057d7d42fc5968f1d3fbf9fa802",
    ("matrix", 3): "31329e0e1330e615d437697dbad2349f038fdeef4debe72a42b8f02d907189bc",
}


def test_lift_is_byte_deterministic(tmp_path, capsys):
    _, plan_doc, _ = run_cli(["sample-haar", "--n", "4", "--seed", "11"], capsys)
    ppath = tmp_path / "plan.json"
    ppath.write_text(plan_doc)
    mpath = write_matrix(tmp_path, random_unitary_qr(4, seed=12))
    for kind, path in (("plan", str(ppath)), ("matrix", mpath)):
        for p in ("2", "3"):
            code, first, _ = run_cli(["lift", path, "--p", p], capsys)
            assert code == 0
            _, second, _ = run_cli(["lift", path, "--p", p], capsys)
            assert first == second
            digest = hashlib.sha256(first.encode()).hexdigest()
            assert digest == LIFT_SHA256[kind, int(p)], (kind, p)


# SHA-256 of each command's stdout at fixed seeds, on the files the test below
# writes (NumPy 2.4.6 with scipy-openblas 0.3.31 on x86-64; another BLAS may
# move the last bits)
STDOUT_SHA256 = {
    (
        "sample-haar",
        "--n", "5", "--seed", "3",
    ): "9d8e473ca8d188257ddfacd40cd79a54bb0d7ce2db29b661c11467cb0ed2d2ab",
    (
        "sample-haar",
        "--n", "5", "--seed", "3", "--coset",
    ): "a84d5b769089a443233f8aaf7120c6b24759227d9e0e276c7780c3ff02a0d411",
    (
        "sample-haar",
        "--n", "5", "--seed", "3", "--emit", "matrix",
    ): "2394bb178b6ee98d833754ad2a065a30c9e6563c4ca3c1dbaf3e5faaa814bf85",
    (
        "validate-haar",
        "--n", "3", "--seed", "4",
    ): "0bf528df2d2e66a6d7906ce1475856d02ebe6f83ad180d7853434e2b05f457af",
    (
        "validate-haar",
        "--n", "3", "--seed", "4", "--beta-mode", "uniform",
    ): "ac4f3624ec3f359e75a15aa11caf54e589b4a9d22828eeade13113f49f9d4221",
    (
        "validate-haar",
        "--n", "3", "--seed", "4", "--source", "qr", "--samples", "6000",
    ): "1d2510d265b3c6f3a5777be03b5ed79c70fb95bea8bb725c2bece9d03e0a2dfe",
    (
        "decompose", "m.json", "--scheme", "clements",
    ): "e1d7d761c114d05ea45a9de11a4d47fd36e77d9d44855d528b2ae205601bc4dd",
    (
        "decompose", "m.json",
    ): "980f2773256006e18be165e1dac3cf954d0cb35fb8324c2cab594db3d8c04967",
    (
        "decompose", "m.json", "--canonical",
    ): "58ac2daeca73a931a8db987bfe23428e9878d7f8241bce87f0efb4acd5194207",
    (
        "decompose", "m.json", "--scheme", "reck",
    ): "72539267ae1b6ee668037eecbdc8d81b5beca00df9b1ed3b994b110c0689d8a2",
    (
        "reconstruct", "triangle.json",
    ): "b648f6ece59bc9c69ff07348e2a639149baa2071eb61b20b6c211ed9111c591b",
    (
        "compare", "m.json",
    ): "3925fb8496c5c70f9355d2932d147a4bfc2d2db801c14ff5f441b2a341d9872a",
    (
        "compare", "m.json", "--format", "csv",
    ): "59fac627ea66e234ce3f453b4379b5b14967d6d610858efcaf91d7fbe1bb11ce",
    (
        "render", "triangle.json",
    ): "d44bbf82a914ae53e9ead5351182e55373aecd0e850f5292c455066f03021c1c",
    (
        "render", "triangle.json", "--format", "svg",
    ): "86a1bd85ec21a424981cdddf9c7b554deaba23a132b633a0fe77efdd89c4cfad",
    # the last coupler of this plan is on (1, 2), so the lift is dense from
    # its first step
    (
        "lift", "clements.json", "--p", "2",
    ): "2743c693960322142e8436ffaa8d15afcda12ed259b83d36c9ffe64fdeab53d7",
    (
        "lift", "one.json", "--p", "3",
    ): "422bb1e3a7ce2213c58c7639e2c36f814fb322482fe57cff6a5dac7b7099de65",
}


def write_plan(tmp_path, plan, name):
    (tmp_path / name).write_text(json.dumps(plan_to_json(plan)))


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_command_stdout_is_pinned(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    m = random_unitary_qr(8, seed=8)
    write_matrix(tmp_path, m)
    clements = clements_decompose(m)
    assert (clements.couplers[-1].i, clements.couplers[-1].j) == (1, 2)
    write_plan(tmp_path, triangle_decompose(m), "triangle.json")
    write_plan(tmp_path, clements, "clements.json")
    write_plan(tmp_path, MeshPlan(1, 0.25, ()), "one.json")
    code, out, _ = run_cli(list(argv), capsys)
    assert code == (3 if "uniform" in argv else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


def test_sample_haar_coset_chain(capsys):
    code, out, _ = run_cli(["sample-haar", "--n", "4", "--coset"], capsys)
    assert code == 0
    plan = plan_from_json(json.loads(out))
    assert [(c.i, c.j) for c in plan.couplers] == [(3, 4), (2, 3), (1, 2)]
    assert parameter_count(plan) == 7


def test_sample_haar_emit_matrix_is_unitary(capsys):
    code, out, _ = run_cli(["sample-haar", "--n", "4", "--emit", "matrix"], capsys)
    assert code == 0
    u = matrix_from_json(json.loads(out))
    assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-9


def test_sample_haar_without_n_exits_3(capsys):
    assert run_cli(["sample-haar"], capsys)[0] == 3


def test_validate_haar_pass_and_fail(capsys):
    code, out, _ = run_cli(["validate-haar", "--n", "3", "--samples", "20000"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["moments"]["passed"] and doc["ks"]["passed"]
    code, out, _ = run_cli(
        ["validate-haar", "--n", "3", "--samples", "20000", "--beta-mode", "uniform"],
        capsys,
    )
    assert code == 3
    assert json.loads(out)["passed"] is False


def test_validate_haar_qr_source_rejects_beta_mode(capsys):
    argv = ["validate-haar", "--n", "3", "--samples", "1000", "--source", "qr"]
    code, out, err = run_cli(argv + ["--beta-mode", "uniform"], capsys)
    assert code == 3
    assert out == ""
    assert "beta_mode" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--n", "-1"],
        ["compare", "--n", "0"],
        ["compare", "--n", "3", "--loss-db", "nan"],
        ["compare", "--n", "3", "--loss-db", "inf"],
        ["compare", "--n", "3", "--loss-db", "1e308"],
    ],
)
def test_compare_rejects_bad_sizes_and_losses_with_one_line(argv, capsys):
    # non-finite losses would print NaN or Infinity, which are not JSON
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "m.json", "--bogus"],
        ["lift", "--n", "abc"],
        ["lift", "--n", "3", "--p", "2", "--threads", "2"],
        ["validate-haar", "--n", "3", "--threads", "2"],
        [],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    # argparse would exit 2, which the CLI reserves for tolerance failures
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: sunmesh")


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0", "abc"])
@pytest.mark.parametrize("command", [["lift", "--p", "2"], ["decompose"]])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, command, tol):
    # an infinite tol would accept diag(1, 2) as unitary and write "tol":
    # Infinity, which is not JSON; nan and negative values would read as a
    # validation failure of the input
    mpath = write_matrix(tmp_path, np.diag([1.0, 2.0]))
    code, out, err = run_cli([command[0], mpath, *command[1:], "--tol", tol], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: sunmesh") and "--tol" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lift", "--help"])
    assert exc.value.code == 0
    assert "--p" in capsys.readouterr().out


def test_lift_dimension_only(capsys):
    code, out, _ = run_cli(["lift", "--n", "9", "--p", "5"], capsys)
    assert code == 0
    assert out.strip() == "1287"


def test_lift_routes_agree_through_cli(tmp_path, capsys):
    m = random_unitary_qr(3, seed=9)
    mpath = write_matrix(tmp_path, m)
    ppath = str(tmp_path / "plan.json")
    run_cli(["decompose", mpath, "--canonical", "--output", ppath], capsys)

    code, out, _ = run_cli(["lift", ppath, "--p", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["route"] == "generators"
    assert doc["provenance"]["n"] == 3
    assert doc["provenance"]["p"] == 2
    assert doc["provenance"]["dimension"] == 6
    via_plan = matrix_from_json(doc)

    code, out, _ = run_cli(["lift", mpath, "--p", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["route"] == "permanents"
    via_perm = matrix_from_json(doc)

    assert np.abs(via_plan - via_perm).max() < 1e-8


def test_lift_dimension_cap_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRIMESH_DIM_CAP", "100")
    path = write_matrix(tmp_path, random_unitary_qr(4, seed=10))
    code, _, err = run_cli(["lift", path, "--p", "7"], capsys)
    assert code == 4
    assert err.startswith("error:") and err.count("\n") == 1


# the global phase is reduced mod 2*pi and each angle mod 4*pi before any
# product, so 2 * 1e308 and 1.7e308 + 1.7e308 never overflow: each plan
# prints what the plan reduced by hand prints
@pytest.mark.parametrize(
    "phase,alpha,argv",
    [(1e308, 0.1, ["lift", "plan.json", "--p", "2"]), (0.0, 1.7e308, ["reconstruct", "plan.json"])],
)
def test_huge_angles_give_the_reduced_plans_result(tmp_path, capsys, monkeypatch, phase, alpha, argv):
    monkeypatch.chdir(tmp_path)
    outs = []
    for phi, a in ((phase, alpha), (math.fmod(phase, 2 * math.pi), math.fmod(alpha, 4 * math.pi))):
        write_plan(tmp_path, MeshPlan(2, phi, (Coupler(1, 2, EulerAngles(a, 0.2, a)),)), "plan.json")
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# a 1 x 1 matrix of 1e75 is unitary within --tol 1e160, and its fifth power
# overflows, so that lift is infinite; NumPy's warnings about it must not
# reach stderr ahead of the one error line
def test_non_finite_result_exits_3_without_json(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 1, "entries": [[[1e75, 0.0]]]}))
    argv = ["lift", str(path), "--tol", "1e160", "--p"]
    code, out, _ = run_cli(argv + ["4"], capsys)
    assert code == 0
    assert json.loads(out)["entries"] == [[[9.999999999999998e299, 0.0]]]
    code, out, err = run_cli(argv + ["5"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_deeply_nested_json_exits_1_with_one_line(tmp_path, capsys):
    # json.load raises RecursionError, not JSONDecodeError, on deep nesting
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    for argv in (["reconstruct", str(path)], ["lift", str(path), "--p", "2"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_failure_without_a_message_names_its_type(capsys, monkeypatch):
    # a bare MemoryError has an empty message; its line still says what failed
    from sunmesh import cli

    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_sample_haar", out_of_memory)
    assert run_cli(["sample-haar", "--n", "3"], capsys) == (4, "", "error: MemoryError\n")


@pytest.mark.parametrize("phase", [0.7, -0.7])
def test_lift_at_zero_photons_is_one(tmp_path, capsys, monkeypatch, phase):
    monkeypatch.chdir(tmp_path)
    plan = triangle_decompose(random_unitary_qr(3, seed=13))
    write_plan(tmp_path, MeshPlan(3, phase, plan.couplers), "plan.json")
    code, out, _ = run_cli(["lift", "plan.json", "--p", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["dimension"] == 1
    assert doc["entries"] == [[[1.0, 0.0]]] and "-0.0" not in out


def test_lift_dimension_overflow_exits_4(capsys):
    assert run_cli(["lift", "--n", "2000", "--p", "500"], capsys)[0] == 4


def test_render_ascii_and_svg(tmp_path, capsys):
    mpath = write_matrix(tmp_path, np.eye(4))
    ppath = str(tmp_path / "plan.json")
    run_cli(["decompose", mpath, "--output", ppath], capsys)
    code, out, _ = run_cli(["render", ppath], capsys)
    assert code == 0
    assert out.endswith("\n")
    assert sum(line.lstrip().startswith(("1", "2", "3", "4")) for line in out.splitlines()) == 4
    code, out, _ = run_cli(["render", ppath, "--format", "svg"], capsys)
    assert code == 0
    assert out.startswith("<svg") and out.rstrip().endswith("</svg>")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(matrix_to_json(np.eye(3)))))
    code, out, _ = run_cli(["decompose", "-"], capsys)
    assert code == 0
    assert json.loads(out)["n"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "m.json"],
        ["reconstruct", "plan.json"],
        ["sample-haar", "--n", "4"],
        ["validate-haar", "--n", "3", "--samples", "1000"],
        ["lift", "plan.json", "--p", "2"],
        ["lift", "--n", "9", "--p", "5"],
        ["compare", "m.json"],
        ["compare", "m.json", "--format", "csv"],
        ["render", "plan.json"],
        ["render", "plan.json", "--format", "svg"],
    ],
    ids=" ".join,
)
def test_output_flag_writes_file(tmp_path, capsys, monkeypatch, argv):
    # --output takes exactly the bytes the command prints without it
    monkeypatch.chdir(tmp_path)
    m = random_unitary_qr(4, seed=14)
    write_matrix(tmp_path, m)
    write_plan(tmp_path, triangle_decompose(m), "plan.json")
    code, expected, _ = run_cli(argv, capsys)
    assert expected
    assert run_cli([*argv, "--output", "f"], capsys)[:2] == (code, "")
    assert (tmp_path / "f").read_text(encoding="utf-8") == expected


_HUGE = "1" + "0" * 400  # 10**400 written as a JSON integer, beyond the float range
_EYE2 = '{"n": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}'
_COUPLER = '{{"i": 1, "j": 2, "alpha": {}, "beta": 0.2, "gamma": 0.3, "arity": "full3"}}'


def _plan_doc(n=2, phase="0.0", alpha="0.1", coupler=None):
    coupler = coupler or _COUPLER.format(alpha)
    return f'{{"n": {n}, "global_phase": {phase}, "couplers": [{coupler}]}}'


def _matrix_doc(entry):
    return f'{{"n": 1, "entries": [[[{entry}, 0]]]}}'


# The input contract: each row is argv, the text of doc.json (None for no
# file) and the exit code of that failure.  A number too large for a float
# is a parse failure however it is written.
@pytest.mark.parametrize(
    "argv,doc,code",
    [
        pytest.param(["reconstruct", "doc.json"], _plan_doc(phase=_HUGE), 1, id="int-phase"),
        pytest.param(["reconstruct", "doc.json"], _plan_doc(alpha=_HUGE), 1, id="int-alpha"),
        pytest.param(["reconstruct", "doc.json"], _plan_doc(phase="1e400"), 1, id="1e400-phase"),
        pytest.param(["reconstruct", "doc.json"], _plan_doc(alpha="-1e400"), 1, id="1e400-alpha"),
        pytest.param(["decompose", "doc.json"], _matrix_doc(_HUGE), 1, id="int-entry"),
        pytest.param(["decompose", "doc.json"], _matrix_doc("1e400"), 1, id="1e400-entry"),
        pytest.param(["reconstruct", "doc.json"], "[]", 1, id="list-plan"),
        pytest.param(["render", "doc.json"], _plan_doc(coupler="[1, 2]"), 1, id="list-coupler"),
        pytest.param(["validate-haar"], None, 3, id="validate-haar-no-n"),
        pytest.param(["lift"], None, 3, id="lift-no-input-no-n"),
        pytest.param(["lift", "doc.json", "--p", "21"], _EYE2, 4, id="lift-p21"),
        pytest.param(["lift", "doc.json", "--p", "-1"], _EYE2, 3, id="lift-p-negative"),
        pytest.param(["decompose", "doc.json"], '{"n": 0, "entries": []}', 1, id="matrix-n0"),
        pytest.param(["reconstruct", "doc.json"], _plan_doc(n=0), 3, id="plan-n0"),
        pytest.param(["decompose", "doc.json"], _matrix_doc("1" * 5000), 1, id="5000-digit-entry"),
        pytest.param(["reconstruct", "doc.json"], b'\xff{"n": 1}', 1, id="not-utf8"),
    ],
)
def test_failures_keep_the_input_contract(tmp_path, capsys, monkeypatch, argv, doc, code):
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        (tmp_path / "doc.json").write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    got, out, err = run_cli(argv, capsys)
    assert (got, out) == (code, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and line.removeprefix("error: ").strip()


def test_cli_import_loads_no_scipy(child_env):
    # SciPy is imported only by the functions that use it, so start-up of
    # every subcommand stays free of scipy.stats and scipy.sparse; nothing
    # runs on a thread pool, so concurrent.futures is not loaded either.
    code = (
        "import sys, sunmesh.cli; "
        "print([m for m in ('scipy.stats', 'scipy.sparse', 'concurrent.futures') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lift_path_loads_no_scipy(tmp_path, child_env):
    # the generator lift fills its dense generators without scipy.sparse
    plan_path, out_path = str(tmp_path / "plan.json"), str(tmp_path / "out.json")
    code = (
        "import json, sys\n"
        "from sunmesh import FockBasis, HaarSpec, lift_plan, plan_to_json, sample_haar\n"
        "from sunmesh.cli import main\n"
        "plan = sample_haar(HaarSpec(4, 3))\n"
        "lift_plan(FockBasis(4, 2), plan)\n"
        f"open({plan_path!r}, 'w').write(json.dumps(plan_to_json(plan)))\n"
        f"assert main(['lift', {plan_path!r}, '--p', '2', '--output', {out_path!r}]) == 0\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert json.loads(Path(out_path).read_text())["provenance"]["dimension"] == 10


def test_validate_haar_path_loads_no_scipy(tmp_path, child_env):
    # the KS p-values are computed in NumPy, not by scipy.stats
    out_path = str(tmp_path / "report.json")
    code = (
        "import sys\n"
        "from sunmesh.cli import main\n"
        f"argv = ['validate-haar', '--n', '3', '--samples', '2000', '--output', {out_path!r}]\n"
        "assert main(argv) == 0\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert json.loads(Path(out_path).read_text())["samples"] == 2000


def test_library_runs_without_scipy(child_env):
    # SciPy is a test-only dependency: with every scipy import blocked, the
    # generators, both lifts and the Haar validation still run
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from sunmesh import (FockBasis, HaarSpec, lift_plan, lift_via_permanents,\n"
        "    lifted_generator, reconstruct, sample_haar, validate_haar)\n"
        "basis, plan = FockBasis(4, 2), sample_haar(HaarSpec(4, 3))\n"
        "assert lifted_generator(basis, 1, 2).shape == (10, 10)\n"
        "diff = abs(lift_plan(basis, plan) - lift_via_permanents(reconstruct(plan), 2)).max()\n"
        "assert diff < 1e-12, diff\n"
        "assert validate_haar(3, 2000)['samples'] == 2000\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n,p", [("100000000", "3000000"), ("1000000", "100000")])
def test_lift_dimension_overflow_exits_4_at_once(n, p, child_env):
    # the dimension count stops at 2^63 - 1 instead of building C(n+p-1, p)
    code = (
        "import sys, time\n"
        "from sunmesh.cli import main\n"
        "start = time.perf_counter()\n"
        f"code = main(['lift', '--n', {n!r}, '--p', {p!r}])\n"
        "print(code, time.perf_counter() - start)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=60
    )
    code, seconds = proc.stdout.split()
    assert code == "4" and float(seconds) < 1.0, proc.stdout
    assert "exceeds 64-bit integer range" in proc.stderr


def test_console_script_entry_point(child_env):
    # the target pyproject.toml declares, run as an installed script would
    # run it; an installed `sunmesh` executable, if any, is run as well
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    target = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]["sunmesh"]
    assert target == "sunmesh.cli:main"
    module, _, name = target.partition(":")
    code = f"import sys\nfrom {module} import {name}\nsys.exit({name}())\n"
    argv = ["lift", "--n", "9", "--p", "5"]
    commands = [[sys.executable, "-c", code, *argv]]
    if shutil.which("sunmesh"):
        commands.append(["sunmesh", *argv])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True, env=child_env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1287"


def test_stdout_does_not_depend_on_blas_threads(tmp_path, child_env):
    # the same commands under one and under two BLAS threads print the same bytes
    write_plan(tmp_path, triangle_decompose(random_unitary_qr(4, seed=11)), "plan.json")
    matrix = write_matrix(tmp_path, random_unitary_qr(4, seed=12))
    commands = [
        ["lift", str(tmp_path / "plan.json"), "--p", "3"],
        ["lift", matrix, "--p", "3"],
        ["decompose", matrix, "--canonical"],
        ["validate-haar", "--n", "4", "--samples", "2000"],
    ]
    for argv in commands:
        outputs = []
        for threads in ("1", "2"):
            child_env["OPENBLAS_NUM_THREADS"] = child_env["OMP_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "sunmesh.cli", *argv],
                capture_output=True,
                env=child_env,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv
