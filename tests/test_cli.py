import json

import numpy as np
import pytest

from gmekit.cli import main

INV_SQRT2 = 1 / np.sqrt(2)

GHZ_DOC = {
    "dims": [2, 2, 2],
    "kind": "pure",
    "terms": [
        {"occupation": [0, 0, 0], "re": INV_SQRT2},
        {"occupation": [1, 1, 1], "re": INV_SQRT2},
    ],
}

PSI2_DOC = {
    "dims": [2, 2, 2],
    "kind": "pure",
    "terms": [
        {"occupation": [0, 1, 1], "re": INV_SQRT2},
        {"occupation": [1, 0, 0], "re": INV_SQRT2},
    ],
}

QUAD_DOC = {
    "dims": [2, 2, 2, 2],
    "kind": "pure",
    "terms": [
        {"occupation": [0, 1, 1, 1], "re": INV_SQRT2},
        {"occupation": [1, 0, 0, 0], "re": INV_SQRT2},
    ],
}


@pytest.fixture
def state_file(tmp_path):
    def write(doc, name="state.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_evaluate_balanced_ghz_not_violated(state_file, capsys):
    code, doc = run_json(
        capsys,
        ["evaluate", "--state", state_file(GHZ_DOC),
         "--ops", "sigma_minus", "sigma_minus", "sigma_minus",
         "--condition", "tri-product"],
    )
    assert code == 0
    assert not doc["violated"]
    assert abs(doc["margin"]) < 1e-12


def test_evaluate_psi2_violated(state_file, capsys):
    code, doc = run_json(
        capsys,
        ["evaluate", "--state", state_file(PSI2_DOC),
         "--ops", "sigma_minus", "sigma_minus", "sigma_minus",
         "--condition", "tri-dagger"],
    )
    assert code == 10
    assert doc["violated"] and doc["margin"] == pytest.approx(0.5, abs=1e-12)


def test_evaluate_bipartite_with_split(state_file, capsys):
    doc = {
        "dims": [2, 2],
        "kind": "pure",
        "terms": [
            {"occupation": [0, 1], "re": INV_SQRT2},
            {"occupation": [1, 0], "re": INV_SQRT2},
        ],
    }
    code, report = run_json(
        capsys,
        ["evaluate", "--state", state_file(doc),
         "--ops", "sigma_minus", "sigma_minus", "--condition", "bi1"],
    )
    assert code == 10
    assert list(report["rhs_terms"]) == ["a|b"]


def test_evaluate_bipartite_block_split(state_file, capsys):
    # Entanglement of c0|011> + c1|100> across the ab|c cut.
    code, report = run_json(
        capsys,
        ["evaluate", "--state", state_file(PSI2_DOC),
         "--ops", "ketbra 0 1", "ketbra 1 0", "sigma_minus",
         "--condition", "bi1", "--split", "2"],
    )
    assert code == 10
    assert list(report["rhs_terms"]) == ["ab|c"]
    assert report["lhs"] == pytest.approx(0.5, abs=1e-12)


def test_evaluate_input_errors(state_file, tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    argv = ["evaluate", "--state", str(bad),
            "--ops", "sigma_minus", "sigma_minus", "sigma_minus",
            "--condition", "tri-dagger"]
    assert main(argv) == 2
    missing = ["evaluate", "--state", str(tmp_path / "absent.json"),
               "--ops", "sigma_minus", "sigma_minus", "sigma_minus",
               "--condition", "tri-dagger"]
    assert main(missing) == 2
    wrong_arity = ["evaluate", "--state", state_file(PSI2_DOC),
                   "--ops", "sigma_minus", "sigma_minus",
                   "--condition", "tri-dagger"]
    assert main(wrong_arity) == 2
    unknown = ["evaluate", "--state", state_file(PSI2_DOC),
               "--ops", "sigma_minus", "sigma_minus", "sigma_minus",
               "--condition", "no-such-condition"]
    assert main(unknown) == 2
    capsys.readouterr()


def test_env_tolerance_override(state_file, capsys, monkeypatch):
    monkeypatch.setenv("GME_TOLERANCE", "0.9")
    code, doc = run_json(
        capsys,
        ["evaluate", "--state", state_file(PSI2_DOC),
         "--ops", "sigma_minus", "sigma_minus", "sigma_minus",
         "--condition", "tri-dagger"],
    )
    assert code == 0  # margin 0.5 < 0.9, no violation at this tolerance
    assert doc["tolerance"] == pytest.approx(0.9)
    monkeypatch.setenv("GME_TOLERANCE", "not-a-number")
    assert main(
        ["evaluate", "--state", state_file(PSI2_DOC),
         "--ops", "sigma_minus", "sigma_minus", "sigma_minus",
         "--condition", "tri-dagger"]
    ) == 2
    capsys.readouterr()


def test_scan_noise_threshold_and_csv(state_file, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, doc = run_json(
        capsys,
        ["scan-noise", "--state", state_file(PSI2_DOC),
         "--ops", "sigma_minus", "sigma_minus", "sigma_minus",
         "--condition", "tri-dagger", "--out", str(out)],
    )
    assert code == 10
    assert doc["threshold"] == pytest.approx(0.5, abs=1e-9)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,lhs,rhs_max,rhs_sum,margin,violated"
    assert len(lines) == 42  # header + default grid 0..1 step 0.025
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and first[-1] == "false"
    assert lines[-1].split(",")[-1] == "true"


def test_scan_noise_no_threshold(state_file, capsys):
    product = {
        "dims": [2, 2, 2],
        "kind": "pure",
        "terms": [{"occupation": [0, 0, 0], "re": 1.0}],
    }
    code, doc = run_json(
        capsys,
        ["scan-noise", "--state", state_file(product),
         "--ops", "sigma_minus", "sigma_minus", "sigma_minus",
         "--condition", "tri-dagger"],
    )
    assert code == 0
    assert doc["threshold"] is None


def test_scan_noise_tolerance_above_pure_margin(state_file, capsys):
    # the flip pair's pure-state margin is 0.5: no noise weight is violated
    code, doc = run_json(
        capsys,
        ["scan-noise", "--state", state_file(PSI2_DOC),
         "--ops", "sigma_minus", "sigma_minus", "sigma_minus",
         "--condition", "tri-dagger", "--tolerance", "0.6"],
    )
    assert code == 0
    assert doc["threshold"] is None


def test_scan_noise_rejects_mixed_state(state_file, capsys):
    doc = dict(PSI2_DOC, kind="white_noise", s=0.7)
    code = main(
        ["scan-noise", "--state", state_file(doc),
         "--ops", "sigma_minus", "sigma_minus", "sigma_minus",
         "--condition", "tri-dagger"]
    )
    assert code == 2
    capsys.readouterr()


def test_downconv_csv(tmp_path, capsys):
    out = tmp_path / "dc.csv"
    code = main(
        ["downconv", "--N", "4", "--g", "1.0",
         "--t-start", "0", "--t-stop", "1", "--t-step", "0.05",
         "--out", str(out)]
    )
    assert code == 10  # pairs form immediately, entanglement flagged
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,prob_0,prob_1,prob_2,prob_3,prob_4,witness_lhs,violated"
    assert len(lines) == 22
    row0 = lines[1].split(",")
    assert float(row0[0]) == 0.0
    assert abs(float(row0[-2])) < 1e-14 and row0[-1] == "false"
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(sum(float(x) for x in cells[1:6]) - 1.0) < 1e-10
    capsys.readouterr()


def test_downconv_free_evolution(capsys):
    code = main(
        ["downconv", "--N", "2", "--g", "0.0", "--omega1", "2.0",
         "--t-start", "0", "--t-stop", "1", "--t-step", "0.25"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[-2]) == 0.0 and cells[-1] == "false"


def test_downconv_rejects_odd_pump_and_bad_grid(capsys):
    assert main(["downconv", "--N", "3", "--t-stop", "0.1"]) == 2
    assert main(["downconv", "--N", "4", "--t-start", "1", "--t-stop", "0"]) == 2
    assert main(["downconv", "--N", "4", "--t-step", "0"]) == 2
    capsys.readouterr()


def test_soundness_ok_and_validation(capsys):
    code, doc = run_json(
        capsys,
        ["soundness", "--dims", "2", "2", "2", "--condition", "tri-dagger",
         "--trials", "40", "--seed", "11"],
    )
    assert code == 0
    assert doc["violations"] == 0
    assert doc["max_margin"] <= 1e-10
    assert main(["soundness", "--dims", "2", "2", "2", "--condition", "tri-dagger",
                 "--trials", "0"]) == 2
    assert main(["soundness", "--dims", "2", "2", "--condition", "tri-dagger",
                 "--trials", "5"]) == 2
    capsys.readouterr()


def test_soundness_reproducible(capsys):
    argv = ["soundness", "--dims", "2", "2", "2", "--condition", "tri-product",
            "--trials", "20", "--seed", "5"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_optimize_cli(state_file, capsys):
    code, doc = run_json(
        capsys,
        ["optimize", "--state", state_file(PSI2_DOC), "--condition", "tri-dagger",
         "--restarts", "2", "--budget", "150", "--seed", "3"],
    )
    assert code == 10
    assert doc["best_report"]["margin"] >= 0.5 - 1e-9
    assert doc["seed"] == 3
    assert len(doc["best_params"]["vectors"]) == 3


def test_quad_evaluate(state_file, capsys):
    code, doc = run_json(
        capsys,
        ["evaluate", "--state", state_file(QUAD_DOC),
         "--ops", "sigma_minus", "sigma_minus", "sigma_minus", "sigma_minus",
         "--condition", "quad-dagger"],
    )
    assert code == 10
    assert len(doc["rhs_terms"]) == 7
