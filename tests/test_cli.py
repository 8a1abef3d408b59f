import json

import pytest

from conftest import DATA_DIR, GOLDEN_DIR, run_cli
from jla import cli, roots, simplicity
from jla.cli import COMMANDS

CORPUS_FILES = sorted(p.stem for p in DATA_DIR.glob("*.alg"))


def _load(name, command):
    code, out = run_cli(command, str(DATA_DIR / f"{name}.alg"))
    return code, json.loads(out)


# --- exit-code contract -------------------------------------------------------


def test_sl2_simplicity_exits_zero():
    code, report = _load("sl2", "simplicity")
    assert code == 0
    assert report["status"] == "pass"
    assert report["result"]["simplicity"]["verdict"] == "simple"


def test_sl2x2_classes_lists_two_classes():
    code, report = _load("sl2x2", "classes")
    assert code == 0
    assert report["result"]["classes"]["count"] == 2


def test_sl2x2_simplicity_is_negative():
    code, report = _load("sl2x2", "simplicity")
    assert code == 1
    assert report["result"]["simplicity"]["verdict"] == "not_simple"


def test_bad_cartan_reports_diagonalizability_failure():
    code, report = _load("sl2_bad_cartan", "verify-cartan")
    assert code == 1
    cartan = report["result"]["cartan"]
    assert cartan["diagonalizable_ok"] is False
    assert cartan["nondiagonalizable_indices"] == [0]


def test_gl2_simplicity_hypotheses_unmet():
    code, report = _load("gl2", "simplicity")
    assert code == 1
    assert report["result"]["simplicity"]["verdict"] == "hypotheses_unmet"


def test_gl2_decompose_passes_with_negative_flags():
    code, report = _load("gl2", "decompose")
    assert code == 0
    dec = report["result"]["decomposition"]
    assert dec["complement_u"]["basis"] == [["0", "0", "0", "1"]]
    assert dec["direct_sum"] is False
    assert dec["center_zero"] is False
    assert dec["derived_full"] is False


def test_broken_table_fails_fast_for_downstream_commands():
    code, report = _load("sl2_broken", "roots")
    assert code == 1
    assert report["result"]["failed_stage"] == "axioms"


def test_nonsymmetric_connection_commands_refuse():
    for command in ("classes", "decompose", "simplicity", "structure"):
        code, report = _load("nonsymmetric_dim2", command)
        assert code == 1
        assert report["result"]["failed_stage"] == "symmetry"
    code, report = _load("nonsymmetric_dim2", "roots")
    assert code == 0
    assert report["result"]["roots"]["symmetric"] is False


def test_missing_file_is_an_input_error(tmp_path):
    code, out = run_cli("roots", str(tmp_path / "nope.alg"))
    assert code == 2
    assert json.loads(out)["status"] == "error"


def test_invalid_file_is_an_input_error(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text('{"dim": 1, "delta": 3, "basis": ["x"], "brackets": []}')
    code, out = run_cli("check-axioms", str(bad))
    assert code == 2
    assert "delta" in json.loads(out)["result"]["error"]


def test_missing_cartan_is_an_input_error(tmp_path):
    bad = tmp_path / "nocartan.alg"
    bad.write_text('{"dim": 1, "delta": 1, "basis": ["x"], "brackets": []}')
    code, out = run_cli("check-axioms", str(bad))
    assert code == 0
    code, out = run_cli("roots", str(bad))
    assert code == 2
    assert "cartan" in json.loads(out)["result"]["error"]


def test_oracle_cap_is_an_input_error():
    code, out = run_cli("oracle", str(DATA_DIR / "sl3.alg"), "--oracle-cap", "4")
    assert code == 2
    assert "cap" in json.loads(out)["result"]["error"]


@pytest.mark.parametrize("cap", ["-5", "-1", "abc"])
def test_bad_oracle_cap_is_a_usage_error(cap, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("oracle", str(DATA_DIR / "sl2.alg"), "--oracle-cap", cap)
    assert exc.value.code == 2
    assert "--oracle-cap" in capsys.readouterr().err


def test_oracle_reports_method_note():
    code, report = _load("sl2x2", "oracle")
    assert code == 0
    result = report["result"]
    assert result["count"] == 2
    assert "heuristic" in result["method"]


def test_structure_on_sl2x2():
    code, report = _load("sl2x2", "structure")
    assert code == 0
    comps = report["result"]["structure"]["components"]
    assert [c["dim"] for c in comps] == [3, 3]
    assert all(c["verdict"]["verdict"] == "simple" for c in comps)


# --- each pipeline stage runs once per command ------------------------------------


@pytest.fixture
def stage_calls(monkeypatch):
    """Count calls of the eigen, Cartan-check and oracle stages."""
    calls = {"rational_eigen": 0, "verify_splitting_cartan": 0, "oracle": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        roots, "rational_eigen", counting("rational_eigen", roots.rational_eigen)
    )
    verify = counting("verify_splitting_cartan", roots.verify_splitting_cartan)
    monkeypatch.setattr(roots, "verify_splitting_cartan", verify)
    monkeypatch.setattr(cli, "verify_splitting_cartan", verify)
    monkeypatch.setattr(
        simplicity,
        "minimal_ideals_oracle",
        counting("oracle", simplicity.minimal_ideals_oracle),
    )
    return calls


@pytest.mark.parametrize("command", ("verify-cartan", "roots"))
def test_sl3_cartan_check_runs_one_eigen_pass_per_cartan_element(
    stage_calls, command
):
    code, _ = run_cli(command, str(DATA_DIR / "sl3.alg"))
    assert code == 0
    assert stage_calls["rational_eigen"] == 2
    assert stage_calls["verify_splitting_cartan"] == 1


@pytest.mark.parametrize(
    "command", ("roots", "classes", "decompose", "simplicity", "structure")
)
def test_sl2_commands_check_the_cartan_once(stage_calls, command):
    code, _ = run_cli(command, str(DATA_DIR / "sl2.alg"))
    assert code == 0
    assert stage_calls["verify_splitting_cartan"] == 1
    assert stage_calls["rational_eigen"] == 1


def test_sl3_structure_runs_the_oracle_once(stage_calls):
    code, _ = run_cli("structure", str(DATA_DIR / "sl3.alg"))
    assert code == 0
    assert stage_calls["oracle"] == 1
    assert stage_calls["verify_splitting_cartan"] == 1
    assert stage_calls["rational_eigen"] == 2


def test_sl2x2_structure_checks_each_component_once(stage_calls):
    code, _ = run_cli("structure", str(DATA_DIR / "sl2x2.alg"))
    assert code == 0
    # The algebra's 2-dim Cartan plus one 1-dim Cartan per 3-dim component.
    assert stage_calls["rational_eigen"] == 4
    assert stage_calls["verify_splitting_cartan"] == 3
    # Once for the algebra and once per component.
    assert stage_calls["oracle"] == 3


# --- formats --------------------------------------------------------------------


def test_text_format_is_flat_and_deterministic():
    code1, out1 = run_cli(
        "simplicity", str(DATA_DIR / "sl2.alg"), "--format", "text"
    )
    code2, out2 = run_cli(
        "simplicity", str(DATA_DIR / "sl2.alg"), "--format", "text"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert "result.simplicity.verdict: simple" in out1


def test_json_reports_echo_the_input_hash():
    import hashlib

    path = DATA_DIR / "sl2.alg"
    _, report = _load("sl2", "roots")
    assert report["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert report["schema_version"] == "1"


# --- determinism against golden files ----------------------------------------------


@pytest.mark.parametrize("name", CORPUS_FILES)
@pytest.mark.parametrize("command", COMMANDS)
def test_reports_are_byte_identical_and_match_golden(name, command):
    golden = (GOLDEN_DIR / f"{name}__{command}.json").read_text(encoding="utf-8")
    runs = [run_cli(command, str(DATA_DIR / f"{name}.alg")) for _ in range(3)]
    outputs = {out for _, out in runs}
    assert len(outputs) == 1
    assert runs[0][1] == golden
    codes = {code for code, _ in runs}
    assert len(codes) == 1
