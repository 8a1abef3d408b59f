import json
from fractions import Fraction

import pytest

from jla import samples
from jla.algebra import check_axioms
from jla.algfile import AlgebraFileError, dumps, load, load_dict, loads

F = Fraction


def _sl2_dict():
    table, cartan = samples.sl2()
    return json.loads(dumps(table, cartan))


def test_round_trip_is_identity_on_the_corpus():
    for name, (table, cartan) in samples.corpus().items():
        text = dumps(table, cartan)
        table2, cartan2 = loads(text)
        assert table2 == table, name
        assert cartan2 == cartan, name
        assert dumps(table2, cartan2) == text, name


def test_zero_terms_and_empty_results_are_dropped():
    table, cartan = samples.sl2()
    data = json.loads(dumps(table, cartan))
    data["brackets"][0]["result"].append({"name": "f", "coeff": "0"})
    data["brackets"].append({"left": "e", "right": "e", "result": []})
    loaded, loaded_cartan = loads(json.dumps(data))
    assert loaded == table
    assert dumps(loaded, loaded_cartan) == dumps(table, cartan)
    assert check_axioms(loaded) == check_axioms(table)


def test_sl2_file_lists_six_records():
    data = _sl2_dict()
    assert len(data["brackets"]) == 6
    pairs = {(r["left"], r["right"]) for r in data["brackets"]}
    assert ("e", "f") in pairs and ("f", "e") in pairs


def test_cartan_is_optional():
    data = _sl2_dict()
    del data["cartan"]
    table, cartan = load_dict(data)
    assert cartan is None
    assert table.dim == 3


def test_duplicate_bracket_record_is_an_error():
    data = _sl2_dict()
    data["brackets"].append(dict(data["brackets"][0]))
    with pytest.raises(AlgebraFileError, match="duplicate bracket record"):
        load_dict(data)


def test_zero_denominator_is_an_error():
    data = _sl2_dict()
    data["brackets"][0]["result"][0]["coeff"] = "1/0"
    with pytest.raises(AlgebraFileError, match="denominator"):
        load_dict(data)


def test_unknown_basis_name_is_an_error():
    data = _sl2_dict()
    data["brackets"][0]["left"] = "nope"
    with pytest.raises(AlgebraFileError, match="unknown basis name"):
        load_dict(data)


def test_duplicate_result_term_is_an_error():
    data = _sl2_dict()
    data["brackets"][0]["result"].append({"name": "e", "coeff": "1"})
    with pytest.raises(AlgebraFileError, match="duplicate result term"):
        load_dict(data)


def test_bad_delta_is_an_error():
    data = _sl2_dict()
    data["delta"] = 2
    with pytest.raises(AlgebraFileError, match="delta"):
        load_dict(data)


def test_basis_size_mismatch_is_an_error():
    data = _sl2_dict()
    data["basis"] = ["e", "h"]
    with pytest.raises(AlgebraFileError, match="basis"):
        load_dict(data)


def test_unknown_top_level_field_is_an_error():
    data = _sl2_dict()
    data["extra"] = 1
    with pytest.raises(AlgebraFileError, match="unknown field"):
        load_dict(data)


def test_malformed_json_reports_position():
    with pytest.raises(AlgebraFileError, match="line 1"):
        loads("{not json")


def test_float_coefficients_are_rejected():
    data = _sl2_dict()
    data["brackets"][0]["result"][0]["coeff"] = 2.0
    with pytest.raises(AlgebraFileError, match="rational strings"):
        load_dict(data)


def test_cartan_with_unknown_name_is_an_error():
    data = _sl2_dict()
    data["cartan"] = [{"q": "1"}]
    with pytest.raises(AlgebraFileError, match="unknown basis name"):
        load_dict(data)


def test_load_reports_non_utf8_file_as_file_error(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(AlgebraFileError, match="not valid UTF-8"):
        load(path)
