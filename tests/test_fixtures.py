import pytest

from ctfrealize.errors import ModelError
from ctfrealize.fixtures import (
    builtin_model,
    expanded_from_dict,
    expanded_to_dict,
    expanded_two_mediators,
    hub_split_model,
    load_fixture,
    model_to_dict,
    resolve_diagram,
    resolve_model,
    save_fixture,
)


def test_model_round_trip_through_file(tmp_path):
    model = hub_split_model()
    path = tmp_path / "m.json"
    save_fixture(model_to_dict(model, "m"), path)
    back = resolve_model(str(path))
    assert back.diagram == model.diagram
    assert back.exogenous_dist == model.exogenous_dist


def test_expanded_round_trip(tmp_path):
    exp = expanded_two_mediators()
    path = tmp_path / "e.json"
    save_fixture(expanded_to_dict(exp, "e"), path)
    back = expanded_from_dict(load_fixture(path))
    assert back.base == exp.base
    assert back.mediators == exp.mediators


def test_resolver_accepts_names_and_paths(tmp_path):
    assert resolve_diagram("bow").variables == ("X", "Y")
    with pytest.raises(ModelError):
        builtin_model("mab_template")  # graph-only fixture
    with pytest.raises(ModelError, match="missing.json': No such file or directory"):
        resolve_diagram(str(tmp_path / "missing.json"))
