import pytest

from ctfrealize.errors import GraphError, ModelError
from ctfrealize.fixtures import (
    builtin_model,
    expanded_from_dict,
    expanded_to_dict,
    expanded_two_mediators,
    hub_split_model,
    load_fixture,
    model_from_dict,
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


@pytest.mark.parametrize("path, value, error, section", [
    (("variables",), "TXWZ", GraphError, "variables"),
    (("domains",), {"X": 0}, GraphError, "domains"),
    (("edges",), [["T"]], GraphError, "edges"),
    (("bidirected",), [["W", 1]], GraphError, "bidirected"),
    (("exogenous", "dist", 0, "p"), "0.5", ModelError, "exogenous"),
    (("exogenous", "domains"), [], ModelError, "exogenous"),
    (("mechanisms", "Z", "parents"), "TX", ModelError, "mechanisms"),
    (("mechanisms", "Z", "rows", 0, "value"), [0], ModelError, "mechanisms"),
    (("expanded",), [], GraphError, "expanded"),
    (("expanded", "mediators", 1, "serves"), "TZ", GraphError, "expanded.mediators"),
    (("expanded", "randomizable"), "X", GraphError, "expanded.randomizable"),
])
def test_a_malformed_section_is_an_input_error_naming_it(path, value, error, section):
    # a section of the wrong shape raises; it is neither misread (a string
    # taken as its letters) nor left to fail later as a runtime error
    if path[0] == "expanded":
        doc, read = expanded_to_dict(expanded_two_mediators()), expanded_from_dict
    else:
        doc, read = model_to_dict(hub_split_model()), model_from_dict
    read(doc)
    *keys, last = path
    inner = doc
    for k in keys:
        inner = inner[k]
    inner[last] = value
    with pytest.raises(error, match=rf"^fixture section '{section}' is malformed$"):
        read(doc)
