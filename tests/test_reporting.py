from pathlib import Path

import pytest

from darklind.reporting import resolve_inside


def test_root_output_directory_takes_an_artifact():
    assert resolve_inside(Path("/"), "sweep.csv") == Path("/sweep.csv")


@pytest.mark.parametrize("name", ["sweep.csv", "sub/sweep.csv", "."])
def test_names_inside_the_output_directory_resolve_there(tmp_path, name):
    assert resolve_inside(tmp_path, name) == (tmp_path / name).resolve()


@pytest.mark.parametrize("name", [
    "../x.csv",
    "/srv/other.csv",
    "../out-2/x.csv",  # "/srv/out-2" starts with the string "/srv/out" but lies outside it
])
def test_names_outside_the_output_directory_are_rejected(name):
    with pytest.raises(ValueError, match=f"'{name}' escapes the output directory"):
        resolve_inside(Path("/srv/out"), name)
