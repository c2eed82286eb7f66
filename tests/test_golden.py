"""Byte-stability of the committed golden expansions.

Recompute every catalog form of the CLI's FORMS table on GRID and compare
the serialized bytes against tests/golden/.  After an intentional change,
regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import pathlib

import pytest

from drinfeldforms.cli import FORMS
from drinfeldforms.fields import finite_field
from drinfeldforms.forms import FormCatalog
from drinfeldforms.serialize import canonical_json, useries_to_obj

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GRID = [(2, 1, 64), (3, 1, 81), (2, 2, 64), (5, 1, 50)]


def golden_files(p, e, prec):
    """{path: expected bytes} of every form at one grid point."""
    catalog = FormCatalog(finite_field(p, e), prec)
    return {GOLDEN_DIR / f"{form}_p{p}_e{e}_uprec{prec}.json": canonical_json(
                {"form": form, "p": p, "e": e, "uprec": prec,
                 "series": useries_to_obj(getattr(catalog, attr))})
            for form, attr in FORMS.items()}


@pytest.mark.parametrize("p,e,prec", GRID)
def test_golden_expansions(p, e, prec):
    for path, text in golden_files(p, e, prec).items():
        assert text == path.read_text(), path.name


if __name__ == "__main__":
    for grid_point in GRID:
        for path, text in golden_files(*grid_point).items():
            path.write_text(text)
            print("wrote", path.name)
