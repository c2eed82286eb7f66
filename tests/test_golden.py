"""Byte-stability of the committed golden expansions.

Recompute every catalog form of the CLI's FORMS table on GRID and compare
the serialized bytes against tests/golden/.  After an intentional change,
regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import pathlib

from drinfeldforms.cli import FORMS
from drinfeldforms.fields import finite_field
from drinfeldforms.forms import FormCatalog
from drinfeldforms.serialize import write_useries

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GRID = [(2, 1, 64), (3, 1, 81), (2, 2, 64), (5, 1, 50)]


def golden_text(form, p, e, prec, series):
    """The canonical JSON {"e", "form", "p", "series", "uprec"} of one form."""
    parts = [f'{{"e":{e},"form":"{form}","p":{p},"series":']
    write_useries(parts.append, series)
    parts.append(f',"uprec":{prec}}}\n')
    return "".join(parts)


def golden_files(p, e, prec):
    """{path: expected bytes} of every form at one grid point."""
    catalog = FormCatalog(finite_field(p, e), prec)
    return {GOLDEN_DIR / f"{form}_p{p}_e{e}_uprec{prec}.json":
            golden_text(form, p, e, prec, getattr(catalog, attr))
            for form, attr in FORMS.items()}


def pytest_generate_tests(metafunc):
    # parametrized by this hook, so that running the file as a script needs no pytest
    if "prec" in metafunc.fixturenames:
        metafunc.parametrize("p,e,prec", GRID)


def test_golden_expansions(p, e, prec):
    for path, text in golden_files(p, e, prec).items():
        assert text == path.read_text(), path.name


if __name__ == "__main__":
    for grid_point in GRID:
        for path, text in golden_files(*grid_point).items():
            path.write_text(text)
            print("wrote", path.name)
