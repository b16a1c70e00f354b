"""The paper's two tables, pinned byte for byte.

``scripts/run_tables.py`` runs the cubic (K=64) and the linear (K=320)
configuration through ``harness.run_benchmark`` and writes each as CSV and
Markdown.  The files under ``tests/data/`` hold that output; a change that
moves any printed digit, flag or note fails here.  Regenerate them with
``python scripts/run_tables.py --outdir tests/data`` only for a change that
is meant to alter the tables, and say why.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data"
TABLES = ["cubic_hs.csv", "cubic_hs.md", "linear_hs.csv", "linear_hs.md"]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("run_tables", ROOT / "scripts" / "run_tables.py")
    run_tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_tables)
    outdir = tmp_path_factory.mktemp("tables")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.argv", ["run_tables.py", "--outdir", str(outdir)])
        run_tables.main()
    return outdir


@pytest.mark.parametrize("name", TABLES)
def test_table_is_byte_identical(written, name):
    assert (written / name).read_bytes() == (GOLDEN / name).read_bytes()
