"""The shipped configs' rejection tables at 20 replications, byte for byte
against the committed copies in tests/golden.

A change that means to alter a table regenerates only the affected files,
and says which rows changed and why:

    PYTHONPATH=src python tests/test_golden.py figure1a figure2d

With no names it rewrites all ten. CI runs every config through
``fewclusters simulate`` at 1 and 2 workers and compares each table with
its golden file; here figure1a runs in process.
"""

import json
import sys
from importlib import resources
from pathlib import Path

from fewclusters.harness import emit_csv, run_experiment, spec_from_dict

GOLDEN = Path(__file__).with_name("golden")
REPLICATIONS = 20


def write_table(name: str, path) -> None:
    """The table of shipped config ``name`` at REPLICATIONS replications."""
    raw = json.loads((resources.files("fewclusters") / "configs" / f"{name}.json").read_text())
    emit_csv(run_experiment(spec_from_dict({**raw, "replications": REPLICATIONS})), path)


def test_figure1a_matches_golden(tmp_path):
    write_table("figure1a", tmp_path / "figure1a.csv")
    assert (tmp_path / "figure1a.csv").read_bytes() == (GOLDEN / "figure1a.csv").read_bytes()


def test_every_shipped_config_has_a_golden_table():
    configs = resources.files("fewclusters") / "configs"
    names = sorted(Path(p.name).stem for p in configs.iterdir())
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == names


if __name__ == "__main__":
    configs = resources.files("fewclusters") / "configs"
    for name in sys.argv[1:] or sorted(Path(p.name).stem for p in configs.iterdir()):
        write_table(name, GOLDEN / f"{name}.csv")
        print(f"wrote {GOLDEN / name}.csv")
