"""Every shipped config's `data.csv` and `fits.json`, pinned by SHA-256.

`tests/golden/shipped.sha256` holds one line per file: its digest, then the
config, the seed, the run directory and the file name, so a change of the
config hash shows as a new run directory. The runs are the 9 shipped
configs at seeds 0 and 3, and each config whose own seed is another one
(`fig1_cavity_fit` at 11, `fig3_saturation` at 23) at that seed: 40 files.
A change that means to move an output regenerates the table, from the root
of the checkout, with

    PYTHONPATH=src python tests/test_shipped_outputs.py > tests/golden/shipped.sha256

The digests are exact for one numpy and BLAS build; another build may move
last digits.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from sivcav.config import load_config
from sivcav.protocols import run_protocol

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
TABLE = REPO / "tests" / "golden" / "shipped.sha256"
FILES = ("data.csv", "fits.json")
PAIRS = [(path.stem, seed) for path in sorted(CONFIGS.glob("*.cfg"))
         for seed in sorted({0, 3, load_config(str(path)).seed})]


def outputs(name, seed, root):
    """(table line, bytes) of each file that the run of `name` at `seed`
    writes under `root`."""
    cfg = load_config(str(CONFIGS / f"{name}.cfg"))
    run_dir = Path(run_protocol(cfg, out_dir=str(root), seed=seed).out_dir)
    for file in FILES:
        data = (run_dir / file).read_bytes()
        yield (f"{hashlib.sha256(data).hexdigest()}  {name} {seed} "
               f"{run_dir.name} {file}"), data


def test_table_covers_every_pair():
    keys = [line.split()[1:3] for line in TABLE.read_text().splitlines()]
    assert keys == [[name, str(seed)] for name, seed in PAIRS for _ in FILES]
    assert len(keys) == 40


@pytest.mark.parametrize("name, seed", PAIRS, ids=[f"{n}-{s}" for n, s in PAIRS])
def test_shipped_output_is_unchanged(tmp_path, name, seed):
    want = {}
    for line in TABLE.read_text().splitlines():
        digest, config, pair_seed, run_dir, file = line.split()
        if (config, pair_seed) == (name, str(seed)):
            want[file] = (digest, run_dir)
    moved = []
    for line, data in outputs(name, seed, tmp_path):
        digest, _, _, run_dir, file = line.split()
        expected = want.get(file, ("<none>", "<none>"))
        if (digest, run_dir) != expected:
            head = "\n".join(data.decode().splitlines()[:5])
            moved.append(f"{name} seed {seed} {file}: expected {expected[0]} in "
                         f"{expected[1]}, got {digest} in {run_dir}; its first "
                         f"lines:\n{head}")
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        sys.stdout.writelines(line + "\n" for name, seed in PAIRS
                              for line, _ in outputs(name, seed, root))
