"""The benchmark's generated configs load and build under this schema.

`bench/gen.py` writes the configs of the in-process workloads from the
shipped ones. A schema change that rejects a key it writes, or a builder
that no longer reads a block it validates, would break the benchmark, so
every config it writes for the first three seeds is loaded and built here.
The benchmark's own files are only read.
"""

import importlib.util
from pathlib import Path

import pytest

from sivcav.config import load_config
from sivcav.protocols import (
    build_cpt_params,
    build_magnets,
    build_ple_emitter,
    build_spin_pump_params,
)

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_gen", REPO / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

#: op kind -> (the block that the benchmark's checks build, its builder)
BUILDERS = {
    "cpt": ("cpt", build_cpt_params),
    "pump_probe": ("emitter", build_ple_emitter),
    "t1": ("spin_pump", build_spin_pump_params),
    "spin_pumping": ("spin_pump", build_spin_pump_params),
    "magnet_map": ("magnets", build_magnets),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", sorted(gen.LAYOUT))
def test_generated_configs_load_and_build(tmp_path, workload, seed):
    paths = gen.write_configs(workload, seed, str(REPO / "configs"), str(tmp_path))
    assert len(paths) == gen.COPIES * len(gen.LAYOUT[workload])
    for path in paths:
        block, build = BUILDERS[gen.op_kind(Path(path).name)]
        build(load_config(path).blocks[block])
