"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest bench/test_harness.py -q
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = os.path.join(REPO, "configs")
IN_PROCESS = ("steady-scan", "pulse-train", "field-map")


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", IN_PROCESS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a = gen.write_configs(workload, 7, SHIPPED, str(tmp_path / "a"))
    b = gen.write_configs(workload, 7, SHIPPED, str(tmp_path / "b"))
    for pa, pb in zip(a, b):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()
    assert gen.config_texts(workload, 7, SHIPPED) \
        != gen.config_texts(workload, 8, SHIPPED)


def _work_shape(blocks):
    """Everything in a config that sets the work per pass."""
    return (blocks.get("scan", {}).get("points"),
            blocks.get("taus", {}).get("points"),
            blocks.get("spin_pump", {}).get("n_pulses"),
            blocks.get("spin_pump", {}).get("optical_rate_mhz"),
            blocks.get("spin_pump", {}).get("rabi_mhz"),
            blocks.get("emitter", {}).get("model"),
            blocks.get("grid"),
            [(m["center_mm"], m["dimensions_mm"], [c != 0 for c in m["remanence_t"]])
             for m in blocks.get("magnets", [])])


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_generated_configs_validate_with_seed_independent_work(workload, tmp_path):
    from sivcav.config import load_config

    shapes = {}
    for seed in (0, 1, 2):
        for path in gen.write_configs(workload, seed, SHIPPED,
                                      str(tmp_path / str(seed))):
            shape = _work_shape(load_config(path).blocks)
            shapes.setdefault(gen.op_kind(os.path.basename(path)), []).append(shape)
    for kind, per_op in shapes.items():
        assert len(per_op) == 3 * gen.COPIES, kind
        assert per_op[1:] == per_op[:1] * (len(per_op) - 1), kind
    assert gen.items_per_pass(workload) == {
        "steady-scan": 968, "pulse-train": 28, "field-map": 3444}[workload]


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, "op", None]


def test_self_time_subtracts_direct_children_only():
    s = [_span("a", 0.0, 10.0, -1),
         _span("b", 1.0, 4.0, 0),
         _span("c", 5.0, 9.0, 0),
         _span("d", 6.0, 7.0, 2),
         _span("a", 20.0, 21.0, -1)]
    assert spans.self_times(s) == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.0])
    summary = spans.summarize(s)
    assert summary["a"]["calls"] == 2
    assert summary["a"]["self_s"] == pytest.approx(4.0)
    assert summary["a"]["total_s"] == pytest.approx(11.0)


def test_self_time_of_a_slice_uses_the_offset():
    prefix = [_span("x", 0.0, 1.0, -1)]
    s = prefix + [_span("a", 2.0, 6.0, -1), _span("b", 3.0, 4.0, 1)]
    assert spans.self_times(s[1:], offset=1) == pytest.approx([3.0, 1.0])


def test_merge_rebases_parents():
    merged = spans.merge([[_span("a", 0, 2, -1), _span("b", 0, 1, 0)],
                          [_span("a", 5, 7, -1), _span("b", 5, 6, 0)]])
    assert [m[3] for m in merged] == [-1, 0, -1, 2]


def test_median_pass_sums_the_median_of_each_op():
    import run

    samples = [("a", 3.0), ("b", 1.0), ("a", 2.0), ("b", 4.0), ("a", 2.5)]
    assert run.median_pass(samples) == pytest.approx(2.5 + 2.5)


def test_wrapper_merges_same_name_and_counts_fallbacks():
    tracer = spans.Tracer()

    def inner():
        return 1

    inner_w = tracer.wrap("engine.propagate", inner)
    outer_w = tracer.wrap("engine.propagate", lambda: inner_w() + 1)
    solve = tracer.wrap("engine.steady_state", lambda: outer_w() + inner_w())
    assert solve() == 3
    names = [s[0] for s in tracer.spans]
    assert names == ["engine.steady_state", "engine.propagate", "engine.propagate"]
    summary = spans.summarize(tracer.spans)
    assert summary["engine.propagate"]["calls"] == 2
    assert summary["_counters"]["steady_state_fallbacks"] == 1


def test_install_wraps_every_import_site_and_uninstalls():
    import sivcav.dynamics.engine as engine
    import sivcav.dynamics.experiments as experiments
    import sivcav.magnetics as magnetics
    import sivcav.protocols as protocols
    from sivcav.dynamics import CptParams, simulate_cpt_scan

    originals = (engine.steady_state, experiments.steady_state,
                 magnetics.field_map_grid, protocols.field_map_grid)
    tracer = spans.Tracer()
    installed = tracer.install()
    try:
        assert {"engine.steady_state", "engine.level_system",
                "magnetics.field_map_grid"} <= installed
        assert experiments.steady_state is not originals[1]
        assert protocols.field_map_grid is not originals[3]
        p = CptParams(rabi_pump=3e6, rabi_probe=3e6, optical_rate=157e6,
                      gamma_s=1.6e6)
        simulate_cpt_scan(p, np.linspace(-5e6, 5e6, 7))
    finally:
        tracer.uninstall()
    assert (engine.steady_state, experiments.steady_state,
            magnetics.field_map_grid, protocols.field_map_grid) == originals
    summary = spans.summarize(tracer.spans)
    assert summary["engine.steady_state"]["calls"] == 7
    assert summary["engine.build_liouvillian"]["calls"] == 7
    assert summary["engine.level_system"]["calls"] == 7
    assert summary["_counters"]["steady_state_fallbacks"] == 0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _run(config, tmp_path):
    from sivcav.config import load_config
    from sivcav.protocols import run_protocol

    cfg = load_config(os.path.join(SHIPPED, config))
    return cfg, run_protocol(cfg, out_dir=str(tmp_path)).out_dir


def _scale_columns(run_dir, cols, factor):
    """Multiply whole data.csv columns by `factor`, keeping the 13-digit format."""
    path = os.path.join(run_dir, "data.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        for col in cols:
            cells[col] = f"{float(cells[col]) * factor:.12e}"
        lines[i] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("config,op,cols", [
    ("fig4_cpt.cfg", "cpt-0.cfg", [1]),
    ("fig2_magnet_map.cfg", "magnet_map-0.cfg", [3, 4, 5]),
])
def test_checks_pass_the_program_and_catch_a_changed_column(config, op, cols,
                                                            tmp_path):
    cfg, run_dir = _run(config, tmp_path)
    assert checks.check_in_process(op, cfg, run_dir, seed=0) == []
    _scale_columns(run_dir, cols, 1.0 + 1e-4)
    assert checks.check_in_process(op, cfg, run_dir, seed=0) != []


def test_cli_checks_hold_the_golden_and_acceptance_criteria(tmp_path):
    for config in ("cooperativity_report.cfg", "fig4_cpt.cfg"):
        _cfg, run_dir = _run(config, tmp_path)
        assert checks.check_cli_run(config, run_dir, REPO) == []
    _cfg, run_dir = _run("cooperativity_report.cfg", tmp_path / "x")
    _scale_columns(run_dir, [1], 1.0 + 1e-9)
    assert checks.check_cli_run("cooperativity_report.cfg", run_dir, REPO) != []
