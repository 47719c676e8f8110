"""The subset reader against PyYAML, the reference parser.

`sivcav.config._read_subset` reads the YAML subset that configs use and
declines everything else, which `_yaml_tree` (PyYAML with sivcav's loader)
then parses. On any text the reader either returns exactly the tree that
PyYAML gives or declines, and it declines every text that PyYAML rejects.
Trees are compared by `repr`, so 1, 1.0 and True differ, and so do 0.0 and
-0.0 and the order of keys.
"""

import importlib.util
import random
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from sivcav.config import _NOT_WORDS, _read_subset, _yaml_tree, load_config
from sivcav.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
SHIPPED = sorted(CONFIGS.glob("*.cfg"))
MALFORMED = sorted((CONFIGS / "malformed").glob("*.cfg"))

_spec = importlib.util.spec_from_file_location("bench_gen", REPO / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

# a character mutation once accepted by a reader whose quoted-string pattern
# was not anchored: it dropped `rabi_mhz`, where PyYAML raises a ParserError
DROPPED_KEY = (CONFIGS / "fig2_pump_probe.cfg").read_text().replace(
    'line: "2"\n  rabi_mhz', 'line: "2"~  rabi_mhz')


def agrees(text):
    """Assert the reader's verdict on `text`; True when it read the text."""
    mine = _read_subset(text)
    try:
        theirs = _yaml_tree(text, "test.cfg")
    except ConfigError:
        assert mine is None, f"read a text that PyYAML rejects: {mine!r}"
        return False
    assert mine is None or repr(mine) == repr(theirs)
    return mine is not None


def test_every_config_the_program_reads_is_in_the_subset(tmp_path):
    paths = SHIPPED + MALFORMED
    for workload in sorted(gen.LAYOUT):
        for seed in range(3):
            paths += map(Path, gen.write_configs(workload, seed, str(CONFIGS),
                                                 str(tmp_path / f"{workload}{seed}")))
    assert len(paths) == 79
    for path in paths:
        assert agrees(path.read_text()), path


# the scalars and keys that YAML 1.1 or PyYAML's emitter treat specially
_ODD = ["yes", "No", "on", "OFF", "null", "~", "1e5", "0x1f", "017", "1_000",
        "1:30", "2020-01-01", ".inf", "-.5", "=", "<<", "a b", "x:y", "#k", "",
        " pad ", "'", '"', "\\", "- a", "[a]", "{a: 1}", "&a", "*a", "!t", "|"]
_KEYS = st.one_of(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
                  st.sampled_from(_ODD), st.integers(-3, 3))
_SCALARS = st.one_of(
    st.integers(), st.integers(-10 ** 30, 10 ** 30), st.floats(), st.booleans(),
    st.none(), st.sampled_from(_ODD),
    st.text(" -:#'\"[]{},!&*|>~.0123456789eE+_aByn\\", max_size=6))
_TREES = st.recursive(_SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=16)


@settings(max_examples=200, deadline=None)
@given(text=st.builds(
    yaml.safe_dump, st.dictionaries(_KEYS, _TREES, min_size=1, max_size=5),
    default_flow_style=st.sampled_from([False, True, None]),
    sort_keys=st.just(False), indent=st.sampled_from([2, 4]),
    width=st.sampled_from([20, 80, 10 ** 6])))
@example(text=DROPPED_KEY)
def test_reader_agrees_with_pyyaml_on_dumped_trees(text):
    agrees(text)


# trees whose block-style dump lies inside the subset: identifier keys,
# decimal ints, finite floats, and strings that are identifiers or that
# PyYAML's emitter quotes; a list holds no list, which it writes `- - x`
_WORD = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)
_PLAIN = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                   _WORD, st.integers(0, 999).map(str),
                   st.sampled_from(sorted(_NOT_WORDS)), st.just(""))
_IN_SUBSET = st.deferred(lambda: st.one_of(
    _PLAIN, st.lists(st.one_of(_PLAIN, _MAPPINGS), max_size=3), _MAPPINGS))
_MAPPINGS = st.dictionaries(_WORD.filter(lambda w: w not in _NOT_WORDS),
                            _IN_SUBSET, max_size=3)


@settings(max_examples=200, deadline=None)
@given(tree=_MAPPINGS.filter(bool), indent=st.sampled_from([2, 3, 4]))
def test_block_dumps_of_subset_trees_are_read(tree, indent):
    text = yaml.safe_dump(tree, default_flow_style=False, sort_keys=False,
                          indent=indent)
    assert agrees(text), text


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_mutated_shipped_configs(path):
    # 400 seeded edits of one to three characters each: an insertion, a
    # deletion or a replacement by a character that YAML reads as syntax
    rng = random.Random(path.stem)
    base = path.read_text()
    read = 0
    for _ in range(400):
        text = base
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            c = rng.choice(" \n\t\r-:#[]{},'\"~&*!|>.0123456789eE+_aTyn")
            text = rng.choice([text[:at] + c + text[at:], text[:at] + text[at + 1:],
                               text[:at] + c + text[at + 1:]])
        read += agrees(text)
    assert 0 < read < 400  # neither side of the contract is vacuous


def test_config_outside_the_subset_loads_through_pyyaml():
    text = ("base: &base {a: 1, b: 2.5}\n"
            "merged:\n  <<: *base\n  b: 3\n"
            "flag: yes\n"
            "rate: 1e5\n")
    assert _read_subset(text) is None
    assert repr(_yaml_tree(text, "test.cfg")) == repr(
        {"base": {"a": 1, "b": 2.5}, "merged": {"a": 1, "b": 3}, "flag": True,
         "rate": "1e5"})


_PLE = """\
protocol: ple_scan
emitters:
  - model:{anchor}
      ground:  {{lambda_so_ghz: 46.0}}
      excited: {{lambda_so_ghz: 255.0}}
      zpl_center_thz: 406.8
    linewidth_mhz: 180.0
    rabi_mhz: 25.0
  - model:
{second}
      zpl_center_thz: 406.9
    linewidth_mhz: 180.0
    rabi_mhz: 25.0
scan: {{start_thz: 406.6, stop_thz: 406.7, points: 11}}
"""


def test_anchored_config_loads_as_its_plain_form(tmp_path):
    # two emitters that share a model through an anchor and a `<<` merge
    anchored = tmp_path / "anchored.cfg"
    anchored.write_text(_PLE.format(anchor=" &model", second="      <<: *model"))
    plain = tmp_path / "plain.cfg"
    plain.write_text(_PLE.format(anchor="", second=(
        "      ground:  {lambda_so_ghz: 46.0}\n"
        "      excited: {lambda_so_ghz: 255.0}")))
    assert _read_subset(anchored.read_text()) is None
    assert _read_subset(plain.read_text()) is not None
    assert load_config(anchored) == load_config(plain)
