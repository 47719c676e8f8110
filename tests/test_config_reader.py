"""The config grammar against PyYAML, the reference parser.

`sivcav.config._read_subset` parses a config's text, and text outside its
grammar is a ConfigError that names the file and a line of it. On any text
the reader either returns exactly the tree that `yaml.safe_load` gives or
rejects the text, and it rejects every text that PyYAML rejects. Trees are
compared by `repr`, so 1, 1.0 and True differ, and so do 0.0 and -0.0 and
the order of keys.
"""

import importlib.util
import random
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from sivcav.config import _WORDS, _read_subset, load_config
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


REJECTED = object()


def read(text, path="test.cfg"):
    """The reader's tree of `text`, or REJECTED where its error names `path`
    and a line of the text."""
    try:
        return _read_subset(text, path)
    except ConfigError as exc:
        match = re.match(rf"cannot parse {re.escape(str(path))} at line (\d+): ",
                         str(exc))
        assert match and 1 <= int(match[1]) <= text.count("\n") + 1, str(exc)
        return REJECTED


def agrees(text, path="test.cfg"):
    """Assert the reader's verdict on `text`; True when it read the text."""
    mine = read(text, path)
    try:
        theirs = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError):  # ValueError: a scalar Python cannot convert
        assert mine is REJECTED, f"read a text that PyYAML rejects: {mine!r}"
        return False
    assert mine is REJECTED or repr(mine) == repr(theirs)
    return mine is not REJECTED


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


# trees whose block-style dump lies inside the grammar: identifier keys,
# decimal ints, finite floats, nulls, booleans, and strings that are words,
# paths or that PyYAML's emitter quotes; a list holds no list, which it
# writes `- - x`
_WORD = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)
_PATH = st.from_regex(r"(/|\.\.?/|[a-z])[a-z0-9_./-]*", fullmatch=True)
_PLAIN = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                   st.none(), st.booleans(), _WORD, _PATH,
                   st.integers(0, 999).map(str), st.sampled_from(sorted(_WORDS)),
                   st.just(""))
_IN_SUBSET = st.deferred(lambda: st.one_of(
    _PLAIN, st.lists(st.one_of(_PLAIN, _MAPPINGS), max_size=3), _MAPPINGS))
_MAPPINGS = st.dictionaries(_WORD.filter(lambda w: w not in _WORDS),
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
    accepted = 0
    for _ in range(400):
        text = base
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            c = rng.choice(" \n\t\r-:#[]{},'\"~&*!|>.0123456789eE+_aTyn")
            text = rng.choice([text[:at] + c + text[at:], text[:at] + text[at + 1:],
                               text[:at] + c + text[at + 1:]])
        accepted += agrees(text, path)
    assert 0 < accepted < 400  # neither side of the contract is vacuous


_FORMS = "an int, a float with a point, a word, a path or a quoted string"
_NO_ANCHORS = "anchors, aliases, merge keys and tags are not part of the config grammar"


@pytest.mark.parametrize("text, line, what", [
    ("a: &x 1\nb: *x\n", 1, _NO_ANCHORS),
    ("a: 1\nb: *x\n", 2, _NO_ANCHORS),
    ("a: {x: 1}\nb:\n  <<: {y: 2}\n", 3, _NO_ANCHORS),
    ("a: !!float 1\n", 1, _NO_ANCHORS),
    ("yes: 1\n", 1, "key 'yes' reads as True"),
    ("a: 1\nrate: 1e5\n", 2, f"expected {_FORMS}, got '1e5'"),
    ("day: 2020-01-01\n", 1, f"expected {_FORMS}, got '2020-01-01'"),
    ("top: .inf\n", 1, f"expected {_FORMS}, got '.inf'"),
    ("a:\n\tb: 1\n", 2, "character '\\t' is not allowed"),
    ("a: 1\r\n", 1, "character '\\r' is not allowed"),
    ("a:\n  b: 1\n  b: 2\n", 3, "duplicate key 'b'"),
    ("a: {b: 1, b: 2}\n", 1, "duplicate key 'b'"),
    ("a: 1\nb c: 2\n", 2, "expected 'key: value' with an identifier key, got 'b c: 2'"),
    ("a: 1\n  b: 2\n", 2, "bad indentation"),
    ("a:\n    b: 1\n  c: 2\n", 3, "bad indentation"),
    ("a: 1\n- b\n", 2, "bad indentation"),
    ("a: 1# note\n", 1, "'#' starts a comment only after a space"),
    # a tree nested this deep raised RecursionError with a traceback
    ("".join(f"{' ' * d}k{d}:\n" for d in range(600)), 102,
     "indented by more than 100 spaces"),
])
def test_text_outside_the_grammar_fails_at_its_line(text, line, what):
    with pytest.raises(ConfigError) as err:
        _read_subset(text, "test.cfg")
    assert str(err.value) == f"cannot parse test.cfg at line {line}: {what}"


def test_words_and_paths_read_as_yaml_reads_them(tmp_path):
    text = ("a: [null, Null, NULL, yes, No, on, OFF, true, FALSE, nulls]\n"
            "b: [runs/fig4, ../runs, /tmp/x-1/y.z/, ., ./runs]\n")
    assert agrees(text)
    assert _read_subset(text, "test.cfg") == {
        "a": [None, None, None, True, False, True, False, True, False, "nulls"],
        "b": ["runs/fig4", "../runs", "/tmp/x-1/y.z/", ".", "./runs"]}
    # an explicit null leaf is unset, and a boolean fails at its leaf
    cfg = CONFIGS / "fig2_pump_probe.cfg"
    path = tmp_path / "test.cfg"
    path.write_text(re.sub(r"(?m)^t1_ns: .*$", "t1_ns: null", cfg.read_text()))
    assert load_config(path).blocks["t1_ns"] is None
    path.write_text(re.sub(r"(?m)^t1_ns: .*$", "t1_ns: yes", cfg.read_text()))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == "expected a finite number, got True (field: t1_ns)"


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


def test_anchored_config_fails_at_its_anchor(tmp_path):
    # two emitters that share a model through an anchor and a `<<` merge
    anchored = tmp_path / "anchored.cfg"
    anchored.write_text(_PLE.format(anchor=" &model", second="      <<: *model"))
    plain = tmp_path / "plain.cfg"
    plain.write_text(_PLE.format(anchor="", second=(
        "      ground:  {lambda_so_ghz: 46.0}\n"
        "      excited: {lambda_so_ghz: 255.0}")))
    with pytest.raises(ConfigError) as err:
        load_config(anchored)
    assert str(err.value) == f"cannot parse {anchored} at line 3: {_NO_ANCHORS}"
    assert agrees(plain.read_text())
    assert [e["model"]["zpl_center_thz"]
            for e in load_config(plain).blocks["emitters"]] == [406.8, 406.9]


def test_crlf_file_loads_as_its_lf_form(tmp_path):
    path = tmp_path / "crlf.cfg"
    path.write_bytes((CONFIGS / "fig4_cpt.cfg").read_bytes().replace(b"\n", b"\r\n"))
    assert load_config(path) == load_config(CONFIGS / "fig4_cpt.cfg")
