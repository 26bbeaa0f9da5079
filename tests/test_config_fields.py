"""Every field of the three configs under the one number rule of `data.py`:
counts and seeds are Python or numpy integers, never bools; thresholds
are numbers; anything else raises ValueError naming the field."""

import argparse
import dataclasses

import numpy as np
import pytest

from spnexplain.cli import build_parser
from spnexplain.datagen import GenConfig, generate
from spnexplain.explain import ExplainConfig
from spnexplain.learn import LearnConfig, learn_spn
from spnexplain.model import to_dict

CONFIGS = {LearnConfig: {}, ExplainConfig: {}, GenConfig: {"n_features": 5}}
# the configs that each command builds from its flags
COMMAND_CONFIGS = {"gen": (GenConfig,), "train": (LearnConfig,),
                   "explain": (ExplainConfig,), "bench": (LearnConfig, ExplainConfig),
                   "score": (), "eval": ()}


def _fields(kind):
    """(config, field name) of every field annotated `kind` or `kind | None`."""
    return [(cls, f.name) for cls in CONFIGS for f in dataclasses.fields(cls)
            if f.type.split(" | ")[0] == kind]


def _build(cls, name, value):
    return cls(**{**CONFIGS[cls], name: value})


def _valid(cls, name):
    """A valid value of the field: its default, or the required one."""
    value = CONFIGS[cls].get(name, getattr(cls, name, None))
    return 3 if value is None else value  # max_depth: None means unbounded


def test_every_field_is_a_count_a_number_or_a_choice():
    kinds = {f.type for cls in CONFIGS for f in dataclasses.fields(cls)}
    assert kinds == {"int", "int | None", "float", "str"}
    assert len(_fields("int")) == 11 and len(_fields("float")) == 3


@pytest.mark.parametrize("value", [1.5, True, "3"])
@pytest.mark.parametrize("cls,name", _fields("int"),
                         ids=lambda p: getattr(p, "__name__", p))
def test_integer_field_rejects_non_integers(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        _build(cls, name, value)


@pytest.mark.parametrize("value", [True, "x"])
@pytest.mark.parametrize("cls,name", _fields("float"),
                         ids=lambda p: getattr(p, "__name__", p))
def test_number_field_rejects_non_numbers(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
        _build(cls, name, value)


@pytest.mark.parametrize("cls,name", _fields("int") + _fields("float"),
                         ids=lambda p: getattr(p, "__name__", p))
def test_numpy_scalars_accepted(cls, name):
    valid = _valid(cls, name)
    types = ((np.int64, np.int32, np.uint16) if isinstance(valid, int)
             else (np.float64, np.float32))
    for numpy_type in types:
        value = numpy_type(valid)
        assert getattr(_build(cls, name, value), name) == value


def test_range_messages_unchanged():
    with pytest.raises(ValueError, match=r"alpha must be in \(0,1\), got 1.5"):
        LearnConfig(alpha=1.5)
    with pytest.raises(ValueError, match="kappa must be positive"):
        ExplainConfig(kappa=-1)
    with pytest.raises(ValueError, match="n_features must be >= 2"):
        GenConfig(n_features=1)


@pytest.mark.parametrize("cls,name,value,message", [
    (GenConfig, "clusters_per_subspace", 0, "clusters_per_subspace must be >= 1"),
    (ExplainConfig, "max_depth", 0, "max_depth must be >= 1"),
], ids=lambda p: getattr(p, "__name__", p))
def test_integer_field_below_its_least_value_rejected(cls, name, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _build(cls, name, value)


@pytest.mark.parametrize("seed", [np.int64(5), np.int32(5), np.uint8(5)])
def test_numpy_seed_gives_the_python_int_seed_outputs(seed):
    # np.int64(5) % (1 << 63) overflows a C long, so the seed fold goes through int
    config = GenConfig(n_features=6, n_samples=300, n_outliers=6, seed=5)
    want = generate(config)
    got = generate(dataclasses.replace(config, seed=seed))
    assert np.array_equal(got.dataset.values, want.dataset.values)
    assert got.ground_truth == want.ground_truth
    assert (to_dict(learn_spn(want.dataset, LearnConfig(seed=seed)))
            == to_dict(learn_spn(want.dataset, LearnConfig(seed=5))))


def test_flags_default_to_their_config_fields(monkeypatch):
    # a flag reads its default from the config at parser build time, so a
    # changed config default reaches the CLI
    sentinels = {}
    for cls in CONFIGS:
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                sentinels[cls, f.name] = object()
                monkeypatch.setattr(cls, f.name, sentinels[cls, f.name])
    top = build_parser.__wrapped__()
    commands = next(a for a in top._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(COMMAND_CONFIGS)
    for command, parser in commands.items():
        dests = {a.dest: a for a in parser._actions}
        for cls in COMMAND_CONFIGS[command]:
            for f in dataclasses.fields(cls):
                flag = dests[f.name]
                if not flag.required:
                    assert flag.default is sentinels[cls, f.name], (command, f.name)
