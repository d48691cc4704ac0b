import re

import pytest

from dmapl.configio import (ConfigError, format_flat_config, parse_flat_config,
                            shift_spec_from_sources, train_config_from_sources)
from dmapl.datasets import DomainShiftSpec
from dmapl.trainer import TrainConfig, prepare_benchmark


def test_parse_values_and_comments():
    text = """
    # a comment line
    p_th = 0.9
    seed = 42        # inline comment
    mode = "dmapl"
    flag = true
    name = bare_string
    """
    out = parse_flat_config(text)
    assert out == {"p_th": 0.9, "seed": 42, "mode": "dmapl",
                   "flag": True, "name": "bare_string"}


def test_parse_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_flat_config("p_th = 0.9\nnot a pair\n")
    with pytest.raises(ConfigError, match="unterminated"):
        parse_flat_config('mode = "dmapl\n')
    with pytest.raises(ConfigError, match="line 1"):
        parse_flat_config("key =   # only a comment\n")


def test_parse_rejects_a_repeated_key():
    # TOML forbids a repeated key; last-wins would silently drop the first value
    with pytest.raises(ConfigError, match=r"^c\.txt: line 3: duplicate key 'alpha'$"):
        parse_flat_config("alpha = 0.5\n# again\nalpha = 0.7\n", source="c.txt")


def test_format_round_trip():
    values = {"p_th": 0.9, "seed": 7, "mode": "dmapl", "hidden_dims": (64, 32),
              "flag": False}
    back = parse_flat_config(format_flat_config(values))
    assert back["p_th"] == 0.9
    assert back["seed"] == 7
    assert back["mode"] == "dmapl"
    assert back["hidden_dims"] == "64,32"
    assert back["flag"] is False


def test_train_config_precedence(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("beta = 0.5\nlambda = 0.2\n")
    config = train_config_from_sources(str(path), {"beta": 0.7, "seed": None})
    assert config.beta == 0.7       # override wins
    assert config.lam == 0.2        # file value kept
    assert config.seed == 0         # None override ignored, default kept
    assert train_config_from_sources(None, {}) == TrainConfig()


def test_train_config_unknown_key(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("p_t = 0.5\n")
    with pytest.raises(ConfigError, match="unknown config keys"):
        train_config_from_sources(str(path), {})


def test_shift_spec_translation_parsing(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text('feature_dim = 3\nshift_translation = "1.0,0.5,0"\n'
                    "shift_rotation_deg = 0\n")
    spec = shift_spec_from_sources(str(path), {})
    assert spec.shift_translation == (1.0, 0.5, 0.0)
    assert shift_spec_from_sources(None, {}) == DomainShiftSpec()
    with pytest.raises(ConfigError, match="unknown benchmark spec keys"):
        shift_spec_from_sources(None, {"bogus": 1})


def test_shift_spec_too_small_to_split_names_the_minimum():
    with pytest.raises(ConfigError, match=r"samples_per_class must be >= 3 .* got 2"):
        shift_spec_from_sources(None, {"samples_per_class": 2})
    assert DomainShiftSpec(samples_per_class=2).samples_per_class == 2  # generation needs no split
    bench = prepare_benchmark(shift_spec_from_sources(None, {"samples_per_class": 3}))
    assert bench.source_val.n == bench.source_test.n == bench.target_test.n == 4


def test_list_settings_are_parsed_in_one_place(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text('hidden_dims = "16, 8"\n')
    assert train_config_from_sources(str(path), {}).hidden_dims == (16, 8)
    assert train_config_from_sources(None, {"hidden_dims": 16}).hidden_dims == (16,)
    spec = shift_spec_from_sources(None, {"shift_translation": "1,0.5"})
    assert spec.shift_translation == (1.0, 0.5)
    # a bad element names the key, and the file it came from
    for line in ('hidden_dims = "16,x"', "hidden_dims = 16.5", "hidden_dims = true",
                 'shift_translation = "1,x"'):
        path.write_text(line + "\n")
        key = line.split(" = ")[0]
        load = shift_spec_from_sources if key == "shift_translation" else train_config_from_sources
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {key}: expected "
                                              "comma-separated"):
            load(str(path), {})
    with pytest.raises(ConfigError, match="^hidden_dims: expected comma-separated ints, "
                                          "got '16,x'$"):
        train_config_from_sources(None, {"hidden_dims": "16,x"})
