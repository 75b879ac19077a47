"""Config parsing, validation, and round-trip behavior."""

import pytest

from ddvar.config import (FORMULATIONS, ExperimentConfig, emit_config,
                          parse_config)

MINIMAL = """
# smallest viable file
nx = 10
ny = 8
formulation = is4dvar
seed = 3
"""


def test_minimal_file_applies_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.halo == 2
    assert cfg.alpha == 1.0 and cfg.beta == 1.0 and cfg.gamma == 1.0
    assert cfg.n_steps == 6
    assert cfg.model == "linear"
    assert cfg.nx == 10 and cfg.ny == 8 and cfg.seed == 3


def test_zero_tile_count_rejected_by_name():
    with pytest.raises(ValueError, match="ntile_i"):
        parse_config(MINIMAL + "ntile_i = 0\n")


def test_unknown_key_names_line_and_key():
    with pytest.raises(ValueError, match=r"line 2.*n_tiles"):
        parse_config("nx = 10\nn_tiles = 4\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match="duplicate key 'nx'"):
        parse_config("nx = 10\nnx = 12\n")


def test_bad_value_names_line_key_and_type():
    with pytest.raises(ValueError, match=r"line 1.*'nx'.*int"):
        parse_config("nx = ten\n")
    with pytest.raises(ValueError, match=r"'impact'.*bool"):
        parse_config(MINIMAL + "impact = yes\n")


def test_missing_mandatory_key_reported():
    with pytest.raises(ValueError, match="mandatory"):
        parse_config("nx = 10\nny = 8\nformulation = is4dvar\n")


def test_malformed_line_reported():
    with pytest.raises(ValueError, match="key = value"):
        parse_config("nx 10\n")


def test_formulations_are_the_paper_routes_and_the_dd():
    assert FORMULATIONS == ("is4dvar", "rbl4dvar", "dd4dvar")


def test_unknown_formulation_lists_choices():
    with pytest.raises(ValueError, match="is4dvar"):
        parse_config("nx = 10\nny = 8\nformulation = 3dvar\nseed = 0\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\nnx = 10  # trailing\nny = 8\n"
                       "formulation = rbl4dvar\nseed = 1\n")
    assert cfg.nx == 10
    assert cfg.formulation == "rbl4dvar"


def test_round_trip_is_identity():
    cfg = parse_config(MINIMAL + "sigma_o = 0.07\nimpact = true\n"
                       "tau_dd = 3.5e-09\nobs_file = obs.txt\n")
    text = emit_config(cfg)
    assert parse_config(text) == cfg
    # and a second emit is stable
    assert emit_config(parse_config(text)) == text


def test_validate_rejects_periodic_multi_tile_dd():
    cfg = ExperimentConfig(nx=12, ny=10, boundary="periodic",
                           formulation="dd4dvar", ntile_i=2, ntile_j=1,
                           seed=0)
    with pytest.raises(ValueError, match="boundary"):
        cfg.validate()


def test_validate_bounds():
    good = dict(nx=10, ny=8, formulation="is4dvar", seed=0)
    for key, bad in (("n_t", 0), ("halo", 0), ("omega", 2.0),
                     ("sigma_o", 0.0), ("n_inner", 0), ("impact_col", 10)):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**good, **{key: bad}).validate()
    assert ExperimentConfig(**good).validate().n_t == 1
