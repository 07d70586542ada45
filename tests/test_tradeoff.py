import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netsar.errors import InvalidDistributionError
from netsar.tradeoff import (
    JointChannel,
    channel_from_csv,
    channel_to_csv,
    example_channel,
    gaussian_sum_bound,
    information_terms,
    terms_table,
)


def _random_channel(rng, nx=3, ns=2, ny=4):
    p_x = rng.dirichlet(np.ones(nx))
    p_s = rng.dirichlet(np.ones(ns))
    kernel = rng.dirichlet(np.ones(ny), size=(nx, ns))
    return JointChannel(p_x=p_x, p_s=p_s, kernel=kernel)


def test_validation_names_the_violation():
    with pytest.raises(InvalidDistributionError, match="p_x"):
        JointChannel(p_x=np.array([0.5, 0.6]), p_s=np.ones(1), kernel=np.ones((2, 1, 1)))
    with pytest.raises(InvalidDistributionError, match="negative"):
        JointChannel(
            p_x=np.array([1.5, -0.5]), p_s=np.ones(1), kernel=np.ones((2, 1, 1))
        )
    bad_kernel = np.ones((2, 1, 2)) * 0.5
    bad_kernel[1, 0] = [0.7, 0.7]
    with pytest.raises(InvalidDistributionError, match=r"x=1, s=0"):
        JointChannel(p_x=np.full(2, 0.5), p_s=np.ones(1), kernel=bad_kernel)
    with pytest.raises(InvalidDistributionError, match="shape"):
        JointChannel(p_x=np.full(2, 0.5), p_s=np.ones(1), kernel=np.ones((1, 1, 1)))


def test_example_channel_rates():
    ch = example_channel()
    terms = information_terms(ch)
    # noiseless bijection: one bit through each path, deterministic output
    assert math.isclose(terms["I(X;Y)"], 1.0, abs_tol=1e-12)
    assert math.isclose(terms["I(Y;S|X)"], 1.0, abs_tol=1e-12)
    assert math.isclose(terms["H(Y)"], 2.0, abs_tol=1e-12)
    assert math.isclose(terms["H(Y|X,S)"], 0.0, abs_tol=1e-12)
    assert abs(terms["identity_residual"]) < 1e-12


def test_identity_holds_for_random_channels():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        ch = _random_channel(rng)
        terms = information_terms(ch)
        worst = max(worst, abs(terms["identity_residual"]))
        assert terms["I(X;Y)"] >= -1e-12
        assert terms["I(Y;S|X)"] >= -1e-12
    assert worst < 1e-10


def test_conditional_sensing_rate_exceeds_unconditional():
    # conditioning on X cannot hurt sensing when X and S are independent
    rng = np.random.default_rng(4)
    for _ in range(50):
        terms = information_terms(_random_channel(rng))
        assert terms["I(Y;S|X)"] >= terms["I(Y;S)"] - 1e-10


def test_gaussian_sum_bound():
    assert gaussian_sum_bound(3.0) == 1.0
    assert gaussian_sum_bound(0.0) == 0.0
    assert math.isclose(gaussian_sum_bound(15.0), 2.0)
    with pytest.raises(ValueError):
        gaussian_sum_bound(-0.1)


def test_channel_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    ch = _random_channel(rng, nx=2, ns=3, ny=5)
    path = tmp_path / "channel.csv"
    channel_to_csv(ch, path)
    back = channel_from_csv(path)
    assert np.array_equal(back.p_x, ch.p_x)
    assert np.array_equal(back.p_s, ch.p_s)
    assert np.array_equal(back.kernel, ch.kernel)


def test_channel_csv_missing_section(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("section,index,values\np_x,,1.0\n")
    with pytest.raises(InvalidDistributionError):
        channel_from_csv(path)


GOOD_ROWS = ["p_x,,1.0", "p_s,,1.0", 'kernel,"0,0",0.5,0.5']


@pytest.mark.parametrize(
    "row, message",
    [
        ("kernel", r"line 5: expected a section, an index and values"),
        ("p_x,,half", r"line 5: could not convert"),
        ('kernel,"0,0",0.5,x', r"line 5: could not convert"),
        ("kernel,x,0.5,0.5", r"line 5: kernel index 'x' is not two integers"),
        ('kernel,"0,0,0",0.5,0.5', r"line 5: kernel index '0,0,0' is not two integers"),
        ('kernel,"-1,0",0.5,0.5', r"line 5: kernel index '-1,0' is outside"),
        ('kernel,"1,0",0.5,0.5', r"line 5: kernel index '1,0' is outside \|X\|=1"),
        ('kernel,"0,1",0.5,0.5', r"line 5: kernel index '0,1' is outside .*\|S\|=1"),
        ('kernel,"0,0",0.25,0.25,0.5', r"line 5: kernel row has 3 values, the first has 2"),
    ],
    ids=[
        "section_only",
        "non_numeric_prior",
        "non_numeric_kernel_value",
        "non_integer_index",
        "three_part_index",
        "negative_index",
        "x_index_past_p_x",
        "s_index_past_p_s",
        "ragged_kernel_rows",
    ],
)
def test_channel_csv_malformed_row_names_its_line(tmp_path, row, message):
    path = tmp_path / "broken.csv"
    path.write_text("\n".join(["section,index,values", *GOOD_ROWS, row]) + "\n")
    with pytest.raises(InvalidDistributionError, match=message):
        channel_from_csv(path)


def test_channel_csv_good_rows_read_and_a_missing_file_stays_file_not_found(tmp_path):
    path = tmp_path / "good.csv"
    path.write_text("\n".join(["section,index,values", *GOOD_ROWS]) + "\n")
    assert np.array_equal(channel_from_csv(path).kernel, [[[0.5, 0.5]]])
    with pytest.raises(FileNotFoundError):
        channel_from_csv(tmp_path / "absent.csv")


def test_terms_table_lists_all_keys():
    terms = information_terms(example_channel())
    table = terms_table(terms)
    for key in terms:
        assert key in table


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_identity_residual_property(seed):
    rng = np.random.default_rng(seed)
    terms = information_terms(_random_channel(rng, nx=2, ns=2, ny=3))
    assert abs(terms["identity_residual"]) < 1e-10
