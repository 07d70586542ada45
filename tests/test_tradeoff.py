import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netsar.errors import InvalidDistributionError
from netsar.tradeoff import (
    JointChannel,
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
