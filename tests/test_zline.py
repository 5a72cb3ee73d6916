"""Integer-line demos: golden mean counts, even shift cover, gap witnesses."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finshift.errors import InputError
from finshift.shiftspace import enumerate_sft
from finshift.zline import (
    LOG_GOLDEN,
    EvenCoverMismatch,
    _cover_words,
    even_cover_factor_check,
    even_shift_padded_oracle,
    even_shift_word_check,
    golden_mean_cyclic_count,
    golden_mean_entropy_estimate,
    golden_mean_spec,
    sft_gap_witness,
)


def test_small_counts():
    assert [golden_mean_cyclic_count(n) for n in (1, 2, 3, 4, 5)] == [
        1,
        3,
        4,
        7,
        11,
    ]
    with pytest.raises(InputError):
        golden_mean_cyclic_count(0)


def test_lucas_recurrence():
    counts = [golden_mean_cyclic_count(n) for n in range(1, 31)]
    for n in range(4, 31):
        assert counts[n - 1] == counts[n - 2] + counts[n - 3]


def test_enumeration_agrees_with_transfer():
    for n in range(1, 17):
        enumerated = len(enumerate_sft(golden_mean_spec(n)).configs)
        assert golden_mean_cyclic_count(n) == enumerated


def test_count_20():
    assert golden_mean_cyclic_count(20) == 15127


def test_entropy_estimate_converges():
    assert abs(golden_mean_entropy_estimate(20) - LOG_GOLDEN) < 1e-3
    errs = [
        abs(golden_mean_entropy_estimate(n) - LOG_GOLDEN) for n in (10, 20, 30)
    ]
    assert errs[0] > errs[1] > errs[2]
    with pytest.raises(InputError):
        golden_mean_entropy_estimate(2)


def test_log_golden_closed_form():
    assert abs(LOG_GOLDEN - math.log((1 + math.sqrt(5)) / 2)) < 1e-15


def test_golden_mean_spec_shapes():
    assert golden_mean_spec(1).forbidden_shape == (0,)
    assert golden_mean_spec(5).forbidden_shape == (0, 1)


def test_even_shift_word_check():
    assert even_shift_word_check("0110")
    assert not even_shift_word_check("01110")
    assert even_shift_word_check("111")  # boundary blocks are unconstrained
    assert even_shift_word_check("1011")
    assert not even_shift_word_check((0, 1, 0))
    with pytest.raises(InputError):
        even_shift_word_check("012")


def test_padded_oracle_examples():
    assert even_shift_padded_oracle("0110")
    assert even_shift_padded_oracle("011")  # extendable: 0110...
    assert not even_shift_padded_oracle("01110")
    assert even_shift_padded_oracle("")


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=10))
def test_padded_oracle_horizon_stable(word):
    word = tuple(word)
    assert even_shift_padded_oracle(word, pad_limit=2) == even_shift_padded_oracle(
        word, pad_limit=4
    )


def test_cover_factor_check_rejects_long_words():
    # agreement for n = 1..12 is the zline suite's even-shift-cover-agreement
    with pytest.raises(InputError):
        even_cover_factor_check(17)


def test_cover_mismatch_is_reported():
    # a deliberately starved oracle (no padding) disagrees with the cover
    with pytest.raises(EvenCoverMismatch):
        even_cover_factor_check(3, pad_limit=0)


def test_cover_word_counts_are_sane():
    for n in range(1, 10):
        words = _cover_words(n)
        assert all(even_shift_padded_oracle(w) for w in words)


def test_gap_witness():
    for k in range(2, 11):
        word = sft_gap_witness(k)
        assert word == (0,) + (1,) * (2 * k + 1) + (0,)
        assert not even_shift_padded_oracle(word)
    with pytest.raises(InputError):
        sft_gap_witness(1)
