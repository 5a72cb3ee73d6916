"""Integer-line demos: golden mean counts, even shift cover, gap witnesses."""

import math
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finshift import zline
from finshift.errors import InputError, ResourceError
from finshift.shiftspace import enumerate_sft
from finshift.zline import (
    LOG_GOLDEN,
    EvenCoverMismatch,
    even_cover_accepts,
    even_cover_factor_counts,
    even_shift_word_check,
    golden_mean_cyclic_count,
    golden_mean_cyclic_counts,
    golden_mean_entropy_estimate,
    golden_mean_spec,
    sft_gap_witness,
)


def _closed_word_ok(word) -> bool:
    # the word is flanked by explicit zeros, so every block of ones is interior
    return all(len(run) % 2 == 0 for run in "".join(map(str, word)).split("0"))


def even_shift_padded_oracle(w, pad_limit: int = 2) -> bool:
    """Brute-force extendability oracle for the even shift.

    Searches over left/right pads of length up to ``pad_limit`` for a
    padding that, once flanked by zeros, closes every block at even
    length.  Any boundary block's parity is settled by at most one extra
    symbol, so the small default horizon decides the same set as longer
    ones; a test cross-checks horizons.
    """
    word = tuple(int(s) for s in w)
    pads = [p for n in range(pad_limit + 1) for p in iproduct((0, 1), repeat=n)]
    return any(
        _closed_word_ok((0,) + left + word + right + (0,))
        for left in pads
        for right in pads
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


def test_one_lucas_run_gives_every_count():
    assert list(golden_mean_cyclic_counts(30)) == [golden_mean_cyclic_count(n) for n in range(1, 31)]
    assert list(golden_mean_cyclic_counts(1, budget=0)) == [1]


def test_count_20():
    assert golden_mean_cyclic_count(20) == 15127


def test_golden_budget_counts_lucas_steps():
    assert golden_mean_cyclic_count(20, budget=19) == 15127
    assert golden_mean_cyclic_count(1, budget=0) == 1
    with pytest.raises(ResourceError, match=r"needs 19 Lucas steps for length 20 \(budget 18\)"):
        golden_mean_cyclic_count(20, budget=18)
    # the run passes through every length, and is refused at the first
    # one out of reach, before any step
    with pytest.raises(ResourceError, match=r"needs 6 Lucas steps for length 7 \(budget 5\)"):
        golden_mean_cyclic_counts(3000, budget=5)
    with pytest.raises(ResourceError, match="needs 19 Lucas steps"):
        golden_mean_entropy_estimate(20, budget=18)


def test_gap_budget_counts_window_cells():
    # 0 1^13 0 has 10 windows of 6 cells
    assert len(sft_gap_witness(6, budget=60)) == 15
    with pytest.raises(ResourceError, match=r"needs 60 window cells for window size 6 \(budget 59\)"):
        sft_gap_witness(6, budget=59)


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


def test_word_check_equals_padded_oracle():
    for n in range(13):
        for word in iproduct((0, 1), repeat=n):
            assert even_shift_word_check(word) == even_shift_padded_oracle(word), word


def test_cover_accepts_examples():
    assert even_cover_accepts("0110")
    assert even_cover_accepts("111")  # boundary blocks are unconstrained
    assert even_cover_accepts("")
    assert not even_cover_accepts("010")
    assert not even_cover_accepts((0, 1, 1, 1, 0))
    with pytest.raises(InputError):
        even_cover_accepts("2")


def test_cover_factor_check_rejects_long_words():
    # agreement for n = 1..12 is the zline suite's even-shift-cover-agreement;
    # the budget bounds the bit additions, up to 6 counts of at most k + 1
    # bits at each length k < n, 3·n·(n + 1) in all
    assert even_cover_factor_counts(17, budget=918)[17] == 6764  # F(20) - 1
    with pytest.raises(ResourceError,
                       match=r"needs up to 918 bit additions for length 17 \(budget 917\)"):
        even_cover_factor_counts(17, budget=917)
    assert even_cover_factor_counts(5, budget=90)[5] == 20  # F(8) - 1
    with pytest.raises(ResourceError,
                       match=r"needs up to 126 bit additions for length 6 \(budget 90\)"):
        even_cover_factor_counts(6, budget=90)
    # refused before any transition is taken, however long the word
    with pytest.raises(ResourceError, match=r"needs up to 3000000003000000000 bit additions"):
        even_cover_factor_counts(10 ** 9)


def test_the_longest_length_the_default_budget_allows():
    # 3·2364·2365 bit additions fit in 2^24 and 3·2365·2366 do not; the
    # counts to 2364 take about 14000 additions
    a, b = 0, 1  # F(0), F(1)
    for _ in range(2367):
        a, b = b, a + b
    assert even_cover_factor_counts(2364)[2364] == a - 1  # F(2367) - 1
    with pytest.raises(ResourceError, match=r"needs up to 16786770 bit additions "
                                            r"for length 2365 \(budget 16777216\)"):
        even_cover_factor_counts(2365)


def test_cover_factor_check_rejects_negative_lengths():
    with pytest.raises(InputError):
        even_cover_factor_counts(-1)


def test_cover_mismatch_is_reported(monkeypatch):
    # a scan that never sees an odd interior block admits every word, and
    # disagrees with the cover first on 010, the least word with one
    scan_step = zline._scan_step
    monkeypatch.setattr(zline, "_scan_step", lambda s, a: (*scan_step(s, a)[:2], False))
    with pytest.raises(EvenCoverMismatch, match="word check only") as info:
        even_cover_factor_counts(3)
    assert info.value.word == (0, 1, 0)
    # the check holds for every length, so a length too short to hold the
    # word is refused as well
    with pytest.raises(EvenCoverMismatch, match="word check only"):
        even_cover_factor_counts(0)


def cover_factor_check_by_words(n):
    """Compare the cover with the word check on every word of length n, in
    lexicographic order, and raise on the first that they disagree on."""
    count = 0
    for word in iproduct((0, 1), repeat=n):
        in_cover = even_cover_accepts(word)
        if in_cover != even_shift_word_check(word):
            raise EvenCoverMismatch(word, in_cover)
        count += in_cover
    return count


def cover_factor_counts_by_words(n):
    """The 2^m-word oracle for :func:`even_cover_factor_counts`: the loop
    above at each length m = 0..n in turn."""
    return [cover_factor_check_by_words(m) for m in range(n + 1)]


def _outcome(check, n):
    try:
        return check(n)
    except EvenCoverMismatch as exc:
        return exc.word, str(exc)


def test_sweep_matches_the_word_loop():
    for n in range(13):
        assert even_cover_factor_counts(n) == cover_factor_counts_by_words(n), n


SCAN_STATES = list(iproduct((False, True), repeat=3))


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(
        st.tuples(st.just("scan"), st.sampled_from(SCAN_STATES), st.integers(0, 1),
                  st.sampled_from(SCAN_STATES)),
        st.tuples(st.just("cover"), st.sampled_from("AB"), st.integers(0, 1),
                  st.sampled_from(["A", "B", None])),
    ),
    st.integers(0, 12),
)
def test_corrupted_steps_give_the_word_loops_answer(corruption, n):
    # one transition of the scan or of the cover goes wrong.  Words that
    # reach the same pair of states share every later verdict, so the check
    # raises on the loop's least word with the same side, or, where the loop
    # to n finds none, gives its counts or raises on the least longer word
    # on which the two really differ
    side, state, label, target = corruption
    with pytest.MonkeyPatch.context() as mp:
        if side == "scan":
            scan_step = zline._scan_step
            mp.setattr(zline, "_scan_step", lambda s, a: target if (s, a) == (state, label)
                       else scan_step(s, a))
        else:
            cover = {k: v for k, v in zline._COVER.items() if k != (state, label)}
            if target is not None:
                cover[state, label] = target
            mp.setattr(zline, "_COVER", cover)
        got, want = _outcome(even_cover_factor_counts, n), _outcome(cover_factor_counts_by_words, n)
        if got != want:
            assert isinstance(want, list) and isinstance(got, tuple), (got, want)
            word = got[0]
            assert n < len(word) <= 12
            assert even_cover_accepts(word) != even_shift_word_check(word)
            assert got == _outcome(cover_factor_counts_by_words, len(word))


def test_admissible_word_counts_are_fibonacci():
    # the words of length n are counted by F(n+3) - 1 (F(1) = F(2) = 1)
    fib = [0, 1]
    while len(fib) < 204:
        fib.append(fib[-1] + fib[-2])
    assert even_cover_factor_counts(200) == [fib[n + 3] - 1 for n in range(201)]


def test_gap_witness():
    for k in range(2, 11):
        word = sft_gap_witness(k)
        assert word == (0,) + (1,) * (2 * k + 1) + (0,)
        assert not even_shift_padded_oracle(word)
    with pytest.raises(InputError):
        sft_gap_witness(1)
