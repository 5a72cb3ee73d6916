"""Integer-line truncation demos: golden mean counts, the even shift cover,
and local-vs-global admissibility gap witnesses.

Everything here works on finite binary words and cyclic truncations.
Golden mean counts are transfer-matrix traces; :func:`golden_mean_spec`
states the same constraint as an SFT on a cyclic group, whose enumeration
is the oracle the counts are checked against.
"""

from __future__ import annotations

import math
from itertools import product as iproduct

from .errors import FinshiftError, InputError
from .groups import cyclic
from .patterns import BINARY, Pattern
from .shiftspace import SftSpec

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
LOG_GOLDEN = math.log(GOLDEN_RATIO)


def golden_mean_spec(n: int) -> SftSpec:
    """No-two-adjacent-ones constraint on the cyclic group of order n."""
    g = cyclic(n)
    shape = (0,) if n == 1 else (0, 1)
    forbidden = Pattern(g, shape, (1,) * len(shape))
    return SftSpec(g, BINARY, shape, frozenset({forbidden}))


def golden_mean_cyclic_count(n: int) -> int:
    """Binary words of length n with no two cyclically adjacent ones.

    This is the trace of the n-th power of [[1,1],[1,0]]: 1 and 3 for
    n = 1, 2, then the Lucas rule t(n) = t(n-1) + t(n-2).
    """
    if n < 1:
        raise InputError("word length must be >= 1")
    a, b = 2, 1  # t(0), t(1)
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def golden_mean_entropy_estimate(n: int) -> float:
    """log(count(n))/n, converging to the log of the golden ratio."""
    if n < 3:
        raise InputError("estimate needs word length >= 3")
    return math.log(golden_mean_cyclic_count(n)) / n


def _blocks(word):
    """(start, length) of every maximal run of ones."""
    runs = []
    i = 0
    while i < len(word):
        if word[i] == 1:
            j = i
            while j < len(word) and word[j] == 1:
                j += 1
            runs.append((i, j - i))
            i = j
        else:
            i += 1
    return runs


def _parse_word(w):
    if isinstance(w, str):
        if any(ch not in "01" for ch in w):
            raise InputError(f"word must be binary, got {w!r}")
        return tuple(int(ch) for ch in w)
    w = tuple(w)
    if any(s not in (0, 1) for s in w):
        raise InputError("word entries must be 0 or 1")
    return w


def even_shift_word_check(w) -> bool:
    """Language check for the even shift on finite windows.

    Interior maximal blocks of ones must have even length; blocks touching
    either end of the window are extendable and therefore unconstrained.
    """
    word = _parse_word(w)
    for start, length in _blocks(word):
        touches_end = start == 0 or start + length == len(word)
        if not touches_end and length % 2 == 1:
            return False
    return True


def _closed_word_ok(word) -> bool:
    # the word is flanked by explicit zeros, so every block is interior
    return all(length % 2 == 0 for _, length in _blocks(word))


def even_shift_padded_oracle(w, pad_limit: int = 2) -> bool:
    """Brute-force extendability oracle for the even shift.

    Searches over left/right pads of length up to ``pad_limit`` for a
    padding that, once flanked by zeros, closes every block at even
    length.  Any boundary block's parity is settled by at most one extra
    symbol, so the small default horizon decides the same set as longer
    ones; tests cross-check horizons.
    """
    word = _parse_word(w)
    pads = [()]
    for length in range(1, pad_limit + 1):
        pads.extend(iproduct((0, 1), repeat=length))
    for left in pads:
        for right in pads:
            if _closed_word_ok((0,) + left + word + right + (0,)):
                return True
    return False


_COVER_EDGES = {  # state -> [(label, next_state)]
    "A": [(0, "A"), (1, "B")],
    "B": [(1, "A")],
}


def _cover_words(n: int) -> set:
    """Label sequences of all bi-extendable paths of length n in the
    two-state cover."""
    words = set()

    def walk(state, labels):
        if len(labels) == n:
            words.add(tuple(labels))
            return
        for label, nxt in _COVER_EDGES[state]:
            walk(nxt, labels + [label])

    # every state has in- and out-edges, so every path is bi-extendable
    for start in _COVER_EDGES:
        walk(start, [])
    return words


class EvenCoverMismatch(FinshiftError):
    def __init__(self, word, in_cover):
        side = "cover only" if in_cover else "oracle only"
        super().__init__(f"even-shift mismatch at {word} ({side})")
        self.word = word


def even_cover_factor_check(n: int, pad_limit: int = 2) -> bool:
    """Compare the cover presentation with the padded brute-force oracle.

    Raises :class:`EvenCoverMismatch` with a witness word when the label
    language of the cover differs from the oracle-admissible words.
    """
    if n > 16:
        raise InputError("cover check is limited to word length 16")
    from_cover = _cover_words(n)
    from_oracle = {
        word
        for word in iproduct((0, 1), repeat=n)
        if even_shift_padded_oracle(word, pad_limit=pad_limit)
    }
    if from_cover != from_oracle:
        diff = sorted(from_cover ^ from_oracle)
        raise EvenCoverMismatch(diff[0], diff[0] in from_cover)
    return True


def sft_gap_witness(k: int):
    """A word that is locally admissible at window size k but globally bad.

    Returns ``0 1^(2k+1) 0``: every length-k subword lies in the even
    shift's length-k language, yet the whole word has an odd interior
    block.  Both facts are verified before returning.
    """
    if k < 2:
        raise InputError("window size must be >= 2")
    word = (0,) + (1,) * (2 * k + 1) + (0,)
    for i in range(len(word) - k + 1):
        if not even_shift_word_check(word[i : i + k]):
            raise FinshiftError(
                f"internal error: subword at {i} failed the local check"
            )
    if even_shift_word_check(word):
        raise FinshiftError("internal error: witness passed the global check")
    return word
