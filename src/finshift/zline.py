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

from .errors import DEFAULT_CANDIDATE_BUDGET, FinshiftError, InputError, ResourceError
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


def golden_mean_cyclic_count(n: int, budget: int = DEFAULT_CANDIDATE_BUDGET) -> int:
    """Binary words of length n with no two cyclically adjacent ones.

    This is the trace of the n-th power of [[1,1],[1,0]]: 1 and 3 for
    n = 1, 2, then the Lucas rule t(n) = t(n-1) + t(n-2).  ``budget``
    bounds the n - 1 Lucas steps, and a longer length is refused before
    any is taken.
    """
    if n < 1:
        raise InputError("word length must be >= 1")
    if n - 1 > budget:
        raise ResourceError(f"golden mean count needs {n - 1} Lucas steps "
                            f"for length {n} (budget {budget})")
    a, b = 2, 1  # t(0), t(1)
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def golden_mean_entropy_estimate(n: int, budget: int = DEFAULT_CANDIDATE_BUDGET) -> float:
    """log(count(n))/n, converging to the log of the golden ratio;
    ``budget`` bounds the count's Lucas steps."""
    if n < 3:
        raise InputError("estimate needs word length >= 3")
    return math.log(golden_mean_cyclic_count(n, budget=budget)) / n


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


def even_cover_accepts(word) -> bool:
    """Whether ``word`` labels a path in the even shift's two-state cover,
    A -0-> A, A -1-> B, B -1-> A (Lind and Marcus, *An Introduction to
    Symbolic Dynamics and Coding*, §3.1).

    Every state has in- and out-edges, so every path is bi-extendable and
    the accepted words are the even shift's words.  The cover runs as a
    ``(state, label) -> state`` map from the start set {A, B}.
    """
    step = {("A", 0): "A", ("A", 1): "B", ("B", 1): "A"}
    states = {"A", "B"}
    for label in _parse_word(word):
        states = {step[q, label] for q in states if (q, label) in step}
    return bool(states)


class EvenCoverMismatch(FinshiftError):
    def __init__(self, word, in_cover):
        side = "cover only" if in_cover else "word check only"
        super().__init__(f"even-shift mismatch at {word} ({side})")
        self.word = word


def even_cover_factor_check(n: int, budget: int = DEFAULT_CANDIDATE_BUDGET) -> int:
    """Compare the cover with :func:`even_shift_word_check` on every binary
    word of length n, in lexicographic order; return the number of
    admissible words.  ``budget`` bounds the 2^n words compared, and a
    longer length is refused before any is.

    Raises :class:`EvenCoverMismatch` on the least word where the two
    disagree.
    """
    if n < 0:
        raise InputError("word length must be >= 0")
    if 2 ** n > budget:
        raise ResourceError(f"even-shift cover check needs {2 ** n} words "
                            f"of length {n} (budget {budget})")
    count = 0
    for word in iproduct((0, 1), repeat=n):
        in_cover = even_cover_accepts(word)
        if in_cover != even_shift_word_check(word):
            raise EvenCoverMismatch(word, in_cover)
        count += in_cover
    return count


def sft_gap_witness(k: int, budget: int = DEFAULT_CANDIDATE_BUDGET):
    """A word that is locally admissible at window size k but globally bad.

    Returns ``0 1^(2k+1) 0``: every length-k subword lies in the even
    shift's length-k language, yet the whole word has an odd interior
    block.  Both facts are verified before returning.  ``budget`` bounds
    the (k + 4)·k cells of the k + 4 windows checked, and a larger k is
    refused before any is.
    """
    if k < 2:
        raise InputError("window size must be >= 2")
    if (k + 4) * k > budget:
        raise ResourceError(f"gap witness check needs {(k + 4) * k} window cells "
                            f"for window size {k} (budget {budget})")
    word = (0,) + (1,) * (2 * k + 1) + (0,)
    for i in range(len(word) - k + 1):
        if not even_shift_word_check(word[i : i + k]):
            raise FinshiftError(
                f"internal error: subword at {i} failed the local check"
            )
    if even_shift_word_check(word):
        raise FinshiftError("internal error: witness passed the global check")
    return word
