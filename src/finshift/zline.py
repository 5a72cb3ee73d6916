"""Integer-line truncation demos: golden mean counts, the even shift cover,
and local-vs-global admissibility gap witnesses.

Everything here works on finite binary words and cyclic truncations.
Golden mean counts are transfer-matrix traces; :func:`golden_mean_spec`
states the same constraint as an SFT on a cyclic group, whose enumeration
is the oracle the counts are checked against.  The even shift's cover and
its block-parity word check are both automata, so they are compared once,
for every length, on the pairs of states their words reach; the loop over
all 2^n words is the tests' oracle.
"""

from __future__ import annotations

import math
from collections import deque
from functools import reduce

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


def golden_mean_cyclic_counts(n: int, budget: int = DEFAULT_CANDIDATE_BUDGET):
    """An iterator over the counts of binary words of length 1, ..., n with
    no two cyclically adjacent ones, from one run of the Lucas rule, so that
    only the last two counts are held.

    The counts are the traces of the powers of [[1,1],[1,0]]: 1 and 3 for
    lengths 1, 2, then t(m) = t(m-1) + t(m-2).  ``budget`` bounds the
    run's n - 1 Lucas steps.  A longer run is refused before any step is
    taken, and the refusal names the first length out of reach, budget + 2.
    """
    if n < 1:
        raise InputError("word length must be >= 1")
    if n - 1 > budget:
        raise ResourceError(f"golden mean count needs {budget + 1} Lucas steps "
                            f"for length {budget + 2} (budget {budget})")

    def run():
        a, b = 2, 1  # t(0), t(1)
        yield b
        for _ in range(n - 1):
            a, b = b, a + b
            yield b

    return run()


def golden_mean_cyclic_count(n: int, budget: int = DEFAULT_CANDIDATE_BUDGET) -> int:
    """Binary words of length n with no two cyclically adjacent ones: the
    last of :func:`golden_mean_cyclic_counts` under the same ``budget``."""
    return deque(golden_mean_cyclic_counts(n, budget), maxlen=1)[0]


def golden_mean_entropy_estimate(n: int, budget: int = DEFAULT_CANDIDATE_BUDGET) -> float:
    """log(count(n))/n, converging to the log of the golden ratio;
    ``budget`` bounds the count's Lucas steps."""
    if n < 3:
        raise InputError("estimate needs word length >= 3")
    return math.log(golden_mean_cyclic_count(n, budget=budget)) / n


def _parse_word(w):
    if isinstance(w, str):
        if any(ch not in "01" for ch in w):
            raise InputError(f"word must be binary, got {w!r}")
        return tuple(int(ch) for ch in w)
    w = tuple(w)
    if any(s not in (0, 1) for s in w):
        raise InputError("word entries must be 0 or 1")
    return w


# the cover runs on its set of states; the block-parity scan's state is
# (after a zero, run of ones odd, odd interior block seen)
_COVER = {("A", 0): "A", ("A", 1): "B", ("B", 1): "A"}
_START = (frozenset("AB"), (False, False, False))


def _cover_step(states, label):
    return frozenset(_COVER[q, label] for q in states if (q, label) in _COVER)


def _scan_step(state, label):
    # a zero closes a run of ones as an interior block when a zero came before it
    after_zero, odd, bad = state
    return (after_zero, not odd, bad) if label else (True, False, bad or (after_zero and odd))


def even_shift_word_check(w) -> bool:
    """Language check for the even shift on finite windows.

    Interior maximal blocks of ones must have even length; blocks touching
    either end of the window are extendable and therefore unconstrained.
    """
    return not reduce(_scan_step, _parse_word(w), _START[1])[2]


def even_cover_accepts(word) -> bool:
    """Whether ``word`` labels a path in the even shift's two-state cover,
    A -0-> A, A -1-> B, B -1-> A (Lind and Marcus, *An Introduction to
    Symbolic Dynamics and Coding*, §3.1), from the start set {A, B}.

    Every state has in- and out-edges, so every path is bi-extendable and
    the accepted words are the even shift's words.
    """
    return bool(reduce(_cover_step, _parse_word(word), _START[0]))


class EvenCoverMismatch(FinshiftError):
    def __init__(self, word, in_cover):
        side = "cover only" if in_cover else "word check only"
        super().__init__(f"even-shift mismatch at {word} ({side})")
        self.word = word


def even_cover_factor_counts(n: int, budget: int = DEFAULT_CANDIDATE_BUDGET) -> list:
    """Compare the cover with :func:`even_shift_word_check` on every binary
    word; return the number of admissible words of each length 0..n.

    Both are automata read left to right, so they agree on every word
    exactly when they agree at every pair (cover states, scan state)
    reachable from the start, and only 6 pairs are.  A breadth-first
    search over the pairs, label 0 before label 1, reaches each pair first
    by its least word (shorter first, then lexicographic), so a
    disagreement raises :class:`EvenCoverMismatch` on the least word that
    has one.  The counts then follow the cover's state sets alone, at most
    3 nonempty at a length: from length k that takes at most 6 additions
    of a count of at most k + 1 bits, so ``budget`` bounds the 3·n·(n + 1)
    bit additions to length n, refused before the first.
    """
    if n < 0:
        raise InputError("word length must be >= 0")
    need = 3 * n * (n + 1)
    if need > budget:
        raise ResourceError(f"even-shift cover check needs up to {need} bit additions "
                            f"for length {n} (budget {budget})")
    seen, queue = {_START}, [(_START, ())]  # each pair with its least word
    for (states, scan), word in queue:  # the queue grows as it is read
        in_cover = bool(states)
        if in_cover == scan[2]:  # the scan refuses a word once it has seen an odd block
            raise EvenCoverMismatch(word, in_cover)
        for label in (0, 1):
            pair = _cover_step(states, label), _scan_step(scan, label)
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, word + (label,)))
    layer, counts = {_START[0]: 1}, [1]
    for _ in range(n):
        nxt = {}
        for states, words in layer.items():
            for label in (0, 1):
                if after := _cover_step(states, label):
                    nxt[after] = nxt.get(after, 0) + words
        layer = nxt
        counts.append(sum(layer.values()))
    return counts


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
