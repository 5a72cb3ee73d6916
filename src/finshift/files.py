"""Line-oriented text formats for groups, towers and SFT specs.

All formats are UTF-8; blank lines are ignored.  Parse failures raise
:class:`FormatError` carrying the file and line number.
"""

from __future__ import annotations

import os

from .errors import FinshiftError, FormatError, InputError
from .groups import FiniteGroup, GroupTower, check_embedding, cyclic, from_table, product
from .patterns import Alphabet, Pattern
from .shiftspace import SftSpec


def _lines(path):
    try:
        with open(path, "rb", buffering=0) as fh:
            # CR LF and CR end lines too; in UTF-8 these bytes are always CR and LF
            data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    except OSError as exc:
        raise FormatError(f"cannot open file: {exc.strerror}", path) from None
    except ValueError as exc:  # a name holding a NUL byte
        raise FormatError(f"cannot open file: {exc}", path) from None
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")  # a byte-order mark is no text
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError("not UTF-8 text", path, lineno) from None
    return iter([(n, line) for n, line in enumerate(map(str.strip, text.split("\n")), 1)
                 if line])


def _ints(tokens, path, lineno):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"expected integers, got {tokens!r}", path, lineno) from None


def _built(build, path, lineno, *args):
    """``build(*args)``, a group builder or check, with its error naming the
    file and line it was read from."""
    try:
        return build(*args)
    except FinshiftError as exc:
        raise FormatError(str(exc), path, lineno) from None


def read_group(path) -> FiniteGroup:
    """Parse a group file: cyclic, product-of-files, or explicit table."""
    return _read_group(path, {})


def _read_group(path, parsed) -> FiniteGroup:
    """:func:`read_group` that parses each file once per top-level read.

    ``parsed`` maps absolute paths to their groups; ``None`` marks a file
    whose product factors are being read, so meeting it again is a cycle.
    """
    key = os.path.abspath(path)
    if key in parsed:
        if parsed[key] is None:
            raise FormatError("product factors lead back to this file", path)
        return parsed[key]
    parsed[key] = None
    parsed[key] = _parse_group(path, key, parsed)
    return parsed[key]


def _parse_group(path, key, parsed) -> FiniteGroup:
    """Parse the group file at ``path``, whose absolute path is ``key``."""
    it = _lines(path)
    try:
        lineno, header = next(it)
    except StopIteration:
        raise FormatError("empty group file", path) from None
    parts = header.split()
    if parts[0] != "group" or len(parts) < 2:
        raise FormatError("expected a 'group <kind> ...' header", path, lineno)
    kind = parts[1]
    if kind == "cyclic":
        if len(parts) != 3:
            raise FormatError("usage: group cyclic <n>", path, lineno)
        (n,) = _ints(parts[2:], path, lineno)
        build, args = cyclic, (n,)
    elif kind == "product":
        if len(parts) != 4:
            raise FormatError("usage: group product <file> <file>", path, lineno)
        base = os.path.dirname(key)
        left = _read_group(os.path.join(base, parts[2]), parsed)
        right = _read_group(os.path.join(base, parts[3]), parsed)
        build, args = product, (left, right)
    elif kind == "table":
        if len(parts) != 3:
            raise FormatError("usage: group table <n>", path, lineno)
        (n,) = _ints(parts[2:], path, lineno)
        rows = []
        for row_line, line in it:
            rows.append(_ints(line.split(), path, row_line))
            if len(rows) == n:
                break
        if len(rows) != n:
            raise FormatError(f"expected {n} table rows, got {len(rows)}", path)
        build, args = from_table, (rows,)
    else:
        raise FormatError(f"unknown group kind {kind!r}", path, lineno)
    extra = next(it, None)
    if extra is not None:
        raise FormatError("extra line after the end of the group", path, extra[0])
    return _built(build, path, lineno, *args)


def read_tower(path) -> GroupTower:
    """Parse a tower file: a 'tower' header, then level and embed lines."""
    return _read_tower(path, {})


def read_sft(path) -> SftSpec:
    """Parse an SFT spec file."""
    return _read_sft(path, {})


def read_sft_and_tower(sft_path, tower_path) -> tuple[SftSpec, GroupTower]:
    """Parse an SFT file and a tower file, building a group file both name
    once: the spec's group is then the very object at its tower level."""
    parsed = {}
    return _read_sft(sft_path, parsed), _read_tower(tower_path, parsed)


def _read_tower(path, parsed) -> GroupTower:
    levels = []
    embeddings = []
    base = os.path.dirname(os.path.abspath(path))
    it = _lines(path)
    try:
        lineno, header = next(it)
    except StopIteration:
        raise FormatError("empty tower file", path) from None
    if header != "tower":
        raise FormatError("expected a 'tower' header", path, lineno)
    for lineno, line in it:
        parts = line.split()
        if parts[0] == "level":
            if len(parts) != 2:
                raise FormatError("usage: level <groupfile>", path, lineno)
            levels.append(_read_group(os.path.join(base, parts[1]), parsed))
        elif parts[0] == "embed":
            if len(parts) < 3 or parts[2] != "pairs":
                raise FormatError("usage: embed <k> pairs i->j ...", path, lineno)
            (k,) = _ints(parts[1:2], path, lineno)
            if k != len(embeddings):
                raise FormatError(
                    f"embed lines must appear in order; expected {len(embeddings)}",
                    path,
                    lineno,
                )
            pairs = {}
            for tok in parts[3:]:
                a, arrow, b = tok.partition("->")
                if not arrow:
                    raise FormatError(f"bad pair {tok!r}", path, lineno)
                try:
                    i, j = int(a), int(b)
                except ValueError:
                    _ints([a], path, lineno)
                    _ints([b], path, lineno)
                if i in pairs:
                    raise FormatError(f"element {i} is mapped twice", path, lineno)
                pairs[i] = j
            if k + 1 >= len(levels):
                raise FormatError("embed line before both levels are declared", path, lineno)
            n = levels[k].order
            if sorted(pairs) != list(range(n)):
                raise FormatError(f"embedding must be total on 0..{n - 1}", path, lineno)
            embeddings.append(tuple(map(pairs.__getitem__, range(n))))
            _built(check_embedding, path, lineno, levels, k, embeddings[k])
        else:
            raise FormatError(f"unknown tower directive {parts[0]!r}", path, lineno)
    # embed lines come in order, each after both its levels: only missing
    # ones are left to find
    if len(embeddings) < len(levels) - 1:
        raise FormatError(f"{len(levels)} levels need {len(levels) - 1} embed lines, "
                          f"got {len(embeddings)}", path)
    return GroupTower(tuple(levels), tuple(embeddings))


def _read_sft(path, parsed) -> SftSpec:
    base = os.path.dirname(os.path.abspath(path))
    forbid_rows = []
    it = _lines(path)
    try:
        lineno, header = next(it)
    except StopIteration:
        raise FormatError("empty sft file", path) from None
    if header != "sft":
        raise FormatError("expected an 'sft' header", path, lineno)
    first = {}  # the line each of group, alphabet and shape is read on
    for lineno, line in it:
        parts = line.split()
        if parts[0] in ("group", "alphabet", "shape"):
            if parts[0] in first:
                raise FormatError(f"repeated {parts[0]} line; the first is line "
                                  f"{first[parts[0]]}", path, lineno)
            first[parts[0]] = lineno
        if parts[0] == "group":
            if len(parts) != 2:
                raise FormatError("usage: group <groupfile>", path, lineno)
            group = _read_group(os.path.join(base, parts[1]), parsed)
        elif parts[0] == "alphabet":
            try:
                alphabet = Alphabet(tuple(parts[1:]))
            except InputError as exc:
                raise FormatError(str(exc), path, lineno) from None
        elif parts[0] == "shape":
            shape = tuple(_ints(parts[1:], path, lineno))
        elif parts[0] == "forbid":
            forbid_rows.append((lineno, parts[1:]))
        else:
            raise FormatError(f"unknown sft directive {parts[0]!r}", path, lineno)
    if len(first) < 3:
        raise FormatError("sft file needs group, alphabet and shape lines", path)
    if len(set(shape)) != len(shape):
        raise FormatError("shape indices must be distinct", path, first["shape"])
    for c in shape:
        if not 0 <= c < group.order:
            raise FormatError(f"shape index {c} is outside the group of order "
                              f"{group.order}", path, first["shape"])
    # symbols are positional against the declared shape order
    order = sorted(range(len(shape)), key=lambda i: shape[i])
    sorted_shape = tuple(shape[i] for i in order)
    index = {symbol: i for i, symbol in enumerate(alphabet.symbols)}
    forbidden = set()
    for lineno, row in forbid_rows:
        if len(row) != len(shape):
            raise FormatError(
                f"forbid line has {len(row)} symbols for shape of size {len(shape)}",
                path,
                lineno,
            )
        try:
            symbols = tuple(index[row[i]] for i in order)
        except KeyError:
            raise FormatError(f"unknown symbol in {row!r}", path, lineno) from None
        forbidden.add(Pattern(group, sorted_shape, symbols))
    return SftSpec(group, alphabet, sorted_shape, frozenset(forbidden))
