"""Bitmask kernels.

Subsets of an n-element universe are integers with bit i standing for
element i.  These loops are the hot spots of semantics enumeration and
completion filtering, and both return ascending mask lists.
``semantics_masks`` is a backtracking search that decides the bits from
the highest down, excluding before including, only ever extends
conflict-free sets and drops a set as soon as one of its attackers can no
longer be answered, so it grows few sets beyond those that lead to an
admissible one.  ``dependency_masks`` tests every dependency against all
2^n subsets at once: it keeps one 2^n-bit integer whose bit m says whether
subset m is still satisfying, and clears each dependency's falsifiers with
a few big-integer operations (Knuth, TAOCP Vol. 4A, section 7.1.3).
"""

from __future__ import annotations

from itertools import compress


def backend_name() -> str:
    return "python"


def semantics_masks(n: int, attackers: list[int], targets: list[int],
                    ) -> tuple[list[int], list[int], list[int]]:
    """The admissible, complete and stable sets, as three ascending mask
    lists; the complete sets are a sublist of the admissible ones and the
    stable sets a sublist of the complete ones.

    attackers[i] / targets[i]: masks of defeaters of i / of arguments
    defeated by i.  Backtracking decides the arguments from the highest bit
    down, excluding before including, and only includes an argument that
    neither attacks nor is attacked by the set so far, so every leaf is a
    conflict-free set and leaves come out in ascending order.  A branch is
    cut when an attacker of the set is not counter-attacked yet and none
    of its attackers can still join: those are the undecided arguments
    that attack no member, are attacked by none and do not attack
    themselves.  Every leaf is thus admissible (Nofal, Atkinson & Dunne,
    Artificial Intelligence 207, 2014).  The stack holds (undecided count,
    mask, arguments the mask attacks, arguments attacking the mask).
    """
    full = (1 << n) - 1
    selfish = sum(1 << i for i in range(n) if attackers[i] >> i & 1)
    admissible: list[int] = []
    complete: list[int] = []
    stable: list[int] = []
    stack = [(n, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, mask, attacked, threats = pop()
        unanswered = threats & ~attacked
        if unanswered:
            joinable = ((1 << i) - 1) & ~(attacked | threats | selfish)
            while unanswered:
                low = unanswered & -unanswered
                if not attackers[low.bit_length() - 1] & joinable:
                    break
                unanswered ^= low
            if unanswered:  # an attacker that no joinable argument answers
                continue
        if i:
            i -= 1
            bit = 1 << i
            if not (attackers[i] | targets[i]) & (mask | bit):
                push((i, mask | bit, attacked | targets[i],
                      threats | attackers[i]))
            push((i, mask, attacked, threats))
            continue
        admissible.append(mask)
        if _closed(full & ~mask, attackers, attacked):
            complete.append(mask)
            if mask | attacked == full:
                stable.append(mask)
    return admissible, complete, stable


def _closed(outside: int, attackers: list[int], attacked: int) -> bool:
    """Whether no argument of ``outside`` is defended by the set whose
    attacks are ``attacked`` (the fixpoint half of completeness)."""
    while outside:
        low = outside & -outside
        outside ^= low
        if not attackers[low.bit_length() - 1] & ~attacked:
            return False
    return True


def dependency_masks(n: int, clauses: list[tuple[int, int]]) -> list[int]:
    """All subset masks satisfying every clause, ascending.

    Each clause (pos, neg) is "not (pos <= mask and no bit of neg in
    mask)", the form of every IMPLY, OR and NAND dependency.  Bit m of
    ``good`` stands for mask m.  A clause's falsifiers are the masks that
    hold every bit of pos and no bit of neg: ``good`` ANDed with the
    column of each bit of pos and the complement of the column of each
    bit of neg.  So a tautology (pos and neg overlap) has none, and the
    empty clause has every mask.
    """
    columns = _columns(n)
    every = (1 << (1 << n)) - 1
    good = every
    for pos, neg in clauses:
        falsifiers = good
        while pos:
            low = pos & -pos
            falsifiers &= columns[low.bit_length() - 1]
            pos ^= low
        while neg:
            low = neg & -neg
            falsifiers &= every ^ columns[low.bit_length() - 1]
            neg ^= low
        good ^= falsifiers
        if not good:
            return []
    digits = bin(good)[:1:-1]  # digits[m] is bit m
    # compress passes every mask; finding each 1 costs about 8 times more
    # per mask found, so it wins below one satisfying mask in 8
    if good.bit_count() << 3 < len(digits):
        out = []
        at = digits.find("1")
        while at >= 0:
            out.append(at)
            at = digits.find("1", at + 1)
        return out
    return list(compress(range(len(digits)),
                         digits.encode().translate(_BITS)))


_BITS = bytes.maketrans(b"01", b"\0\1")
_COLUMNS: dict[int, list[int]] = {}
# The columns of every n <= 16 take about 270 kB; wider ones (n integers
# of 2^n bits) are built per call, so that a wide call retains nothing.
_CACHED_WIDTH = 16


def _columns(n: int) -> list[int]:
    """Column i is the 2^n-bit integer whose bit m is bit i of m.  Built
    by doubling: the columns of width w, repeated once at w, and a new
    column of w zeros then w ones give those of width 2w."""
    columns = _COLUMNS.get(n)
    if columns is None:
        columns = []
        width = 1
        for _ in range(n):
            columns = [c | c << width for c in columns]
            columns.append(((1 << width) - 1) << width)
            width <<= 1
        if n <= _CACHED_WIDTH:
            _COLUMNS[n] = columns
    return columns
