"""Bitmask kernels.

Subsets of an n-element universe are integers with bit i standing for
element i.  These loops are the hot spots of semantics enumeration and
completion filtering.  Both are backtracking searches that decide the bits
from the highest down, excluding before including, so both return
ascending mask lists.  Each cuts a branch as soon as the bits it has
decided break a condition: ``semantics_masks`` only ever extends
conflict-free sets, and ``dependency_masks`` checks each dependency once,
when its lowest bit is decided.
"""

from __future__ import annotations

MODE_ADMISSIBLE = 1
MODE_COMPLETE = 2
MODE_STABLE = 3


def backend_name() -> str:
    return "python"


def semantics_masks(n: int, attackers: list[int], targets: list[int],
                    mode: int) -> list[int]:
    """All subset masks satisfying the selected extension condition.

    attackers[i] / targets[i]: masks of defeaters of i / of arguments
    defeated by i.  Backtracking decides the arguments from the highest bit
    down, excluding before including, and only includes an argument that
    neither attacks nor is attacked by the set so far; every leaf is thus a
    conflict-free set, and leaves come out in ascending order.  The stack
    holds (undecided count, mask, arguments the mask attacks, arguments
    attacking the mask).
    """
    full = (1 << n) - 1
    out = []
    stack = [(n, 0, 0, 0)]
    while stack:
        i, mask, attacked, threats = stack.pop()
        if i:
            i -= 1
            bit = 1 << i
            if not (attackers[i] | targets[i]) & (mask | bit):
                stack.append((i, mask | bit, attacked | targets[i],
                              threats | attackers[i]))
            stack.append((i, mask, attacked, threats))
        elif mode == MODE_STABLE:
            if (mask | attacked) == full:
                out.append(mask)
        elif not threats & ~attacked:  # admissible: every threat is answered
            if mode == MODE_ADMISSIBLE or _closed(full & ~mask, attackers,
                                                  attacked):
                out.append(mask)
    return out


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
    """All subset masks satisfying every clause.

    Each clause (pos, neg) is "not (pos <= mask and no bit of neg in
    mask)", the form of every IMPLY, OR and NAND dependency.  Backtracking
    decides the bits from the highest down, excluding before including, so
    results are ascending.  A clause is checked once, on the branch that
    decides its lowest bit, and only on the side of that bit it can
    falsify; a subtree below the lowest such bit holds no clause and is
    emitted as one range.
    """
    excluded: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    included: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for pos, neg in clauses:
        if pos & neg:
            continue  # a tautology: no mask can falsify it
        care = pos | neg
        if not care:
            return []  # the empty clause: every mask falsifies it
        low = care & -care
        i = low.bit_length() - 1
        (included if pos & low else excluded)[i].append((care, pos))
    free = 0  # bits below the lowest clause: no clause decides them
    while free < n and not excluded[free] and not included[free]:
        free += 1
    out = []
    stack = [(n, 0)]
    while stack:
        i, mask = stack.pop()
        if i <= free:
            out.extend(range(mask, mask + (1 << i)))
            continue
        i -= 1
        grown = mask | 1 << i
        for care, pos in included[i]:
            if grown & care == pos:
                break
        else:
            stack.append((i, grown))
        for care, pos in excluded[i]:
            if mask & care == pos:
                break
        else:
            stack.append((i, mask))
    return out
