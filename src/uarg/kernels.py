"""Bitmask kernels.

Subsets of an n-element universe are integers with bit i standing for
element i.  These loops are the hot spots of semantics enumeration and
completion filtering.  Both return ascending mask lists.
"""

from __future__ import annotations

MODE_ADMISSIBLE = 1
MODE_COMPLETE = 2
MODE_STABLE = 3

DEP_IMPLY = 0
DEP_OR = 1
DEP_NAND = 2


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


def dependency_masks(n: int, deps: list[tuple[int, int, int]]) -> list[int]:
    """All subset masks satisfying every dependency.

    Each dependency is (kind, xmask, ymask); ymask is 0 except for
    DEP_IMPLY.  Results are ascending.
    """
    out = []
    for mask in range(1 << n):
        for kind, xmask, ymask in deps:
            if kind == DEP_IMPLY:
                if (mask & xmask) == xmask and not (mask & ymask):
                    break
            elif kind == DEP_OR:
                if not (mask & xmask):
                    break
            else:  # DEP_NAND
                if (mask & xmask) == xmask:
                    break
        else:
            out.append(mask)
    return out
