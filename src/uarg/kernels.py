"""Bitmask kernels.

Subsets of an n-element universe are integers with bit i standing for
element i.  These loops are the hot spots of semantics enumeration and
completion filtering.  Both are backtracking searches that decide the bits
from the highest down, excluding before including, so both return
ascending mask lists.  Each cuts a branch as soon as the bits it has
decided break a condition: ``semantics_masks`` only ever extends
conflict-free sets and drops a set as soon as one of its attackers can no
longer be answered, so it grows few sets beyond those that lead to an
admissible one; ``dependency_masks`` checks each dependency once, when its
lowest bit is decided.
"""

from __future__ import annotations


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
