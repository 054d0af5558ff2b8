"""FP-tree construction, depth-first maximal frequent itemset mining, class rules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_

from .segment import CLASS_ITEMS, ITEM_CLASSES, Transaction, TransactionDB, coarse_item


class FPNode:
    __slots__ = ("name", "count", "parent", "children", "link", "_path_items")

    def __init__(self, name, parent=None):
        self.name = name
        self.count = 0
        self.parent = parent
        self.children = {}  # item -> FPNode, insertion-ordered
        self.link = None
        self._path_items = None

    def path_items(self):
        """Frozenset of items on the root-ward path, excluding this node's own item."""
        if self._path_items is None:
            items = set()
            node = self.parent
            while node is not None and node.name is not None:
                items.add(node.name)
                node = node.parent
            self._path_items = frozenset(items)
        return self._path_items


class HeaderEntry:
    __slots__ = ("item", "support", "head", "_tail")

    def __init__(self, item, support):
        self.item = item
        self.support = support
        self.head = None
        self._tail = None

    def append(self, node):
        if self.head is None:
            self.head = node
        else:
            self._tail.link = node
        self._tail = node

    def chain(self):
        node = self.head
        while node is not None:
            yield node
            node = node.link


class FPTree:
    """Prefix tree over support-ordered filtered transactions with a header table."""

    def __init__(self, header_order):
        self.root = FPNode(None)
        self.header = [HeaderEntry(item, sup) for item, sup in header_order]
        self.rank = {item: i for i, (item, _) in enumerate(header_order)}
        self.entries = {e.item: e for e in self.header}
        self.n_transactions = 0
        self._tidsets = None

    def insert(self, items):
        """Insert one transaction already filtered and sorted in header order."""
        self.n_transactions += 1
        self._tidsets = None
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = FPNode(item, parent=node)
                node.children[item] = child
                self.entries[item].append(child)
            child.count += 1
            node = child

    def tidsets(self):
        """Item -> bitset of the transactions holding it, built once. Transactions are
        numbered in preorder, each node taking those that end at it (its count minus its
        children's), so the node.count transactions through a node are consecutive bits."""
        if self._tidsets is None:
            bits = {entry.item: 0 for entry in self.header}
            pos = 0
            stack = list(self.root.children.values())
            while stack:
                node = stack.pop()
                bits[node.name] |= ((1 << node.count) - 1) << pos
                pos += node.count - sum(child.count for child in node.children.values())
                stack.extend(node.children.values())
            self._tidsets = bits
        return self._tidsets


def frequent_items(db: TransactionDB, minsup_count: int):
    """Items with support >= minsup_count, by descending support then ascending code."""
    if minsup_count < 1:
        raise ValueError("minsup_count must be >= 1")
    counts = {}
    for t in db.transactions:
        for item in t.items:
            counts[item] = counts.get(item, 0) + 1
    frequent = [(item, sup) for item, sup in counts.items() if sup >= minsup_count]
    frequent.sort(key=lambda pair: (-pair[1], pair[0]))
    return frequent


def build_fp_tree(db: TransactionDB, L) -> FPTree:
    """Second scan: filter each transaction to L, reorder by L, insert into the tree."""
    tree = FPTree(L)
    for t in db.transactions:
        filtered = sorted((i for i in t.items if i in tree.rank), key=tree.rank.get)
        tree.insert(filtered)
    return tree


def itemset_support(tree: FPTree, itemset) -> int:
    """Support via the node-link chain of the itemset's least frequent item."""
    items = frozenset(itemset)
    if not items:
        return tree.n_transactions
    if any(i not in tree.rank for i in items):
        return 0
    anchor = max(items, key=lambda i: tree.rank[i])
    rest = items - {anchor}
    return sum(
        node.count for node in tree.entries[anchor].chain() if rest <= node.path_items()
    )


def mine_mfi(tree: FPTree, L, minsup_count: int):
    """Depth-first maximal frequent itemset search over the tree's transaction bitsets.

    A search node is a head itemset and its tail: the later items whose union
    with the head is frequent, in ascending order of that support. A node whose
    head ∪ tail lies in a maximal set already found is pruned; a frequent
    head ∪ tail is accepted without visiting the subtree. Children go in tail
    order, so a set's frequent supersets are found before it. Each returned
    set's support is recounted once with itemset_support.
    """
    found = {}  # maximal itemset -> support

    def search(head, head_bits, candidates):
        tail = [(item, head_bits & b) for item, b in candidates]
        tail = [e for e in tail if e[1].bit_count() >= minsup_count]
        tail.sort(key=lambda e: e[1].bit_count())
        hut = head.union(item for item, _ in tail)
        if any(hut <= m for m in found):
            return
        support = reduce(and_, (b for _, b in tail), head_bits).bit_count()
        if support >= minsup_count:
            found[hut] = support
            return
        for k, (item, item_bits) in enumerate(tail):
            search(head | {item}, item_bits, tail[k + 1 :])

    if L:
        bits = tree.tidsets()
        search(frozenset(), (1 << tree.n_transactions) - 1, [(item, bits[item]) for item, _ in L])
    for m, support in found.items():
        if itemset_support(tree, m) != support:
            raise RuntimeError(f"support counts of {sorted(m)} disagree")
    return set(found)


def frequent_closure(mfi, tree: FPTree):
    """Expand maximal sets into the complete frequent family, counting each
    support as the popcount of the AND of its items' transaction bitsets."""
    bits = tree.tidsets()
    seen = {}
    for m in mfi:
        items = sorted(m)
        n = len(items)
        for mask in range(1, 1 << n):
            s = frozenset(items[i] for i in range(n) if mask >> i & 1)
            if s not in seen:
                seen[s] = reduce(and_, (bits[i] for i in s)).bit_count()
    return sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


@dataclass(frozen=True)
class AssociationRule:
    antecedent: tuple  # sorted feature item codes, non-empty
    consequent: str  # class label
    support: Fraction  # fraction of |D|
    confidence: Fraction


def with_class_items(db: TransactionDB) -> TransactionDB:
    """Append each labeled transaction's reserved class item; drop unlabeled rows."""
    rows = [
        Transaction(tid=t.tid, items=t.items + (CLASS_ITEMS[t.label],), label=t.label)
        for t in db.transactions
        if t.label is not None
    ]
    return TransactionDB(transactions=rows)


def coarse_collapsed(db: TransactionDB) -> TransactionDB:
    """Hierarchy level 1: replace fine feature codes with their coarse parents."""
    rows = [
        Transaction(
            tid=t.tid, items=tuple({coarse_item(i) for i in t.items}), label=t.label
        )
        for t in db.transactions
    ]
    return TransactionDB(transactions=rows)


def mine_frequent_family(db: TransactionDB, minsup_count: int):
    """Frequent-item list, FP-tree, MFI and the expanded frequent family in one go."""
    L = frequent_items(db, minsup_count)
    tree = build_fp_tree(db, L)
    mfi = mine_mfi(tree, L, minsup_count)
    return L, tree, mfi, frequent_closure(mfi, tree)


def mine_levels(db: TransactionDB, minsup_count: int):
    """Mine both hierarchy levels of db; returns {level: (MFI, frequent family)}.

    Level 2 holds the fine codes, level 1 their coarse parents, in that order.
    Both the mine command and mine_class_rules go through here.
    """
    level_dbs = ((2, db), (1, coarse_collapsed(db)))
    return {level: mine_frequent_family(ldb, minsup_count)[2:] for level, ldb in level_dbs}


def generate_rules(freq, db: TransactionDB, minsup: Fraction, minconf: Fraction):
    """Class association rules X -> c from a frequent family containing class items."""
    n = len(db)
    if n == 0 or all(t.label is None for t in db.transactions):
        raise ValueError("rule generation requires a labeled transaction database")
    supports = dict(freq)
    class_items = set(CLASS_ITEMS.values())
    rules = []
    for itemset, sup in freq:
        present = itemset & class_items
        if len(present) != 1:
            continue
        c = next(iter(present))
        antecedent = itemset - {c}
        if not antecedent:
            continue
        sup_frac = Fraction(sup, n)
        if sup_frac < minsup:
            continue
        base = supports.get(antecedent)
        if base is None or base == 0:
            continue
        conf = Fraction(sup, base)
        if conf >= minconf:
            rules.append(
                AssociationRule(
                    antecedent=tuple(sorted(antecedent)),
                    consequent=ITEM_CLASSES[c],
                    support=sup_frac,
                    confidence=conf,
                )
            )
    rules.sort(key=lambda r: (-r.confidence, -r.support, r.antecedent))
    return rules


def minsup_fraction_to_count(minsup: Fraction, n_transactions: int) -> int:
    """Convert a fractional minimum support to a transaction count (ceiling)."""
    return max(1, math.ceil(minsup * n_transactions))


def mine_class_rules(db: TransactionDB, minsup, minconf):
    """Mine rules at the fine level and the coarse-collapsed level.

    Returns (rules, mfi_per_level) where mfi_per_level maps level -> set of
    frozensets (level 2 = fine codes, level 1 = coarse codes).
    """
    minsup = Fraction(minsup).limit_denominator(10**9)
    minconf = Fraction(minconf).limit_denominator(10**9)
    labeled = with_class_items(db)
    count = minsup_fraction_to_count(minsup, len(labeled))
    mfi_per_level = {}
    merged = {}
    for level, (mfi, freq) in mine_levels(labeled, count).items():
        mfi_per_level[level] = mfi
        # The coarse database has the same rows and labels, so |D| is shared.
        for rule in generate_rules(freq, labeled, minsup, minconf):
            key = (rule.antecedent, rule.consequent)
            prev = merged.get(key)
            if prev is None or rule.confidence > prev.confidence:
                merged[key] = rule
    rules = sorted(merged.values(), key=lambda r: (-r.confidence, -r.support, r.antecedent))
    return rules, mfi_per_level


def rules_to_csv(rules) -> bytes:
    lines = ["antecedent,class,support,confidence"]
    for r in rules:
        lines.append(
            f"{';'.join(str(i) for i in r.antecedent)},{r.consequent},"
            f"{float(r.support):.6f},{float(r.confidence):.6f}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")
