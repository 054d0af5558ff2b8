"""FP-tree construction, frequent itemset mining and class rules: one depth-first
pass finds the frequent family, and the maximal sets are read off it."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .segment import CLASS_ITEMS, ITEM_CLASSES, Transaction, TransactionDB, coarse_item, csv_text


class FPNode:
    __slots__ = ("name", "count", "parent", "children", "_path_items")

    def __init__(self, name, parent=None):
        self.name = name
        self.count = 0
        self.parent = parent
        self.children = {}  # item -> FPNode, insertion-ordered
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
    __slots__ = ("item", "support", "nodes")

    def __init__(self, item, support):
        self.item = item
        self.support = support
        self.nodes = []  # the node-link chain: this item's nodes in insertion order

    def chain(self):
        return iter(self.nodes)


class FPTree:
    """Prefix tree over support-ordered filtered transactions with a header table."""

    def __init__(self, header_order):
        self.root = FPNode(None)
        self.header = [HeaderEntry(item, sup) for item, sup in header_order]
        self.rank = {item: i for i, (item, _) in enumerate(header_order)}
        self.entries = {e.item: e for e in self.header}
        self.n_transactions = 0

    def insert(self, items):
        """Insert one transaction already filtered and sorted in header order."""
        self.n_transactions += 1
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = FPNode(item, parent=node)
                node.children[item] = child
                self.entries[item].nodes.append(child)
            child.count += 1
            node = child

    def tidsets(self):
        """Item -> bitset of the transactions holding it. Transactions are numbered in
        preorder, each node taking those that end at it (its count minus its children's),
        so the node.count transactions through a node are consecutive bits."""
        bits = {entry.item: 0 for entry in self.header}
        pos = 0
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop()
            bits[node.name] |= ((1 << node.count) - 1) << pos
            pos += node.count - sum(child.count for child in node.children.values())
            stack.extend(node.children.values())
        return bits


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


def frequent_closure(tree: FPTree, minsup_count: int):
    """The frequent family {itemset: support}, by size, then by sorted items: one
    depth-first pass over the tree's transaction bitsets, items in ascending code
    order. A frequent set's children each add one later item that keeps it frequent,
    and a child's bitset is its parent's ANDed with that item's."""
    bits = tree.tidsets()
    found = []  # (size, items in ascending order, support)

    def search(head, tail):
        # tail: the later items whose union with head is frequent, with that union's bitset
        for k, (item, s_bits) in enumerate(tail):
            s = head + (item,)
            found.append((len(s), s, s_bits.bit_count()))
            later = ((j, s_bits & bits[j]) for j, _ in tail[k + 1 :])
            search(s, [(j, b) for j, b in later if b.bit_count() >= minsup_count])

    search((), [(item, bits[item]) for item in sorted(bits)])
    found.sort()
    return {frozenset(s): support for _, s, support in found}


def mine_mfi(family, tree: FPTree):
    """The maximal sets of a frequent family: the members that are no member's
    s - {i}. Each one's support is recounted once with itemset_support."""
    covered = {s - {i} for s in family for i in s}
    mfi = {m for m in family if m not in covered}
    for m in mfi:
        if itemset_support(tree, m) != family[m]:
            raise RuntimeError(f"support counts of {sorted(m)} disagree")
    return mfi


class AssociationRule(NamedTuple):
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
    """Frequent-item list, FP-tree, MFI and the frequent family in one go."""
    L = frequent_items(db, minsup_count)
    tree = build_fp_tree(db, L)
    family = frequent_closure(tree, minsup_count)
    return L, tree, mine_mfi(family, tree), family


def mine_levels(db: TransactionDB, minsup_count: int):
    """Mine both hierarchy levels of db; returns {level: (FP-tree, frequent family)}.

    Level 2 holds the fine codes, level 1 their coarse parents, in that order.
    Both the mine command and mine_class_rules go through here; the maximal
    sets are left to the caller that writes them (mine_mfi).
    """
    per_level = {}
    for level, ldb in ((2, db), (1, coarse_collapsed(db))):
        tree = build_fp_tree(ldb, frequent_items(ldb, minsup_count))
        per_level[level] = (tree, frequent_closure(tree, minsup_count))
    return per_level


def generate_rules(family, db: TransactionDB, minsup: Fraction, minconf: Fraction):
    """Class association rules X -> c from a frequent family {itemset: support}."""
    n = len(db)
    if n == 0 or all(t.label is None for t in db.transactions):
        raise ValueError("rule generation requires a labeled transaction database")
    class_items = set(CLASS_ITEMS.values())
    rules = []
    for itemset, sup in family.items():
        present = itemset & class_items
        if len(present) != 1:
            continue
        c = next(iter(present))
        antecedent = itemset - {c}
        if not antecedent or sup * minsup.denominator < minsup.numerator * n:
            continue
        base = family[antecedent]  # a frequent family holds every subset of its members
        if sup * minconf.denominator >= minconf.numerator * base:
            rules.append(
                AssociationRule(
                    antecedent=tuple(sorted(antecedent)),
                    consequent=ITEM_CLASSES[c],
                    support=Fraction(sup, n),
                    confidence=Fraction(sup, base),
                )
            )
    rules.sort(key=lambda r: (-r.confidence, -r.support, r.antecedent))
    return rules


def minsup_fraction_to_count(minsup, n_transactions: int) -> int:
    """Minimum support (the config's float or a Fraction, limited to denominators
    <= 10**9) as a transaction count: the ceiling, and at least 1."""
    return max(1, math.ceil(Fraction(minsup).limit_denominator(10**9) * n_transactions))


def mine_class_rules(db: TransactionDB, minsup, minconf):
    """Mine rules at the fine level and the coarse-collapsed level.

    Returns (rules, per_level) where per_level maps level -> (FP-tree, frequent
    family) of the labelled rows with their class items appended (level 2 =
    fine codes, level 1 = coarse codes).
    """
    minsup = Fraction(minsup).limit_denominator(10**9)
    minconf = Fraction(minconf).limit_denominator(10**9)
    labeled = with_class_items(db)
    count = minsup_fraction_to_count(minsup, len(labeled))
    per_level = mine_levels(labeled, count)
    merged = {}
    for _, family in per_level.values():
        # The coarse database has the same rows and labels, so |D| is shared.
        for rule in generate_rules(family, labeled, minsup, minconf):
            key = (rule.antecedent, rule.consequent)
            prev = merged.get(key)
            if prev is None or rule.confidence > prev.confidence:
                merged[key] = rule
    rules = sorted(merged.values(), key=lambda r: (-r.confidence, -r.support, r.antecedent))
    return rules, per_level


def mfi_to_csv(per_level) -> bytes:
    """The maximal sets of each level's (FP-tree, frequent family), fine level first."""
    rows = []
    for level in sorted(per_level, reverse=True):
        tree, family = per_level[level]
        mfi = [(tuple(sorted(m)), family[m]) for m in mine_mfi(family, tree)]
        for items, sup in sorted(mfi, key=lambda r: (len(r[0]), r[0])):
            rows.append((level, ";".join(str(i) for i in items), sup))
    return csv_text("level,items,support", rows).encode("utf-8")


def rules_to_csv(rules) -> bytes:
    rows = (
        (";".join(str(i) for i in r.antecedent), r.consequent,
         f"{float(r.support):.6f}", f"{float(r.confidence):.6f}")
        for r in rules
    )
    return csv_text("antecedent,class,support,confidence", rows).encode("utf-8")
