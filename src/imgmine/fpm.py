"""FP-tree construction, frequent itemset mining and class rules: one depth-first
pass finds the frequent family, and the maximal sets are read off it."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .segment import CLASS_ITEMS, ITEM_CLASSES, Transaction, TransactionDB, coarse_item, csv_text


class FPNode:
    __slots__ = ("name", "count", "parent", "children", "labels", "_path_items")

    def __init__(self, name, parent=None):
        self.name = name
        self.count = 0
        self.parent = parent
        self.children = {}  # item -> FPNode, insertion-ordered
        self.labels = {}  # label (None: unlabelled) -> transactions ending here
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

    def insert(self, items, label):
        """Insert one transaction already filtered and sorted in header order; its label
        is counted at the node where it ends (the root, when no item is left)."""
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
        node.labels[label] = node.labels.get(label, 0) + 1

    def tidsets(self):
        """(item -> bitset of the transactions holding it, label -> bitset of the
        transactions carrying it). Transactions are numbered in preorder, each node taking
        those that end at it one label at a time, so the node.count transactions through
        a node are consecutive bits."""
        bits = {entry.item: 0 for entry in self.header}
        label_bits = {}
        pos = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.name is not None:
                bits[node.name] |= ((1 << node.count) - 1) << pos
            for label, k in node.labels.items():
                label_bits[label] = label_bits.get(label, 0) | ((1 << k) - 1) << pos
                pos += k
            stack.extend(node.children.values())
        return bits, label_bits


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
        tree.insert(filtered, t.label)
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


def frequent_closure(tree: FPTree, minsup_count: int, labelled=None):
    """The frequent family {itemset: support}, by size, then by sorted items: one
    depth-first pass over the tree's transaction bitsets, items in ascending code
    order. A frequent set's children each add one later item that keeps it frequent,
    and a child's bitset is its parent's ANDed with that item's.

    With labelled = (count, dict), the same pass fills the dict, in the same order, with
    the labelled family at count: sets counted over the labelled rows, and each with
    class c's item over c's rows. A set is then extended while either family keeps it."""
    bits, label_bits = tree.tidsets()
    labelled_count, labelled_family = labelled or (math.inf, {})
    classes = sorted((CLASS_ITEMS[c], b) for c, b in label_bits.items() if c is not None)
    mask = sum(b for _, b in classes)  # the labelled rows, as label bitsets are disjoint
    found = []  # (size, items in ascending order, support, labelled support)

    def search(head, tail):
        # tail: the later items whose union with head either family keeps, with its bitset
        for k, (item, s_bits) in enumerate(tail):
            s = head + (item,)
            labelled_support = (s_bits & mask).bit_count()
            found.append((len(s), s, s_bits.bit_count(), labelled_support))
            if labelled_support >= labelled_count:
                for code, c_bits in classes:
                    c_support = (s_bits & c_bits).bit_count()
                    if c_support >= labelled_count:
                        found.append((len(s) + 1, tuple(sorted(s + (code,))), 0, c_support))
            later = ((j, s_bits & bits[j]) for j, _ in tail[k + 1 :])
            search(s, [(j, b) for j, b in later
                       if b.bit_count() >= minsup_count or (b & mask).bit_count() >= labelled_count])

    # The first tail holds every tree item; the filters below drop those neither family keeps.
    search((), [(item, bits[item]) for item in sorted(bits)])
    found += [(1, (code,), 0, b.bit_count()) for code, b in classes]
    found.sort()
    labelled_family.update((frozenset(s), n) for _, s, _, n in found if n >= labelled_count)
    return {frozenset(s): n for _, s, n, _ in found if n >= minsup_count}


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
    """Mine both hierarchy levels of every row, one FP-tree and one search each, the
    labels counted in the tree's nodes. Returns (rules, per_level): the labelled rows'
    class rules (none without a label), and {level: (FP-tree, frequent family)} over
    every row, fine codes' level 2 first, then coarse codes' level 1."""
    minsup = Fraction(minsup).limit_denominator(10**9)
    minconf = Fraction(minconf).limit_denominator(10**9)
    labeled = TransactionDB(transactions=[t for t in db.transactions if t.label is not None])
    count = minsup_fraction_to_count(minsup, len(db))
    # Never above count, as |labelled| <= |D|, so the tree's items serve both families.
    labeled_count = minsup_fraction_to_count(minsup, len(labeled) or len(db))
    per_level, merged = {}, {}
    for level, ldb in ((2, db), (1, coarse_collapsed(db))):
        tree = build_fp_tree(ldb, frequent_items(ldb, labeled_count))
        family = {}
        per_level[level] = (tree, frequent_closure(tree, count, (labeled_count, family)))
        if not labeled.transactions:
            continue
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
