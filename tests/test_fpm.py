from fractions import Fraction

import numpy as np
import pytest

from imgmine import fpm
from imgmine.cli import main
from imgmine.fpm import (
    build_fp_tree,
    coarse_collapsed,
    frequent_closure,
    frequent_items,
    generate_rules,
    itemset_support,
    mine_class_rules,
    mine_frequent_family,
    mine_mfi,
    minsup_fraction_to_count,
    with_class_items,
)
from imgmine.segment import (
    CLASS_ITEMS,
    CLASSES,
    NO_OBJECT_ITEM,
    Transaction,
    TransactionDB,
    coarse_item,
    encode_item,
    write_tdb_csv,
)

from oracles import brute_rules, frequent_family, maximal_sets, random_db, support_count


def db_of(*itemsets, labels=None):
    rows = []
    for i, items in enumerate(itemsets):
        label = labels[i] if labels else None
        rows.append(Transaction(tid=f"{i:03d}", items=items, label=label))
    return TransactionDB(transactions=rows)


# ----------------------------------------------------------- frequent_items


def test_frequent_items_seven_tx(seven_tx_db):
    assert frequent_items(seven_tx_db, 3) == [(211, 4), (111, 3), (221, 3), (323, 3)]


def test_frequent_items_above_db_size(seven_tx_db):
    assert frequent_items(seven_tx_db, 8) == []


def test_frequent_items_singleton_db():
    assert frequent_items(db_of((5, 9)), 1) == [(5, 1), (9, 1)]


def test_frequent_items_rejects_zero_minsup(seven_tx_db):
    with pytest.raises(ValueError):
        frequent_items(seven_tx_db, 0)


# ------------------------------------------------------------ build_fp_tree


def test_fp_tree_seven_tx_structure(seven_tx_db):
    L = frequent_items(seven_tx_db, 3)
    tree = build_fp_tree(seven_tx_db, L)
    root = tree.root
    assert set(root.children) == {211, 221, 111, 323}
    n211 = root.children[211]
    assert n211.count == 4
    assert n211.children[111].count == 2
    assert n211.children[111].children[221].count == 2
    assert n211.children[323].count == 2
    assert root.children[221].count == 1
    assert root.children[111].count == 1
    assert root.children[323].count == 1


def test_fp_tree_header_chain_conservation(seven_tx_db):
    L = frequent_items(seven_tx_db, 3)
    tree = build_fp_tree(seven_tx_db, L)
    for entry in tree.header:
        chain_sum = sum(node.count for node in entry.chain())
        brute = support_count([t.items for t in seven_tx_db.transactions], [entry.item])
        assert chain_sum == entry.support == brute


def test_fp_tree_empty_db():
    tree = build_fp_tree(db_of(), [])
    assert tree.root.children == {} and tree.header == []


def test_fp_tree_identical_transactions():
    db = db_of(*([(1, 2, 3)] * 5))
    tree = build_fp_tree(db, frequent_items(db, 1))
    node, depth = tree.root, 0
    while node.children:
        assert len(node.children) == 1
        node = next(iter(node.children.values()))
        assert node.count == 5
        depth += 1
    assert depth == 3


def test_fp_tree_path_order_invariant(seven_tx_db):
    tree = build_fp_tree(seven_tx_db, frequent_items(seven_tx_db, 2))
    stack = [(tree.root, -1)]
    while stack:
        node, rank = stack.pop()
        for child in node.children.values():
            assert tree.rank[child.name] > rank
            stack.append((child, tree.rank[child.name]))


# ---------------------------------------------------------- itemset_support


def test_itemset_support_fixture(seven_tx_db):
    L = frequent_items(seven_tx_db, 3)
    tree = build_fp_tree(seven_tx_db, L)
    assert itemset_support(tree, {211}) == 4
    assert itemset_support(tree, {111, 221}) == 2


def test_itemset_support_absent_item(seven_tx_db):
    tree = build_fp_tree(seven_tx_db, frequent_items(seven_tx_db, 3))
    assert itemset_support(tree, {700}) == 0


def test_itemset_support_empty_tree():
    tree = build_fp_tree(db_of(), [])
    assert itemset_support(tree, {1}) == 0


# ----------------------------------------------------------------- mine_mfi


def test_mfi_seven_tx_minsup3(seven_tx_db):
    L = frequent_items(seven_tx_db, 3)
    tree = build_fp_tree(seven_tx_db, L)
    got = {tuple(sorted(m)) for m in mine_mfi(frequent_closure(tree, 3), tree)}
    assert got == {(111,), (211,), (221,), (323,)}


def test_mfi_seven_tx_minsup2(seven_tx_db):
    L = frequent_items(seven_tx_db, 2)
    tree = build_fp_tree(seven_tx_db, L)
    got = {tuple(sorted(m)) for m in mine_mfi(frequent_closure(tree, 2), tree)}
    assert got == {
        (111, 211, 221),
        (111, 121),
        (211, 323),
        (211, 413),
        (122, 221),
        (323, 524),
        (421,),
    }


def test_mfi_empty_db():
    tree = build_fp_tree(db_of(), [])
    family = frequent_closure(tree, 1)
    assert family == {}
    assert mine_mfi(family, tree) == set()


def test_mfi_recount_catches_a_corrupt_tidset():
    db = db_of((1, 2), (1, 2), (1, 2), (3,))
    L = frequent_items(db, 2)
    tree = build_fp_tree(db, L)
    bits, label_bits = tree.tidsets()
    bits[1] &= bits[1] - 1  # item 1 loses one of its transactions
    tree.tidsets = lambda: (bits, label_bits)
    family = frequent_closure(tree, 2)
    assert family[frozenset({1, 2})] == 2  # the FP-tree's node links still count 3
    with pytest.raises(RuntimeError, match="disagree"):
        mine_mfi(family, tree)


def test_mfi_random_oracle_equivalence():
    rng = np.random.default_rng(42)
    for _ in range(30):
        db = random_db(rng)
        minsup = int(rng.integers(2, 5))
        transactions = [t.items for t in db.transactions]
        fam = frequent_family(transactions, minsup)
        expected = maximal_sets(fam)
        _, _, mfi, closure = mine_frequent_family(db, minsup)
        assert mfi == expected
        assert closure == fam


def assert_family_matches_oracle(db, minsup):
    fam = frequent_family([t.items for t in db.transactions], minsup)
    _, _, mfi, closure = mine_frequent_family(db, minsup)
    assert mfi == maximal_sets(fam)
    assert closure == fam


@pytest.mark.parametrize(
    "rows, minsup",
    [
        # duplicate transactions: one path, every count > 1
        ([(1, 2, 3)] * 3 + [(2, 4)] * 2 + [(1, 2, 3)], 2),
        # (1,) and (1, 2) are strict header-order prefixes of (1, 2, 3): they end at internal nodes
        ([(1, 2, 3), (1, 2, 3), (1, 2), (1,), (2, 3)], 2),
        # (7, 8) has only infrequent items, so it ends at the root
        ([(1, 2), (1, 2), (7, 8), (1, 3), (3,)], 2),
        # every item in every row: all 31 subsets frequent, one maximal set
        ([(1, 2, 3, 4, 5)] * 3, 3),
        # two maximal sets share item 1; {1, 2} and {1, 3} are covered by {1, 2, 3}
        ([(1, 2, 3), (1, 2, 3), (1, 4), (1, 4)], 2),
        # disjoint items: every maximal set is a single item
        ([(1,), (1,), (2,), (2,), (3,)], 2),
        # one transaction of 10 items at minsup 1: 1,023 frequent sets, one maximal set
        ([tuple(range(1, 11))], 1),
        # minsup equal to |D|: only the item in every row is frequent
        ([(1, 2, 3), (1, 2), (1, 3, 4), (1, 2, 4)], 4),
        # 3 is frequent alone but in no frequent pair
        ([(1, 2), (1, 2, 3), (3, 4), (1, 2, 4)], 2),
    ],
)
def test_mfi_search_branches_match_oracle(rows, minsup):
    assert_family_matches_oracle(db_of(*rows), minsup)


def test_mfi_dense_random_oracle_equivalence():
    rng = np.random.default_rng(45)
    for _ in range(40):
        db = random_db(rng, max_items=14, max_transactions=60)
        assert_family_matches_oracle(db, int(rng.integers(2, 6)))


def test_tidsets_count_item_supports():
    """Item bitsets count item supports; label bitsets split every transaction, those
    ending at the root included, one label each."""
    rng = np.random.default_rng(46)
    for _ in range(20):
        db = random_db(rng, max_items=14, max_transactions=60)
        for t in db.transactions:
            t.label = [None, *CLASSES][int(rng.integers(0, 4))]
        tree = build_fp_tree(db, frequent_items(db, 2))
        bits, label_bits = tree.tidsets()
        assert sorted(bits) == sorted(e.item for e in tree.header)
        for entry in tree.header:
            assert bits[entry.item].bit_count() == entry.support
        everything = 0
        for b in bits.values():
            everything |= b
        assert everything.bit_length() <= tree.n_transactions
        labels = [t.label for t in db.transactions]
        assert set(label_bits) == set(labels)
        for label, b in label_bits.items():
            assert b.bit_count() == labels.count(label)
        assert sum(label_bits.values()) == (1 << len(db)) - 1  # disjoint, and all of them


# --------------------------------------------------------- frequent_closure


def test_closure_expands_pair():
    db = db_of((1, 2), (1, 2), (3,))
    L = frequent_items(db, 2)
    tree = build_fp_tree(db, L)
    closure = frequent_closure(tree, 2)
    assert closure == {frozenset({1}): 2, frozenset({2}): 2, frozenset({1, 2}): 2}


def test_closure_seven_tx_minsup3(seven_tx_db):
    _, _, _, closure = mine_frequent_family(seven_tx_db, 3)
    assert closure == {
        frozenset({211}): 4,
        frozenset({111}): 3,
        frozenset({221}): 3,
        frozenset({323}): 3,
    }


def test_closure_order_is_size_then_sorted_items():
    # generate_rules' final sort is stable, so ties keep the family's order
    rng = np.random.default_rng(47)
    for _ in range(10):
        db = random_db(rng, max_items=14, max_transactions=60)
        _, _, _, fam = mine_frequent_family(db, 2)
        keys = [(len(s), sorted(s)) for s in fam]
        assert keys == sorted(keys)


def test_closure_downward_closed():
    rng = np.random.default_rng(43)
    for _ in range(10):
        db = random_db(rng)
        _, _, _, fam = mine_frequent_family(db, 2)
        for s, sup in fam.items():
            for item in s:
                if len(s) > 1:
                    sub = s - {item}
                    assert sub in fam and fam[sub] >= sup


# ------------------------------------------------------------ rule mining


def test_generate_rules_perfect_association():
    labels = ["benign"] * 3 + ["normal"] * 7
    db = db_of(*([(101,)] * 3 + [(102,)] * 7), labels=labels)
    labeled = with_class_items(db)
    _, _, _, freq = mine_frequent_family(labeled, 1)
    rules = generate_rules(freq, labeled, Fraction(1, 10), Fraction(97, 100))
    by_key = {(r.antecedent, r.consequent): r for r in rules}
    r = by_key[((101,), "benign")]
    assert r.support == Fraction(3, 10) and r.confidence == 1


def test_generate_rules_low_confidence_dropped():
    labels = ["benign", "benign", "normal"]
    db = db_of((101,), (101,), (101,), labels=labels)
    labeled = with_class_items(db)
    _, _, _, freq = mine_frequent_family(labeled, 1)
    rules = generate_rules(freq, labeled, Fraction(1, 10), Fraction(97, 100))
    assert all(r.antecedent != (101,) or r.consequent != "benign" for r in rules)


def test_generate_rules_keeps_a_rule_at_both_thresholds_exactly():
    labels = ["benign"] * 3 + ["normal"] * 7
    db = db_of(*([(101,)] * 4 + [(102,)] * 6), labels=labels)  # 101 -> benign: 3 of 10, 3 of 4
    labeled = with_class_items(db)
    _, _, _, freq = mine_frequent_family(labeled, 1)
    key = ((101,), "benign")
    rules = generate_rules(freq, labeled, Fraction(3, 10), Fraction(3, 4))
    r = {(r.antecedent, r.consequent): r for r in rules}[key]
    assert r.support == Fraction(3, 10) and r.confidence == Fraction(3, 4)
    for minsup, minconf in ((Fraction(31, 100), Fraction(3, 4)), (Fraction(3, 10), Fraction(76, 100))):
        rules = generate_rules(freq, labeled, minsup, minconf)
        assert key not in {(r.antecedent, r.consequent) for r in rules}


def test_generate_rules_unlabeled_errors(seven_tx_db):
    with pytest.raises(ValueError):
        generate_rules([], seven_tx_db, Fraction(1, 10), Fraction(1, 2))


def test_generate_rules_random_oracle_equivalence():
    rng = np.random.default_rng(44)
    class_items = sorted(CLASS_ITEMS.values())
    for _ in range(20):
        db = random_db(rng, max_items=8, max_transactions=15, labeled=True)
        labeled = with_class_items(db)
        minsup, minconf = Fraction(1, 10), Fraction(1, 2)
        _, _, _, freq = mine_frequent_family(labeled, 1)
        rules = generate_rules(freq, labeled, minsup, minconf)
        got = {
            (frozenset(r.antecedent), CLASS_ITEMS[r.consequent], r.support * len(labeled))
            for r in rules
        }
        expected = brute_rules(
            [t.items for t in labeled.transactions], class_items, minsup, minconf
        )
        assert got == expected


# ------------------------------------------------------------- hierarchy


def test_coarse_collapsed():
    db = db_of((111, 122, 999), labels=["normal"])
    coarse = coarse_collapsed(db)
    assert coarse.transactions[0].items == (110, 120, 999)


def test_mine_class_rules_two_levels():
    labels = ["benign"] * 5 + ["normal"] * 5
    db = db_of(*([(111, 122)] * 5 + [(999,)] * 5), labels=labels)
    rules, per_level = mine_class_rules(db, 0.10, 0.97)
    assert list(per_level) == [2, 1]
    antecedents = {r.antecedent for r in rules}
    assert (111, 122) in antecedents  # fine level
    assert (110, 120) in antecedents  # coarse level
    assert all(r.confidence >= Fraction(97, 100) for r in rules)


# ------------------------------------------------- one mining pass per level


def feature_db(rng, mixed=False):
    """Random TDB over the fine codes of two features, so the coarse level merges
    them; with mixed, every fourth row has no label."""
    universe = [encode_item(feature, fine) for feature in (1, 2) for fine in (1, 2, 3, 4)]
    rows = []
    for i in range(int(rng.integers(6, 25))):
        items = rng.choice(universe, size=int(rng.integers(1, 6)), replace=False).tolist()
        label = None if mixed and i % 4 == 3 else CLASSES[int(rng.integers(0, 3))]
        rows.append(Transaction(tid=f"{i:03d}", items=tuple(sorted(items)), label=label))
    return TransactionDB(transactions=rows)


def level_rows(db):
    """{level: item sets}: level 2 the fine codes, level 1 their coarse parents."""
    return {2: [set(t.items) for t in db.transactions],
            1: [{coarse_item(i) for i in t.items} for t in db.transactions]}


@pytest.mark.parametrize("mixed", [False, True])
def test_mine_rules_writes_the_mfi_of_mine_alone(tmp_path, monkeypatch, mixed):
    """Every mine builds one FP-tree per level, labelled or mixed, with or without
    --rules; the MFI CSV is the same either way, and the brute force's."""
    trees = []
    real_build = fpm.build_fp_tree
    monkeypatch.setattr(fpm, "build_fp_tree", lambda *a: trees.append(a) or real_build(*a))
    rng = np.random.default_rng(61 + mixed)
    for k in range(15):
        db = feature_db(rng, mixed)
        tdb = tmp_path / f"t{k}.csv"
        tdb.write_bytes(write_tdb_csv(db))
        minsup = float(rng.choice([0.1, 0.2, 0.3]))
        flags = ["--minsup", str(minsup), "--minconf", "0.5"]
        alone, with_rules = tmp_path / f"alone{k}.csv", tmp_path / f"with{k}.csv"
        trees.clear()
        assert main(["mine", str(tdb), "--mfi", str(alone), *flags]) == 0
        assert len(trees) == 2
        trees.clear()
        rules = ["--rules", str(tmp_path / f"rules{k}.csv")]
        assert main(["mine", str(tdb), "--mfi", str(with_rules), *rules, *flags]) == 0
        assert len(trees) == 2
        assert with_rules.read_bytes() == alone.read_bytes()

        count = minsup_fraction_to_count(minsup, len(db))
        expected = set()
        for level, rows in level_rows(db).items():
            fam = frequent_family(rows, count)
            expected |= {(level, tuple(sorted(m)), fam[m]) for m in maximal_sets(fam)}
        got = {
            (int(level), tuple(int(i) for i in items.split(";")), int(sup))
            for level, items, sup in (line.split(",") for line in alone.read_text().splitlines()[1:])
        }
        assert got == expected


def test_mine_rules_on_a_labelled_tdb_still_recounts_the_mfi(tmp_path, monkeypatch):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(write_tdb_csv(feature_db(np.random.default_rng(5))))
    monkeypatch.setattr(fpm, "itemset_support", lambda tree, itemset: -1)
    with pytest.raises(RuntimeError, match="disagree"):
        main(["mine", str(tdb), "--mfi", str(tmp_path / "m.csv"), "--rules", str(tmp_path / "r.csv")])


def mixed_label_dbs(rng):
    """Seeded TDBs whose labelled minsup count falls below the all-rows count, each with
    one of: a class too rare for the labelled count, labelled rows whose every item is
    infrequent (they end at the root), exactly one labelled row, or no label."""
    universe = [encode_item(feature, fine) for feature in (1, 2) for fine in (1, 2, 3, 4)]
    for case in range(12):
        n = int(rng.integers(12, 30))
        rows = []
        for i in range(n):
            items = rng.choice(universe, size=int(rng.integers(1, 6)), replace=False).tolist()
            label = CLASSES[int(rng.integers(0, 2))] if i % 3 else None
            if case % 4 == 0 and i == 1:
                label = "malignant"  # one row: below the labelled count at minsup 0.2
            if case % 4 == 1 and i % 3 == 1:
                items = [600 + 10 * i + case]  # seen once, so it ends at the root
            if case % 4 == 2:
                label = "benign" if i == 1 else None
            if case % 4 == 3:
                label = None
            rows.append(Transaction(tid=f"{i:03d}", items=tuple(sorted(items)), label=label))
        yield TransactionDB(transactions=rows)


def test_mine_class_rules_recounts_nothing_and_matches_brute_rules(monkeypatch):
    """Each level's one tree counts every row; its family is the all-rows brute force,
    and the rules are brute_rules over the labelled rows with their class items."""
    recounts = []
    monkeypatch.setattr(fpm, "itemset_support", lambda *a: recounts.append(a))
    rng = np.random.default_rng(67)
    class_items = sorted(CLASS_ITEMS.values())
    dbs = [feature_db(rng, mixed=True) for _ in range(10)] + list(mixed_label_dbs(rng))
    below = at_root = 0
    for db in dbs:
        for minsup, minconf in ((Fraction(1, 10), Fraction(1, 2)), (Fraction(1, 5), Fraction(2, 3))):
            rules, per_level = mine_class_rules(db, minsup, minconf)
            labeled = with_class_items(db)
            count = minsup_fraction_to_count(minsup, len(db))
            labeled_count = minsup_fraction_to_count(minsup, len(labeled))
            below += labeled.transactions != [] and labeled_count < count
            expected = set()
            for level, rows in level_rows(db).items():
                tree, family = per_level[level]
                assert tree.n_transactions == len(db)
                assert family == frequent_family(rows, count)
                at_root += any(label is not None for label in tree.root.labels)
            if labeled.transactions:
                for rows in level_rows(labeled).values():
                    expected |= brute_rules(rows, class_items, minsup, minconf)
            got = {
                (frozenset(r.antecedent), CLASS_ITEMS[r.consequent], r.support * len(labeled))
                for r in rules
            }
            assert got == expected
    assert below >= 12 and at_root > 0
    assert recounts == []


def test_frequent_closure_fills_the_labelled_family_in_the_same_pass():
    """The labelled family is the frequent family of the labelled rows with their class
    items, over the labelled count, in the same size-then-items order."""
    rng = np.random.default_rng(71)
    for db in list(mixed_label_dbs(rng)) + [feature_db(rng, mixed=True) for _ in range(10)]:
        labeled = with_class_items(db)
        count = minsup_fraction_to_count(Fraction(1, 5), len(db))
        labeled_count = minsup_fraction_to_count(Fraction(1, 5), len(labeled))
        for level, rows in level_rows(labeled).items():
            ldb = db if level == 2 else coarse_collapsed(db)
            tree = build_fp_tree(ldb, frequent_items(ldb, labeled_count))
            family = {}
            assert frequent_closure(tree, count, (labeled_count, family)) == frequent_closure(tree, count)
            assert family == frequent_family(rows, labeled_count)
            keys = [(len(s), sorted(s)) for s in family]
            assert keys == sorted(keys)


def test_mine_without_a_label_writes_the_mfi_and_rules_exit_3(tmp_path, capsys):
    db = next(d for i, d in enumerate(mixed_label_dbs(np.random.default_rng(3))) if i == 3)
    assert all(t.label is None for t in db.transactions)
    tdb, mfi, rules = tmp_path / "t.csv", tmp_path / "m.csv", tmp_path / "r.csv"
    tdb.write_bytes(write_tdb_csv(db))
    assert main(["mine", str(tdb), "--mfi", str(mfi)]) == 0
    alone = mfi.read_bytes()
    mfi.unlink()
    assert main(["mine", str(tdb), "--mfi", str(mfi), "--rules", str(rules)]) == 3
    assert "has no labels" in capsys.readouterr().err
    assert mfi.read_bytes() == alone and len(alone.splitlines()) > 1
    assert not rules.exists()


def test_a_rule_mined_at_both_levels_has_equal_support_and_confidence():
    """In a TDB that features writes, only the pass-through no-object code can form an
    antecedent at both levels, and it counts the same rows at each."""
    rng = np.random.default_rng(73)
    universe = [encode_item(feature, fine) for feature in (1, 2, 3) for fine in (1, 2, 3, 4)]
    shared = 0
    for _ in range(20):
        rows = []
        for i in range(int(rng.integers(10, 30))):
            items = rng.choice(universe, size=int(rng.integers(1, 6)), replace=False).tolist()
            if rng.random() < 0.3:
                items = [NO_OBJECT_ITEM]
            label = CLASSES[int(rng.integers(0, 3))] if i % 4 else None
            rows.append(Transaction(tid=f"{i:03d}", items=tuple(items), label=label))
        db = TransactionDB(transactions=rows)
        minsup, minconf = Fraction(1, 10), Fraction(1, 3)
        _, per_level = mine_class_rules(db, minsup, minconf)
        labeled = TransactionDB(transactions=[t for t in rows if t.label is not None])
        count = minsup_fraction_to_count(minsup, len(labeled))
        by_level = []
        for tree, _ in per_level.values():
            family = {}
            frequent_closure(tree, minsup_fraction_to_count(minsup, len(db)), (count, family))
            by_level.append({(r.antecedent, r.consequent): r
                             for r in generate_rules(family, labeled, minsup, minconf)})
        fine, coarse = by_level
        for key in fine.keys() & coarse.keys():
            assert key[0] == (NO_OBJECT_ITEM,)
            assert fine[key] == coarse[key]
            shared += 1
    assert shared > 0


def test_the_level_merge_keeps_the_more_confident_rule():
    """A hand-written TDB may hold a coarse code such as 110 itself. Then (110,) counts
    different rows at the two levels, and the merged rule is the more confident one."""
    rows = [((110,), "normal"), ((110,), "benign"), ((111,), "benign"), ((111,), "benign"),
            ((111,), "benign"), ((211,), "normal"), ((211,), "normal"), ((211,), "normal")]
    db = db_of(*(items for items, _ in rows), labels=[label for _, label in rows])
    rules, _ = mine_class_rules(db, Fraction(1, 10), Fraction(1, 2))
    merged = {(r.antecedent, r.consequent): r for r in rules}
    assert merged[((110,), "benign")].support == Fraction(4, 8)  # coarse: 4 of 5 rows
    assert merged[((110,), "benign")].confidence == Fraction(4, 5)  # fine: 1 of 2
    assert merged[((110,), "normal")].confidence == Fraction(1, 2)  # fine only
