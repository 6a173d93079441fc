import math
import random

import pytest

from deamort.poptart import (
    CherryPopTart,
    ChocolatePopTart,
    PopTartEmptyError,
    PopTartLeaf,
    VanillaPopTart,
    make_poptart,
)


def _leaf(i, w=1.0):
    return PopTartLeaf(id=i, weight=w)


def test_lifo_basic():
    for kind in ("vanilla", "cherry", "chocolate"):
        pt = make_poptart(kind)
        pt.push(_leaf(1))
        pt.push(_leaf(2))
        rec, _ = pt.pop()
        assert rec.id == 2
        rec, _ = pt.pop()
        assert rec.id == 1


def test_pop_empty_errors():
    for kind in ("vanilla", "cherry", "chocolate"):
        with pytest.raises(PopTartEmptyError):
            make_poptart(kind).pop()


@pytest.mark.parametrize("kind", ["vanilla", "cherry", "chocolate"])
@pytest.mark.parametrize("mirror", [False, True])
def test_duplicate_key_fails_the_audit(kind, mirror):
    pt = make_poptart(kind, mirror=mirror)
    for i in range(5):
        pt.push(_leaf(i))
    assert pt.check_invariants().ok
    eng = pt.engine
    top = eng.root
    eng.key[pt.pchild(top)] = eng.key[top]  # the top leaf now ties its parent
    rep = pt.check_invariants()
    assert not rep.ok
    assert "symmetric key order broken" in rep.errors


@pytest.mark.parametrize("kind", ["vanilla", "cherry", "chocolate"])
@pytest.mark.parametrize("mirror", [False, True])
def test_lifo_oracle_randomized(kind, mirror):
    rng = random.Random(hash((kind, mirror)) & 0xFFFF)
    pt = make_poptart(kind, mirror=mirror)
    oracle = []
    nid = total = 0
    for _ in range(4000):
        if oracle and rng.random() < 0.45:
            rec, cost = pt.pop()
            assert rec.id == oracle.pop()
        else:
            nid += 1
            w = rng.choice([1.0, 2.5, 10.0])
            cost = pt.push(_leaf(nid, w))
            oracle.append(nid)
        total += cost
    assert len(pt) == len(oracle)
    assert total == len(pt.engine.ops)


@pytest.mark.parametrize("kind", ["cherry", "chocolate"])
def test_invariants_after_every_op_small_scripts(kind):
    rng = random.Random(3 if kind == "cherry" else 4)
    for script in range(250):
        pt = make_poptart(kind)
        live = 0
        nid = 0
        for step in range(rng.randint(1, 40)):
            if live and rng.random() < 0.45:
                pt.pop()
                live -= 1
            else:
                nid += 1
                w = math.exp(rng.uniform(0, 10)) if kind == "chocolate" else 1.0
                pt.push(_leaf(nid, w))
                live += 1
            rep = pt.check_invariants()
            assert rep.ok, (kind, script, step, rep.errors)


def test_cherry_four_pushes_overflow():
    pt = CherryPopTart()
    for i in range(1, 5):
        pt.push(_leaf(i))
    # layer 0 overflowed: two nodes remain, one node carrying a 1-crumb moved down
    assert [len(l) for l in pt.layers] == [2, 1]
    rep = pt.check_invariants()
    assert rep.ok, rep.errors
    eng = pt.engine
    c = pt.pchild(pt.layers[1][0])
    assert not eng.is_leaf(c)  # 1-crumb root is internal with two leaf children
    assert eng.is_leaf(eng.left[c]) and eng.is_leaf(eng.right[c])


def test_cherry_pop_pulls_from_next_layer():
    pt = CherryPopTart()
    for i in range(1, 5):
        pt.push(_leaf(i))
    pt.pop()
    pt.pop()
    assert [len(l) for l in pt.layers] == [2]  # the 1-crumb split back into layer 0
    assert pt.check_invariants().ok


def test_cherry_never_exceeds_three_per_layer():
    rng = random.Random(8)
    pt = CherryPopTart()
    live = 0
    nid = 0
    for _ in range(2000):
        if live and rng.random() < 0.4:
            pt.pop()
            live -= 1
        else:
            nid += 1
            pt.push(_leaf(nid))
            live += 1
        assert all(1 <= len(l) <= 3 for l in pt.layers)


def test_cherry_unweighted_height_bound():
    rng = random.Random(12)
    for trial in range(30):
        pt = CherryPopTart()
        live, nid = 0, 0
        for _ in range(rng.randint(10, 600)):
            if live and rng.random() < 0.35:
                pt.pop()
                live -= 1
            else:
                nid += 1
                pt.push(_leaf(nid))
                live += 1
            if live:
                n = max(live, 2)
                assert pt.height() <= 4 * math.log2(n) + 4


def test_cherry_increasing_weights_depth_bound():
    rng = random.Random(21)
    pt = CherryPopTart()
    w = 1.0
    recs = []
    for i in range(400):
        w *= 1.0 + rng.random()
        pt.push(_leaf(i, w))
        recs.append(w)
    eng = pt.engine
    by_weight = sorted(((eng.weight[lf], lf) for lf in eng.leaf_rec), reverse=True)
    for rank, (w, lf) in enumerate(by_weight, start=1):
        assert eng.leaf_depth(lf) <= 4 * math.log2(rank) + 4


def test_vanilla_depth_bound_doubling_weights():
    pt = VanillaPopTart()
    total = 0.0
    w = 1.0
    for i in range(40):
        if total:
            w = total * (1.0 + (i % 3) * 0.5)
        pt.push(_leaf(i, w))
        total += w
        W = pt.total_weight()
        for lw, d in pt.leaf_depths():
            assert d <= 1 + math.log2(W / lw) + 1e-9


def test_vanilla_spec_weights():
    pt = VanillaPopTart()
    pt.push(_leaf(0, 1.0))
    pt.push(_leaf(1, 2.0))
    pt.push(_leaf(2, 4.0))
    eng = pt.engine
    depths = {eng.weight[lf]: eng.leaf_depth(lf) for lf in eng.leaf_rec}
    assert depths[4.0] == 1
    assert depths[4.0] <= 1 + math.log2(7 / 4)


def test_vanilla_push_pop_cost_constant():
    pt = VanillaPopTart()
    for i in range(100):
        assert pt.push(_leaf(i)) <= 1
    for _ in range(100):
        assert pt.pop()[1] <= 1


def test_chocolate_depth_bound_random_weighted():
    rng = random.Random(5)
    for trial in range(40):
        pt = ChocolatePopTart()
        live, nid = 0, 0
        for _ in range(rng.randint(5, 300)):
            if live and rng.random() < 0.4:
                pt.pop()
                live -= 1
            else:
                nid += 1
                pt.push(_leaf(nid, math.exp(rng.uniform(0, 14))))
                live += 1
            if live:
                W = pt.total_weight()
                for lw, d in pt.leaf_depths():
                    assert d <= 6 + 7 * math.log2(W / lw) + 1e-9, (trial, live)


@pytest.mark.parametrize("kind", ["chocolate", "cherry"])
def test_chocolate_slack_tracker_matches_scan(kind):
    """The engine's climbed leaf scores match a scan of every leaf: the
    chocolate slack with weighted leaves, the cherry height with unit ones."""
    rng = random.Random(6)
    pt = make_poptart(kind)
    live, nid = 0, 0
    for _ in range(500):
        if live and rng.random() < 0.4:
            pt.pop()
            live -= 1
        else:
            nid += 1
            pt.push(_leaf(nid, math.exp(rng.uniform(0, 8)) if kind == "chocolate" else 1.0))
            live += 1
        if live:
            if kind == "cherry":
                assert pt.height() == max(d for _, d in pt.leaf_depths())
            else:
                scan = max(d + 7 * math.log2(w) for w, d in pt.leaf_depths())
                assert abs(pt.max_leaf_slack() - scan) < 1e-6


def test_chocolate_frost_on_heavy_successor():
    # Unit pushes: the very first overflow creates a successor layer that
    # outweighs the (empty) icing, so it is frosted immediately and layer 0
    # ends up as the last layer with two regular nodes and no next node.
    pt = ChocolatePopTart()
    for i in range(4):
        pt.push(_leaf(i))
    lay0 = pt.layers[0]
    assert len(pt.layers) == 1
    assert len(lay0.regs) == 2 and lay0.next_node == 0
    assert len(lay0.icing) == 1
    assert pt.check_invariants().ok


def test_chocolate_light_successor_not_frosted():
    # A very heavy frosted suffix dominates the icing, so later light
    # overflows keep a live successor layer below the next node.
    pt = ChocolatePopTart()
    for i in range(4):
        pt.push(_leaf(i, 1000.0))
    for i in range(4, 12):
        pt.push(_leaf(i, 1.0))
    lay0 = pt.layers[0]
    assert lay0.next_node != 0
    assert len(pt.layers) >= 2
    assert lay0.icing
    assert pt.check_invariants().ok


def test_chocolate_defrost_on_pop():
    pt = ChocolatePopTart()
    for i in range(4):
        pt.push(_leaf(i))
    assert len(pt.layers[0].icing) == 1
    pt.pop()
    pt.pop()
    # layer 0 drained; the frosted crumb thaws back into two regular nodes
    assert pt.layers and len(pt.layers[0].regs) == 2
    assert not pt.layers[0].icing
    assert pt.check_invariants().ok
    assert pt.pop()[0].id == 1
    assert pt.pop()[0].id == 0
    assert len(pt) == 0


def test_chocolate_deep_script_drain():
    rng = random.Random(77)
    pt = ChocolatePopTart()
    ids = []
    for i in range(600):
        pt.push(_leaf(i, math.exp(rng.uniform(0, 6))))
        ids.append(i)
    while ids:
        rec, _ = pt.pop()
        assert rec.id == ids.pop()
        rep = pt.check_invariants()
        assert rep.ok, rep.errors
    assert len(pt) == 0


def test_worst_case_single_op_logarithmic():
    rng = random.Random(10)
    for kind in ("cherry", "chocolate"):
        pt = make_poptart(kind)
        live, nid = 0, 0
        for _ in range(3000):
            if live and rng.random() < 0.45:
                _, cost = pt.pop()
            else:
                nid += 1
                cost = pt.push(_leaf(nid))
                live += 1
                continue
            live -= 1
            bound = 12 * math.log2(max(live + 2, 2)) + 12
            assert cost <= bound


def test_amortized_constant_over_script():
    rng = random.Random(11)
    for kind in ("cherry", "chocolate"):
        pt = make_poptart(kind)
        total, m, live, nid = 0, 0, 0, 0
        for _ in range(20000):
            if live and rng.random() < 0.48:
                _, cost = pt.pop()
                live -= 1
            else:
                nid += 1
                cost = pt.push(_leaf(nid, rng.choice([1.0, 3.0, 9.0])))
                live += 1
            total += cost
            m += 1
        assert total <= 8 * m + 16


def test_dump_cherry_after_four_pushes():
    pt = CherryPopTart()
    for i in range(4):
        pt.push(_leaf(i))
    text = pt.dump()
    assert "[reg 0]" in text and "[reg 1]" in text and "[crumb 1]" in text
    assert text == (
        "elem -8 [reg 0]\n"
        "  leaf -9 (1)\n"
        "elem -6 [reg 0]\n"
        "  leaf -7 (1)\n"
        "  elem -2 [reg 1]\n"
        "    node -4 [crumb 1]\n"
        "      leaf -5 (1)\n"
        "      leaf -3 (1)\n"
    )


def test_dump_chocolate_mentions_roles():
    pt = ChocolatePopTart()
    for i in range(8):
        pt.push(_leaf(i, float(1 + i)))
    text = pt.dump()
    assert "[reg 0]" in text
    assert "[icing]" in text or "[next 0]" in text
