"""Membership specs, validation, class partition, and rank machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import igrover as ig
from igrover.instance import Members, Modular, _subset_violation, spec_from_json
from conftest import random_instance


def brute_members(spec, n):
    return [i for i in range(n) if spec.contains(i)]


class TestSpecKinds:
    def test_list_roundtrip(self):
        spec = ig.instance.spec_from_json({"kind": "list", "members": [1, 5, 9]})
        assert spec == ig.Members((1, 5, 9))
        assert spec.to_json() == {"kind": "list", "members": [1, 5, 9]}

    def test_range_roundtrip(self):
        spec = ig.instance.spec_from_json({"kind": "range", "lo": 3, "hi": 7})
        assert spec == ig.Range(3, 7)
        assert spec.to_json() == {"kind": "range", "lo": 3, "hi": 7}

    def test_mod_roundtrip(self):
        spec = ig.instance.spec_from_json({"kind": "mod", "m": 64, "r": 0})
        assert spec == ig.Modular(64, 0)
        assert spec.to_json() == {"kind": "mod", "m": 64, "r": 0}

    @pytest.mark.parametrize("bad", [
        {"kind": "set", "members": [1]},
        {"kind": "list", "members": [3, 1]},
        {"kind": "list", "members": [1, 1, 2]},
        {"kind": "list", "members": [1, "2"]},
        {"kind": "list", "members": [True]},
        {"kind": "range", "lo": 5, "hi": 2},
        {"kind": "range", "lo": 0.5, "hi": 2},
        {"kind": "mod", "m": 0, "r": 0},
        {"kind": "mod", "m": 4, "r": 4},
        {"kind": "mod", "m": 4, "r": -1},
        "not an object",
    ])
    def test_malformed_specs(self, bad):
        with pytest.raises(ig.SpecFormatError):
            ig.instance.spec_from_json(bad)

    def test_rank_queries_match_enumeration(self):
        rng = np.random.default_rng(11)
        n = 200
        specs = [
            ig.Members(tuple(sorted(rng.choice(n, size=17, replace=False).tolist()))),
            ig.Range(23, 61),
            ig.Modular(7, 3),
            ig.Modular(1, 0),
        ]
        for spec in specs:
            members = brute_members(spec, n)
            assert spec.size(n) == len(members)
            for j, v in enumerate(members):
                assert spec.kth(j, n) == v
            for t in range(n):
                assert spec.count_leq(t, n) == sum(1 for v in members if v <= t)


class TestBuildInstance:
    def test_mod_partition_counts(self):
        inst = ig.build_instance({
            "n": 1024,
            "x": {"kind": "mod", "m": 64, "r": 0},
            "y": {"kind": "list", "members": [0]},
        })
        counts = ig.partition_classes(inst)
        assert (counts.k11, counts.k10, counts.k00) == (1, 15, 1008)

    def test_partition_sums_to_n(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            inst = random_instance(rng, n_hi=512)
            c = ig.partition_classes(inst)
            assert c.k11 + c.k10 + c.k00 == c.n == inst.n
            assert c.k11 == inst.y_size >= 1

    def test_empty_sets_rejected(self):
        with pytest.raises(ig.EmptyX):
            ig.build_instance({"n": 8, "x": {"kind": "list", "members": []},
                               "y": {"kind": "list", "members": [0]}})
        with pytest.raises(ig.EmptyY):
            ig.build_instance({"n": 8, "x": {"kind": "range", "lo": 0, "hi": 3},
                               "y": {"kind": "list", "members": []}})
        # a mod rule whose residue lies past n-1 matches nothing
        with pytest.raises(ig.EmptyX):
            ig.build_instance({"n": 8, "x": {"kind": "mod", "m": 100, "r": 50},
                               "y": {"kind": "list", "members": [0]}})

    def test_out_of_range_members(self):
        with pytest.raises(ig.IndexOutOfRange):
            ig.build_instance({"n": 8, "x": {"kind": "list", "members": [0, 8]},
                               "y": {"kind": "list", "members": [0]}})
        with pytest.raises(ig.IndexOutOfRange):
            ig.build_instance({"n": 8, "x": {"kind": "range", "lo": -1, "hi": 3},
                               "y": {"kind": "list", "members": [0]}})

    @pytest.mark.parametrize("bad", [
        "not an object",
        {"n": 1, "x": {"kind": "range", "lo": 0, "hi": 0},
         "y": {"kind": "range", "lo": 0, "hi": 0}},
        {"n": 8, "x": {"kind": "range", "lo": 0, "hi": 3}},
        {"n": "8", "x": {"kind": "range", "lo": 0, "hi": 3},
         "y": {"kind": "list", "members": [0]}},
    ])
    def test_malformed_instances(self, bad):
        with pytest.raises(ig.SpecFormatError):
            ig.build_instance(bad)

    def test_not_subset_reports_a_real_violator(self):
        cases = [
            # (x, y) spec pairs where Y is not inside X, across kind mixes
            ({"kind": "range", "lo": 0, "hi": 7}, {"kind": "list", "members": [5, 9]}),
            ({"kind": "range", "lo": 4, "hi": 7}, {"kind": "range", "lo": 2, "hi": 5}),
            ({"kind": "mod", "m": 4, "r": 0}, {"kind": "list", "members": [0, 6]}),
            ({"kind": "mod", "m": 4, "r": 0}, {"kind": "range", "lo": 8, "hi": 9}),
            ({"kind": "mod", "m": 4, "r": 0}, {"kind": "mod", "m": 4, "r": 2}),
            ({"kind": "mod", "m": 4, "r": 0}, {"kind": "mod", "m": 6, "r": 0}),
            ({"kind": "list", "members": [0, 2, 4]}, {"kind": "range", "lo": 2, "hi": 3}),
            ({"kind": "list", "members": [0, 2, 4]}, {"kind": "mod", "m": 2, "r": 0}),
        ]
        n = 16
        for x, y in cases:
            with pytest.raises(ig.NotSubset) as err:
                ig.build_instance({"n": n, "x": x, "y": y})
            v = err.value.index
            x_spec = ig.instance.spec_from_json(x)
            y_spec = ig.instance.spec_from_json(y)
            assert y_spec.contains(v) and not x_spec.contains(v)

    def test_subset_accepted_across_kinds(self):
        good = [
            ({"kind": "mod", "m": 4, "r": 1}, {"kind": "mod", "m": 8, "r": 5}),
            ({"kind": "mod", "m": 1, "r": 0}, {"kind": "range", "lo": 3, "hi": 9}),
            ({"kind": "mod", "m": 4, "r": 0}, {"kind": "list", "members": [4, 12]}),
            ({"kind": "range", "lo": 2, "hi": 14}, {"kind": "mod", "m": 3, "r": 2}),
            ({"kind": "list", "members": [1, 3, 7]}, {"kind": "list", "members": [3]}),
        ]
        for x, y in good:
            inst = ig.build_instance({"n": 16, "x": x, "y": y})
            for i in range(16):
                assert not inst.in_y(i) or inst.in_x(i)


class TestClassQueries:
    def test_verify_outcome(self):
        inst = ig.build_instance({"n": 16, "x": {"kind": "range", "lo": 0, "hi": 3},
                                  "y": {"kind": "list", "members": [2]}})
        assert ig.verify_outcome(inst, 2) is True
        assert ig.verify_outcome(inst, 1) is False
        assert ig.verify_outcome(inst, 12) is False
        with pytest.raises(ig.IndexOutOfRange):
            ig.verify_outcome(inst, 16)
        with pytest.raises(ig.IndexOutOfRange):
            ig.verify_outcome(inst, -1)

    def test_class_of(self):
        inst = ig.build_instance({"n": 16, "x": {"kind": "range", "lo": 0, "hi": 3},
                                  "y": {"kind": "list", "members": [2]}})
        assert ig.class_of(inst, 2) == "k11"
        assert ig.class_of(inst, 0) == "k10"
        assert ig.class_of(inst, 9) == "k00"

    def test_kth_in_class_matches_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            inst = random_instance(rng, n_hi=300)
            by_class = {"k11": [], "k10": [], "k00": []}
            for i in range(inst.n):
                by_class[ig.class_of(inst, i)].append(i)
            for cls, members in by_class.items():
                for j, v in enumerate(members):
                    assert ig.kth_in_class(inst, cls, j) == v
                with pytest.raises(ig.IndexOutOfRange):
                    ig.kth_in_class(inst, cls, len(members))

    def test_kth_in_class_huge_universe(self):
        # rank arithmetic must not care that the k00 class holds ~10^12 indices
        inst = ig.build_instance({
            "n": 10 ** 12,
            "x": {"kind": "mod", "m": 10 ** 6, "r": 0},
            "y": {"kind": "list", "members": [0]},
        })
        assert ig.kth_in_class(inst, "k00", 0) == 1
        assert ig.kth_in_class(inst, "k00", 999998) == 999999
        assert ig.kth_in_class(inst, "k00", 999999) == 1000001
        assert ig.kth_in_class(inst, "k10", 0) == 10 ** 6
        assert ig.kth_in_class(inst, "k11", 0) == 0

    def test_instance_json_roundtrip(self, tmp_path):
        obj = {"n": 1024, "x": {"kind": "mod", "m": 64, "r": 0},
               "y": {"kind": "list", "members": [0, 64]}}
        inst = ig.build_instance(obj)
        assert ig.instance_to_json(inst) == obj
        path = tmp_path / "inst.json"
        path.write_text(__import__("json").dumps(obj))
        assert ig.load_instance(path) == inst


def scanned_members(raw: list) -> tuple:
    """The member-by-member checks of a list spec: the messages to keep."""
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ig.SpecFormatError(f"list member must be an integer, got {v!r}")
    for a, b in zip(raw, raw[1:]):
        if a >= b:
            raise ig.SpecFormatError(
                f"list members must be strictly increasing, saw {a} then {b}")
    return tuple(raw)


def scanned_violation(n: int, x, y) -> int | None:
    """The first member of Y, in ascending order, that X lacks."""
    for j in range(y.size(n)):
        if not x.contains(y.kth(j, n)):
            return y.kth(j, n)
    return None


def _build_members(picks) -> list:
    out, cur = [], -3
    for roll, step, odd in picks:
        if roll == 0:
            out.append(odd)
        else:
            cur += step - 3 if step < 6 else step  # small steps may repeat or go back
            out.append(cur)
    return out


# mostly increasing lists, sometimes with a repeat, a step back or a non-int
member_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 40),
              st.sampled_from([True, False, 1.0, 2.5, "3", None])),
    max_size=12,
).map(_build_members)


class TestListSpecProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(member_lists)
    def test_same_members_or_same_message_as_the_scan(self, raw):
        try:
            want = scanned_members(raw)
        except ig.SpecFormatError as exc:
            with pytest.raises(ig.SpecFormatError) as err:
                spec_from_json({"kind": "list", "members": raw})
            assert str(err.value) == str(exc)
        else:
            assert spec_from_json({"kind": "list", "members": raw}) == Members(want)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.integers(2, 9), st.integers(0, 8), st.integers(1, 2 ** 70),
           st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True),
           st.sets(st.integers(0, 60), max_size=3))
    def test_mod_x_list_y_witness_matches_the_scan(self, m, r, n, js, strays):
        x = Modular(m, r % m)
        members = sorted({x.r + m * j for j in js} | {x.r + m * j + 1 for j in strays})
        y = Members(tuple(members))
        n = max(n, members[-1] + 1)
        got = _subset_violation(n, x, y)
        assert got == scanned_violation(n, x, y)
        assert got is None or (y.contains(got) and not x.contains(got))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.sets(st.integers(0, 80), min_size=1, max_size=15),
           st.sets(st.integers(0, 80), min_size=1, max_size=15))
    def test_list_x_list_y_witness_matches_the_scan(self, xs, ys):
        x, y = Members(tuple(sorted(xs))), Members(tuple(sorted(ys)))
        got = _subset_violation(81, x, y)
        assert got == scanned_violation(81, x, y)
        assert got is None or (y.contains(got) and not x.contains(got))
