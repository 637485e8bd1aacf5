"""Membership specs, validation, class partition, and rank machinery."""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import igrover as ig
from igrover.instance import Members, Modular, Range, _subset_violation, frozen, spec_from_json
from conftest import class_of, kth_by_bisection, random_instance


class TestFrozen:
    """`frozen` records behave as `dataclass(frozen=True)` ones do."""

    @staticmethod
    def twins():
        checked = []

        def body():
            class Price:
                t_x: float = 1.0
                tag: str = "a"

                def __post_init__(self):
                    checked.append(self.t_x)
                    if self.t_x < 0:
                        raise ValueError(f"bad {self}")
            return Price

        return frozen(body()), dataclasses.dataclass(frozen=True)(body()), checked

    def test_construction_eq_hash_and_repr_match_a_dataclass(self):
        ours, theirs, checked = self.twins()
        for args, kwargs in (((), {}), ((2.5,), {}), ((3.0, "b"), {}), ((), {"tag": "c"})):
            a, b = ours(*args, **kwargs), theirs(*args, **kwargs)
            assert repr(a) == repr(b) and hash(a) == hash(b)
            assert a == ours(*args, **kwargs) and a != b
        assert checked == [t for t in (1.0, 2.5, 3.0, 1.0) for _ in range(3)]  # post-init ran
        assert ours(1.0) != ours(1.0, "b") and ours(1.0) != (1.0, "a")
        with pytest.raises(ValueError, match=r"\.Price\(t_x=-1, tag='a'\)$"):
            ours(-1)
        with pytest.raises(TypeError):
            ours(1.0, "a", 3)

    def test_fields_cannot_be_set_or_deleted(self):
        ours, _, _ = self.twins()
        price = ours()
        for action in (lambda: setattr(price, "t_x", 2.0), lambda: delattr(price, "tag"),
                       lambda: setattr(price, "other", 1)):
            with pytest.raises(AttributeError):
                action()
        assert (price.t_x, price.tag) == (1.0, "a")

    def test_package_records(self):
        assert repr(ig.CostModel(0.5)) == "CostModel(t_x=0.5, t_y=1.0)"
        assert repr(ig.Schedule(3)) == "Schedule(L=3, selection_policy='paper_formula')"
        assert {ig.QueryStats(3, 1), ig.QueryStats(3, 1, 1)} == {ig.QueryStats(3, 1)}
        with pytest.raises(AttributeError):
            ig.ClassCounts(1, 0, 1, 2).n = 3


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

    @pytest.mark.parametrize("bad", [{"kind": "list"}, {"kind": "list", "members": {"0": 1}}])
    def test_list_spec_needs_a_members_array(self, bad):
        with pytest.raises(ig.SpecFormatError, match="needs a 'members' array"):
            spec_from_json(bad)

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
                assert spec.kth(j) == v
            for t in range(n):
                assert spec.count_leq(t, n) == sum(1 for v in members if v <= t)


BIG = 10 ** 4000  # 4,001 digits
RANGE = {"kind": "range", "lo": 0, "hi": 3}


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

    @pytest.mark.parametrize("obj, error, start", [
        (list(range(10 ** 4)), ig.SpecFormatError, "instance must be an object, got [0, 1,"),
        ({"n": list(range(10 ** 4))}, ig.SpecFormatError, "n must be an integer, got [0, 1,"),
        ({"n": -BIG, "x": RANGE, "y": RANGE}, ig.SpecFormatError, "n must be >= 2, got -100"),
        ({"n": 8, "x": "a" * 10 ** 4, "y": RANGE}, ig.SpecFormatError,
         "membership spec must be an object, got 'aaa"),
        ({"n": 8, "x": {"kind": "b" * 10 ** 4}, "y": RANGE}, ig.SpecFormatError,
         "unknown membership kind 'bbb"),
        ({"n": 8, "x": {"kind": "list", "members": [0, "c" * 10 ** 4]}, "y": RANGE},
         ig.SpecFormatError, "list member must be an integer, got 'ccc"),
        ({"n": 8, "x": {"kind": "list", "members": [BIG, BIG]}, "y": RANGE},
         ig.SpecFormatError, "list members must be strictly increasing, saw 100"),
        ({"n": 8, "x": {"kind": "range", "lo": BIG, "hi": 0}, "y": RANGE},
         ig.SpecFormatError, "empty range: lo=100"),
        ({"n": 8, "x": {"kind": "mod", "m": -BIG, "r": 0}, "y": RANGE},
         ig.SpecFormatError, "mod m must be >= 1, got -100"),
        ({"n": 8, "x": {"kind": "mod", "m": 3, "r": BIG}, "y": RANGE},
         ig.SpecFormatError, "mod r must satisfy 0 <= r < m, got r=100"),
        ({"n": BIG, "x": {"kind": "list", "members": []}, "y": RANGE}, ig.EmptyX,
         "X has no members for n=100"),
        ({"n": BIG, "x": {"kind": "range", "lo": -1, "hi": 3}, "y": RANGE},
         ig.IndexOutOfRange, "X member -1 outside [0, 999"),
        ({"n": BIG, "x": RANGE, "y": {"kind": "list", "members": [BIG - 1]}}, ig.NotSubset,
         "index 999"),
        ({"n": BIG, "x": RANGE, "y": RANGE}, ValueError, "n must be <= 2**1023, got 100"),
    ])
    def test_error_lines_clip_the_values_they_echo(self, obj, error, start):
        # every value from the file is shown as reprlib clips it, whatever its size
        with pytest.raises(error) as err:
            ig.build_instance(obj).counts
        assert str(err.value).startswith(start) and len(str(err.value)) <= 200
        assert "..." in str(err.value)

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
        assert class_of(inst, 2) == "k11"
        assert class_of(inst, 0) == "k10"
        assert class_of(inst, 9) == "k00"

    def test_unknown_class_rejected(self):
        inst = ig.build_instance({"n": 16, "x": {"kind": "range", "lo": 0, "hi": 3},
                                  "y": {"kind": "list", "members": [2]}})
        with pytest.raises(ValueError, match="unknown class 'k01'"):
            ig.kth_in_class(inst, "k01", 0)

    def test_counts_are_kept_on_the_instance(self):
        inst = ig.build_instance({"n": 16, "x": {"kind": "range", "lo": 0, "hi": 3},
                                  "y": {"kind": "list", "members": [2]}})
        twin = ig.build_instance(ig.instance_to_json(inst))
        assert inst.counts == ig.ClassCounts(k11=1, k10=3, k00=12, n=16)
        assert inst.counts is inst.counts
        # the cached sizes change neither equality, hashing nor the repr
        assert inst == twin and hash(inst) == hash(twin) and repr(inst) == repr(twin)

    @pytest.mark.parametrize("k11, k10, k00, n", [
        (0, 3, 12, 15), (1, -1, 16, 16), (1, 3, -2, 2), (1, 3, 12, 17),
        (1, 0, 1 << 1023, (1 << 1023) + 1)])
    def test_bad_class_counts_rejected(self, k11, k10, k00, n):
        with pytest.raises(ValueError):
            ig.ClassCounts(k11=k11, k10=k10, k00=k00, n=n)

    def test_kth_in_class_matches_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            inst = random_instance(rng, n_hi=300)
            by_class = {"k11": [], "k10": [], "k00": []}
            for i in range(inst.n):
                by_class[class_of(inst, i)].append(i)
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
        if not x.contains(y.kth(j)):
            return y.kth(j)
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


def small_specs(draw, kind: str, n: int):
    """A non-empty spec of the given kind inside [0, n)."""
    if kind == "list":
        return Members(tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                                 max_size=n)))))
    if kind == "range":
        lo = draw(st.integers(0, n - 1))
        return Range(lo, draw(st.integers(lo, n - 1)))
    m = draw(st.integers(1, n))
    return Modular(m, draw(st.integers(0, min(m, n) - 1)))


KINDS = ("list", "range", "mod")


class TestSubsetViolation:
    @pytest.mark.parametrize("x_kind", KINDS)
    @pytest.mark.parametrize("y_kind", KINDS)
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_witness_and_verdict_match_enumeration(self, x_kind, y_kind, data):
        n = data.draw(st.integers(2, 40))
        x, y = small_specs(data.draw, x_kind, n), small_specs(data.draw, y_kind, n)
        ys = brute_members(y, n)
        got = _subset_violation(n, x, y)
        assert (got is None) == all(x.contains(v) for v in ys)
        if isinstance(x, Range):  # Y's smallest member if outside X, else its largest
            outside = [v for v in (ys[0], ys[-1]) if not x.contains(v)]
            assert got == (outside[0] if outside else None)
        else:
            assert got == scanned_violation(n, x, y)


def nested_specs(draw, x_kind: str, y_kind: str, n: int) -> tuple:
    """X and Y of the given kinds with Y <= X inside [0, n), for any n.

    Y comes first; a list X holds Y's members plus a few more, so under a
    list X, Y keeps at most about a dozen members.  A modular X steps by a
    divisor of the gaps between Y's members (any step when Y has one).
    """
    if y_kind == "list":
        y = Members(tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                              max_size=12)))))
    elif y_kind == "range":
        lo = draw(st.integers(0, n - 1))
        width = 0 if x_kind == "mod" and draw(st.booleans()) else n - 1 - lo
        y = Range(lo, lo + draw(st.integers(0, min(width, 11 if x_kind == "list" else width))))
    else:
        m = draw(st.integers(-(-n // 12) if x_kind == "list" else 1, n))
        y = Modular(m, draw(st.integers(0, min(m, n) - 1)))
    size = y.size(n)
    first, last = y.kth(0), y.kth(size - 1)
    if x_kind == "list":
        extra = draw(st.sets(st.integers(0, n - 1), max_size=12))
        return Members(tuple(sorted({y.kth(j) for j in range(size)} | extra))), y
    if x_kind == "range":
        return Range(draw(st.integers(0, first)), draw(st.integers(last, n - 1))), y
    gap = 0
    for j in range(1, min(size, 13)):  # a range or modular Y steps evenly
        gap = math.gcd(gap, y.kth(j) - y.kth(j - 1))
    steps = [d for d in range(1, 40) if gap % d == 0] + ([gap] if gap else [])
    m = draw(st.sampled_from(steps) if gap else st.integers(1, n))
    return Modular(m, first % m), y


class TestClassRanks:
    """kth_in_class on every pair of spec kinds: against enumeration for small
    n, and against the bisection of all of [0, n) up to n = 2**100 + 17."""

    @pytest.mark.parametrize("x_kind", KINDS)
    @pytest.mark.parametrize("y_kind", KINDS)
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_ranks_and_counts_match_enumeration(self, x_kind, y_kind, data):
        n = data.draw(st.integers(2, 300))
        x, y = nested_specs(data.draw, x_kind, y_kind, n)
        inst = ig.build_instance({"n": n, "x": x.to_json(), "y": y.to_json()})
        for spec in (x, y):
            members = brute_members(spec, n)
            assert [spec.count_leq(t, n) for t in range(n + 2)] == [
                bisect_right(members, t) for t in range(n + 2)]
        by_class = {"k11": [], "k10": [], "k00": []}
        for i in range(n):
            by_class[class_of(inst, i)].append(i)
        for cls, members in by_class.items():
            assert [ig.kth_in_class(inst, cls, j) for j in range(len(members))] == members
            with pytest.raises(ig.IndexOutOfRange):
                ig.kth_in_class(inst, cls, len(members))

    @pytest.mark.parametrize("x_kind", KINDS)
    @pytest.mark.parametrize("y_kind", KINDS)
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_ranks_match_bisection_on_huge_universes(self, x_kind, y_kind, data):
        # n >= 2**64 keeps k00 above 2**63 under a list X, and a range or
        # modular X of such an n puts k10 (or k00) there as well
        n = data.draw(st.integers(2 ** 64, 2 ** 100 + 17))
        x, y = nested_specs(data.draw, x_kind, y_kind, n)
        inst = ig.build_instance({"n": n, "x": x.to_json(), "y": y.to_json()})
        for cls in ("k11", "k10", "k00"):
            size = getattr(inst.counts, cls)
            if size:
                for j in {0, size - 1, data.draw(st.integers(0, size - 1))}:
                    assert ig.kth_in_class(inst, cls, j) == kth_by_bisection(inst, cls, j)
