from nlfem.rng import Xoshiro256pp


def test_deterministic_stream():
    a = Xoshiro256pp(1234)
    b = Xoshiro256pp(1234)
    assert [a.next_uint64() for _ in range(16)] == [b.next_uint64() for _ in range(16)]


def test_seeds_differ():
    a = Xoshiro256pp(1)
    b = Xoshiro256pp(2)
    assert [a.next_uint64() for _ in range(4)] != [b.next_uint64() for _ in range(4)]


def test_uniform_ranges():
    gen = Xoshiro256pp(7)
    us = [gen.uniform01() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in us)
    gen = Xoshiro256pp(7)
    ss = [gen.symmetric() for _ in range(2000)]
    assert all(-1.0 <= s < 1.0 for s in ss)
    assert min(ss) < -0.9 and max(ss) > 0.9


def test_seed_range_ends_accepted():
    first, last = Xoshiro256pp(0), Xoshiro256pp(2**64 - 1)
    assert [first.next_uint64() for _ in range(4)] != [last.next_uint64() for _ in range(4)]
