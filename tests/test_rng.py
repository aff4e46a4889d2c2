from qlattice.rng import Xorshift64Star, mix_stream, splitmix64


def test_determinism():
    a = Xorshift64Star(123)
    b = Xorshift64Star(123)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_uniform_range():
    rng = Xorshift64Star(7)
    for _ in range(1000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


def test_integer_bounds():
    rng = Xorshift64Star(7)
    seen = set()
    for _ in range(500):
        v = rng.integer(2, 6)
        assert 2 <= v < 6
        seen.add(v)
    assert seen == {2, 3, 4, 5}


def test_gaussian_moments():
    rng = Xorshift64Star(99)
    xs = [rng.gaussian() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05


def test_mix_stream_spreads_indices():
    outs = {mix_stream(42, i, j) for i in range(8) for j in range(8)}
    assert len(outs) == 64


def test_splitmix_is_pure():
    assert splitmix64(1) == splitmix64(1)
    assert splitmix64(1) != splitmix64(2)


def test_complex_gaussian_matrix_shape():
    rng = Xorshift64Star(1)
    M = rng.complex_gaussian_matrix(3, 2)
    assert M.shape == (3, 2)
    assert M.dtype == complex
