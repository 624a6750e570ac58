import hashlib

import numpy as np
import pytest

from trsqp.rng import RngStream, _digest, _PhiloxKey


def test_same_key_same_draws():
    a = RngStream(7).child(3, "grad").generator().standard_normal(16)
    b = RngStream(7).child(3, "grad").generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_distinct_keys_decorrelate():
    a = RngStream(7).child(3, "grad").generator().standard_normal(1000)
    b = RngStream(7).child(3, "hess").generator().standard_normal(1000)
    c = RngStream(8).child(3, "grad").generator().standard_normal(1000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.2
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.2


def test_point_generator_keyed_by_bits():
    stream = RngStream(0).child(5, "value")
    x = np.array([1.0, -2.0])
    a = stream.point_generator(x).standard_normal(8)
    b = stream.point_generator(x.copy()).standard_normal(8)
    c = stream.point_generator(x + 1e-16).standard_normal(8)  # same bits
    d = stream.point_generator(x + 1e-9).standard_normal(8)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_repr_names_seed_and_path():
    assert repr(RngStream(3).child(1, "grad")) == "RngStream(seed=3, path=(1, 'grad'))"


def test_order_independence():
    parent = RngStream(11)
    first = parent.child(0).generator().standard_normal(4)
    _ = parent.child(99).generator().standard_normal(4)
    again = parent.child(0).generator().standard_normal(4)
    assert np.array_equal(first, again)


def _philox_reference(key):
    return np.random.Generator(np.random.Philox(key=key))


def test_key_only_seeding_matches_philox_key():
    # Generators are keyed without an entropy-seeded SeedSequence; the draws
    # must equal those of numpy's own Philox(key=...) path bit for bit.
    stream = RngStream(3).child(17, "hess")
    x = np.array([0.25, -1.5, 3.0])
    xdig = hashlib.blake2b(x.tobytes(), digest_size=16).hexdigest()
    cases = [
        (stream.generator(), _digest((3, 17, "hess"))),
        (stream.point_generator(x), _digest((3, 17, "hess", xdig))),
    ]
    for got, key in cases:
        ref = _philox_reference(key)
        assert np.array_equal(got.standard_normal(257), ref.standard_normal(257))
        assert np.array_equal(got.integers(0, 6_000, size=101), ref.integers(0, 6_000, size=101))
        assert np.array_equal(got.bit_generator.state["state"]["key"], ref.bit_generator.state["state"]["key"])


def test_high_key_word_reaches_philox():
    key = (1 << 127) | 12345
    got = _PhiloxKey(key).generate_state(2, np.uint64)
    assert got.tolist() == [12345, 1 << 63]
    for n_words, dtype in ((4, np.uint32), (3, np.uint64)):
        with pytest.raises(ValueError, match="2 words of uint64"):
            _PhiloxKey(key).generate_state(n_words, dtype)
    assert np.array_equal(
        np.random.Generator(np.random.Philox(_PhiloxKey(key))).standard_normal(8),
        _philox_reference(key).standard_normal(8),
    )


def test_generators_for_one_key_are_separate():
    stream = RngStream(5).child(2, "grad")
    first, second = stream.generator(), stream.generator()
    assert first is not second
    assert first.bit_generator is not second.bit_generator
    head = first.standard_normal(64)
    assert np.array_equal(second.standard_normal(64), head)
    x = np.array([1.0, 2.0])
    p, q = stream.point_generator(x), stream.point_generator(x)
    p.standard_normal(1_000)
    assert np.array_equal(q.standard_normal(4), stream.point_generator(x).standard_normal(4))


@pytest.mark.parametrize("bad", [1.5, True, "3", np.float64(2.0)], ids=["1.5", "True", "str", "np2.0"])
def test_seed_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="seed must be an integer"):
        RngStream(bad)


def test_numpy_integer_seed_keys_as_its_int():
    s = RngStream(np.int64(3))
    assert type(s.seed) is int and repr(s) == "RngStream(seed=3, path=())"
    assert s.generator().integers(2**63) == RngStream(3).generator().integers(2**63)
