import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert.ff import PrimeField, is_prime

FIELDS = [PrimeField(p) for p in (2, 7, 2**31 - 1, 2**61 - 1)]
FIELD_IDS = ["F2", "F7", "F2^31-1", "F2^61-1"]


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        PrimeField(2**31)  # even
    with pytest.raises(ValueError):
        PrimeField(91)  # 7 * 13
    PrimeField(2)  # the tiny-field oracles need F_2
    PrimeField(3)
    PrimeField(2**31 - 1)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_primality_cache_is_bounded_and_keeps_rejecting():
    composite = (2**31 - 1) * 8191
    is_prime.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError):
            PrimeField(composite)
    assert is_prime.cache_info().hits == 1
    # moduli come from untrusted transcripts: the cache must not grow with them
    for n in range(1000, 1000 + 4 * is_prime.cache_info().maxsize):
        is_prime(n)
    assert is_prime.cache_info().currsize <= is_prime.cache_info().maxsize
    assert not is_prime(composite) and is_prime(2**31 - 1)


def test_arith_examples_mod_7(f7):
    # 3*5 = 15 = 1 mod 7; inv(1) = 1
    assert f7.mul(3, 5) == 1
    assert f7.inv(1) == 1


def test_field_axioms_random(f7, rng):
    for _ in range(200):
        a, b, c = (rng.randrange(7) for _ in range(3))
        assert f7.mul(a, (b + c) % 7) == (f7.mul(a, b) + f7.mul(a, c)) % 7
        if a:
            assert f7.mul(a, f7.inv(a)) == 1


def test_inv_zero_raises(f7):
    # every multiple of p is zero in the field, reduced or not
    for a in (0, 7, -7, 14):
        with pytest.raises(ZeroDivisionError):
            f7.inv(a)
    assert f7.inv(-1) == 6
    assert f7.inv(8) == 1


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_inv_matches_fermat(field, data):
    p = field.p
    a = data.draw(st.integers(1, p - 1))
    assert field.inv(a) == pow(a, p - 2, p)
    assert field.inv(a - p) == field.inv(a)
