import random

import pytest

from profint import INFINITY, InputError, Supernatural, parse_supernatural
from conftest import factorint, random_supernatural


def divisor_oracle(pi: Supernatural, bound: int) -> list[int]:
    """All divisors of pi up to bound, by brute-force scan."""
    return [n for n in range(1, bound + 1) if pi.divisible_by(n)]


@pytest.fixture
def pi():
    return parse_supernatural("2^2,3^inf;default=0")


def test_exponent_lookup():
    pi = Supernatural({2: 2, 3: INFINITY})
    assert pi.exponent_of(3) == INFINITY
    assert pi.exponent_of(7) == 0
    assert Supernatural(default=INFINITY).exponent_of(5) == INFINITY


def test_exponent_rejects_non_prime():
    pi = Supernatural({2: 2})
    with pytest.raises(InputError):
        pi.exponent_of(4)
    with pytest.raises(InputError):
        pi.exponent_of(1)


def test_finite_exponent_membership():
    pi = Supernatural({3: 1, 5: INFINITY})
    assert pi.is_finite_at(3)
    assert not pi.is_finite_at(5)
    assert pi.is_finite_at(2)  # default 0 counts as finite


def test_gcd_examples(pi):
    assert pi.gcd(12) == 12
    assert pi.gcd(40) == 4
    assert pi.gcd(7) == 1


def test_gcd_rejects_zero(pi):
    with pytest.raises(InputError):
        pi.gcd(0)


def test_split_examples():
    pi = Supernatural({2: 2, 3: INFINITY, 5: 1})
    m, rest = pi.split({2, 5})
    assert m == 20
    assert rest == Supernatural({3: INFINITY})
    m, rest = pi.split(set())
    assert m == 1 and rest == pi
    with pytest.raises(InputError):
        Supernatural({3: INFINITY}).split({3})


def test_divides_examples():
    pi = Supernatural({3: 1, 5: INFINITY})
    assert pi.divisible_by(15)
    assert not pi.divisible_by(9)
    assert pi.divisible_by(1)
    assert Supernatural(default=INFINITY).divisible_by(360360)


def test_divisor_sample_matches_enumeration():
    pi = Supernatural({3: 1, 5: INFINITY})
    allowed = set(divisor_oracle(pi, 100))
    sample = pi.sample_divisors(100, 4)
    assert set(sample) <= allowed
    assert 75 in sample  # largest divisor <= 100
    assert Supernatural().sample_divisors(100, 4) == [1]
    assert Supernatural({2: INFINITY}).sample_divisors(10, 8) == [1, 2, 4, 8]


def test_divisor_sample_deterministic():
    pi = Supernatural({2: 3, 7: INFINITY}, default=0)
    assert pi.sample_divisors(10**4, 6, seed=5) == pi.sample_divisors(10**4, 6, seed=5)


def reference_sample_divisors(pi, bound, count, seed=0):
    """sample_divisors as it was before draws were capped by gcd: every
    random draw is factored and each prime exponent capped by the table."""
    picks = [pi.largest_divisor(bound)]
    powers = []
    pool = {p for p, e in pi.table if e >= 1}
    if pi.default == INFINITY:
        pool.update((2, 3, 5, 7, 11, 13, 17, 19))
    for p in sorted(pool):
        cap = pi.exponent_of(p)
        v, k = p, 1
        while v <= bound and k <= cap:
            powers.append(v)
            v *= p
            k += 1
    picks.extend(sorted(powers, reverse=True))
    rng = random.Random(seed)
    tries = 0
    while len(set(picks)) < count and tries < 8 * count:
        n = rng.randint(1, bound)
        for p, e in factorint(n):
            cap = pi.exponent_of(p)
            if e > cap:
                n //= p ** (e - cap)
        picks.append(n)
        tries += 1
    picks.append(1)
    return sorted(list(dict.fromkeys(picks))[:count])


def test_divisor_sample_matches_factoring_reference():
    rng = random.Random(12)
    for _ in range(40):
        pi = random_supernatural(rng)
        bound = rng.choice((1, 10, 97, 1000, 10**4, 10**5))
        for count in range(1, 13):
            for seed in (0, 3, 17):
                assert pi.sample_divisors(bound, count, seed=seed) == (
                    reference_sample_divisors(pi, bound, count, seed)
                ), (pi, bound, count, seed)


def test_largest_divisor_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        pi = random_supernatural(rng)
        bound = rng.randint(1, 500)
        assert pi.largest_divisor(bound) == max(divisor_oracle(pi, bound))


def enumerated_largest_divisor(pi: Supernatural, bound: int) -> int:
    """The largest divisor of pi up to bound >= 1, for pi of default 0, by
    listing every divisor over the stored primes (the unpruned search)."""
    choices = [(p, e) for p, e in pi.table if e >= 1]
    best = 1

    def grow(idx, cur):
        nonlocal best
        if cur > best:
            best = cur
        for j in range(idx, len(choices)):
            p, cap = choices[j]
            v, k = cur * p, 1
            while v <= bound and k <= cap:
                grow(j + 1, v)
                v *= p
                k += 1

    grow(0, 1)
    return best


def test_largest_divisor_pruned_search_matches_enumeration():
    rng = random.Random(17)
    checked = 0
    while checked < 200:
        pi = random_supernatural(rng, max_exp=rng.choice((4, 12)))
        if pi.default == INFINITY:
            continue
        bound = rng.randint(1, 10**6)
        assert pi.largest_divisor(bound) == enumerated_largest_divisor(pi, bound)
        checked += 1


def test_gcd_divides_and_is_divisor():
    rng = random.Random(3)
    for _ in range(4):
        pi = random_supernatural(rng)
        for n in range(1, 10**4 + 1):
            g = pi.gcd(n)
            assert n % g == 0
            assert pi.divisible_by(g)


def test_split_recombination():
    rng = random.Random(4)
    for _ in range(4):
        pi = random_supernatural(rng)
        subset = [p for p in (2, 3, 5, 7) if pi.is_finite_at(p)]
        m, rest = pi.split(subset)
        table = dict(rest.table)
        table.update((p, rest.exponent_of(p) + e) for p, e in factorint(m))
        recombined = Supernatural(table, rest.default)
        for n in range(1, 10**4 + 1):
            assert pi.divisible_by(n) == recombined.divisible_by(n)


def test_exponent_consistent_with_divides():
    rng = random.Random(5)
    for _ in range(10):
        pi = random_supernatural(rng)
        for p in (2, 3, 5, 7):
            e = pi.exponent_of(p)
            for k in range(0, 8):
                assert pi.divisible_by(p**k) == (k <= e)


def test_parse_round_trip():
    for text in ("3^1,5^inf;default=0", "default=inf", "2^4;default=0"):
        pi = parse_supernatural(text)
        assert parse_supernatural(str(pi)) == pi
    assert parse_supernatural(" 3^1 , 5^inf ; default=0 ") == parse_supernatural(
        "3^1,5^inf;default=0"
    )


def test_parse_rejects_bad_input():
    for text in ("4^1;default=0", "3^1,2^1;default=0", "3^1", "3^x;default=0", "", "3^1;default=2"):
        with pytest.raises(InputError):
            parse_supernatural(text)


def test_parse_reads_only_decimal_digits():
    # int() alone would read '2_3' as 23, '1_0' as 10 and accept a sign
    for text, message in (
        ("2_3^1;default=0", "bad prime '2_3'"),
        ("+3^1;default=0", "bad prime '+3'"),
        ("3^1,5^1_0;default=0", "bad exponent '1_0'"),
        ("3^+1;default=0", "bad exponent '+1'"),
        ("3^-1;default=0", "bad exponent '-1'"),
        ("^1;default=0", "bad prime ''"),
        ("3^;default=0", "bad exponent ''"),
        ("1" * 5000 + "^1;default=0", "bad prime '" + "1" * 5000 + "'"),
        ("3^" + "1" * 5000 + ";default=0", "bad exponent '" + "1" * 5000 + "'"),
    ):
        with pytest.raises(InputError) as caught:
            parse_supernatural(text)
        assert str(caught.value) == message, text
    # decimal digits as the other grammars' \d reads them
    assert parse_supernatural("\u0663^\u0661;default=0") == parse_supernatural("3^1;default=0")
    assert parse_supernatural("03^010;default=0") == parse_supernatural("3^10;default=0")


def test_canonical_form_drops_default_entries():
    assert Supernatural({3: 0, 5: 1}) == Supernatural({5: 1})
    assert Supernatural({3: INFINITY}, default=INFINITY) == Supernatural(
        {}, default=INFINITY
    )
