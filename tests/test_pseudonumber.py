import random
from math import prod

import pytest

import profint.pseudonumber
from profint import (
    InputError,
    Pseudonumber,
    SignatureError,
    Term,
    clearing_factor,
    equal_in_ab,
    eval_mod,
    from_integer,
    omega_power,
    parse_pseudonumber,
    parse_supernatural,
)
from profint.pseudonumber import _check_signature as check_signature, integer_combination
from profint.word_problem import _scaled_sum
from conftest import factorint, random_pseudonumber, random_supernatural, sample_moduli

PI = parse_supernatural("3^1,5^inf;default=0")


def test_from_integer():
    for a in (0, 7, -3):
        u = from_integer(a)
        assert u.const == a and u.terms == () and u.pi is None


def test_term_free_values_agree_however_built():
    for k in (0, 1, -5, 12, 2**100, -(3**60)):
        values = [
            Pseudonumber(k),
            Pseudonumber(k, (), PI),
            from_integer(k),
            integer_combination(k, ()),
            Pseudonumber(k, [(6, 1, 2), (6, 1, -2)], PI),
            Pseudonumber(k - 4, [(1, 3, 4)], PI),
            parse_pseudonumber(str(k), PI),
        ]
        for u in values:
            assert u.const == k and u.terms == () and u.pi is None
            assert u == values[0] and u == k
            assert hash(u) == hash(values[0]) == hash(k)
            assert _scaled_sum(u, 12) == 12 * k
    for const in (1.5, "3", None):
        for pi in (None, PI):
            with pytest.raises(InputError, match="constant must be an integer"):
                Pseudonumber(const, (), pi)


def test_omega_power_constructor():
    assert omega_power(PI, 3, 1).terms == (Term(3, 1, 1),)
    # prime-power collapse, checked against finite quotients below
    assert omega_power(PI, 9, 1).terms == (Term(3, 2, 1),)
    with pytest.raises(SignatureError):
        omega_power(parse_supernatural("3^inf;default=0"), 3, 1)
    with pytest.raises(InputError):
        omega_power(PI, 3, 0)


def test_prime_power_collapse_semantics():
    # 9^(w-1) and 3^(w-2) agree in every sampled finite quotient
    left = Pseudonumber(0, ((3, 2, 1),), PI)
    for n in (5, 15, 75):
        assert eval_mod(omega_power(PI, 9, 1), n, PI) == eval_mod(left, n, PI)


def test_add_and_neg():
    t = omega_power(PI, 3, 1)
    assert (2 + t) + (1 - t) == from_integer(3)
    u = 5 + 2 * omega_power(PI, 2, 1)
    assert u + from_integer(0) == u
    assert -(5 + 2 * omega_power(PI, 2, 1)) == -5 - 2 * omega_power(PI, 2, 1)


def test_mul_merges_equal_bases():
    pi = parse_supernatural("default=0")
    assert omega_power(pi, 2, 1) * omega_power(pi, 2, 2) == omega_power(pi, 2, 3)


def test_mul_distinct_bases():
    pi = parse_supernatural("2^1,3^1;default=inf")
    product = omega_power(pi, 2, 2) * omega_power(pi, 3, 1)
    assert product == 3 * omega_power(pi, 6, 2)
    # cross-check in finite quotients
    for n in (5, 7, 35):
        expected = eval_mod(omega_power(pi, 2, 2), n, pi) * eval_mod(
            omega_power(pi, 3, 1), n, pi
        ) % n
        assert eval_mod(product, n, pi) == expected


def test_mul_identity():
    u = 3 + 2 * omega_power(PI, 6, 2)
    assert u * from_integer(1) == u


def test_normalize_examples():
    assert Pseudonumber(0, ((3, 1, 2), (3, 1, -2)), PI) == from_integer(0)
    assert Pseudonumber(0, ((9, 1, 1),), PI) == Pseudonumber(0, ((3, 2, 1),), PI)
    assert Pseudonumber(4, ((2, 1, 0),), PI) == from_integer(4)
    u = random_pseudonumber(random.Random(0), PI)
    assert Pseudonumber(u.const, u.terms, u.pi) == u


def test_base_one_folds_into_constant():
    assert Pseudonumber(1, ((1, 3, 6),), PI) == from_integer(7)


def test_mixed_ambient_rejected():
    other = parse_supernatural("2^1;default=0")
    with pytest.raises(InputError):
        omega_power(PI, 3, 1) + omega_power(other, 2, 1)


def test_clearing_factor_examples():
    assert clearing_factor(PI, omega_power(PI, 3, 1)) == (9, 3)
    pi = parse_supernatural("2^1,3^inf;default=0")
    assert clearing_factor(pi, omega_power(pi, 2, 1)) == (4, 2)
    assert clearing_factor(PI, from_integer(7)) == (1, 7)


def test_clearing_factor_oracle_check():
    # 9 * 3^(w-1) = 3 in Z/15: 3^(w-1) = 12, and 9*12 = 108 = 3 (mod 15)
    assert eval_mod(omega_power(PI, 3, 1), 15, PI) == 12
    assert 9 * 12 % 15 == 3


def test_eval_mod_examples():
    assert eval_mod(omega_power(PI, 3, 1), 15, PI) == 12
    pi = parse_supernatural("2^1,3^1,5^inf;default=0")
    assert eval_mod(omega_power(pi, 6, 1), 15, pi) == 6
    assert eval_mod(from_integer(8), 5) == 3


def test_eval_mod_requires_dividing_modulus():
    with pytest.raises(InputError):
        eval_mod(omega_power(PI, 3, 1), 9, PI)  # 9 does not divide 3^1 * 5^inf
    with pytest.raises(InputError):
        eval_mod(from_integer(1), 0, PI)


def test_eval_mod_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(60):
        pi = random_supernatural(rng)
        u = random_pseudonumber(rng, pi)
        v = random_pseudonumber(rng, pi)
        for n in sample_moduli(pi, 5, bound=10**4, seed=rng.randint(0, 99)):
            assert eval_mod(u + v, n, pi) == (eval_mod(u, n, pi) + eval_mod(v, n, pi)) % n
            assert eval_mod(u * v, n, pi) == (eval_mod(u, n, pi) * eval_mod(v, n, pi)) % n


def test_normalization_preserves_quotient_images():
    rng = random.Random(8)
    for _ in range(40):
        pi = random_supernatural(rng)
        u = random_pseudonumber(rng, pi)
        again = Pseudonumber(u.const, u.terms, u.pi)
        for n in sample_moduli(pi, 4, bound=10**4):
            assert eval_mod(u, n, pi) == eval_mod(again, n, pi)


def test_clearing_factor_soundness():
    rng = random.Random(9)
    for _ in range(60):
        pi = random_supernatural(rng)
        u = random_pseudonumber(rng, pi)
        c, value = clearing_factor(pi, u)
        assert c >= 1
        assert all(pi.is_finite_at(p) for p, _ in factorint(c))
        assert equal_in_ab(pi, c * u, value)


def test_omega_plus_exponent_identity():
    # for finite exponent m at p: p^(w+m) agrees with p^m
    rng = random.Random(10)
    for _ in range(40):
        pi = random_supernatural(rng)
        finite = [p for p in (2, 3, 5, 7) if pi.is_finite_at(p)]
        if not finite:
            continue
        p = rng.choice(finite)
        m = pi.exponent_of(p)
        lhs = p ** (m + 1) * omega_power(pi, p, 1)
        assert equal_in_ab(pi, lhs, p**m)


def test_ring_laws_semantic():
    rng = random.Random(11)
    for _ in range(25):
        pi = random_supernatural(rng)
        u = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=9)
        v = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=9)
        w = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=9)
        assert equal_in_ab(pi, (u * v) * w, u * (v * w))
        assert equal_in_ab(pi, u * (v + w), u * v + u * w)
        assert equal_in_ab(pi, u * v, v * u)


def test_str_parse_round_trip():
    rng = random.Random(12)
    pi = parse_supernatural("default=0")
    for _ in range(50):
        u = random_pseudonumber(rng, pi)
        assert parse_pseudonumber(str(u), pi) == u
    assert str(from_integer(0)) == "0"


def test_parse_accepts_trailing_whitespace():
    assert parse_pseudonumber("3 ", PI) == from_integer(3)
    assert parse_pseudonumber("3\n", PI) == from_integer(3)
    assert parse_pseudonumber("[2^(w-1)] ", PI) == omega_power(PI, 2, 1)


def test_parse_checks_cancelled_brackets():
    pi = parse_supernatural("3^inf;default=0")
    for text in ("0*[3^(w-1)]", "[3^(w-1)] - [3^(w-1)]"):
        with pytest.raises(SignatureError):
            parse_pseudonumber(text, pi)


def test_parse_rejects_garbage():
    for text in ("", "3 +", "[6^(w)]", "[6^(w-0)]", "2 ** 3", "[4^"):
        with pytest.raises(InputError):
            parse_pseudonumber(text, PI)
    with pytest.raises(InputError):
        parse_pseudonumber("[2^(w-1)]", None)  # terms need an ambient


def test_parse_checks_each_bracket_once(monkeypatch):
    checked = []

    def counted(base, pi):
        checked.append(base)
        return check_signature(base, pi)

    monkeypatch.setattr(profint.pseudonumber, "_check_signature", counted)
    u = parse_pseudonumber("3 + 2*[6^(w-2)] - [4^(w-1)] + 0*[3^(w-3)] + [6^(w-2)]", PI)
    assert checked == [6, 2, 3, 6]  # token order, zero coefficients included
    assert u == 3 + 3 * omega_power(PI, 6, 2) - omega_power(PI, 2, 2)


def test_signature_check_matches_factorization():
    rng = random.Random(14)
    for _ in range(12):
        pi = random_supernatural(rng)
        for base in range(1, 501):
            infinite = [(p, e) for p, e in factorint(base) if not pi.is_finite_at(p)]
            if not infinite:
                check_signature(base, pi)
                continue
            factor = prod(p**e for p, e in infinite)
            with pytest.raises(SignatureError) as info:
                check_signature(base, pi)
            assert str(info.value) == (
                f"base {base} has a factor {factor} of infinite exponent in {pi}"
            )


def ring_combination(const, pairs):
    """const + sum k*u by ring operations, one at a time."""
    return sum((k * u for k, u in pairs), from_integer(const))


def test_integer_combination_matches_ring_operations():
    rng = random.Random(1818)
    cancelled = 0
    for _ in range(300):
        pi = random_supernatural(rng)
        values = [random_pseudonumber(rng, pi) for _ in range(rng.randint(1, 4))]
        pairs = [(rng.randint(-3, 3), rng.choice(values)) for _ in range(rng.randint(0, 5))]
        if pairs and rng.random() < 0.3:
            k, u = rng.choice(pairs)
            pairs.append((-k, u))  # cancels that pair's terms
        if rng.random() < 0.3:
            pairs.append((rng.randint(-3, 3), rng.randint(-9, 9)))  # a plain-int u
        const = rng.randint(-20, 20)
        combined = integer_combination(const, pairs)
        expected = ring_combination(const, pairs)
        assert isinstance(combined, Pseudonumber)
        assert combined == expected and str(combined) == str(expected)
        assert combined.pi == expected.pi
        cancelled += not combined.terms and any(k and u.terms for k, u in pairs
                                                if isinstance(u, Pseudonumber))
    assert cancelled > 10


def test_integer_combination_edge_cases():
    u = 2 + omega_power(PI, 2, 1) - 3 * omega_power(PI, 6, 2)
    assert integer_combination(3, ((2, 5), (0, u))) == 13
    assert integer_combination(0, ()) == from_integer(0)
    cancelled = integer_combination(7, ((2, u), (-2, u)))
    assert cancelled == 7 and cancelled.terms == () and cancelled.pi is None
    other = parse_supernatural("2^1,3^inf;default=0")
    with pytest.raises(InputError):
        integer_combination(0, ((1, u), (1, omega_power(other, 2, 1))))
    # a zero multiplier contributes nothing, its ambient included
    assert integer_combination(0, ((1, u), (0, omega_power(other, 2, 1)))) == u
    with pytest.raises(InputError):
        integer_combination(0, ((1, "3"),))
