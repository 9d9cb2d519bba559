import math
import time

import mpmath
import pytest

import zerohold as z
from zerohold import coinruns
from zerohold.errors import NumericError, PreconditionError

# closed-form values for p = 1/2, k = 2: the dominant root is (1+sqrt(5))/4
# and the prefactor is 1 + 1/sqrt(5) (quadratic-formula oracle)
S2_HALF = (1.0 + math.sqrt(5.0)) / 4.0
C2_HALF = 1.0 + 1.0 / math.sqrt(5.0)


def _brute_force_no_run(p, k, n):
    # walk every coin sequence; float products, so exact to ~1e-15
    total = 0.0
    for mask in range(1 << n):
        run = 0
        longest = 0
        prob = 1.0
        for i in range(n):
            if (mask >> i) & 1:
                run += 1
                longest = max(longest, run)
                prob *= p
            else:
                run = 0
                prob *= 1.0 - p
        if longest < k:
            total += prob
    return total


def test_fair_coin_pair_root_and_constant():
    s = z.coin_root(0.5, 2)
    assert s == pytest.approx(S2_HALF, abs=1e-12)
    c = z.coin_constant(0.5, 2, s)
    assert c == pytest.approx(C2_HALF, abs=1e-11)


def test_exact_small_board_enumeration():
    assert z.coin_exact(0.5, 2, 4) == 0.5
    assert z.coin_exact(0.6, 3, 10) == pytest.approx(_brute_force_no_run(0.6, 3, 10), abs=1e-12)


def test_dp_satisfies_first_tail_decomposition():
    p, k = 0.37, 3
    q = 1.0 - p
    vals = [z.coin_exact(p, k, n) for n in range(0, 25)]
    for n in range(k, 25):
        rhs = sum(q * p**j * vals[n - 1 - j] for j in range(k))
        assert vals[n] == pytest.approx(rhs, abs=1e-14)


def test_log_ratio_settles_on_the_root():
    s = z.coin_root(0.5, 2)
    prev = z.coin_exact(0.5, 2, 40)
    for n in range(41, 81):
        cur = z.coin_exact(0.5, 2, n)
        assert abs(math.log(cur / prev) - math.log(s)) < 1e-6
        prev = cur


def test_asymptote_matches_dp_deep():
    p, k, n = 0.6, 3, 60
    s = z.coin_root(p, k)
    c = z.coin_constant(p, k, s)
    exact = z.coin_exact(p, k, n)
    assert c * s ** (n + 1) == pytest.approx(exact, rel=1e-4)


def test_run_length_one_collapses_to_all_tails():
    p = 0.3
    q = 1.0 - p
    s = z.coin_root(p, 1)
    assert s == q
    c = z.coin_constant(p, 1, s)
    # c = 1/q makes c s^{n+1} = q^n, so the asymptote is exact at every n
    assert c == pytest.approx(1.0 / q, abs=1e-12)
    for n in (1, 4, 9):
        assert z.coin_exact(p, 1, n) == pytest.approx(q**n, abs=1e-14)
        assert c * s ** (n + 1) == pytest.approx(q**n, abs=1e-14)


def test_coin_result_table_shape():
    res = z.coin_result(0.5, 2, 20)
    assert res.s_k == pytest.approx(S2_HALF, abs=1e-12)
    assert res.c_k == pytest.approx(C2_HALF, abs=1e-11)
    assert len(res.table) == 21
    n20, exact20, asym20 = res.table[20]
    assert n20 == 20
    assert exact20 == z.coin_exact(0.5, 2, 20)
    assert asym20 == pytest.approx(exact20, rel=1e-8)


def test_coin_rel_error_is_the_plain_quotient_where_the_values_are_normal():
    res = z.coin_result(0.5, 2, 20)
    assert res.rel_error == tuple(abs(asym - exact) / exact for _, exact, asym in res.table)


def _no_run_dp(p, k, n):
    # the dynamic program over the trailing run length, run from n = 0 for one n
    q = 1.0 - p
    alive = [1.0] + [0.0] * (k - 1)
    for _ in range(n):
        total = sum(alive)
        alive = [q * total] + [p * a for a in alive[:-1]]
    return sum(alive)


@pytest.mark.parametrize("p, k, n_max", [(0.5, 1, 40), (0.5, 3, 200), (0.3, 7, 150), (0.9, 2, 300)])
def test_coin_table_is_the_per_n_program(p, k, n_max):
    # the table comes from one pass of the program, row n bit for bit its run to n alone
    table = z.coin_result(p, k, n_max).table
    want = [_no_run_dp(p, k, n) for n in range(n_max + 1)]
    assert [row[0] for row in table] == list(range(n_max + 1))
    assert [row[1] for row in table] == want
    assert [z.coin_exact(p, k, n) for n in (0, 1, k, n_max)] == [want[n] for n in (0, 1, k, n_max)]


def _mp_root(p, k, mp):
    # 60-digit root of the deflated polynomial (1 - x) sum_j x^j p^(k-1-j) = p^k
    # in d = 1 - x, bracketed across the peak k/(k+1) from p
    pp = mp.mpf(p)

    def g(d):
        x = 1 - d
        return d * mp.fsum(x**j * pp ** (k - 1 - j) for j in range(k)) - pp**k

    peak = mp.mpf(1) / (k + 1)
    lo, hi = (mp.mpf(0), peak) if pp < 1 - peak else (peak, mp.mpf(1))
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if (g(mid) > 0) == (g(hi) > 0) else (mid, hi)
    return 1 - (lo + hi) / 2


@pytest.mark.parametrize("p, k", [(0.5, 30), (0.5, 45), (0.3, 5), (0.999999, 3), (0.75, 3), (0.95, 30)])
def test_coin_root_to_relative_accuracy(p, k):
    mp = mpmath.mp.clone()
    mp.dps = 60
    s = _mp_root(p, k, mp)
    # a few ulps of s_k; at k = 30 an absolute 1e-12 stop was 1e-3 off in 1 - s_k
    assert abs(z.coin_root(p, k) - s) <= 4e-16 * s


_DOUBLE_ROOTS = [(0.5, 1), (2 / 3, 2), (0.75, 3)]


@pytest.mark.parametrize("p, k", [
    (p + dp, k) for p, k in _DOUBLE_ROOTS for dp in (0.0, 1e-6, -1e-6, 1e-9, -1e-9)
] + [(0.5, 2), (0.3, 5), (0.6, 3), (0.95, 30), (0.999999, 3)])
def test_coin_constant_to_relative_accuracy(p, k):
    # 60 digits: c = 1 / (q D) with D the mean of k - j over j < k under weights
    # (s/p)^j, which is (s - p) / (q ((k+1) s - k)) wherever that is not 0/0
    mp = mpmath.mp.clone()
    mp.dps = 60
    s, pp = _mp_root(p, k, mp), mp.mpf(p)
    r = s / pp
    want = mp.fsum(r**j for j in range(k)) / ((1 - pp) * mp.fsum((k - j) * r**j for j in range(k)))
    if abs(s - pp) > 1e-3:
        assert abs(want - (s - pp) / ((1 - pp) * ((k + 1) * s - k))) <= 1e-40 * want
    assert abs(z.coin_constant(p, k, z.coin_root(p, k)) - want) <= 2e-15 * want


@pytest.mark.parametrize("p", [0.999999999, 0.999999998, 0.999998999])
def test_coin_constant_at_a_billion(p):
    # k = 10^9 puts the double root at 1 - 1e-9, where the double s_k is off by
    # up to an ulp of 1 and c moves by about k ulps with it, so the oracle takes
    # the double s_k as exact: 60-digit D = 1 + 1/expm1(l) - k/expm1(k l), l = log(s_k/p)
    k = 10**9
    s = z.coin_root(p, k)
    mp = mpmath.mp.clone()
    mp.dps = 60
    ell = mp.log(mp.mpf(s) / mp.mpf(p))
    # D's limit at l = 0, the double root, is (k + 1) / 2; at p = 0.999999999 the double s_k is p
    d = (k + 1) / mp.mpf(2) if ell == 0 else 1 + 1 / mp.expm1(ell) - k / mp.expm1(k * ell)
    want = 1 / ((1 - mp.mpf(p)) * d)
    assert abs(z.coin_constant(p, k, s) - want) <= 2e-15 * want


def _mp_root_by_logs(p, k, mp):
    """s_k to mp's precision, by bisection on log(x^k (1 - x)) = log(q p^k) in
    d = 1 - x on the side of the peak away from p, for any k."""
    pp = mp.mpf(p)
    target = mp.log(1 - pp) + k * mp.log(pp)
    peak = 1 / mp.mpf(k + 1)
    lo, hi = (mp.mpf(0), peak) if 1 - pp > peak else (peak, mp.mpf(1) / 2)
    rising = hi == peak  # k log(1 - d) + log(d) increases in d below the peak
    for _ in range(300):
        mid = (lo + hi) / 2
        if (k * mp.log1p(-mid) + mp.log(mid) < target) == rising:
            lo = mid
        else:
            hi = mid
    return 1 - (lo + hi) / 2


@pytest.mark.parametrize("p", [0.999999999, 0.999999998])
def test_coin_result_at_a_billion_against_the_exact_root(p):
    # c_k from the 60-digit root itself, not from the double s_k: the result
    # forms log(s/p) from the bisected 1 - s_k and the exact q = 1 - p
    k = 10**9
    mp = mpmath.mp.clone()
    mp.dps = 60
    s, pp = _mp_root_by_logs(p, k, mp), mp.mpf(p)
    want = (s - pp) / ((1 - pp) * ((k + 1) * s - k))
    res = z.coin_result(p, k)
    assert abs(res.c_k - want) <= 1e-12 * want
    assert abs(res.s_k - s) <= 1.2e-16


def _uncapped_no_run_probs(p, k, n_max, s=1.0):
    # the dynamic program over all k run lengths, whatever n_max is
    q = 1.0 - p
    alive = [0.0] * k
    alive[0] = 1.0 / s
    probs = [sum(alive)]
    for _ in range(n_max):
        total = probs[-1]
        alive = [q * total / s] + [p * a / s for a in alive[:-1]]
        probs.append(sum(alive))
    return probs


def test_coin_table_holds_no_more_run_lengths_than_tosses():
    # k = 10^9 run lengths would take some 100 GB; the table keeps n_max + 1 of them
    t0 = time.perf_counter()
    res = z.coin_result(0.5, 10**9, 3)
    assert z.coin_exact(0.5, 10**9, 3) == 1.0
    assert time.perf_counter() - t0 < 0.5
    assert [row[1] for row in res.table] == [1.0] * 4


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
@pytest.mark.parametrize("n_max", [0, 1, 2, 6, 12])
def test_capped_run_lengths_keep_every_bit(p, k, n_max):
    s = z.coin_root(p, k)
    assert z.coin_exact(p, k, n_max) == _uncapped_no_run_probs(p, k, n_max)[-1]
    assert [row[1] for row in z.coin_result(p, k, n_max).table] == _uncapped_no_run_probs(p, k, n_max)
    assert coinruns._no_run_probs(p, k, n_max, s) == _uncapped_no_run_probs(p, k, n_max, s)


def test_poisson_unit_rate_is_exact():
    res = z.poisson_phi(1.0)
    assert res.phi_r == 1.0
    assert res.c_r == 2.0


def test_poisson_rate_two_frozen_value():
    # scalar bisection on the defining fixed-point equation, frozen:
    assert z.poisson_phi(2.0).phi_r == pytest.approx(0.4063757399599599, abs=1e-10)
    assert z.poisson_phi(2.0).c_r == pytest.approx(1.3422836357231676, abs=1e-10)
    assert z.poisson_phi(0.5).phi_r == pytest.approx(1.7564312086261693, abs=1e-10)


@pytest.mark.parametrize("r", [
    40.0, 60.0, 700.0, 2.0, 0.5, 1e-300, 1.05, 0.95, 1.0 + 1e-3, 1.0 - 1e-3, 1.0 + 1e-10, 1.0 - 1e-10,
])
def test_poisson_companion_root_to_relative_accuracy(r):
    # 40-digit Lambert W: phi = -W_k(-r e^-r), k = 0 above r = 1 and -1 below
    mp = mpmath.mp.clone()
    mp.dps = 40
    x = mp.mpf(r)
    phi = -mp.lambertw(-x * mp.exp(-x), 0 if r > 1.0 else -1).real
    res = z.poisson_phi(r)
    assert abs(res.phi_r - phi) <= 1e-12 * phi
    assert abs(res.c_r - (phi - x) / (x * (phi - 1))) <= 1e-12 * res.c_r
    assert (res.phi_r - 1.0) * (r - 1.0) < 0.0  # the companion root lies across 1 from r


def test_poisson_underflow_raises():
    for r in (745.0, 1000.0):
        with pytest.raises(NumericError):
            z.poisson_phi(r)


def test_poisson_agrees_with_chain_solver():
    for r in (0.5, 1.0, 2.0):
        res = z.poisson_phi(r)
        spec = z.ChainSpec(n_states=1, rates=[[r]], wait_threshold=1.0)
        sol = z.solve_phi(z.analyze_hitting(spec))
        assert res.phi_r == pytest.approx(sol.phi, abs=1e-8)
        assert res.c_r == pytest.approx(sol.kappa, abs=1e-8)


def test_domain_errors():
    with pytest.raises(PreconditionError):
        z.coin_root(0.0, 2)
    with pytest.raises(PreconditionError):
        z.coin_root(1.0, 2)
    with pytest.raises(PreconditionError):
        z.coin_root(0.5, 0)
    with pytest.raises(PreconditionError):
        z.coin_exact(1.3, 2, 5)
    with pytest.raises(PreconditionError):
        z.poisson_phi(0.0)
    with pytest.raises(PreconditionError):
        z.coin_result(0.5, 2, -1)
