"""Seeded request streams.

A generator takes the seed and emits plain data only: expression strings,
rationals written as ``"p/q"`` strings, precisions, and the request kind.
Nothing here calls into hyperseries; ``execute.py`` turns each request into
calls inside the timed region.  A stream is a sequence of blocks; every
period of two blocks holds the same multiset of request kinds (the
workload's stated mix) in a seeded order with seeded parameters.
Parameters that move a request's cost by a large factor are not drawn:
they are fixed or cycle by block, so that runs on different seeds measure
the same work in a different order.
``membership-sweep`` deliberately shares one series object between the
requests of a sweep; every other request builds its inputs from scratch.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

#: Blocks generated per stream: far more requests than one run completes,
#: so the stream (and its fingerprint) does not depend on the program's
#: speed.
STREAM_BLOCKS = 60

NOWHERE = "exp(-2*n)*(4*n^2)^n/factorial(n)"


def _q(value: Fraction) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else \
        "%d/%d" % (value.numerator, value.denominator)


def _paren(text: str) -> str:
    return "(%s)" % text if "/" in text else text


def power_family(c: Fraction, j: int = 0, k: int = 0, m: int = 0) -> dict:
    """a(n, eps) = rho^k * c^n * rho^(-m n) * (n+1)^j; radius rho^m / c."""
    factors = []
    if k:
        factors.append("rho^%d" % k)
    if c != 1:
        factors.append("%s^n" % _paren(_q(c)))
    if m:
        factors.append("rho^(-%d*n)" % m)
    if j:
        factors.append("(n+1)" if j == 1 else "(n+1)^%d" % j)
    return {"type": "power", "c": _q(c), "j": j, "k": k, "m": m,
            "expr": "*".join(factors) or "1"}


EXP_FAMILY = {"type": "exp", "expr": "1/factorial(n)", "corpus": "exponential"}
ZERO_FAMILY = {"type": "zero", "expr": "rho^((n+1)/eps)", "corpus": "zero-class"}
GEOMETRIC = dict(power_family(Fraction(1)), corpus="geometric")


def _pow_point(k) -> dict:
    k = Fraction(k)
    return {"pow": _q(k), "expr": "rho" if k == 1 else "rho^(%s)" % _q(k)}


def _const_point(value: Fraction) -> dict:
    return {"const": _q(value), "expr": _q(value)}


NEG_LOG = {"neglog": 1, "expr": "-log(rho)"}


# ---------------------------------------------------------------------------
# membership-sweep
# ---------------------------------------------------------------------------

#: Outside-by-a-constant probes sit at this multiple of the radius.
PROBE_FACTOR = Fraction(3)


def _sweep_requests(family: dict, bits: int, heavy: str, tag: str,
                    c_exp=None):
    """The point sweep over one family; every request shares its series.

    A sweep visits its points in a fixed order: the first request to sum
    far enough pays for the coefficients the later ones reuse, so with a
    seeded order the seed would decide which request pays, and the median
    falls among these requests.  Cheap kinds (a few ms), middle kinds
    (about 30 ms), dearer sums and converges_at are balanced so that the
    median falls inside the middle kinds and the 90th percentile inside
    converges_at at rho^k.
    """
    reqs = []

    def add(kind, point, expect, **extra):
        reqs.append(dict(kind=kind, bits=bits, family=family, point=point,
                         expect=expect, **extra))

    kind = family["type"]
    if kind == "power":
        radius = 1 / Fraction(family["c"])
        add("series_limit", _pow_point(1), "value")
        add("hyperfinite_sum", _pow_point(2), "value")
        add("eventually_bounded", _pow_point(1), "pass")
        add("eventually_bounded", _const_point(radius / 2), "pass")
        for fraction in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4),
                         Fraction(2, 3)):
            add("series_limit", _const_point(radius * fraction), "value")
        add("hyperfinite_sum", _const_point(radius / 2), "value")
        add("series_limit", _pow_point(-1), "divergent")
        # converges_at at rho wrongly fails for most rho c^n families at 128
        # bits, an open defect of the program (perfbench/BASELINE.md); that
        # sweep asks at rho^2 only
        for k in ((2,) if family["k"] and bits == 128 else (1, 2)):
            add("converges_at", _pow_point(k), "pass")
        if heavy == "inside-const":
            add("converges_at", _const_point(radius / 2), "pass")
        elif heavy == "outside-rho":
            add("converges_at", _pow_point(-1), "fail")
        elif heavy == "outside-const":
            add("series_limit", _const_point(radius * PROBE_FACTOR),
                "divergent", probe=True)
        else:
            add("eventually_bounded", _pow_point(-1), "fail")
    elif kind == "exp":
        c = c_exp
        add("series_limit", _pow_point(1), "value")
        add("series_limit", _pow_point(2), "value")
        add("eventually_bounded", _pow_point(1), "pass")
        add("eventually_bounded", _const_point(c), "pass")
        add("series_limit", _const_point(c), "value")
        add("series_limit", _const_point(-c), "value")
        add("series_limit", NEG_LOG, "value")
        add("eventually_bounded", _pow_point(-1), "fail")
        add("converges_at", _pow_point(1), "pass")
        add("converges_at", _pow_point(2), "pass")
    else:  # zero-class: radius rho^(-1/eps), so rho^-1 is inside
        add("series_limit", _pow_point(1), "value")
        add("series_limit", _const_point(Fraction(1, 2)), "value")
        add("hyperfinite_sum", _pow_point(2), "value")
        add("eventually_bounded", _pow_point(1), "pass")
        add("series_limit", _pow_point(-1), "value")
        add("eventually_bounded", _pow_point(-1), "pass")
        add("converges_at", _pow_point(-1), "pass")
        add("converges_at", _pow_point(2), "pass")
    for position, req in enumerate(reqs):
        req["sweep"] = "%s.%d" % (tag, position)
    return reqs


#: The c^n (n+1)^j families that carry the heavy requests, with a fixed
#: ratio each.  Their requests cost seconds, a run completes only two or
#: three of each, and the cost grows with the size of c's numerator and
#: denominator (the probe at 3r averaged 2.1 s in one run and 3.1 s in
#: another with drawn ratios), so a drawn ratio would move a run's figures
#: more than the machine's own noise does.  The rho c^n family's ratio and
#: the exponential sweep's constant cycle by block.
HEAVY_SWEEPS = ((Fraction(3, 2), 0, "outside-rho"),
                (Fraction(2), 1, "outside-const"),
                (Fraction(5, 2), 2, "inside-const"))


def membership_block(rng: random.Random, index: int) -> list:
    """Six sweeps of fixed shape: three c^n (n+1)^j families (j = 0, 1, 2),
    each carrying one heavy request (converges_at at rho^-1, the probe at 3r,
    converges_at at r/2), a rho c^n family at 128 bits, the exponential
    family at 512 bits and the zero-class family.  The seed orders the
    sweeps of each block."""
    cs = [Fraction(p, q) for p, q in ((3, 2), (2, 1), (5, 2), (3, 1), (5, 4),
                                       (7, 4), (9, 4), (7, 2))]
    sweeps = [_sweep_requests(power_family(c, j=j), 256, heavy, "j%d" % j)
              for c, j, heavy in HEAVY_SWEEPS]
    sweeps += [
        _sweep_requests(power_family(cs[index % len(cs)], k=1), 128, "", "rho"),
        _sweep_requests(EXP_FAMILY, 512, "", "exp",
                        c_exp=Fraction(2 + index % 5, 4)),
        _sweep_requests(ZERO_FAMILY, 256, "", "zero"),
    ]
    rng.shuffle(sweeps)
    return sweeps


# ---------------------------------------------------------------------------
# fresh-coefficients
# ---------------------------------------------------------------------------


def fresh_block(rng: random.Random, index: int) -> list:
    """Every request builds its family from scratch.  The slots (kind,
    family shape, window, precision) are fixed, and so is each slot's ratio
    in each block; the seed picks the pair seeds and orders the requests."""
    cs = [Fraction(p, q) for p, q in ((3, 2), (2, 1), (5, 2), (3, 1), (1, 2),
                                       (1, 3), (3, 4), (5, 4))]
    # check_strong_eq wrongly fails its pass case for the non-dyadic ratio
    # 1/3, an open defect of the program (perfbench/BASELINE.md)
    strong_cs = [c for c in cs if c != Fraction(1, 3)]

    # each slot cycles through the ratios by block from its own starting
    # point: with a ratio drawn per block a run's cost followed the seed (in
    # one run a radius of c^n over 256 terms took 72 ms at c = 1/3 and
    # 105 ms at c = 1/2), and a run of about ten blocks meets every ratio
    slot = itertools.count()

    def shape(name, ratios=cs):
        turn = index + next(slot)
        c = ratios[turn % len(ratios)]
        if name == "power0":
            return power_family(c)
        if name == "power1":
            return power_family(c, j=1)
        if name == "power2":
            return power_family(c, j=2)
        if name == "eps1":
            return power_family(c, m=1)
        if name == "eps2":
            return power_family(c, j=1, m=2)
        return power_family(c, k=1 + turn % 2, m=1)  # rho-scaled

    reqs = []

    def add(kind, bits, **extra):
        reqs.append(dict(kind=kind, bits=bits, **extra))

    radius_slots = ((64, "power0", 128), (64, "power1", 256), (64, "eps1", 256),
                    (64, "power2", 256), (64, "rho", 256), (64, "power0", 256),
                    (128, "power2", 256), (128, "rho", 256), (128, "eps2", 256),
                    (256, "power0", 256), (256, "power1", 512),
                    (256, "eps1", 256), (256, "rho", 256), (256, "power2", 256))
    for window, name, bits in radius_slots:
        add("radius", bits, family=shape(name), window=[16, window],
            expect="value")
    add("radius", 256, family=EXP_FAMILY, window=[16, 128], expect="value")
    add("classify_radius", 256, family=shape("power1"), window=[16, 64],
        expect="value")
    add("classify_radius", 512, family=shape("eps1"), window=[16, 128],
        expect="value")
    add("classify_radius", 256, family=ZERO_FAMILY, window=[16, 64],
        expect="value")
    add("check_weak_moderate", 256, family=shape("power1"), n_max=64,
        expect="pass")
    add("check_weak_moderate", 256, family=shape("rho"), n_max=64,
        expect="pass")
    add("check_weak_moderate", 256, family={"type": "factorial",
                                            "expr": "factorial(n)"},
        n_max=64, expect="fail")
    add("check_weak_moderate", 128, family={"type": "nowhere", "expr": NOWHERE},
        n_max=64, expect="fail")
    for name, perturbation, expect, ratios in (
            ("power1", "rho^((n+1)/eps)", "pass", strong_cs),
            ("power0", "rho^(n+5)", "fail", cs)):
        base = shape(name, ratios)
        add("check_strong_eq", 256, family=base,
            other="(%s) + %s" % (base["expr"], perturbation), expect=expect)
    for n_max, bits in ((16, 128), (32, 256), (48, 256), (64, 512)):
        add("division_round_trip", bits, pair_seed=rng.randrange(2 ** 31),
            n_max=n_max, expect="value")
    for n_max in (8, 12):
        add("reverse_compose", 256, family_seed=rng.randrange(2 ** 31),
            n_max=n_max, expect="value")
    rng.shuffle(reqs)
    return [reqs]


# ---------------------------------------------------------------------------
# growth-witness
# ---------------------------------------------------------------------------


def growth_block(rng: random.Random, index: int) -> list:
    """256 bits only: the delta quadrature raises at 512 bits and costs
    about 16 s there.  The delta net alternates b = 1, 2 between blocks.

    Sixty requests, ordered by cost: 26 cheap predicates, 8 ext_eq passes
    (3-5 ms), 16 gauge_le_star passes (4-15 ms), 8 exp nets (45-80 ms) and two
    nets that cost seconds.  The median falls in the middle of the ext_eq
    passes and the 90th percentile in the middle of the exp nets, so that
    neither sits on the edge of a kind or in the noisy top of one."""
    reqs = []

    def add(kind, expect, **extra):
        reqs.append(dict(kind=kind, bits=256, expect=expect, **extra))

    for _ in range(8):
        a = Fraction(rng.randrange(1, 5), 4)
        add("graf_check", "pass", net="exp", a=_q(a), n_max=40, exponent=0)
    # one delta net and one series net per block, alternating between blocks
    b = 1 + index % 2
    add("graf_check", "pass", net="delta", b=b, n_max=16, exponent=b)
    if index % 2:
        add("graf_check", "fail", net="nowhere", family=NOWHERE, n_max=32)
    else:
        add("graf_check", "fail", net="factorial", family="factorial(n)",
            n_max=32)
    for _ in range(8):
        m = rng.randrange(0, 7)
        if rng.random() < 0.5:
            add("is_moderate", "pass", x="rho^(-%d)" % m, witness=str(m))
        else:
            scale = rng.randrange(2, 10)
            add("is_moderate", "pass", x="%d*rho^(-%d)" % (scale, m),
                witness=str(m + 1))
    for x in ("exp(1/rho)", "rho^(-1/eps)", "exp(rho^(-1/2))"):
        add("is_moderate", "fail", x=x)
    for _ in range(5):
        m = rng.randrange(1, 4)
        add("is_negligible", "pass",
            x=rng.choice(("rho^(%d/eps)" % m, "exp(-%d/rho)" % m,
                          "%d*rho^(1/eps)" % (m + 1))))
    for _ in range(4):
        add("is_negligible", "fail", x="rho^%d" % rng.randrange(1, 5))
    bases = ("1/(1-rho)", "exp(rho)", "1+rho^2", "2/(1+rho)")
    for _ in range(8):
        base = rng.choice(bases)
        add("ext_eq", "pass", x=base,
            y="%s + rho^(%d/eps)" % (base, rng.randrange(1, 4)))
    for _ in range(4):
        base = rng.choice(bases)
        add("ext_eq", "fail", x=base, y="%s + rho^%d" % (base, rng.randrange(1, 4)))
    for _ in range(16):
        exponent = Fraction(rng.randrange(1, 25), rng.choice((2, 3, 4)))
        exponent = max(exponent, Fraction(1, 4))
        expected = min(Fraction(int(exponent * 4), 4), Fraction(8))
        add("gauge_le_star", "pass", sigma="eps^(%s)" % _q(exponent),
            witness=_q(expected))
    for _ in range(2):
        add("gauge_le_star", "fail",
            sigma="eps^(%s)" % _q(Fraction(1, rng.randrange(5, 9))))
    rng.shuffle(reqs)
    return [reqs]


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def cli_block(rng: random.Random, index: int) -> list:
    """Sixty-three short subcommands, each in its own process, and one
    delta command placed within the first third of the block."""
    cs = [Fraction(p, q) for p, q in ((3, 2), (2, 1), (5, 2), (3, 1), (5, 4))]
    reqs = []

    def add(argv, exit_code, check=None, **extra):
        reqs.append(dict(kind="cli", bits=256, argv=argv, exit=exit_code,
                         check=check, expect="exit", **extra))

    for round_ in range(6):
        add(["moderate", "--x=rho^(-%d)" % rng.randrange(0, 7)], 0)
        add(["negligible", "--x=rho^(%d/eps)" % rng.randrange(1, 4)], 0)
        fam = power_family(rng.choice(cs))
        add(["radius", "--series", fam["expr"]], 0, check="radius", family=fam)
        k = rng.choice((1, 2))
        add(["sum", "--series", "geometric", "--x=rho^%d" % k], 0, check="sum",
            family=GEOMETRIC, point=_pow_point(k))
        x = Fraction(1, rng.randrange(2, 6))
        add(["limit", "--series", "geometric", "--x=%s" % _q(x)], 0,
            check="limit", family=GEOMETRIC, point=_const_point(x))
        fam = power_family(rng.choice(cs))
        if rng.random() < 0.5:
            add(["strong-eq", "--series", fam["expr"], "--series2",
                 "%s+rho^((n+1)/eps)" % fam["expr"]], 0)
        else:
            add(["strong-eq", "--series", fam["expr"], "--series2",
                 "%s+rho^(n+5)" % fam["expr"]], 2)
        if rng.random() < 0.5:
            add(["weak-moderate", "--series", "factorial(n)"], 2)
        else:
            add(["weak-moderate", "--series",
                 power_family(rng.choice(cs))["expr"]], 0)
        c = rng.choice(cs)
        add(["algebra", "div", "--series", power_family(c)["expr"],
             "--series2", "geometric", "--n-max", str(rng.choice((8, 12, 16)))],
            0, check="div", c=_q(c))
        add(["graf", "--net", "exp"], 0)
        fam = power_family(rng.choice(cs))
        add(["classify", "--series", fam["expr"]], 0, check="classify",
            family=fam)
        if round_ % 2:
            # the slowest short command, half again as often, so the 90th
            # percentile falls inside it rather than on its edge
            fam = power_family(rng.choice(cs))
            add(["radius", "--series", fam["expr"]], 0, check="radius",
                family=fam)
    rng.shuffle(reqs)
    reqs.insert(rng.randrange(0, len(reqs) // 3),
                dict(kind="cli", bits=256,
                     argv=["bounded", "--series", "delta", "--x", "rho"],
                     exit=0, check=None, expect="exit", delta=True))
    return [reqs]


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

BLOCKS = {"membership-sweep": membership_block,
          "fresh-coefficients": fresh_block,
          "growth-witness": growth_block,
          "cli-cold": cli_block}
WORKLOADS = tuple(BLOCKS)


def requests(workload: str, seed: int, blocks: int = STREAM_BLOCKS):
    """The request stream, generated one block at a time as it is consumed.
    Each request is tagged with its block, its group (the requests of one
    group share a series object) and its mix key."""
    rng = random.Random("%s/%d" % (workload, seed))
    group = 0
    for block in range(blocks):
        for batch in BLOCKS[workload](rng, block):
            for req in batch:
                req["block"] = block
                req["group"] = group
                req["mix"] = mix_key(req)
                yield req
            group += 1


def generate(workload: str, seed: int, blocks: int = STREAM_BLOCKS) -> list:
    """The whole request stream as a list."""
    if workload not in BLOCKS:
        raise ValueError("unknown workload %r" % workload)
    return list(requests(workload, seed, blocks))


def mix_key(req: dict) -> str:
    """The request kind as the stated mix counts it; every block holds the
    same number of requests of each key."""
    kind = req["kind"]
    if kind == "cli":
        return "cli:" + ("delta" if req.get("delta") else req["argv"][0])
    if "point" in req:
        point = req["point"]
        if req.get("probe"):
            where = "outside-const"
        elif req["expect"] in ("fail", "divergent") and point.get("pow") == "-1":
            where = "outside-rho"
        elif point.get("pow") == "-1":
            where = "inside-rho-inv"
        elif "pow" in point:
            where = "inside-rho"
        else:
            where = "inside-const"
        if "sweep" in req:
            # one key per position in a sweep: the run's last, partial block
            # holds a seeded subset of the sweeps, and a coarser key would
            # let that subset shift the mix within the key
            return "%s:%s:%s" % (kind, where, req["sweep"])
        return "%s:%s" % (kind, where)
    if kind in ("radius", "classify_radius"):
        return "%s:%s:w%d" % (kind, req["family"]["type"], req["window"][1])
    if kind in ("division_round_trip", "reverse_compose"):
        return "%s:n%d" % (kind, req["n_max"])
    if kind == "graf_check":
        if req["net"] == "delta":
            return "graf_check:delta-b%d" % req["b"]
        return "graf_check:%s" % req["net"]
    return "%s:%s" % (kind, req["expect"])


#: Blocks after which the composition repeats (the delta net alternates).
PERIOD = 2


def _shares(values) -> dict:
    counts = Counter(values)
    return {key: counts[key] / len(values) for key in sorted(counts)}


def stated_mix(workload: str) -> dict:
    """Share of each mix key over a period of blocks (the same in every
    period)."""
    return _shares([r["mix"] for r in generate(workload, 0, blocks=PERIOD)])


def precision_mix(workload: str) -> dict:
    """Share of requests per mantissa size over a period of blocks."""
    shares = _shares([r["bits"] for r in generate(workload, 0, blocks=PERIOD)])
    return {str(bits): share for bits, share in shares.items()}
