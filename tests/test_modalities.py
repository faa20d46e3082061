import dataclasses
import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpbench.core import FinSet
from wpbench.modalities import (
    BOOLEAN,
    INSTANCES,
    RATIONAL,
    STRUCTURE_CLASSES,
    IntegerRows,
    LawCheck,
    Modality,
    algebra_to_monad_map,
    builtin_modality,
    builtin_modality_names,
    check_algebra_laws,
    lifting_check,
    monad_map_to_algebra,
)
from wpbench.monads import (
    MONADS,
    DistV,
    KleisliArrow,
    MonadKind,
    check_monad_map_laws,
    enumerate_arrows,
    sigma_prime_spec,
    sigma_spec,
)
from wpbench.semantics import pt_modality
from wpbench.verdicts import witness_is_sound

F = Fraction


def test_catalog_names_and_classes():
    expect = {
        "diamond": "cl_join",
        "box": "cl_meet",
        "total": "gemod",
        "partial": "gemod_dual",
        "convex": "emod",
        "dijkstra": "strict_cl_meet",
        "game": "pos",
        "demonic_prob": "emod_sublinear",
    }
    for name, cls in expect.items():
        assert builtin_modality(name).structure_class == cls
    assert set(expect) == set(builtin_modality_names())
    with pytest.raises(ValueError):
        builtin_modality("no_such_modality")
    with pytest.raises(ValueError):
        builtin_modality("tau_r:3/2")


def test_tau_r_zero_subdistribution():
    zero = DistV()
    assert builtin_modality("tau_r:0").evaluate(zero, lambda v: v) == 0
    assert builtin_modality("tau_r:1").evaluate(zero, lambda v: v) == 1
    third = builtin_modality("tau_r:1/3")
    assert third.evaluate(zero, lambda v: v) == F(1, 3)


def test_tau_r_dirac_unit_law():
    for r in ("0", "1/4", "1", "2/3"):
        mod = builtin_modality(f"tau_r:{r}")
        for v in (F(0), F(1, 2), F(1)):
            assert mod.evaluate(DistV.dirac(v), lambda x: x) == v


def test_tau_r_total_on_full_mass_is_r_independent():
    rng = Random(3)
    X = FinSet("V", (F(0), F(1, 4), F(1, 2), F(1)))
    for _ in range(40):
        p = MONADS[MonadKind.DIST].sample(rng, X)
        vals = [
            builtin_modality(f"tau_r:{r}").evaluate(p, lambda v: v)
            for r in ("0", "1/4", "1/2", "1")
        ]
        assert len(set(vals)) == 1


def _assert_dense_formula(spec, Y, formula):
    # spec's component at Y, on every subset mask s and predicate mask m,
    # against the formula on masks
    mask = lambda S: sum(1 << Y.index(y) for y in S)
    for S in MONADS[MonadKind.POWERSET].tvalues(Y):
        for m in range(1 << len(Y)):
            assert spec.at(Y, S)(lambda y: m >> Y.index(y) & 1) == formula(mask(S), m)


def test_sigma_is_diamond_induced_map(Y2, Y3):
    # sigma(S)(f) = 1 iff f holds somewhere in S
    join = lambda s, m: int(s & m != 0)
    for spec in (algebra_to_monad_map(builtin_modality("diamond")), sigma_spec()):
        for Y in (Y2, Y3):
            _assert_dense_formula(spec, Y, join)
        assert check_monad_map_laws(spec, [Y2]).is_healthy


def test_sigma_prime_is_box_induced_map(Y2, Y3):
    # sigma'(S)(f) = 1 iff f holds everywhere in S
    meet = lambda s, m: int(s & ~m == 0)
    for spec in (algebra_to_monad_map(builtin_modality("box")), sigma_prime_spec()):
        for Y in (Y2, Y3):
            _assert_dense_formula(spec, Y, meet)
        assert check_monad_map_laws(spec, [Y2]).is_healthy


@pytest.mark.parametrize("theorem", ["may", "must", "dijkstra"])
def test_boolean_comparison_maps_are_class_members(theorem):
    # the comparison map of a Boolean catalog row whose monad has fmap and
    # mult lands in its class; the De Morgan dual component does not
    carriers = [FinSet("A", ("a0",)), FinSet("B", ("b0", "b1"))]
    spec = algebra_to_monad_map(INSTANCES[theorem])
    assert spec.membership is not None
    assert check_monad_map_laws(spec, carriers).is_healthy
    component = spec.component
    dual = lambda elems, t: lambda f: 1 - component(elems, t)(lambda x: 1 - f(x))
    bad = dataclasses.replace(spec, component=dual)
    verdict = check_monad_map_laws(bad, carriers)
    assert verdict.witness.law == "map.membership"
    assert witness_is_sound(bad, verdict.witness)
    assert not witness_is_sound(spec, verdict.witness)


def test_monad_map_to_algebra_recovers_join_and_meet():
    sigma_alg = monad_map_to_algebra(sigma_spec())
    sigma_prime_alg = monad_map_to_algebra(sigma_prime_spec())
    for subset in [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]:
        assert sigma_alg.apply_algebra(subset) == max(subset, default=0)
        assert sigma_prime_alg.apply_algebra(subset) == min(subset, default=1)


def test_prop_correspondence_roundtrip_on_catalog():
    # algebra -> map -> algebra is the identity on the structure maps
    for name in builtin_modality_names():
        mod = builtin_modality(name)
        rebuilt = monad_map_to_algebra(algebra_to_monad_map(mod), name=mod.name)
        rng = Random(13)
        values = (0, 1) if mod.carrier == BOOLEAN else (F(0), F(1, 4), F(1, 2), F(1))
        omega = FinSet("omega", values)
        if mod.monad in (MonadKind.POWERSET, MonadKind.LIFT_POWERSET, MonadKind.UP_POWERSET):
            ts = MONADS[mod.monad].tvalues(omega)
        else:
            ts = [MONADS[mod.monad].sample(rng, omega) for _ in range(40)]
        for t in ts:
            assert rebuilt.apply_algebra(t) == mod.apply_algebra(t)


def test_algebra_laws_catalog():
    for name in builtin_modality_names():
        verdict = check_algebra_laws(builtin_modality(name), sample_depth=20)
        assert verdict.is_healthy, f"{name}: {verdict.describe()}"


def test_algebra_laws_tau_r_family():
    for r in ("0", "1/2", "1"):
        verdict = check_algebra_laws(builtin_modality(f"tau_r:{r}"), sample_depth=50)
        assert verdict.is_healthy and verdict.checked >= 200


def test_algebra_laws_corrupted_witnessed():
    bad = Modality(
        "sum_of_squares",
        MonadKind.SUBDIST,
        RATIONAL,
        None,
        lambda p, f: sum((q * f(x) ** 2 for x, q in p.items()), F(0)),
    )
    verdict = check_algebra_laws(bad, sample_depth=20)
    assert verdict.is_unhealthy
    assert verdict.witness.law in ("algebra.unit", "algebra.mult")
    assert witness_is_sound(bad, verdict.witness)


def test_parity_algebra_fails_the_mult_law():
    # the parity of the chosen values agrees with every valuation at a
    # singleton, so the unit law holds, but not with its own flattening
    parity = Modality("parity", MonadKind.POWERSET, BOOLEAN, None, lambda s, f: sum(f(x) for x in s) % 2)
    verdict = check_algebra_laws(parity)
    assert verdict.witness.law == "algebra.mult"
    assert witness_is_sound(parity, verdict.witness)


def test_lifting_catalog_nmax3():
    # every catalog modality passes at n <= 3 for its declared class
    for name in builtin_modality_names():
        mod = builtin_modality(name)
        verdict = lifting_check(mod, mod.structure_class, n_max=3, samples_per_n=60)
        assert verdict.is_healthy, f"{name}/{mod.structure_class}: {verdict.describe()}"


def test_lifting_mismatch_diamond_meet():
    mod = builtin_modality("diamond")
    verdict = lifting_check(mod, "cl_meet", n_max=2)
    assert verdict.is_unhealthy
    # reproducible witness
    again = lifting_check(mod, "cl_meet", n_max=2)
    assert again.witness == verdict.witness


def test_lifting_binary_meet_violation_exists():
    # the documented two-point violation: join fails binary meets on {a,b}
    mod = builtin_modality("diamond")
    t = frozenset({"e0", "e1"})
    f, g = (1, 0), (0, 1)
    F_t = lambda tup: mod.evaluate(t, lambda x: tup[0 if x == "e0" else 1])
    met = tuple(min(a, b) for a, b in zip(f, g))
    assert F_t(met) == 0
    assert min(F_t(f), F_t(g)) == 1


def test_lifting_rejects_bad_nmax():
    with pytest.raises(ValueError):
        lifting_check(builtin_modality("diamond"), "cl_join", n_max=0)


def _verdict_fields(verdict):
    w = verdict.witness
    witness = None if w is None else (w.law, list(w.args.items()), w.lhs, w.rhs)
    return verdict.status, verdict.checked, witness, verdict.describe()


def test_lifting_integer_route_agrees_with_generic_route(monkeypatch):
    # each closed-form catalog modality under every rational class, once as
    # the catalog row (its components run on integer rows) and once wrapped
    # as a rule with no closed form (the Fraction route); the integer route
    # evaluates the rows one argument at a time or reads their certificate
    calls = []
    for owner, name in ((IntegerRows, "ints"), (LawCheck, "_certified")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda self, *a, fn=fn: calls.append(1) or fn(self, *a))
    rational = [tag for tag, cls in STRUCTURE_CLASSES.items() if cls.carrier == RATIONAL]
    laws = {}
    for name in ("total", "partial", "tau_r:1/3", "convex", "demonic_prob"):
        mod = builtin_modality(name)
        rule = Modality(name, mod.monad, RATIONAL, None, lambda t, f, mod=mod: mod.evaluate(t, f))
        for cls in rational:
            calls.clear()
            kernel = lifting_check(mod, cls, n_max=3, seed=5, samples_per_n=12)
            assert calls, f"{name}:{cls} did not take the integer route"
            calls.clear()
            generic = lifting_check(rule, cls, n_max=3, seed=5, samples_per_n=12)
            assert not calls
            assert _verdict_fields(kernel) == _verdict_fields(generic), f"{name}:{cls}"
            laws[name, cls] = kernel.witness and kernel.witness.args["law"]
            if kernel.is_unhealthy:
                # the witness replays on alpha_n(t), states named e0, e1, ...
                t = kernel.witness.args["t"]
                F = lambda tup: mod.evaluate(t, lambda x: tup[int(x[1:])])
                assert witness_is_sound(F, kernel.witness)
    assert laws["convex", "emod"] is None and laws["demonic_prob", "emod_sublinear"] is None
    assert laws["total", "gemod_dual"] == "dual_zero"
    assert laws["demonic_prob", "emod"] == "sum"
    # a translate witness is re-evaluated in Fractions, off the lattice
    assert laws["total", "emod_sublinear"] == "translate"


def test_lifting_certifies_the_healthy_closed_forms(monkeypatch):
    # each closed form under its own class: the coefficient certificate
    # decides every group over sums, dual sums, scalings and shifts, so the
    # checks evaluate F at the constant predicates of the constant laws only
    constant = []
    value = LawCheck._value
    monkeypatch.setattr(
        LawCheck, "_value", lambda self, point, *a: constant.append(point in self._points[-2:]) or value(self, point, *a)
    )
    for name in ("total", "partial", "convex", "demonic_prob"):
        mod = builtin_modality(name)
        assert lifting_check(mod, mod.structure_class, n_max=3, seed=5, samples_per_n=12).is_healthy
    assert constant and all(constant)


# Boolean catalog rows whose monad has a multiplication (game's UP_POWERSET
# has none), so that T(Y) is a free algebra
TRIANGLE_ROWS = [
    t for t, mod in INSTANCES.items() if mod.carrier == BOOLEAN and MONADS[mod.monad].mult is not None
]


@pytest.mark.parametrize("theorem", TRIANGLE_ROWS)
def test_state_and_effect_triangle(theorem):
    # Alg(T(Y), Omega) is Omega^Y through h |-> h . eta, with inverse
    # p |-> (t |-> eval(t, p)), and pt(f) is precomposition with f; the
    # algebra maps come from mult and the row's rule, pt from its closed form
    mod = INSTANCES[theorem]
    monad = MONADS[mod.monad]
    X = FinSet("X", ("x",))
    checks = {}
    for n in itertools.count():
        Y = FinSet(f"Y{n}", tuple(f"y{i}" for i in range(n)))
        TY = tuple(monad.tvalues(Y))
        if 2 ** len(TY) > 256:
            break
        TTY = monad.tvalues(FinSet(f"T{Y.name}", TY))
        morphisms = []
        for bits in itertools.product((0, 1), repeat=len(TY)):
            h = dict(zip(TY, bits))
            if all(h[monad.mult(tt)] == mod.evaluate(tt, h.__getitem__) for tt in TTY):
                morphisms.append(h)
        assert len(morphisms) == 2**n
        restricted = [tuple(h[monad.unit(Y, y)] for y in Y) for h in morphisms]
        assert sorted(restricted) == list(itertools.product((0, 1), repeat=n))
        for h, p in zip(morphisms, restricted):
            assert h == {t: mod.evaluate(t, dict(zip(Y, p)).__getitem__) for t in TY}
        checks[n] = 0
        for f in enumerate_arrows(mod.monad, X, Y):
            phi = pt_modality(mod, f)
            for h, p in zip(morphisms, restricted):
                mask = sum(bit << i for i, bit in enumerate(p))
                assert h[f.row("x")] == phi.apply_mask(mask) & 1, (f, p)
                checks[n] += 1
    # |T(Y)| arrows times 2^|Y| morphisms per |Y| = 0, 1, ...
    expected = {"may": [1, 4, 16, 64], "must": [1, 4, 16, 64], "dijkstra": [1, 6, 28]}[theorem]
    assert checks == dict(enumerate(expected))


@pytest.mark.parametrize("kind", [MonadKind.POWERSET, MonadKind.LIFT_POWERSET])
def test_free_algebra_is_the_kleisli_extension_of_the_identity(kind):
    # the structure map of the free algebra T(Y) is mu, the extension of
    # id: T(Y) -> T(Y)
    monad = MONADS[kind]
    Y = FinSet("Y1", ("y",))
    TY = FinSet("TY1", tuple(monad.tvalues(Y)))
    identity = KleisliArrow(kind, TY, Y, TY.elements)
    values = monad.tvalues(TY)
    assert values
    for tt in values:
        assert monad.mult(tt) == monad.extend(tt, identity), tt


# pointwise class structure on [0,1]^n satisfies the GEMod/EMod axioms
rat = st.fractions(min_value=0, max_value=1, max_denominator=16)


@settings(max_examples=60)
@given(st.tuples(rat, rat, rat), st.tuples(rat, rat, rat), st.tuples(rat, rat, rat), rat, rat)
def test_pointwise_gemod_axioms(x, y, z, r, s):
    def defined(a, b):
        return all(u + v <= 1 for u, v in zip(a, b))

    def add(a, b):
        return tuple(u + v for u, v in zip(a, b))

    zero = (F(0),) * 3
    # commutativity and zero
    if defined(x, y):
        assert add(x, y) == add(y, x)
    assert add(x, zero) == x
    # Kleene-associativity: if both groupings are defined they agree
    if defined(x, y) and defined(add(x, y), z) and defined(y, z) and defined(x, add(y, z)):
        assert add(add(x, y), z) == add(x, add(y, z))
    # positivity and cancellativity
    if defined(x, y) and add(x, y) == zero:
        assert x == zero and y == zero
    if defined(x, y) and defined(x, z) and add(x, y) == add(x, z):
        assert y == z
    # scalar laws
    if r + s <= 1:
        assert tuple((r + s) * u for u in x) == add(tuple(r * u for u in x), tuple(s * u for u in x))
    assert tuple(r * (s * u) for u in x) == tuple((r * s) * u for u in x)
    assert tuple(1 * u for u in x) == x
    # EMod top element: everything sits below the constant-one tuple
    one = (F(1),) * 3
    gap = tuple(1 - u for u in x)
    assert add(x, gap) == one
