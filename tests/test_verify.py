"""Product construction, almost-sure checking, simulation, brute oracle."""

import random
from fractions import Fraction

import pytest

from conftest import random_pomdp
from sensynth.model import BOT, Completion, PartialObsFn, Policy, Pomdp, parse_pomdp
from sensynth.encode import SideConstraints, sensor_model
from sensynth.verify import (BruteForceGuardError, VerifyCertificate, brute_force_decide,
                             build_product, check_almost_sure, contract_breaches,
                             format_certificate, simulate)


def random_completion(rng, p, nu):
    """Supports only; weights uniform (the checker ignores them anyway)."""
    nzp = p.n_obs + nu
    rows = []
    for s in range(p.n_states):
        base = set(p.obs.support(s))
        if p.obs.fully_defined(s):
            supp = sorted(base)
        else:
            extra = [z for z in range(nzp) if z not in base]
            lo = 0 if base else min(1, len(extra))
            supp = sorted(base | set(rng.sample(extra, rng.randint(lo, len(extra)))))
        if not supp:
            rows.append(())  # no symbols at all; the state emits nothing
            continue
        w = Fraction(1, len(supp))
        rows.append(tuple((z, w) for z in supp))
    return Completion(n_new=nu, rows=tuple(rows))


def random_policy(rng, mu, nzp, na):
    act = tuple(tuple(sorted(rng.sample(range(na), rng.randint(1, na))))
                for _ in range(mu))
    update = tuple(
        tuple(tuple(tuple(sorted(rng.sample(range(mu), rng.randint(1, mu))))
                    for _ in range(na)) for _ in range(nzp))
        for _ in range(mu))
    return Policy(n_mem=mu, act=act, update=update)


def blind_fig1_policy():
    """m0/m1/m2 play right, right, grab; single shared observation class."""
    act = ((1,), (1,), (2,))
    update = (((1,),) * 3, ((2,),) * 3, ((2,),) * 3)
    # update[m][z][a]: one observation column
    update = tuple(((row),) for row in (((1,), (1,), (1,)),
                                        ((2,), (2,), (2,)),
                                        ((2,), (2,), (2,))))
    return Policy(n_mem=3, act=act, update=update)


def same_class_completion(p):
    rows = tuple(((0, Fraction(1)),) for _ in range(p.n_states))
    return Completion(n_new=1, rows=rows)


def direct_successors(p, c, pol, s, m):
    """(s', m') pairs one step from (s, m), straight from the definition."""
    return {(s2, m2) for a in pol.act[m] for s2 in p.succ(s, a)
            for z in c.support(s2) for m2 in pol.update[m][z][a]}


def full_product_certificate(p, c, pol):
    """Reference check over every (state, memory) pair, reached or not:
    forward search from the initial pair, backward search from all goal
    pairs over the whole product."""
    mu = pol.n_mem
    n = p.n_states * mu
    adj = [sorted(s2 * mu + m2 for s2, m2 in direct_successors(p, c, pol, *divmod(v, mu)))
           for v in range(n)]
    seen, todo = {p.initial * mu}, [p.initial * mu]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    dist = {p.goal * mu + m: 0 for m in range(mu)}
    frontier, d = list(dist), 0
    while frontier:
        d += 1
        frontier = [u for u in range(n) if u not in dist and set(adj[u]) & set(frontier)]
        dist.update(dict.fromkeys(frontier, d))
    reachable = tuple(sorted(seen))
    witness = next((v for v in reachable if v not in dist), -1)
    return VerifyCertificate(ok=witness == -1, reachable=reachable,
                             dist={v: dist[v] for v in reachable if v in dist},
                             witness=witness)


class TestBuildProduct:
    def test_edges_match_direct_definition(self):
        rng = random.Random(31)
        for _ in range(60):
            p = random_pomdp(rng)
            nu = rng.randint(0, 2)
            mu = rng.randint(1, 3)
            c = random_completion(rng, p, nu)
            pol = random_policy(rng, mu, p.n_obs + nu, p.n_actions)
            g = build_product(p, c, pol)
            reached, todo = {(p.initial, 0)}, [(p.initial, 0)]
            while todo:
                for pair in direct_successors(p, c, pol, *todo.pop()):
                    if pair not in reached:
                        reached.add(pair)
                        todo.append(pair)
            assert {g.pair(v) for v in g.adj} == reached
            for v, row in g.adj.items():
                assert row == tuple(sorted(set(row)))
                assert {g.pair(w) for w in row} == direct_successors(p, c, pol, *g.pair(v))

    def test_goals_and_initial(self, fig1):
        pol = blind_fig1_policy()
        g = build_product(fig1, same_class_completion(fig1), pol)
        assert g.pair(g.initial) == (fig1.initial, 0)
        assert [g.pair(v) for v in g.goals] == [(fig1.goal, m) for m in range(3)]

    def test_symbol_out_of_range_rejected(self, fig1):
        c = Completion(n_new=2, rows=tuple(((1, Fraction(1)),)
                                           for _ in range(fig1.n_states)))
        with pytest.raises(ValueError):
            build_product(fig1, c, blind_fig1_policy())

    def test_unreached_symbol_out_of_range_rejected(self):
        p = parse_pomdp("states: s0 g u\nactions: a\nobservations: z\ninitial: s0\n"
                        "goal: g\ndelta s0 a -> g 1\ndelta g a -> g 1\ndelta u a -> g 1")
        pol = Policy(n_mem=1, act=((0,),), update=((((0,),),),))
        one = ((0, Fraction(1)),)
        g = build_product(p, Completion(n_new=0, rows=(one,) * 3), pol)
        assert {g.pair(v) for v in g.adj} == {(0, 0), (1, 0)}  # u is never reached
        c = Completion(n_new=1, rows=(one, one, ((1, Fraction(1)),)))
        with pytest.raises(ValueError, match="emits symbol 1"):
            build_product(p, c, pol)


class TestCheckAlmostSure:
    def test_blind_fig1_wins(self, fig1):
        g = build_product(fig1, same_class_completion(fig1), blind_fig1_policy())
        cert = check_almost_sure(g)
        assert cert.ok and cert.witness == -1
        assert cert.dist[g.initial] == 3  # three steps to the treasure
        for v in g.goals:
            if v in cert.dist:
                assert cert.dist[v] == 0

    def test_greedy_grab_loses(self, fig1):
        pol = Policy(n_mem=1, act=((2,),), update=((((0,), (0,), (0,)),),))
        g = build_product(fig1, same_class_completion(fig1), pol)
        cert = check_almost_sure(g)
        assert not cert.ok
        # first reachable dead vertex in id order: the start itself
        s, m = g.pair(cert.witness)
        assert fig1.states[s] == "cell0" and m == 0
        assert "almost-sure: no" in format_certificate(cert, fig1, pol)

    def test_positive_but_not_almost_sure(self):
        # coin flip into goal or dead end: reaches goal with prob 1/2 only
        p = parse_pomdp("""
states: s0 dead g
actions: a
observations: z
initial: s0
goal: g
delta s0 a -> g 1/2, dead 1/2
delta dead a -> dead 1
delta g a -> g 1
""")
        c = Completion(n_new=0, rows=tuple(((0, Fraction(1)),) for _ in range(3)))
        pol = Policy(n_mem=1, act=((0,),), update=((((0,),),),))
        cert = check_almost_sure(build_product(p, c, pol))
        assert not cert.ok
        assert p.states[cert.witness // 1] == "dead"

    def test_reached_pairs_match_full_product(self):
        rng = random.Random(53)
        for _ in range(200):
            p = random_pomdp(rng)
            nu = rng.randint(0, 2)
            mu = rng.randint(1, 3)
            c = random_completion(rng, p, nu)
            pol = random_policy(rng, mu, p.n_obs + nu, p.n_actions)
            cert = check_almost_sure(build_product(p, c, pol))
            want = full_product_certificate(p, c, pol)
            assert cert == want
            assert format_certificate(cert, p, pol) == format_certificate(want, p, pol)

    def test_format_certificate(self, fig1):
        g = build_product(fig1, same_class_completion(fig1), blind_fig1_policy())
        text = format_certificate(check_almost_sure(g), fig1, blind_fig1_policy())
        assert text.startswith("almost-sure: yes")
        assert "pair (cell0, m0) dist 3" in text


class TestSimulate:
    def test_almost_sure_hits_one(self, fig1):
        freq = simulate(fig1, same_class_completion(fig1), blind_fig1_policy(),
                        episodes=500, horizon=50, seed=1)
        assert freq == 1.0

    def test_coin_flip_near_half(self):
        p = parse_pomdp("""
states: s0 dead g
actions: a
observations: z
initial: s0
goal: g
delta s0 a -> g 1/2, dead 1/2
delta dead a -> dead 1
delta g a -> g 1
""")
        c = Completion(n_new=0, rows=tuple(((0, Fraction(1)),) for _ in range(3)))
        pol = Policy(n_mem=1, act=((0,),), update=((((0,),),),))
        freq = simulate(p, c, pol, episodes=4000, horizon=20, seed=7)
        assert abs(freq - 0.5) < 0.03

    def test_seed_reproducible(self, fig1):
        args = (fig1, same_class_completion(fig1), blind_fig1_policy())
        a = simulate(*args, episodes=200, horizon=30, seed=9)
        b = simulate(*args, episodes=200, horizon=30, seed=9)
        assert a == b

    def test_horizon_cut(self, fig1):
        # horizon 1 cannot reach the treasure three steps away
        freq = simulate(fig1, same_class_completion(fig1), blind_fig1_policy(),
                        episodes=100, horizon=1, seed=3)
        assert freq == 0.0


class TestBruteForce:
    def test_fig1_settings(self, fig1):
        assert brute_force_decide(fig1, 3, 1) is True
        assert brute_force_decide(fig1, 2, 1) is False
        assert brute_force_decide(fig1, 2, 2) is True

    def test_fig1_nondeterministic_mode(self, fig1):
        assert brute_force_decide(fig1, 2, 1, deterministic=False) is False

    def test_goal_only(self):
        one = parse_pomdp("states: g\nactions: a\nobservations: z\n"
                          "initial: g\ngoal: g\ndelta g a -> g 1\nobs g -> z 1")
        assert brute_force_decide(one, 1, 0) is True

    def test_no_alphabet_unrealizable(self):
        p = parse_pomdp("states: s g\nactions: a\nobservations:\n"
                        "initial: s\ngoal: g\ndelta s a -> g 1\ndelta g a -> g 1")
        assert brute_force_decide(p, 2, 0) is False

    def test_guard_trips(self, fig1):
        with pytest.raises(BruteForceGuardError):
            brute_force_decide(fig1, 3, 1, guard=10)

    def test_monotone_in_mu_nu(self):
        rng = random.Random(17)
        for _ in range(25):
            p = random_pomdp(rng, max_states=3)
            prev = False
            for mu in (1, 2):
                now = brute_force_decide(p, mu, 1)
                assert not (prev and not now)
                prev = now
            assert brute_force_decide(p, 2, 0) <= brute_force_decide(p, 2, 1)


# s0 gives z0 and half its mass undefined, s1 is blank, g fully defined
CONTRACT = """
states: s0 s1 g
actions: a
observations: z0 z1
initial: s0
goal: g
delta s0 a -> s1 1
delta s1 a -> g 1
delta g a -> g 1
obs s0 -> z0 1/2, bot 1/2
obs g -> z0 1/4, z1 3/4
"""


class TestContract:
    """contract_breaches on hand-made pairs: one clean pair per mode, and one
    breach of each kind."""

    P = parse_pomdp(CONTRACT)
    POL = Policy(n_mem=1, act=((0,),), update=(((0,),) * 3,))
    H, Q, T = Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)

    def comp(self, *rows, n_new=1):
        return Completion(n_new=n_new, rows=tuple(rows))

    def breaches(self, comp, sc=SideConstraints(), mu=1, nu=1, pol=None):
        return contract_breaches(self.P, comp, pol or self.POL, mu, nu, sc)

    def test_clean_pairs(self):
        H, Q, T = self.H, self.Q, self.T
        g = ((0, Q), (1, T))
        assert self.breaches(self.comp(((0, H), (2, H)), ((1, 1),), g)) == []
        # in every mode the bot mass goes to the added symbols, or is spread
        # over z0 when the row adds none
        for sc in (SideConstraints(), SideConstraints(strict=True)):
            assert self.breaches(self.comp(((0, H), (2, H)), ((2, 1),), g), sc) == []
            assert self.breaches(self.comp(((0, 1),), ((2, 1),), g, n_new=1), sc) == []
        # a row that adds nothing may put any weight on its given symbols
        assert self.breaches(self.comp(((0, 1),), ((0, 1),), g)) == []

    @pytest.mark.parametrize("rows, sc, mu, nu, message", [
        ((((1, 1),), ((1, 1),), ((0, Fraction(1, 4)), (1, Fraction(3, 4)))), SideConstraints(),
         1, 1, "state s0: completed row drops given symbols"),
        ((((0, 1),), ((1, 1),), ((0, 1),)), SideConstraints(),
         1, 1, ["state g: completed row drops given symbols", "state g: fully defined row changed"]),
        ((((0, 1),), ((1, 1),), ((0, Fraction(1, 4)), (1, Fraction(1, 2)), (2, Fraction(1, 4)))),
         SideConstraints(), 1, 1, "state g: fully defined row changed"),
        ((((0, Fraction(1, 2)), (1, Fraction(1, 2))), ((2, 1),),
          ((0, Fraction(1, 4)), (1, Fraction(3, 4)))),
         SideConstraints(strict=True), 1, 1, "state s0: strict row adds a declared symbol"),
        ((((0, Fraction(1, 4)), (2, Fraction(3, 4))), ((2, 1),),
          ((0, Fraction(1, 4)), (1, Fraction(3, 4)))),
         SideConstraints(strict=True), 1, 1, "state s0: row changes a given weight"),
        ((((0, Fraction(1, 4)), (1, Fraction(3, 4))), ((2, 1),),
          ((0, Fraction(1, 4)), (1, Fraction(3, 4)))),
         SideConstraints(), 1, 1, "state s0: row changes a given weight"),
        ((((0, 1),), ((2, 1),), ((0, Fraction(1, 2)), (1, Fraction(1, 2)))),
         SideConstraints(strict=True), 1, 1, "state g: row changes a given weight"),
        ((((0, 1),), ((2, 1),), ((0, Fraction(1, 2)), (1, Fraction(1, 2)))),
         SideConstraints(), 1, 1, "state g: row changes a given weight"),
        ((((0, Fraction(1, 2)), (2, Fraction(1, 2))), ((2, 1),),
          ((0, Fraction(1, 4)), (1, Fraction(3, 4)))), SideConstraints(deterministic=True), 1, 1,
         ["state s0: deterministic row has 2 symbols", "state g: deterministic row has 2 symbols"]),
        ((((0, 1),), ((1, 1),), ((0, Fraction(1, 4)), (1, Fraction(3, 4)))),
         SideConstraints(same=((0, 1),)), 1, 1, "same s0 s1 does not hold"),
        ((((0, 1),), ((0, 1),), ((0, Fraction(1, 4)), (1, Fraction(3, 4)))),
         SideConstraints(diff=((0, 1),)), 1, 1, "diff s0 s1 does not hold"),
        ((((0, 1),), ((1, 1),), ((0, Fraction(1, 4)), (1, Fraction(3, 4)))),
         SideConstraints(implies=((0, 0, 1),)), 1, 1, "implies s0 z0 z1 does not hold"),
        ((((0, Fraction(1, 2)), (2, Fraction(1, 2))), ((2, 1),),
          ((0, Fraction(1, 4)), (1, Fraction(3, 4)))), SideConstraints(),
         1, 0, "completion uses 1 fresh symbols, budget was 0"),
    ], ids=["drops-given", "drops-fully-defined", "fully-defined-grows", "strict-declared",
            "strict-weight", "weight", "strict-fully-defined-weight", "fully-defined-weight",
            "deterministic", "same", "diff",
            "implies", "fresh-budget"])
    def test_each_breach(self, rows, sc, mu, nu, message):
        want = message if isinstance(message, list) else [message]
        assert self.breaches(self.comp(*rows), sc, mu, nu) == want

    def test_memory_budget(self):
        g = ((0, self.Q), (1, self.T))
        pol = Policy(n_mem=2, act=((0,), (0,)), update=(((0,),) * 3,) * 2)
        assert self.breaches(self.comp(((0, 1),), ((0, 1),), g), pol=pol) == [
            "policy uses 2 memory elements, budget was 1"]

    def test_sensor_rows_pair_exactly_their_base_symbols(self):
        # s0 pairs z0, s1 z1, and the goal, which has no base symbol, any
        p = parse_pomdp(CONTRACT.replace("obs g -> z0 1/4, z1 3/4", "obs s1 -> z1 1"))
        p2, sc = sensor_model(p, SideConstraints(sensor_name="C", sensor_values=("lo", "hi")))
        pol = Policy(n_mem=1, act=((0,),), update=(((0,),) * 4,))

        def check(*rows):
            return contract_breaches(p2, Completion(0, tuple(rows)), pol, 1, 0, sc)

        # z0:lo z0:hi z1:lo z1:hi are 0 1 2 3
        assert check(((1, 1),), ((2, 1),), ((0, self.H), (3, self.H))) == []
        assert check(((2, 1),), ((2, 1),), ((0, 1),)) == [
            "state s0: sensor row does not pair exactly its base symbols"]
        assert check(((0, 1),), ((2, self.H), (0, self.H)), ((0, 1),)) == [
            "state s1: sensor row does not pair exactly its base symbols"]

    def test_shared_rows_checked_once_naming_the_first_state(self):
        row = ((1, 1),)
        p = parse_pomdp(CONTRACT.replace("obs s0 -> z0 1/2, bot 1/2", "obs s0 -> z0 1\n"
                                         "obs s1 -> z0 1"))
        got = contract_breaches(p, self.comp(row, row, ((0, 1),)), self.POL, 1, 1,
                                SideConstraints())
        assert got == ["state s0: completed row drops given symbols",
                       "state s0: fully defined row changed",
                       "state g: completed row drops given symbols",
                       "state g: fully defined row changed"]
