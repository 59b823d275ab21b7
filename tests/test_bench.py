"""Benchmark generators: layouts, dynamics, sizes, determinism."""

import hashlib
from fractions import Fraction

import pytest

from sensynth.bench import (GridSpec, gen_det_hallway, gen_escape, gen_fig1,
                            gen_hallway, gen_rocksample)
from sensynth.model import BOT, print_pomdp, validate
from sensynth.synth import synthesize
from sensynth.verify import brute_force_decide

F = Fraction


class TestGridSpec:
    ART = "#+#+#\n#.#.#\n#.#.#\ng.x.g"

    def test_from_ascii_coordinates(self):
        spec = GridSpec.from_ascii(self.ART)
        assert (spec.width, spec.height) == (5, 4)
        assert spec.starts == ((1, 3), (3, 3))
        assert spec.goals == ((0, 0), (4, 0))
        assert spec.traps == frozenset({(2, 0)})
        assert (0, 3) in spec.walls and (2, 1) in spec.walls
        assert spec.free((1, 2)) and not spec.free((2, 0))

    def test_short_rows_pad_as_wall(self):
        spec = GridSpec.from_ascii("g.+\n#")
        assert (1, 0) in spec.walls and (2, 0) in spec.walls

    def test_unknown_character(self):
        with pytest.raises(ValueError, match="unknown grid character"):
            GridSpec.from_ascii("g?+")

    @pytest.mark.parametrize("art", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_empty_layout(self, art):
        with pytest.raises(ValueError, match="^the grid layout is empty$"):
            GridSpec.from_ascii(art)

    @pytest.mark.parametrize("kw", [
        dict(width=0, height=1, starts=((0, 0),), goals=((0, 0),)),
        dict(width=2, height=1, starts=(), goals=((0, 0),)),
        dict(width=2, height=1, starts=((1, 0),), goals=()),
        dict(width=2, height=1, starts=((5, 0),), goals=((0, 0),)),
        dict(width=2, height=1, starts=((1, 0),), goals=((0, 0),),
             walls=frozenset({(0, 0)})),
        dict(width=2, height=1, starts=((1, 0),), goals=((0, 0),),
             p_fail=F(1)),
        dict(width=2, height=1, starts=((1, 0),), goals=((0, 0),),
             heading="Q"),
    ])
    def test_rejects_bad_specs(self, kw):
        with pytest.raises(ValueError):
            GridSpec(**kw)


class TestFig1:
    def test_shape(self, fig1):
        assert fig1.states == ("cell0", "cell1", "cell2", "win", "lose")
        assert fig1.actions == ("move-left", "move-right", "grab-treasure")
        assert fig1.observations == ()
        assert fig1.initial == 0 and fig1.goal == 3
        assert all(row == ((BOT, F(1)),) for row in fig1.obs.rows)

    def test_dynamics(self, fig1):
        i = fig1.states.index
        assert fig1.delta[i("cell0")][0] == ((i("lose"), F(1)),)
        assert fig1.delta[i("cell0")][1] == ((i("cell1"), F(1)),)
        assert fig1.delta[i("cell1")][2] == ((i("lose"), F(1)),)
        assert fig1.delta[i("cell2")][2] == ((i("win"), F(1)),)
        assert fig1.delta[i("cell2")][1] == ((i("lose"), F(1)),)
        assert fig1.absorbing(i("win")) and fig1.absorbing(i("lose"))


class TestDetHallway:
    def test_states(self, det_hallway):
        assert det_hallway.states == (
            "init", "c0_0", "c1_0", "c1_1", "c1_2", "c1_3", "c3_0", "c3_1",
            "c3_2", "c3_3", "c4_0", "lose", "G")
        assert det_hallway.goal == det_hallway.states.index("G")
        assert det_hallway.observations == ()

    def test_uniform_start(self, det_hallway):
        i = det_hallway.states.index
        fan = ((i("c1_3"), F(1, 2)), (i("c3_3"), F(1, 2)))
        assert all(row == fan for row in det_hallway.delta[i("init")])

    def test_walls_and_trap_fatal(self, det_hallway):
        i = det_hallway.states.index
        a = det_hallway.actions.index
        assert det_hallway.delta[i("c1_3")][a("W")] == ((i("lose"), F(1)),)
        assert det_hallway.delta[i("c1_3")][a("N")] == ((i("lose"), F(1)),)
        assert det_hallway.delta[i("c1_3")][a("S")] == ((i("c1_2"), F(1)),)
        assert det_hallway.delta[i("c1_0")][a("E")] == ((i("lose"), F(1)),)

    def test_goal_cells_redirect(self, det_hallway):
        i = det_hallway.states.index
        win = ((i("G"), F(1)),)
        assert all(row == win for row in det_hallway.delta[i("c0_0")])
        assert all(row == win for row in det_hallway.delta[i("c4_0")])


class TestHallwayFamily:
    def test_open_square(self):
        spec = GridSpec(2, 2, starts=((0, 0),), goals=((1, 1),), p_fail=F(1, 4))
        p = gen_hallway(spec)
        assert p.states == ("c0_0", "c0_1", "c1_0", "c1_1", "lose", "G")
        i = p.states.index
        a = ("N", "E", "S", "W").index
        # noisy move north, quiet wall bump west
        assert p.delta[i("c0_0")][a("N")] == ((i("c0_0"), F(1, 4)),
                                              (i("c0_1"), F(3, 4)))
        assert p.delta[i("c0_0")][a("W")] == ((i("c0_0"), F(1)),)
        # half-defined single observation everywhere except the added goal
        assert p.observations == ("z0",)
        assert p.obs.rows[i("c0_0")] == ((0, F(1, 2)), (BOT, F(1, 2)))
        assert p.obs.rows[i("G")] == ((BOT, F(1)),)

    def test_oriented_corridor_blind_forward(self):
        spec = GridSpec.from_ascii("g.+", p_fail=F(1, 2), oriented=True,
                                   heading="W")
        p = gen_hallway(spec)
        assert p.n_states == 3 * 4 + 2  # (cell, heading) + lose + G
        assert p.states[p.initial] == "c2_0_W"
        assert p.actions == ("forward", "turn-left", "turn-right")
        i = p.states.index
        assert p.delta[i("c2_0_W")][0] == ((i("c1_0_W"), F(1, 2)),
                                           (i("c2_0_W"), F(1, 2)))
        assert p.delta[i("c2_0_N")][0] == ((i("c2_0_N"), F(1)),)  # bump
        assert p.delta[i("c2_0_W")][1] == ((i("c2_0_S"), F(1, 2)),
                                           (i("c2_0_W"), F(1, 2)))
        assert synthesize(p, 1, 0).verdict == "Realizable"
        assert brute_force_decide(p, 1, 0)

    def test_trap_fatal_even_unoriented(self):
        spec = GridSpec.from_ascii("g.x.+")
        p = gen_hallway(spec)
        i = p.states.index
        assert p.delta[i("c1_0")][1] == ((i("lose"), F(1)),)  # E into trap


class TestGoldenModels:
    """SHA-256 of print_pomdp for the grid models the benchmark suite uses,
    so a generator change cannot silently change the benchmark's models."""

    @pytest.mark.parametrize("gen, digest", [
        (gen_det_hallway,
         "0ad2fbd8ae8e4d74679057183001586fdb1d43b009513f2aa3b93e7b91a3edb5"),
        (lambda: gen_hallway(GridSpec.from_ascii("+.#g\n..#.\n#...\n....")),  # maze
         "6ae65d7a57164ebb9872d0c49c34610e4e531c10affa3c82b14ab02ff3e357e5"),
        (lambda: gen_hallway(GridSpec.from_ascii("+..x\n.#..\n...g", p_fail=F(1, 3))),  # trap
         "e06b8de15149b23cf713e86a7aa8c68f5c94ef2856c9c0227728293e98dc2a09"),
        (lambda: gen_hallway(GridSpec.from_ascii("+..\n...\n..g", p_fail=F(1, 2))),  # open3
         "6087764dd80354d7a536ed6b610a2ef36319ccac039f34df452c7a58bd5c4496"),
        (lambda: gen_hallway(GridSpec.from_ascii("+.g\nx.+\n+.#", p_fail=F(1, 3),
                                                 oriented=True, heading="E")),
         "9cd8a71c69336b08de8480b64991b68c9bce62b7e4b58ed1b90a200bb4edb730"),
    ], ids=["det-hallway", "maze", "trap", "open3", "oriented-multi-start"])
    def test_digest(self, gen, digest):
        assert hashlib.sha256(print_pomdp(gen()).encode()).hexdigest() == digest


class TestEscape:
    def test_sizes(self):
        assert gen_escape(2).n_states == 2 ** 3 + 2
        assert gen_escape(3).n_states == 3 ** 3 + 2
        with pytest.raises(ValueError):
            gen_escape(1)

    def test_start_and_goal(self):
        p = gen_escape(2)
        assert p.states[p.initial] == "r1_1_p0"
        assert p.states[p.goal] == "G"
        i = p.states.index
        assert all(row == ((i("G"), F(1)),) for row in p.delta[i("r0_0_p1")])

    def test_slide_and_patroller(self):
        p = gen_escape(2)
        i = p.states.index
        a = ("N", "E", "S", "W").index
        # sliding north from (1,0) lands exactly on the patroller's only move
        assert p.delta[i("r1_0_p0")][a("N")] == ((i("lose"), F(1)),)
        assert p.delta[i("r1_0_p0")][a("W")] == ((i("r0_0_p1"), F(1)),)
        p3 = gen_escape(3)
        i3 = p3.states.index
        # interior patroller splits evenly
        assert p3.delta[i3("r2_0_p1")][a("S")] == (
            (i3("r2_0_p0"), F(1, 2)), (i3("r2_0_p2"), F(1, 2)))

    def test_verdicts(self):
        p = gen_escape(2)
        assert synthesize(p, 1, 1).verdict == "Unrealizable"
        assert synthesize(p, 2, 1).verdict == "Realizable"


class TestRocksample:
    def test_sizes(self):
        assert gen_rocksample(1).n_states == 9 * 2 + 2
        assert gen_rocksample(2).n_states == 9 * 4 + 2
        assert gen_rocksample(3).n_states == 9 * 8 + 2
        for bad in (0, 10):
            with pytest.raises(ValueError):
                gen_rocksample(bad)

    def test_sampling(self):
        p = gen_rocksample(3)
        i = p.states.index
        s = p.actions.index("sample")
        assert p.delta[i("c1_m0")][s] == ((i("lose"), F(1)),)  # bad rock
        assert p.delta[i("c0_m0")][s] == ((i("c0_m0"), F(1, 2)),
                                          (i("c0_m1"), F(1, 2)))
        # banking the second good rock wins half the time
        assert p.delta[i("c2_m1")][s] == ((i("c2_m1"), F(1, 2)),
                                          (i("G"), F(1, 2)))
        assert p.delta[i("c0_m1")][s] == ((i("c0_m1"), F(1)),)  # banked
        assert p.delta[i("c8_m0")][s] == ((i("c8_m0"), F(1)),)  # no rock

    def test_moves(self):
        p = gen_rocksample(3)
        i = p.states.index
        a = p.actions.index
        assert p.states[p.initial] == "c4_m0"
        assert p.delta[i("c4_m0")][a("N")] == ((i("c7_m0"), F(1)),)
        assert p.delta[i("c0_m0")][a("W")] == ((i("c0_m0"), F(1)),)  # bump

    def test_single_rock_unwinnable(self):
        assert synthesize(gen_rocksample(1), 1, 1).verdict == "Unrealizable"


GENERATORS = [
    gen_fig1,
    gen_det_hallway,
    lambda: gen_escape(2),
    lambda: gen_escape(3),
    lambda: gen_rocksample(2),
    lambda: gen_hallway(GridSpec.from_ascii("g.+", p_fail=F(1, 2),
                                            oriented=True, heading="W")),
]


@pytest.mark.parametrize("gen", GENERATORS)
def test_deterministic_valid_hashable(gen):
    a, b = gen(), gen()
    assert a == b and hash(a) == hash(b)
    assert validate(a) == []
