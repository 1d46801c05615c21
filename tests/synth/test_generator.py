"""Random program generator."""

from repro.cfg.builder import build_flow_graph
from repro.ir.stmts import SLock, SUnlock
from repro.ir.structured import CobeginRegion, iter_statements
from repro.mutex.identify import identify_mutex_structures
from repro.synth import GeneratorConfig, generate_program, generate_source
from repro.vm.machine import run_random


class TestDeterminism:
    def test_same_seed_same_source(self):
        cfg = GeneratorConfig(seed=7)
        assert generate_source(cfg) == generate_source(cfg)

    def test_different_seeds_differ(self):
        a = generate_source(GeneratorConfig(seed=1))
        b = generate_source(GeneratorConfig(seed=2))
        assert a != b


class TestWellFormedness:
    def test_parses_and_builds(self):
        for seed in range(20):
            program = generate_program(GeneratorConfig(seed=seed, p_while=0.2))
            g = build_flow_graph(program)
            g.validate()

    def test_locks_always_matched(self):
        for seed in range(20):
            program = generate_program(
                GeneratorConfig(seed=seed, n_locks=2, p_critical=0.8)
            )
            g = build_flow_graph(program)
            structures = identify_mutex_structures(g)
            locks = sum(
                1 for s, _ in iter_statements(program) if isinstance(s, SLock)
            )
            unlocks = sum(
                1 for s, _ in iter_statements(program) if isinstance(s, SUnlock)
            )
            assert locks == unlocks
            bodies = sum(len(s) for s in structures.values())
            assert bodies == locks  # every section forms a body

    def test_thread_count_respected(self):
        program = generate_program(GeneratorConfig(seed=3, n_threads=4))
        region = next(
            i for i in program.body.items if isinstance(i, CobeginRegion)
        )
        assert len(region.threads) == 4

    def test_programs_terminate(self):
        for seed in range(10):
            program = generate_program(
                GeneratorConfig(seed=seed, p_while=0.3, loop_bound=2)
            )
            ex = run_random(program, seed=seed, fuel=50_000)
            assert ex.steps < 50_000

    def test_race_free_mode_has_no_races(self):
        from tests.cfg.edges_oracle import add_conflict_edges
        from repro.mutex.races import detect_races

        for seed in range(10):
            program = generate_program(
                GeneratorConfig(seed=seed, race_free=True, n_locks=2,
                                p_critical=0.7)
            )
            g = build_flow_graph(program)
            structures = identify_mutex_structures(g)
            races = detect_races(g, structures)
            assert races == [], f"seed {seed}: {races}"

    def test_racy_mode_usually_races(self):
        from repro.mutex.races import detect_races

        racy = 0
        for seed in range(10):
            program = generate_program(
                GeneratorConfig(seed=seed, race_free=False, p_critical=0.2)
            )
            g = build_flow_graph(program)
            structures = identify_mutex_structures(g)
            if detect_races(g, structures):
                racy += 1
        assert racy >= 5
