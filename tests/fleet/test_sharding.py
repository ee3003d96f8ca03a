"""KB sharding: induced subgraphs, the executor cache, and the
name-miss path."""

import pytest

from repro.fleet import (
    FleetConfig,
    FleetError,
    ShardExecutor,
    build_shards,
)
from repro.isa import assemble
from repro.network.generator import generate_hierarchy_kb

ROOT_PROGRAM_TEXT = """
SEARCH-NODE {name} b0
PROPAGATE b0 b1 chain(inverse:is-a)
COLLECT-NODE b1
"""


class _FakeQuery:
    def __init__(self, program, template=None):
        self.program = program
        self.template = template


def program_for(name):
    return assemble(ROOT_PROGRAM_TEXT.format(name=name))


@pytest.fixture(scope="module")
def network():
    return generate_hierarchy_kb(120, branching=3)


@pytest.fixture(scope="module")
def shards(network):
    return build_shards(network, FleetConfig(num_shards=4))


class TestBuildShards:
    def test_every_node_on_exactly_one_shard(self, network, shards):
        seen = [nid for s in shards for nid in s.global_ids]
        assert sorted(seen) == list(range(network.num_nodes))

    def test_names_match_members(self, network, shards):
        for shard in shards:
            expected = {network.node(nid).name for nid in shard.global_ids}
            assert shard.names == expected

    def test_links_are_induced(self, network, shards):
        # Each shard keeps exactly the parent links with both
        # endpoints local — no more, no fewer.
        for shard in shards:
            member_set = set(shard.global_ids)
            expected = sum(
                1 for link in network.links()
                if link.source in member_set and link.dest in member_set
            )
            assert sum(1 for _ in shard.network.links()) == expected

    def test_deterministic(self, network):
        config = FleetConfig(num_shards=4)
        again = build_shards(network, config)
        for a, b in zip(build_shards(network, config), again):
            assert a.global_ids == b.global_ids
            assert a.names == b.names

    def test_community_policy_keeps_subtrees_together(self, shards):
        # Community partitioning should produce a low cut fraction:
        # most is-a links stay shard-local on a hierarchy KB.
        total_local = sum(
            sum(1 for _ in s.network.links()) for s in shards
        )
        assert total_local > 0


class TestShardExecutor:
    def test_hit_and_miss_split(self, network, shards):
        config = FleetConfig(num_shards=4)
        hits = 0
        for shard in shards:
            executor = ShardExecutor(shard, config)
            answer = executor.execute(_FakeQuery(program_for("c1")))
            if answer.miss:
                assert answer.results == []
                assert answer.service_us == config.name_miss_service_us
            else:
                hits += 1
                assert answer.ok
                assert answer.service_us > config.name_miss_service_us
        assert hits == 1  # exactly one shard owns node c1

    def test_template_caching(self, shards):
        config = FleetConfig(num_shards=4)
        executor = ShardExecutor(shards[0], config)
        query = _FakeQuery(program_for("thing"), template="t")
        first = executor.execute(query)
        second = executor.execute(query)
        assert second is first
        assert executor.cache_hits == 1
        assert executor.executions <= 1

    def test_id_operand_rejected(self, shards):
        # Programmatically-built programs can carry raw node ids; those
        # are ambiguous across shards and must be rejected loudly.
        from repro.isa.instructions import CollectNode, SearchNode
        from repro.isa.program import SnapProgram

        config = FleetConfig(num_shards=4)
        executor = ShardExecutor(shards[0], config)
        program = SnapProgram([SearchNode(0, 0), CollectNode(0)])
        with pytest.raises(FleetError, match="by name"):
            executor.execute(_FakeQuery(program))

    def test_reference_results_stable(self, shards):
        config = FleetConfig(num_shards=4)
        executor = ShardExecutor(shards[0], config)
        query = _FakeQuery(program_for("thing"), template="t")
        assert executor.reference_results(query) == \
               executor.reference_results(query)

    def test_base_service_excludes_router_adjustments(self, shards):
        config = FleetConfig(num_shards=4, failover_penalty_us=1e6)
        executor = ShardExecutor(shards[0], config)
        query = _FakeQuery(program_for("thing"), template="t")
        base = executor.execute(query).service_us
        assert 0 < base < 1e6
