"""Tests for the machine model: the ring cost models and their registry."""

import pytest

from repro.machine import NN_RING, SCRATCH_RING, SRAM_RING, CostModel


def message_cost(model: CostModel, words: int) -> int:
    """Total send+receive instruction overhead of one ``words``-wide
    message under ``model``."""
    return (model.send_fixed + model.recv_fixed
            + words * (model.send_per_word + model.recv_per_word))


def test_cost_model_arithmetic():
    model = CostModel("test", vcost_per_word=3, ccost=2, send_fixed=4,
                      send_per_word=1, recv_fixed=4, recv_per_word=2)
    assert model.vcost(5) == 15
    assert message_cost(model, 5) == 4 + 4 + 5 * 3


def test_ring_cost_ordering():
    # Scratch is dearer than NN, SRAM dearer still.
    for words in (1, 4, 16):
        assert message_cost(NN_RING, words) \
            < message_cost(SCRATCH_RING, words) \
            < message_cost(SRAM_RING, words)


def test_cost_table_registry_resolves_names_and_aliases():
    from repro.machine import cost_table, cost_table_names

    assert cost_table("nn-ring") is NN_RING
    assert cost_table("nn") is NN_RING
    assert cost_table("scratch") is SCRATCH_RING
    assert cost_table("sram-ring") is SRAM_RING
    assert set(cost_table_names()) >= {"nn-ring", "scratch-ring",
                                       "sram-ring"}
    assert "nn" in cost_table_names(aliases=True)
    with pytest.raises(ValueError, match="unknown cost table"):
        cost_table("token-ring")


def test_builtin_cost_tables_have_distinct_parameters():
    """Two tables with the same parameters would be one ring under two
    names: ``repro explore --rings`` would evaluate every cell twice."""
    from repro.cache.key import cost_identity
    from repro.machine.costs import COST_TABLES

    parameters = {frozenset(item for item in cost_identity(table).items()
                            if item[0] != "name")
                  for table in COST_TABLES.values()}
    assert len(parameters) == len(COST_TABLES) == 3


def test_cost_identity_covers_every_cost_parameter():
    # Any parameter change must move the compile-cache address.
    from dataclasses import fields, replace

    from repro.cache import cost_identity

    base = cost_identity(NN_RING)
    for field in fields(CostModel):
        if field.name == "name":
            continue
        bumped = replace(NN_RING, name="bumped",
                         **{field.name: getattr(NN_RING, field.name) + 1})
        assert cost_identity(bumped)[field.name] != base[field.name]
