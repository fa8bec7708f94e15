"""Design model, parser and random generator tests."""

import math
import random

import pytest

from tilefp.design import (
    DesignError,
    GenerationError,
    ModuleSpec,
    generate_random_design,
    parse_design,
    write_design,
)
from tilefp.fabric import Fabric, ResourceVector, parse_fabric

SDR_DESIGN = """
module matched_filter 25 0 5
module carrier_recovery 7 0 1
module demodulator 5 2 0
module decoder 12 1 0
module video_decoder 55 2 5
connect matched_filter carrier_recovery 64
connect carrier_recovery demodulator 64
connect demodulator decoder 64
connect decoder video_decoder 64
weights 0.5 0.5
"""


def test_parse_sdr_benchmark():
    design = parse_design(SDR_DESIGN)
    assert len(design.modules) == 5
    assert design.module("video_decoder").req == ResourceVector(55, 2, 5)
    assert len(design.connections) == 4
    assert all(c.signals == 64 for c in design.connections)
    assert (design.alpha, design.beta) == (0.5, 0.5)


def test_benchmark_tile_requirements_follow_from_device_units():
    # The published benchmark gives requirements in device units; the tile
    # capacities are 20 CLBs, 4 BRAMs and 8 DSP48s per tile.
    device_units = {
        "matched_filter": (500, 0, 34),
        "carrier_recovery": (123, 0, 8),
        "demodulator": (97, 8, 0),
        "decoder": (234, 2, 0),
        "video_decoder": (1100, 6, 34),
    }
    design = parse_design(SDR_DESIGN)
    for mid, (clbs, brams, dsps) in device_units.items():
        expected = ResourceVector(
            math.ceil(clbs / 20), math.ceil(brams / 4), math.ceil(dsps / 8)
        )
        assert design.module(mid).req == expected


def test_total_frames_of_benchmark():
    fab = parse_fabric("rows 1\ncolumns C\n")
    design = parse_design(SDR_DESIGN)
    per_module = {m.id: fab.frames_of(m.req) for m in design.modules}
    assert per_module == {
        "matched_filter": 1040,
        "carrier_recovery": 280,
        "demodulator": 240,
        "decoder": 462,
        "video_decoder": 2180,
    }


def test_parse_merges_duplicate_connections():
    text = "module a 1 0 0\nmodule b 1 0 0\nconnect a b 32\nconnect b a 32\n"
    design = parse_design(text)
    assert len(design.connections) == 1
    assert design.connections[0].signals == 64


def test_parse_rejects_bad_documents():
    with pytest.raises(DesignError, match="all zero"):
        parse_design("module a 0 0 0\n")
    with pytest.raises(DesignError, match="unknown module"):
        parse_design("module a 1 0 0\nconnect a ghost 8\n")
    with pytest.raises(DesignError, match="itself"):
        parse_design("module a 1 0 0\nconnect a a 8\n")
    with pytest.raises(DesignError, match="positive"):
        parse_design("module a 1 0 0\nmodule b 1 0 0\nconnect a b 0\n")
    with pytest.raises(DesignError, match="duplicate"):
        parse_design("module a 1 0 0\nmodule a 2 0 0\n")
    with pytest.raises(DesignError):
        parse_design("# nothing here\n")
    for weights in ("nan 0.5", "0.5 inf", "-1 1", "0 0"):
        with pytest.raises(DesignError, match="line 2: objective weights"):
            parse_design(f"module a 1 0 0\nweights {weights}\n")
    # an unknown endpoint names the first connect line of its pair
    with pytest.raises(DesignError, match="line 2: .*unknown module 'c'"):
        parse_design("module a 1 0 0\nconnect a c 3\nconnect c a 1\n")
    with pytest.raises(DesignError, match="bad module id"):
        ModuleSpec("a#b", ResourceVector(1, 0, 0))


def _flat_fabric(clb_cols=20, rows=5):
    return Fabric(rows, "C" * clb_cols)


def test_generate_totals_match_targets_exactly():
    fab = _flat_fabric()  # 100 CLB tiles
    design = generate_random_design(5, fab, (0.70, 0.05, 0.03), seed=1)
    assert sum(m.req.clb for m in design.modules) == 70
    assert all(m.req.clb >= 1 for m in design.modules)


def test_generate_totals_per_kind_property():
    fab = parse_fabric("rows 4\ncolumns " + "CCCCCCBCCD" * 3 + "\n")
    avail = fab.available_resources()
    rng = random.Random(5)
    for trial in range(10):
        n = rng.randrange(2, 9)
        occ = (rng.uniform(0.3, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        design = generate_random_design(n, fab, occ, seed=trial)
        for k in range(3):
            got = sum(m.req[k] for m in design.modules)
            assert got == math.floor(occ[k] * avail[k])
        assert all(m.req.total > 0 for m in design.modules)


def test_generate_is_deterministic_per_seed():
    fab = _flat_fabric()
    a = generate_random_design(6, fab, (0.7, 0.1, 0.1), seed=42)
    b = generate_random_design(6, fab, (0.7, 0.1, 0.1), seed=42)
    assert write_design(a) == write_design(b)
    c = generate_random_design(6, fab, (0.7, 0.1, 0.1), seed=43)
    assert write_design(a) != write_design(c)


def test_generate_connection_probability_monte_carlo():
    # Two modules have a single candidate pair connected with probability
    # 1/2; over many seeds the observed rate must sit near that.
    fab = _flat_fabric(clb_cols=4, rows=2)
    connected = 0
    for seed in range(10000):
        design = generate_random_design(2, fab, (0.9, 0.5, 0.5), seed=seed)
        connected += bool(design.connections)
    assert abs(connected / 10000 - 0.5) < 0.02


def test_generate_rejects_unsplittable_occupancy():
    fab = _flat_fabric(clb_cols=2, rows=2)  # 4 CLB tiles
    with pytest.raises(GenerationError):
        generate_random_design(5, fab, (0.9, 0.5, 0.5), seed=0)
    with pytest.raises(GenerationError):
        generate_random_design(1, fab, (0.9, 0.5, 0.5), seed=0)
    with pytest.raises(GenerationError):
        generate_random_design(2, fab, (1.5, 0.5, 0.5), seed=0)


def test_generated_design_round_trips():
    fab = parse_fabric("rows 4\ncolumns " + "CCCCCCBCCD" * 3 + "\n")
    design = generate_random_design(8, fab, (0.7, 0.4, 0.4), seed=9)
    text = write_design(design)
    again = parse_design(text)
    assert write_design(again) == text
    assert [m.req for m in again.modules] == [m.req for m in design.modules]
    assert again.connections == design.connections
