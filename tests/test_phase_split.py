"""The phase split of `scripts/scale_probe.py`, run as it is on one workload
with two children (the session's `scale_1_probe`)."""

PHASES = ("first_line_s", "import_s", "main_s", "exit_s")


def test_one_workload_prints_every_phase(scale_1_probe):
    result = scale_1_probe
    assert {*PHASES, "wall_s"} <= set(result)
    assert (result["workload"], result["scale"], result["runs"]) == ("train-heavy", 1.0, 2)
    for phase in PHASES:
        stats = result[phase]
        assert 0 < stats["q1"] <= stats["median"] <= stats["q3"], phase
    # Of two runs the median is the mean, so the phases' medians add up to the wall time's.
    assert abs(sum(result[phase]["median"] for phase in PHASES)
               - result["wall_s"]["median"]) < 1e-3
