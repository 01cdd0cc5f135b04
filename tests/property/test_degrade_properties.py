"""Property tests: degraded planning never routes through dead hardware."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Router, figure2_chip
from repro.core import PDWConfig, optimize_washes
from repro.sim.validate import degraded_validation_problems
from repro.synth import synthesize

from tests.conftest import build_demo_assay

CHIP = figure2_chip()
INTERIOR = sorted(CHIP.washable_nodes)
SYNTH = synthesize(build_demo_assay())

nodes = st.sampled_from(INTERIOR)


@given(st.sets(nodes, min_size=1, max_size=4), nodes, nodes)
@settings(max_examples=60, deadline=None)
def test_base_avoid_is_a_hard_ban(banned, a, b):
    if a == b or a in banned or b in banned:
        return
    router = Router(CHIP, base_avoid=banned)
    try:
        path = router.shortest_path(a, b)
    except Exception:
        return  # the ban may disconnect the pair; refusing is correct
    assert not (set(path) & banned)
    assert path[0] == a and path[-1] == b


specs = st.builds(
    lambda c, v, d, s: f"channels={c}:valves={v}:devices={d}:seed={s}",
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=4),
)


@given(specs)
@settings(max_examples=10, deadline=None)
def test_degraded_plans_are_validator_clean(spec):
    plan = optimize_washes(SYNTH, PDWConfig(degrade=spec))
    info = plan.degradation
    assert info is not None

    # No wash ever touches a dead node.
    for wash in plan.washes:
        assert not (set(wash.path) & info.dead)

    # The degraded validator (dead from tick -1, coverage gaps waived at
    # exactly the reported uncovered targets) finds nothing to flag.
    problems, _waived = degraded_validation_problems(
        plan,
        SYNTH,
        {node: -1 for node in info.dead},
        set(info.uncovered_targets),
    )
    assert not problems

    # Every required target is either washed or reported uncovered.
    washed = {t for w in plan.washes for t in w.targets}
    assert info.required_targets == len(washed) + len(info.uncovered_targets)
