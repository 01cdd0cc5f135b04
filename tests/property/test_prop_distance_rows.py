"""Property tests: distance rows equal the pairwise answers they replace.

``PathKernel.distances_from`` answers a whole routing step with one
single-source search, and the router reads those rows instead of one
``shortest()`` query per target.  Plans stay byte-identical only if every
row entry equals the matching leg length bit for bit (on chips whose
segment sums are exact) and if the router's covering paths equal the
pairwise reference router's (``tests/pairwise_router.py``) — on all 8
benchmark chips, and on random grids, whose sums are not exact and which
therefore take the pairwise branch.
"""

import random

import pytest

from repro.arch.pathkernel import PathKernel
from repro.arch.routing import Router, is_simple
from repro.bench import BENCHMARKS
from repro.errors import RoutingError
from repro.synth.binding import build_device_list
from repro.synth.layout import generate_layout
from tests.pairwise_router import PairwiseRouter
from tests.property.test_prop_graph_parity import random_grid_chip

INF = float("inf")


def benchmark_chip(name):
    spec = BENCHMARKS[name]
    return generate_layout(build_device_list(spec.inventory), name=f"{spec.name}-chip")


@pytest.fixture(scope="module", params=sorted(BENCHMARKS))
def bench_chip(request):
    return benchmark_chip(request.param)


def leg_length(kernel, src, dst, banned):
    try:
        return kernel.shortest(src, dst, banned)[1]
    except RoutingError:
        return INF


def assert_row_matches_legs(kernel, src, banned):
    row = kernel.distances_from(src, kernel.mask(banned))
    assert len(row) == len(kernel.nodes)
    for i, node in enumerate(kernel.nodes):
        want = leg_length(kernel, src, node, kernel.mask(banned))
        assert row[i].hex() == want.hex(), (src, node, sorted(banned))
    return row


def test_benchmark_chips_have_exact_sums(bench_chip):
    assert PathKernel(bench_chip).exact_sums


def test_rows_equal_leg_lengths_bit_for_bit(bench_chip):
    kernel = PathKernel(bench_chip)
    rng = random.Random(5)
    ports = frozenset(bench_chip.flow_ports) | frozenset(bench_chip.waste_ports)
    interior = [n for n in bench_chip.nodes if not bench_chip.is_port(n)]
    sources = list(bench_chip.flow_ports) + rng.sample(interior, 3)
    for src in sources:
        targets = rng.sample(interior, 4)
        foreign = frozenset(bench_chip.devices) - set(targets)
        for banned in (frozenset(), ports, ports | foreign):
            assert_row_matches_legs(kernel, src, banned)
        # Banned endpoints: the source and some targets are in the ban set,
        # and are still reached (as endpoints, never passed through).
        row = assert_row_matches_legs(kernel, src, ports | {src, *targets[:2]})
        assert row[kernel.index[src]] == 0.0
        assert all(row[kernel.index[t]] < INF for t in targets[:2])


def test_rows_report_unreachable_nodes_as_inf(bench_chip):
    kernel = PathKernel(bench_chip)
    node = next(n for n in bench_chip.devices if bench_chip.degree(n) >= 2)
    fence = frozenset(bench_chip.neighbors(node))
    src = next(n for n in bench_chip.nodes if n != node and n not in fence)
    row = assert_row_matches_legs(kernel, src, fence)
    assert row[kernel.index[node]] == INF
    with pytest.raises(RoutingError):
        kernel.shortest(src, node, kernel.mask(fence))


def test_unknown_source_gives_a_row_of_inf(bench_chip):
    kernel = PathKernel(bench_chip)
    row = kernel.distances_from("no-such-node")
    assert list(row) == [INF] * len(bench_chip.nodes)
    with pytest.raises(RoutingError):
        kernel.shortest("no-such-node", bench_chip.nodes[0])


def outcome(call):
    try:
        return call()
    except RoutingError:
        return "unroutable"


def check_against_reference(chip, rng, cases, origins):
    """Random covering queries; the router must equal the reference.

    Each router answers a query with and without the foreign-device
    avoid set, as ``candidate_paths`` does, so its memoised visit orders
    must tell the two ban sets apart.
    """
    interior = [n for n in chip.nodes if not chip.is_port(n)]
    for _ in range(cases):
        dead = rng.sample(interior, min(rng.choice((0, 0, 2, 4)), len(interior) // 3))
        alive = [n for n in interior if n not in dead]
        targets = rng.sample(alive, rng.randint(1, min(6, len(alive))))
        src, dst = rng.choice(chip.flow_ports), rng.choice(chip.waste_ports)
        router = Router(chip, base_avoid=dead)
        reference = PairwiseRouter(chip, base_avoid=dead)
        for avoid in (sorted(set(chip.devices) - set(targets)), None):
            query = (chip.name, src, targets, dst, avoid, dead)
            want = outcome(lambda: reference.path_through_mm(src, targets, dst, avoid))
            got = outcome(lambda: router.path_through_mm(src, targets, dst, avoid))
            assert got == want, query
            if want == "unroutable":
                origins.add(want)
            elif reference.last_origin == "walk":
                origins.add("walk/simple" if is_simple(want[0]) else "walk/revisiting")
            else:
                origins.add(reference.last_origin)


def test_path_through_matches_pairwise_reference_on_benchmark_chips():
    origins = set()
    for name in sorted(BENCHMARKS):
        check_against_reference(benchmark_chip(name), random.Random(name), 20, origins)
    # Every branch of the router ran: simple builds, walks that happen to
    # be simple, walks that revisit nodes, and no route at all.
    assert origins == {"simple", "walk/simple", "walk/revisiting", "unroutable"}


@pytest.mark.parametrize("seed", range(6))
def test_path_through_matches_pairwise_reference_on_random_grids(seed):
    chip = random_grid_chip(seed)
    assert not Router(chip).kernel.exact_sums
    check_against_reference(chip, random.Random(seed), 20, set())
