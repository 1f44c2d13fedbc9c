"""Differential testing of the dispatcher on randomized DAGs.

Strategy: build random processing chains whose node transformation is
*per-item* (append the node's name to each item's payload).  For such
pipelines the final result is independent of how the dispatcher splits
work across instances — ``all``, ``each`` and ``key`` distributions,
instance merging, and scheduling order must all preserve the same item
multiset.  The expected output is computed by a three-line reference
loop that shares no code with the dispatcher.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.composition import Distribution
from repro.data import DataItem, DataSet
from repro.functions import compute_function, read_items, write_item
from repro.worker import WorkerConfig, WorkerNode

_DISTRIBUTIONS = [Distribution.ALL, Distribution.EACH, Distribution.KEY]


def _node_binary(node_name: str):
    @compute_function(name=f"fn_{node_name}", compute_cost=1e-5)
    def transform(vfs):
        for item in read_items(vfs, "data"):
            # Re-derive the key from the ident suffix (as the reference
            # interpreter does) so grouping survives each hop.
            key = item.ident.split("@")[1] if "@" in item.ident else None
            write_item(
                vfs, "data", item.ident,
                item.data + b"|" + node_name.encode(), key=key,
            )

    return transform


def _build_chain(worker, node_names, distributions, also_bound=None):
    """Register ``composition chain``; ``also_bound`` names a node whose
    output is additionally bound to the external output ``tap``."""
    lines = []
    edges = []
    previous = None
    for name in node_names:
        worker.frontend.register_function(_node_binary(name))
        lines.append(f"compute {name} uses fn_{name} in(data) out(data);")
        if previous is None:
            edges.append(f"input data -> {name}.data;")
        else:
            dist = distributions[len(edges) - 1]
            edges.append(f"{previous}.data -> {name}.data [{dist.value}];")
        previous = name
    source = (
        "composition chain {\n" + "\n".join(lines) + "\n" + "\n".join(edges)
        + (f"\noutput {also_bound}.data -> tap;" if also_bound else "")
        + f"\noutput {previous}.data -> result;\n}}"
    )
    worker.frontend.register_composition(source)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),                                  # chain length
    st.integers(1, 6),                                  # item count
    st.lists(st.sampled_from(_DISTRIBUTIONS), min_size=4, max_size=4),
    st.integers(1, 3),                                  # distinct key count
)
def test_property_chain_result_independent_of_distribution(
    length, item_count, distributions, key_count
):
    node_names = [f"n{i}" for i in range(length)]
    worker = WorkerNode(WorkerConfig(total_cores=6, control_plane_enabled=False))
    _build_chain(worker, node_names, distributions)
    items = [
        DataItem(f"item{i}@k{i % key_count}", f"seed{i}".encode(), key=f"k{i % key_count}")
        for i in range(item_count)
    ]
    result = worker.invoke_and_run("chain", {"data": DataSet("data", items)})
    assert result.ok

    # Independent reference: every item passes through every node once.
    suffix = b"".join(b"|" + name.encode() for name in node_names)
    expected = {item.ident: item.data + suffix for item in items}

    output = result.output("result")
    assert {i.ident: i.data for i in output} == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.sampled_from([Distribution.EACH, Distribution.KEY]))
def test_property_fan_out_instance_count(item_count, distribution):
    # A two-node chain where the edge fans out: the number of executed
    # compute tasks must equal 1 (source) + the expansion width.
    worker = WorkerNode(WorkerConfig(total_cores=4, control_plane_enabled=False))

    @compute_function(name="src_fn", compute_cost=1e-5)
    def src(vfs):
        for i in range(item_count):
            write_item(vfs, "data", f"i{i}", b"x", key=f"k{i % 2}")

    @compute_function(name="sink_fn", compute_cost=1e-5)
    def sink(vfs):
        for item in read_items(vfs, "data"):
            write_item(vfs, "data", item.ident, item.data)

    worker.frontend.register_function(src)
    worker.frontend.register_function(sink)
    worker.frontend.register_composition(f"""
        composition fan {{
            compute s uses src_fn in(seed) out(data);
            compute t uses sink_fn in(data) out(data);
            input seed -> s.seed;
            s.data -> t.data [{distribution.value}];
            output t.data -> result;
        }}
    """)
    result = worker.invoke_and_run("fan", {"seed": b""})
    assert result.ok
    assert len(result.output("result")) == item_count
    expected_instances = item_count if distribution is Distribution.EACH else min(2, item_count)
    assert worker.compute_group.tasks_executed == 1 + expected_instances
