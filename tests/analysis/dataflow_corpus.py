"""Seeded violation corpus for the composition analyzer's RACE/CON/COST rules.

Eighteen compositions, each deliberately racy or contract-breaking in
one specific way, proving every RACE/CON/COST rule fires (mirroring the
purity pass's 18/18 dynamic-violation table from PR 4).  The corpus is
shared by test_dataflow.py and test_registry_verify.py:

- :data:`CORPUS` — the entries, each naming the rule it seeds;
- :func:`build_registry` — a registry with every corpus function and
  library (nested) composition registered;
- :func:`analyze_entry` / :func:`analyze_corpus` — run the analyzer
  over one entry / all of them.

The compute functions live at module level so the purity pass can read
their source; they exercise both the raw-vfs and SDK read/write paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.compositions import CompositionReport, analyze_composition
from repro.composition.dsl import parse_composition
from repro.composition.registry import FunctionBinary, Registry
from repro.functions.sdk import read_all_bytes, read_items, write_item

__all__ = [
    "CorpusEntry",
    "CORPUS",
    "build_registry",
    "analyze_entry",
    "analyze_corpus",
]


# -- compute functions -------------------------------------------------------
# Named df_* and kept at module level: verify_purity needs their source.


def df_copy(vfs):
    data = vfs.read_bytes("/in/src/item")
    vfs.write_bytes("/out/dst/item", data)


def df_merge2(vfs):
    a = vfs.read_bytes("/in/a/item")
    b = vfs.read_bytes("/in/b/item")
    vfs.write_bytes("/out/dst/item", a + b)


def df_sneaky_writer(vfs):
    # Declared interface: in(src) out(dst) — the write into "scratch"
    # is outside it, landing in the shared composition namespace.
    data = vfs.read_bytes("/in/src/item")
    vfs.write_bytes("/out/dst/item", data)
    vfs.write_bytes("/out/scratch/log", b"sneak")


def df_sneaky_reader(vfs):
    base = vfs.read_bytes("/in/src/item")
    extra = vfs.read_bytes("/in/scratch/log")
    vfs.write_bytes("/out/dst/item", base + extra)


def df_emit3(vfs):
    vfs.write_bytes("/out/parts/p0", b"a")
    vfs.write_bytes("/out/parts/p1", b"b")
    vfs.write_bytes("/out/parts/p2", b"c")


def df_emit2(vfs):
    vfs.write_bytes("/out/parts/q0", b"a")
    vfs.write_bytes("/out/parts/q1", b"b")


def df_emit_dynamic(vfs):
    data = read_all_bytes(vfs, "src")
    for index in range(len(data)):
        vfs.write_bytes(f"/out/parts/p{index}", b"x")


def df_const_item(vfs):
    # Every fan-out instance of this function writes the same item
    # name, so a merged "dst" collides across instances.
    data = read_all_bytes(vfs, "part")
    vfs.write_bytes("/out/dst/fixed", data)


def df_item_copy(vfs):
    for name, payload in read_items(vfs, "part"):
        vfs.write_bytes(f"/out/dst/{name}", payload)


def df_collect(vfs):
    data = read_all_bytes(vfs, "dst")
    vfs.write_bytes("/out/result/merged", data)


def df_collect2(vfs):
    a = read_all_bytes(vfs, "good_in")
    b = read_all_bytes(vfs, "bad_in")
    vfs.write_bytes("/out/result/merged", a + b)


def df_pair(vfs):
    a = read_all_bytes(vfs, "lhs")
    b = read_all_bytes(vfs, "rhs")
    vfs.write_bytes("/out/dst/item", a + b)


def df_inplace(vfs):
    # Writes its own declared *input* set: the platform already
    # delivered (renamed) a set under that name.
    data = read_all_bytes(vfs, "buf")
    vfs.write_bytes("/out/buf/tmp", data)
    vfs.write_bytes("/out/dst/item", data)


def df_echo_back(vfs):
    for name, payload in read_items(vfs, "msgs"):
        write_item(vfs, "msgs", "copy-" + name, payload)
    vfs.write_bytes("/out/dst/done", b"ok")


def df_ghost_read(vfs):
    base = read_all_bytes(vfs, "src")
    config = vfs.read_bytes("/in/config/main")
    vfs.write_bytes("/out/dst/item", base + config)


def df_ghost_items(vfs):
    for name, payload in read_items(vfs, "sideband"):
        vfs.write_bytes(f"/out/dst/{name}", payload)


def df_ghost_probe(vfs):
    names = vfs.listdir("/in/manifest")
    vfs.write_bytes("/out/dst/count", str(len(names)).encode())


def df_half_writer(vfs):
    # Declared out(real, phantom) at its node — but only "real" is
    # ever written; "phantom" propagates as an always-empty alias.
    data = read_all_bytes(vfs, "src")
    vfs.write_bytes("/out/real/item", data)


def df_slow(vfs):
    data = read_all_bytes(vfs, "src")
    vfs.write_bytes("/out/dst/item", data)


_FUNCTIONS = [
    FunctionBinary("df_copy", df_copy),
    FunctionBinary("df_merge2", df_merge2),
    FunctionBinary("df_sneaky_writer", df_sneaky_writer),
    FunctionBinary("df_sneaky_reader", df_sneaky_reader),
    FunctionBinary("df_emit3", df_emit3),
    FunctionBinary("df_emit2", df_emit2),
    FunctionBinary("df_emit_dynamic", df_emit_dynamic),
    FunctionBinary("df_const_item", df_const_item),
    FunctionBinary("df_item_copy", df_item_copy),
    FunctionBinary("df_collect", df_collect),
    FunctionBinary("df_collect2", df_collect2),
    FunctionBinary("df_pair", df_pair),
    FunctionBinary("df_inplace", df_inplace),
    FunctionBinary("df_echo_back", df_echo_back),
    FunctionBinary("df_ghost_read", df_ghost_read),
    FunctionBinary("df_ghost_items", df_ghost_items),
    FunctionBinary("df_ghost_probe", df_ghost_probe),
    FunctionBinary("df_half_writer", df_half_writer),
    FunctionBinary("df_slow", df_slow, compute_cost=0.1),
]


# Library compositions: nested building blocks the corpus entries
# ``compose ... uses ...`` — registered first, in order.
_LIBRARY_DSL = [
    """
    composition inner_misbound {
        compute work uses df_half_writer in(src) out(real, phantom);
        input x -> work.src;
        output work.real -> good;
        output work.phantom -> bad;
    }
    """,
    """
    composition mid_wrap {
        compose core uses inner_misbound;
        input y -> core.x;
        output core.good -> fine;
        output core.bad -> still_bad;
    }
    """,
]


@dataclass(frozen=True)
class CorpusEntry:
    """One seeded violation: a composition plus the rule it must trip."""

    name: str
    rule: str                     # the seeded code, e.g. "RACE001"
    description: str
    dsl: str
    expected_codes: tuple        # codes that must all fire
    analyze_kwargs: dict = field(default_factory=dict)


CORPUS = [
    CorpusEntry(
        name="race_ww_parallel",
        rule="RACE001",
        description="two parallel nodes both sneak-write set 'scratch'",
        dsl="""
        composition race_ww_parallel {
            compute left uses df_sneaky_writer in(src) out(dst);
            compute right uses df_sneaky_writer in(src) out(dst);
            input a -> left.src;
            input b -> right.src;
            output left.dst -> out_l;
            output right.dst -> out_r;
        }
        """,
        expected_codes=("RACE001",),
    ),
    CorpusEntry(
        name="race_ww_diamond",
        rule="RACE001",
        description="diamond branches sneak-write the same set",
        dsl="""
        composition race_ww_diamond {
            compute seed uses df_copy in(src) out(dst);
            compute up uses df_sneaky_writer in(src) out(dst);
            compute down uses df_sneaky_writer in(src) out(dst);
            compute join uses df_merge2 in(a, b) out(dst);
            input start -> seed.src;
            seed.dst -> up.src;
            seed.dst -> down.src;
            up.dst -> join.a;
            down.dst -> join.b;
            output join.dst -> result;
        }
        """,
        expected_codes=("RACE001",),
    ),
    CorpusEntry(
        name="race_rw_parallel",
        rule="RACE002",
        description="sneak-read of a set only a parallel node writes",
        dsl="""
        composition race_rw_parallel {
            compute writer uses df_sneaky_writer in(src) out(dst);
            compute reader uses df_sneaky_reader in(src) out(dst);
            input a -> writer.src;
            input b -> reader.src;
            output writer.dst -> out_w;
            output reader.dst -> out_r;
        }
        """,
        expected_codes=("RACE002",),
    ),
    CorpusEntry(
        name="race_rw_sibling",
        rule="RACE002",
        description="sibling branches: one sneak-writes, one sneak-reads",
        dsl="""
        composition race_rw_sibling {
            compute seed uses df_copy in(src) out(dst);
            compute spill uses df_sneaky_writer in(src) out(dst);
            compute reader uses df_sneaky_reader in(src) out(dst);
            input start -> seed.src;
            seed.dst -> spill.src;
            seed.dst -> reader.src;
            output spill.dst -> out_a;
            output reader.dst -> out_b;
        }
        """,
        expected_codes=("RACE002",),
    ),
    CorpusEntry(
        name="race_fanout_each",
        rule="RACE003",
        description="'each' instances all write a constant item name",
        dsl="""
        composition race_fanout_each {
            compute gen uses df_emit3 in(src) out(parts);
            compute work uses df_const_item in(part) out(dst);
            compute sink uses df_collect in(dst) out(result);
            input start -> gen.src;
            gen.parts -> work.part [each];
            work.dst -> sink.dst [all];
            output sink.result -> result;
        }
        """,
        expected_codes=("RACE003",),
    ),
    CorpusEntry(
        name="race_fanout_key",
        rule="RACE003",
        description="'key' instances all write a constant item name",
        dsl="""
        composition race_fanout_key {
            compute gen uses df_emit3 in(src) out(parts);
            compute work uses df_const_item in(part) out(dst);
            compute sink uses df_collect in(dst) out(result);
            input start -> gen.src;
            gen.parts -> work.part [key];
            work.dst -> sink.dst [all];
            output sink.result -> result;
        }
        """,
        expected_codes=("RACE003",),
    ),
    CorpusEntry(
        name="race_alias_inplace",
        rule="RACE004",
        description="function writes its own declared input set",
        dsl="""
        composition race_alias_inplace {
            compute work uses df_inplace in(buf) out(dst);
            input data -> work.buf;
            output work.dst -> result;
        }
        """,
        expected_codes=("RACE004",),
    ),
    CorpusEntry(
        name="race_alias_echo",
        rule="RACE004",
        description="SDK write_item back into the declared input set",
        dsl="""
        composition race_alias_echo {
            compute work uses df_echo_back in(msgs) out(dst);
            input inbox -> work.msgs;
            output work.dst -> result;
        }
        """,
        expected_codes=("RACE004",),
    ),
    CorpusEntry(
        name="con_ghost_read",
        rule="CON001",
        description="vfs read of a set nothing produces",
        dsl="""
        composition con_ghost_read {
            compute work uses df_ghost_read in(src) out(dst);
            input data -> work.src;
            output work.dst -> result;
        }
        """,
        expected_codes=("CON001",),
    ),
    CorpusEntry(
        name="con_ghost_items",
        rule="CON001",
        description="SDK read_items of a set nothing produces",
        dsl="""
        composition con_ghost_items {
            compute work uses df_ghost_items in(src) out(dst);
            input data -> work.src;
            output work.dst -> result;
        }
        """,
        expected_codes=("CON001",),
    ),
    CorpusEntry(
        name="con_ghost_probe",
        rule="CON001",
        description="listdir of a set nothing produces",
        dsl="""
        composition con_ghost_probe {
            compute work uses df_ghost_probe in(src) out(dst);
            input data -> work.src;
            output work.dst -> result;
        }
        """,
        expected_codes=("CON001",),
    ),
    CorpusEntry(
        name="con_aliased",
        rule="CON002",
        description="nested output alias hides a never-written set",
        dsl="""
        composition con_aliased {
            compose sub uses inner_misbound;
            compute sink uses df_collect2 in(good_in, bad_in) out(result);
            input x -> sub.x;
            sub.good -> sink.good_in;
            sub.bad -> sink.bad_in;
            output sink.result -> result;
        }
        """,
        expected_codes=("CON002",),
    ),
    CorpusEntry(
        name="con_aliased_deep",
        rule="CON002",
        description="double-nested alias chain to a never-written set",
        dsl="""
        composition con_aliased_deep {
            compose wrap uses mid_wrap;
            compute sink uses df_collect2 in(good_in, bad_in) out(result);
            input z -> wrap.y;
            wrap.fine -> sink.good_in;
            wrap.still_bad -> sink.bad_in;
            output sink.result -> result;
        }
        """,
        expected_codes=("CON002",),
    ),
    CorpusEntry(
        name="con_mixed_dist",
        rule="CON003",
        description="'each' and 'key' edges mixed on one node",
        dsl="""
        composition con_mixed_dist {
            compute genA uses df_emit3 in(src) out(parts);
            compute genB uses df_emit3 in(src) out(parts);
            compute work uses df_pair in(lhs, rhs) out(dst);
            compute sink uses df_collect in(dst) out(result);
            input a -> genA.src;
            input b -> genB.src;
            genA.parts -> work.lhs [each];
            genB.parts -> work.rhs [key];
            work.dst -> sink.dst [all];
            output sink.result -> result;
        }
        """,
        expected_codes=("CON003",),
    ),
    CorpusEntry(
        name="con_mismatched_each",
        rule="CON003",
        description="'each' edges with provably different item counts",
        dsl="""
        composition con_mismatched_each {
            compute genA uses df_emit3 in(src) out(parts);
            compute genB uses df_emit2 in(src) out(parts);
            compute work uses df_pair in(lhs, rhs) out(dst);
            compute sink uses df_collect in(dst) out(result);
            input a -> genA.src;
            input b -> genB.src;
            genA.parts -> work.lhs [each];
            genB.parts -> work.rhs [each];
            work.dst -> sink.dst [all];
            output sink.result -> result;
        }
        """,
        expected_codes=("CON003",),
    ),
    CorpusEntry(
        name="cost_deadline_chain",
        rule="COST001",
        description="50ms deadline over a 300ms critical path",
        dsl="""
        composition cost_deadline_chain {
            deadline 50ms;
            compute s1 uses df_slow in(src) out(dst);
            compute s2 uses df_slow in(src) out(dst);
            compute s3 uses df_slow in(src) out(dst);
            input start -> s1.src;
            s1.dst -> s2.src;
            s2.dst -> s3.src;
            output s3.dst -> result;
        }
        """,
        expected_codes=("COST001",),
    ),
    CorpusEntry(
        name="cost_memory_wide",
        rule="COST002",
        description="3-wide fan-out of 64 MiB contexts vs 1 MiB capacity",
        dsl="""
        composition cost_memory_wide {
            compute gen uses df_emit3 in(src) out(parts);
            compute work uses df_item_copy in(part) out(dst);
            compute sink uses df_collect in(dst) out(result);
            input start -> gen.src;
            gen.parts -> work.part [each];
            work.dst -> sink.dst [all];
            output sink.result -> result;
        }
        """,
        expected_codes=("COST002",),
        analyze_kwargs={"memory_capacity": 1 << 20},
    ),
    CorpusEntry(
        name="cost_unbounded_fanout",
        rule="COST003",
        description="deadline declared over a statically unbounded fan-out",
        dsl="""
        composition cost_unbounded_fanout {
            deadline 1s;
            compute gen uses df_emit_dynamic in(src) out(parts);
            compute work uses df_item_copy in(part) out(dst);
            compute sink uses df_collect in(dst) out(result);
            input start -> gen.src;
            gen.parts -> work.part [each];
            work.dst -> sink.dst [all];
            output sink.result -> result;
        }
        """,
        expected_codes=("COST003",),
    ),
]


def build_registry() -> Registry:
    """Registry holding every corpus function, library, and entry."""
    registry = Registry()
    for binary in _FUNCTIONS:
        registry.register_function(binary)
    for source in _LIBRARY_DSL:
        registry.register_composition(
            parse_composition(source, registry.compositions)
        )
    for entry in CORPUS:
        registry.register_composition(
            parse_composition(entry.dsl, registry.compositions)
        )
    return registry


def analyze_entry(entry: CorpusEntry, registry=None) -> CompositionReport:
    if registry is None:
        registry = build_registry()
    return analyze_composition(
        registry.composition(entry.name), registry, **entry.analyze_kwargs
    )


def analyze_corpus(registry=None) -> dict:
    """Entry name -> CompositionReport for the whole corpus."""
    if registry is None:
        registry = build_registry()
    return {entry.name: analyze_entry(entry, registry) for entry in CORPUS}
