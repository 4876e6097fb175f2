#!/usr/bin/env sh
# Gate: no panicking constructs on input-reachable paths in dpm-core, nor
# in the parallel experiment runner (a panic there would look like a lost
# job to every caller relying on its failure-isolation contract).
#
# Scans every file under crates/dpm-core/src, crates/dpm-telemetry/src
# (the observability layer must never take down the system it observes —
# a poisoned lock degrades to recovering the data, not panicking),
# crates/dpm-trace/src (trace analysis runs over possibly hostile input
# and must degrade through typed errors — including the streaming
# rollup and the span-tree profile analysis), and crates/dpm-broker/src
# (the power-topology robustness kernel: a panic mid-cascade would strand
# the tree in an illegal configuration), plus
# the dpm-bench runner, campaign, fleet, and topology modules, the
# governed simulation, the board engine and every module its slot loop
# calls into (battery, board, processor, events and event queue, gauge,
# reports), the topology runtime, and the dpm-workloads
# fault-plan and fleet-population generators (the fault-injection path
# must degrade through typed errors, never abort a campaign), and all of
# crates/dpm-serve/src (a long-running service digesting hostile NDJSON
# must answer with structured errors, never die mid-session — the
# metrics exposition renderer/validator included), and the vendored
# serde and serde_json codec (vendor/serde/src, vendor/serde_json/src:
# the JSON reader sits on every hostile-input boundary — NDJSON
# requests, trace files, injected trace lines), strips
# everything from the `#[cfg(test)]` marker onward
# (test modules sit at the end of each file),
# and fails if the remainder contains `.unwrap()`, `.expect(`, `panic!`,
# or a non-debug `assert!`/`assert_eq!`/`assert_ne!`. `debug_assert!` is
# allowed: internal invariants are checked in debug builds only (see
# DESIGN.md §7). Doc-comment lines are skipped — doctests may assert.
set -eu

status=0
for f in $(find crates/dpm-core/src -name '*.rs' | sort) \
    $(find crates/dpm-telemetry/src -name '*.rs' | sort) \
    $(find crates/dpm-trace/src -name '*.rs' | sort) \
    $(find crates/dpm-broker/src -name '*.rs' | sort) \
    $(find crates/dpm-serve/src -name '*.rs' | sort) \
    $(find vendor/serde/src -name '*.rs' | sort) \
    $(find vendor/serde_json/src -name '*.rs' | sort) \
    crates/dpm-bench/src/runner.rs \
    crates/dpm-bench/src/campaign.rs \
    crates/dpm-bench/src/fleet.rs \
    crates/dpm-bench/src/topology.rs \
    crates/dpm-bench/src/telemetry_out.rs \
    crates/dpm-sim/src/sim.rs \
    crates/dpm-sim/src/fleet.rs \
    crates/dpm-sim/src/topo.rs \
    crates/dpm-sim/src/battery.rs \
    crates/dpm-sim/src/board.rs \
    crates/dpm-sim/src/processor.rs \
    crates/dpm-sim/src/events.rs \
    crates/dpm-sim/src/engine.rs \
    crates/dpm-sim/src/meter.rs \
    crates/dpm-sim/src/stats.rs \
    crates/dpm-workloads/src/faults.rs \
    crates/dpm-workloads/src/fleet.rs; do
    hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print NR": "$0}' "$f" |
        grep -vE '^[0-9]+: *(//|//!|///)' |
        grep -E '\.unwrap\(\)|\.expect\(|panic!|(^|[^_a-z])assert(_eq|_ne)?!' |
        grep -v 'debug_assert' || true)
    if [ -n "$hits" ]; then
        echo "forbidden panicking construct in $f:" >&2
        echo "$hits" >&2
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "non-test code in dpm-core, dpm-telemetry, the runner, the campaign, the simulation engine, the fault generator, and the JSON codec must return typed errors instead of panicking (DESIGN.md §7–8)." >&2
fi
exit $status
