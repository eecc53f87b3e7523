#!/usr/bin/env bash
# The full CI gate, runnable locally: build, tests, formatting, lints.
# Everything must pass before a change merges.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> non-test lines"
# Non-test lines of each crate under crates/ (its src/), of the root
# package's src/ and of third_party/, and their sum, so a change's line
# counts are reproducible. A file's non-test lines are those above its
# first `#[cfg(test)] mod`, less any other `#[cfg(test)]` item (a
# test-only method, say), which is skipped to where its braces close or
# its `;`; a `tests.rs` is compiled only under cfg(test) and counts as
# test lines.
non_test() {
    local n=0 f
    for f in $(find "$1" -name '*.rs' ! -name tests.rs | sort); do
        n=$((n + $(awk '
            /^ *#\[cfg\(test\)\]/ && !skip { skip = 1; first = 1; depth = 0; next }
            skip {
                if (first && /^ *(pub(\([a-z]+\))? )?mod /) { exit }
                first = 0
                depth += gsub(/\{/, "{") - gsub(/\}/, "}")
                if (depth == 0 && /[};] *$/) { skip = 0 }
                next
            }
            { n++ }
            END { print n + 0 }' "$f")))
    done
    echo "$n"
}
total=0
for dir in crates/*/src src third_party; do
    n=$(non_test "$dir")
    total=$((total + n))
    printf '%-20s %6d non-test lines\n' "${dir%/src}" "$n"
done
printf '%-20s %6d non-test lines\n' "total" "$total"
# The master is split by concern (crates/master/src/master/): no file there
# may pass 800 lines, tests included, so the split does not grow back into
# one file.
for f in crates/master/src/master/*.rs; do
    if [ "$(wc -l <"$f")" -gt 800 ]; then
        echo "master split: ${f} has $(wc -l <"$f") lines, over 800" >&2
        exit 1
    fi
done

echo "==> one confirm"
# Every replica confirm (a head's commit, a monitor's copy, a block report,
# a reinstated delete, a reassigned block's kept replicas) goes through
# `BlockState::confirm`, which records nothing on a worker that is not live
# and charges the confirm that ends a pending location: the master calls
# the block map's own `confirm` there and nowhere else.
confirms=$(awk '/^ *(pub(\([a-z]+\))? )?fn / { f = $0 } /map\.confirm\(/ { print FILENAME ":" f }' \
    crates/master/src/master/*.rs)
if [ "$(grep -c . <<<"$confirms")" -ne 1 ] ||
    ! grep -q '^crates/master/src/master/blocks.rs: *fn confirm(' <<<"$confirms"; then
    echo "one confirm: map.confirm( is called outside BlockState::confirm:" >&2
    printf '%s\n' "$confirms" >&2
    exit 1
fi
echo "one confirm: BlockState::confirm is the block map's one confirm"

echo "==> one clock"
# The master keeps its own time: `Master::tick` is the only way time
# reaches it, and only the master's owner calls it, from its own clock —
# the TCP server's detector (`MasterServer::spawn_with`), `Cluster`'s pump
# and `SimCluster`'s beat. No request handler ticks it, so no stamp a
# request carries moves it. Outside crates/master, no other non-test code
# calls `.tick(` (tests, and whatever follows a file's first `#[cfg(test)]`,
# are exempt), and no Rust file names `unix_ms` or `advance_clock`.
ticks=$(git ls-files -co --exclude-standard '*.rs' |
    grep -vE '^crates/master/|(^|/)tests(/|\.rs$)' |
    xargs awk '
        FNR == 1 { skip = 0 }
        /^ *#\[cfg\(test\)\]/ { skip = 1 }
        skip { next }
        match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
        /\.tick\(/ { print FILENAME ":" f }' | sort)
want='crates/core/src/cluster.rs:pump_heartbeats
crates/core/src/net/master_server.rs:spawn_with
crates/core/src/sim.rs:beat'
if [ "$ticks" != "$want" ]; then
    echo "one clock: .tick( is called outside the master's owners:" >&2
    printf '%s\n' "$ticks" >&2
    exit 1
fi
if git grep --untracked -nwE 'unix_ms|advance_clock' -- '*.rs' >&2; then
    echo "one clock: a Rust file names unix_ms or advance_clock" >&2
    exit 1
fi
echo "one clock: the server's detector, Cluster's pump and SimCluster's beat tick the master"

echo "==> one generator"
# Every random draw comes from `octopus_common::rng`: splitmix64's
# multiplier, in any case and with or without underscores, appears in no
# other Rust file. The benchmark keeps its own copy in
# `crates/benchmark/src/util.rs` until a change that may edit the
# benchmark moves it. No manifest names `rand` or `proptest`.
copies=$(git ls-files -co --exclude-standard '*.rs' | while read -r f; do
    if tr -d _ <"$f" | grep -qi 'bf58476d1ce4e5b9'; then echo "$f"; fi
done | grep -vxE 'crates/common/src/rng\.rs|crates/benchmark/src/util\.rs' || true)
if [ -n "$copies" ]; then
    echo "one generator: splitmix64 is written out outside octopus_common::rng:" >&2
    printf '%s\n' "$copies" >&2
    exit 1
fi
if grep -nwE 'rand|proptest' $(git ls-files -co --exclude-standard '*Cargo.toml') >&2; then
    echo "one generator: a manifest names rand or proptest" >&2
    exit 1
fi
echo "one generator: octopus_common::rng is the only splitmix64"

echo "==> one deployment"
# `octofs --root` runs the daemons' own nodes in one process (`NetCluster`
# on the daemons' file log), so no binary may build the in-process test
# harness: no src/bin/*.rs names `LocalTransport`, `start_with_log` or a
# bare `Cluster::` (`NetCluster::` is the deployment, and allowed).
if grep -nE '\b(LocalTransport|start_with_log)\b|(^|[^A-Za-z0-9_])Cluster::' src/bin/*.rs >&2; then
    echo "one deployment: a binary builds the in-process harness" >&2
    exit 1
fi
# §5 rounds are the master node's, run on its timers or on request
# (`RunRound`), so `octofs` drives none of its own: it names no
# `monitor::`, no `run_*_round` and no `beat`.
if grep -nE 'monitor::|\brun_[a-z_]*_round\b|\bbeat\b' src/bin/octofs.rs >&2; then
    echo "one deployment: octofs drives a round of its own" >&2
    exit 1
fi
echo "one deployment: every binary runs the daemons' nodes"

echo "==> one namespace"
# §2.4's stand-alone mounts are not reproduced (DESIGN.md §1): `status`,
# `list` and reads answer from the namespace alone. No non-test code under
# crates/*/src or src names the mount table, its catalogs or the calls that
# read through them (tests, and whatever follows a file's first
# `#[cfg(test)]`, are exempt).
mounts=$(git ls-files -co --exclude-standard 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' \
    'src/*.rs' 'src/**/*.rs' | grep -v '/tests\.rs$' | xargs awk '
    FNR == 1 { skip = 0 }
    /^ *#\[cfg\(test\)\]/ { skip = 1 }
    !skip && /(^|[^A-Za-z0-9_])(ExternalCatalog|MountTable|mount_external|ReadExternal|import_external|is_external)([^A-Za-z0-9_]|$)/ {
        print FILENAME ":" FNR ": " $0
    }')
if [ -n "$mounts" ]; then
    echo "one namespace: non-test code names an external mount:" >&2
    printf '%s\n' "$mounts" >&2
    exit 1
fi
echo "one namespace: status, list and reads answer from the namespace alone"

echo "==> one copy"
# The client holds no block buffer: a write leaves from the caller's slice
# and a read lands in the caller's output (DESIGN.md §8, §9), so no
# non-test code in crates/core/src/net/client.rs names the buffer pool
# (whatever follows the file's first `#[cfg(test)]` is exempt).
pooled=$(awk '
    /^ *#\[cfg\(test\)\]/ { exit }
    /bufpool/ { print FILENAME ":" FNR ": " $0 }
' crates/core/src/net/client.rs)
if [ -n "$pooled" ]; then
    echo "one copy: the client names the buffer pool:" >&2
    printf '%s\n' "$pooled" >&2
    exit 1
fi
echo "one copy: the client copies no block into a buffer of its own"

echo "==> one read engine"
# Every read lands through one engine (DESIGN.md §8): `RemoteFs::read_file`
# and the positional `RemoteFs::read_at` share one locate→land step, so no
# non-test code under crates/*/src or src names the ranged copy or the
# cursor they replaced (tests, and whatever follows a file's first
# `#[cfg(test)]`, are exempt).
readers=$(git ls-files -co --exclude-standard 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' \
    'src/*.rs' 'src/**/*.rs' | grep -v '/tests\.rs$' | xargs awk '
    FNR == 1 { skip = 0 }
    /^ *#\[cfg\(test\)\]/ { skip = 1 }
    !skip && /(^|[^A-Za-z0-9_])(read_range|FileReader)([^A-Za-z0-9_]|$)/ {
        print FILENAME ":" FNR ": " $0
    }')
if [ -n "$readers" ]; then
    echo "one read engine: non-test code names read_range or FileReader:" >&2
    printf '%s\n' "$readers" >&2
    exit 1
fi
echo "one read engine: read_file and read_at land through one engine"

echo "==> one tiering loop"
# The master's auto-tierer is the one loop that moves files between tiers:
# it promotes hot files and, when the Memory tier is full, evicts the least
# recently touched memory-pinned file. No Rust file names the client-side
# `CacheManager` or `CacheAction` it replaced. The master stages each edit
# under its namespace guard and waits for the log after releasing it, so no
# non-test code in crates/master/src/master/ calls `append_sync` (tests,
# and whatever follows a file's first `#[cfg(test)]`, are exempt).
if git grep --untracked -nwE 'CacheManager|CacheAction' -- '*.rs' >&2; then
    echo "one tiering loop: a Rust file names CacheManager or CacheAction" >&2
    exit 1
fi
syncs=$(find crates/master/src/master -name '*.rs' ! -name tests.rs | sort | xargs awk '
    FNR == 1 { skip = 0 }
    /^ *#\[cfg\(test\)\]/ { skip = 1 }
    !skip && /append_sync\(/ { print FILENAME ":" FNR }')
if [ -n "$syncs" ]; then
    echo "one tiering loop: the master waits for the log under its guard:" >&2
    printf '%s\n' "$syncs" >&2
    exit 1
fi
echo "one tiering loop: the auto-tierer evicts, and no master code calls append_sync"

echo "==> one §5 loop"
# The master node runs one background §5 thread: every round is a
# replication round, or a migration round when it tiers, and every copy of
# a migration round, repairs included, runs through `run_tasks` under one
# shared cap. No Rust file names the second timer's `start_autotier` or the
# sequential `run_paced_pass`, and only the daemon test that pins it as an
# unknown flag names `--autotier-ms`. Each `Periodic::spawn` is one thread:
# a worker's beat, the master node's round loop, the master server's clock
# and a backup master's tail, and no other.
if git grep --untracked -nwE 'start_autotier|run_paced_pass' -- '*.rs' >&2 ||
    git grep --untracked -nF -e '--autotier-ms' -- '*.rs' ':!tests/daemons.rs' >&2; then
    echo "one §5 loop: a Rust file names a second loop, its pass or its flag" >&2
    exit 1
fi
periodic=$(git ls-files -co --exclude-standard '*.rs' | xargs awk '
    match($0, /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) {
        f = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", f)
    }
    /Periodic::spawn\(/ { print FILENAME ":" f }' | sort)
want='crates/core/src/net/backup.rs:start
crates/core/src/net/master_server.rs:spawn_with
crates/core/src/net/node.rs:start
crates/core/src/net/node.rs:start_rounds'
if [ "$periodic" != "$want" ]; then
    echo "one §5 loop: Periodic::spawn is called outside its four threads:" >&2
    printf '%s\n' "$periodic" >&2
    exit 1
fi
echo "one §5 loop: one round thread per master node, one paced executor"

echo "==> one-pass replay: the edit log starts no thread"
# The log is read and written on its caller's thread: no non-test line of
# editlog.rs (those above its `#[cfg(test)] mod`) spawns a thread.
spawns=$(awk '/^ *#\[cfg\(test\)\]/ { exit } /thread::|spawn/ { print FILENAME ":" FNR ": " $0 }' \
    crates/master/src/editlog.rs)
if [ -n "$spawns" ]; then
    echo "one-pass replay: editlog.rs starts a thread:" >&2
    printf '%s\n' "$spawns" >&2
    exit 1
fi
echo "one-pass replay: editlog.rs starts no thread"

echo "==> third_party stand-ins"
# Each directory in third_party/ stands in for one crates.io dependency:
# the root manifest must name it in `exclude`, `[workspace.dependencies]`
# and `[patch.crates-io]`, and some workspace member must depend on it, so
# a stand-in cannot outlive its last user.
section() {
    awk -v want="[$1]" '$0 == want { on = 1; next } /^\[/ { on = 0 } on' Cargo.toml
}
workspace=$(section workspace)
workspace_deps=$(section workspace.dependencies)
patched=$(section patch.crates-io)
member_deps=$(section dependencies; section dev-dependencies; cat crates/*/Cargo.toml)
for dir in third_party/*/; do
    name=$(basename "$dir")
    if ! grep -q "\"third_party/${name}\"" <<<"$workspace"; then
        echo "third_party: ${name} is not in the workspace's exclude list" >&2
        exit 1
    fi
    if ! grep -q "^${name} = " <<<"$workspace_deps"; then
        echo "third_party: ${name} is not in [workspace.dependencies]" >&2
        exit 1
    fi
    if ! grep -q "^${name} = { path = \"third_party/${name}\" }" <<<"$patched"; then
        echo "third_party: ${name} is not patched in [patch.crates-io]" >&2
        exit 1
    fi
    if ! grep -q "^${name}\.workspace = true" <<<"$member_deps"; then
        echo "third_party: no workspace member depends on ${name}" >&2
        exit 1
    fi
done
echo "third_party: $(ls -d third_party/*/ | wc -l) stand-ins, each patched in and used"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace --release"
# The whole workspace: every crate's unit tests and every integration
# suite, none hand-listed, so none can be silently skipped. The sections
# below add to it: seed sweeps and repeated runs of chosen suites under
# parallel load, the master's suites in debug, the `bytes` stand-in's
# tests, fmt and clippy, the nine figures regenerated, then smoke runs of
# the examples, the `exp_*` gates, octobench and the daemons.
cargo test --workspace --release -q

echo "==> daemon durability: 20 runs, joins and rounds: 10 runs each"
# The master and every worker daemon SIGKILLed in the middle of a put loop
# and restarted on their --dir, on fresh ports: every put that exited 0
# reads back byte for byte, 20 times back to back.
for run in $(seq 20); do
    if ! out=$(cargo test --release -q --test daemons -- --exact \
        every_acknowledged_put_survives_sigkill_of_every_daemon 2>&1); then
        printf '%s\n' "$out" >&2
        echo "daemon durability: run ${run} of 20 failed" >&2
        exit 1
    fi
done
echo "daemon durability: 20/20"
# Workers given only the master's address and their ids (0, 1, 7) join,
# beat at the master's interval and stay live, two SIGKILLed workers, the
# last live one too, show DEAD within the deadline and two intervals on the
# master's own clock, and a client connected before three workers joined
# scrapes all three: 10 times back to back.
for run in $(seq 10); do
    if ! out=$(cargo test --release -q --test daemons -- --exact \
        workers_given_only_their_ids_join_and_beat_at_the_masters_interval \
        the_last_live_worker_is_declared_dead_within_the_deadline 2>&1 &&
        cargo test --release -q -p octopus-core --test join -- --exact \
            a_connected_client_reaches_workers_that_joined_after_it 2>&1); then
        printf '%s\n' "$out" >&2
        echo "daemon joins: run ${run} of 10 failed" >&2
        exit 1
    fi
done
echo "daemon joins: 10/10"
# Balance, fsck and setrep driven through `octofs-remote` against daemons on
# --dir: a flipped on-disk byte is dropped and re-replicated, a fourth empty
# worker gets replicas moved to it, setrep returns on the new tiers; 10 times.
for run in $(seq 10); do
    if ! out=$(cargo test --release -q --test daemons -- --exact \
        balance_fsck_and_setrep_act_on_running_daemons 2>&1); then
        printf '%s\n' "$out" >&2
        echo "daemon rounds: run ${run} of 10 failed" >&2
        exit 1
    fi
done
echo "daemon rounds: 10/10"

echo "==> reservation and liveness oracle: 1,000 seeds"
# The scan transcript's oracles (the reserved bytes the master reports are
# a walk of its pending replicas, and every replica in its map sits on a
# live worker, at every round) over 1,000 more seeded sequences, with no
# fixture to compare (~2 s).
cargo test --release -q -p octopus-master --test scan_transcript -- --ignored --exact \
    reserved_bytes_are_the_pending_walk_over_a_thousand_seeds

echo "==> one-pass replay: 20 runs under parallel load"
# A file-backed log is read once, by its first replay, through one chunk
# buffer on the caller's thread, which also counts, indexes and cuts a torn
# tail. The replay suite (CRC flips, a file cut while it is read, tears, a
# failed apply, each against the ops that went in) and the torn-tail suite
# run 20 times back to back, 8 test threads each, and so do the exact heap
# counts of a replay's transient (equal for two logs of different lengths),
# of a batch append's peak (one chunk), of a borrowed decode of every op and
# of a replayed abandon (no allocation each), of a checkpoint image's
# encoder (its output alone stays) and of what a file costs (no allocation
# of its own: its name sits in its slot). Those are a call of their own, so
# their name filter skips no other suite.
for run in $(seq 20); do
    if ! out=$(cargo test --release -q -p octopus-master --test scan_pipeline \
        --test torn_tail -- --test-threads 8 2>&1) ||
        ! out=$(cargo test --release -q -p octopus-master --test heap_budget -- --exact \
            replay_transient_does_not_depend_on_log_length \
            a_batch_append_peaks_at_one_chunk_whatever_its_length \
            every_op_decodes_borrowed_without_allocating_and_round_trips \
            replaying_an_abandoned_block_allocates_nothing \
            a_checkpoint_image_allocates_only_its_output \
            a_file_costs_85_bytes_and_replay_allocates_only_what_it_keeps \
            --test-threads 8 2>&1); then
        printf '%s\n' "$out" >&2
        echo "one-pass replay: run ${run} of 20 failed" >&2
        exit 1
    fi
done
echo "one-pass replay: 20/20"

echo "==> traces on demand and the buffer pool: 20 runs under parallel load"
# The tracing suite (roots opened by the caller; untraced traffic records
# nothing on any node), the exact allocation counts of large and small
# files and of `read_at` into the caller's buffer (a second read of it and
# a read that cuts two blocks), the pool's own unit tests, the exact
# resident cost of the audit ring and the trace collector, and the audit
# ring's own tests (its records read back bit for bit), 20 times back to
# back, 8 test threads each.
for run in $(seq 20); do
    if ! out=$(cargo test --release -q -p octopus-core --test trace --test alloc_budget \
        -- --test-threads 8 2>&1) ||
        ! out=$(cargo test --release -q -p octopus-core --lib net::bufpool \
            -- --test-threads 8 2>&1) ||
        ! out=$(cargo test --release -q -p octopus-master --test telemetry_budget \
            -- --test-threads 8 2>&1) ||
        ! out=$(cargo test --release -q -p octopus-common --lib audit \
            -- --test-threads 8 2>&1); then
        printf '%s\n' "$out" >&2
        echo "traces and buffer pool: run ${run} of 20 failed" >&2
        exit 1
    fi
done
echo "traces and buffer pool: 20/20"

echo "==> one data path: 10 runs under parallel load"
# The write and read engines (every size at windows 1 and 4, FileWriter,
# read_at), the replica walk and the store step shared by the client
# and the worker's Replicate (a resent copy, a copy paced at its target),
# recovery around dead workers and around another worker serving at a dead
# one's address, and the exact allocation
# counts, 10 times back to back, 8 test threads each.
for run in $(seq 10); do
    if ! out=$(cargo test --release -q -p octopus-core --test parallel_io \
        --test monitor_faults --test failover --test alloc_budget \
        -- --test-threads 8 2>&1); then
        printf '%s\n' "$out" >&2
        echo "one data path: run ${run} of 10 failed" >&2
        exit 1
    fi
done
echo "one data path: 10/10"

echo "==> frames with bodies: 10 runs under parallel load"
# Every RPC goes through the one frame reader: a block travels as its
# frame's body, and a read's lands in the caller's slice. The frame,
# message and RPC client unit tests (every body length, bare and
# enveloped; hostile and cut-short bodies; a landing body cut, stalled past
# its deadline, or answering a call that gave up), the transport suite,
# the TCP/in-process parity suite and the fault-driven failover suite, 10
# times back to back, 8 test threads each.
for run in $(seq 10); do
    if ! out=$(cargo test --release -q -p octopus-core --test multiplex \
        --test transport_parity --test failover -- --test-threads 8 2>&1) ||
        ! out=$(cargo test --release -q -p octopus-core --lib \
            -- net::frame net::proto net::rpc --test-threads 8 2>&1); then
        printf '%s\n' "$out" >&2
        echo "frames with bodies: run ${run} of 10 failed" >&2
        exit 1
    fi
done
echo "frames with bodies: 10/10"

echo "==> one commit per block: 10 runs under parallel load"
# A write is settled by its pipeline head and a §5 copy by its monitor:
# the exact commit counts over TCP and on the virtual clock, a tail whose
# ack was lost (confirmed by its block report), an unreached tail's
# reservation, resent and failed copies, and migration rounds, 10 times
# back to back, 8 test threads each.
for run in $(seq 10); do
    if ! out=$(cargo test --release -q -p octopus-core --test multiplex \
        --test monitor_faults --test autotier --test sim_cluster --test net_cluster \
        -- --test-threads 8 2>&1); then
        printf '%s\n' "$out" >&2
        echo "one commit per block: run ${run} of 10 failed" >&2
        exit 1
    fi
done
echo "one commit per block: 10/10"

echo "==> one guard: 10 runs under parallel load"
# The block map and the workers its replicas sit on share one lock
# (`master.blocks`): the stress suite's liveness race (workers killed,
# re-registered and heartbeated under commits, locates and scans, with no
# replica left on a dead worker), the monitor's failure handling (a trim
# whose victim died first) and the transport suite (a tail killed
# mid-pipeline), 10 times back to back, 8 test threads each.
for run in $(seq 10); do
    if ! out=$(cargo test --release -q -p octopus-master --test master_stress \
        -- --test-threads 8 2>&1) ||
        ! out=$(cargo test --release -q -p octopus-core --test monitor_faults \
            --test multiplex -- --test-threads 8 2>&1); then
        printf '%s\n' "$out" >&2
        echo "one guard: run ${run} of 10 failed" >&2
        exit 1
    fi
done
echo "one guard: 10/10"

echo "==> lost replies: 10 runs under parallel load, then 1,000 seeds"
# Both transports run one retry loop, and the in-process cluster can lose
# a reply after its callee applied the request: the lost-ack tests (a
# head's commit and a monitor's copy resent once, a write re-placed, not
# resent, a down worker costing a delete one retry budget), the
# TCP/in-process parity suite and the fault-driven failover and monitor
# suites, 10 times back to back, 8 test threads each. Then the seeded
# sweep: writes, reads, deletes, setrep, block reports, replication rounds
# and a killed worker under lost replies, on the logical clock (~5 s),
# checking read-back, the block map, each write's charge per medium and
# that no copy fails while every worker is up; a failing seed names itself.
for run in $(seq 10); do
    if ! out=$(cargo test --release -q -p octopus-core --test lost_replies \
        --test transport_parity --test failover --test monitor_faults \
        -- --test-threads 8 2>&1); then
        printf '%s\n' "$out" >&2
        echo "lost replies: run ${run} of 10 failed" >&2
        exit 1
    fi
done
echo "lost replies: 10/10"
cargo test --release -q -p octopus-core --test lost_replies -- --ignored --exact \
    lost_replies_over_many_seeds

echo "==> cargo test -p octopus-master (debug)"
# Release builds wrap on integer overflow; an inode id packs a slot and a
# generation into one u64, and quota charges multiply lengths. The
# master's suites run once more with overflow checks on. The replay
# cursor's differential (`tests/cursor.rs`) and its exact-count gate
# (`heap_budget.rs`) therefore run in both builds; its timing-ratio gate
# is `ignore`d where debug assertions are on, so it ran above, in the
# release pass, and must show up here as the one ignored test.
cargo test -p octopus-master -q
cargo test -p octopus-master -q --test heap_budget -- --list --ignored \
    | grep -q '^replay_with_the_cursor_takes_at_most_six_tenths_of_replay_without: test$'

echo "==> third_party/bytes stand-in tests"
# Outside the workspace (it is a [patch] target), so not covered above:
# `Bytes::from(Vec)` must keep the Vec's buffer — the data path's
# zero-copy hops rest on it — and `Bytes::from_owner` must drop its owner
# exactly once, with the last view, and slice without copying: that drop
# is what returns a pooled block buffer to its pool.
cargo test --release -q --manifest-path third_party/bytes/Cargo.toml \
    --target-dir target/third_party

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> paper figures regenerate byte-identical"
# The nine simulator-only outputs (virtual clock, seeded RNGs) are
# deterministic, so what is checked in must be what the generators print
# (~4 s for all nine). table3 and scalability are wall-clock and stay out.
fig_files=()
for fig in table2 fig2 fig3 fig4 fig5 fig6 fig7 ablation usecase_sched; do
    cargo run --release --quiet -p octopus-bench --bin "exp_${fig}" >/dev/null
    fig_files+=("results/${fig}.txt")
done
if ! git diff --exit-code -- "${fig_files[@]}"; then
    echo "figures: a checked-in result differs from what its generator prints" >&2
    exit 1
fi
echo "figures: nine deterministic results unchanged"

echo "==> metrics smoke test"
# Boot a networked cluster, do one write/read, and check the merged
# metrics snapshot exposes the expected series from every layer.
smoke_out=$(cargo run --release --quiet --example metrics_smoke)
for series in master_requests_total master_live_workers \
    worker_requests_total worker_write_bytes_total worker_read_bytes_total \
    rpc_client_requests_total rpc_client_request_us_bucket \
    client_write_bytes_total client_read_bytes_total; do
    if ! grep -q "^${series}" <<<"$smoke_out"; then
        echo "metrics smoke: missing series ${series}" >&2
        exit 1
    fi
done
echo "metrics smoke: all expected series present"

echo "==> trace smoke test"
# Boot a networked cluster, run a write and a read each under a root the
# example opens (the client traces nothing on its own), and check the JSONL
# dump stitches one client→master→worker span tree under the read's root.
cargo run --release --quiet --example trace_smoke >/dev/null
dump=results/traces/smoke.jsonl
if [ ! -s "$dump" ]; then
    echo "trace smoke: missing or empty ${dump}" >&2
    exit 1
fi
read_trace=$(grep '"name":"trace_smoke.read"' "$dump" | head -1 |
    sed 's/.*"trace_id":"\([0-9a-f]*\)".*/\1/')
if [ -z "$read_trace" ]; then
    echo "trace smoke: no trace_smoke.read root span in ${dump}" >&2
    exit 1
fi
for node in '"name":"client.read_file"' '"node":"client"' '"node":"master"' '"node":"worker-'; do
    if ! grep "\"trace_id\":\"${read_trace}\"" "$dump" | grep -q "$node"; then
        echo "trace smoke: trace ${read_trace} has no span with ${node}" >&2
        exit 1
    fi
done
echo "trace smoke: stitched client→master→worker tree under trace ${read_trace}"

echo "==> parallel I/O stress smoke"
# The quick window sweep on a real TCP cluster. The GATE line asserts
# window=4 beats the serial client; results/parallel_io.json is the
# machine-readable artifact CI uploads.
pio_out=$(cargo run --release --quiet -p octopus-bench --bin exp_parallel_io -- --quick)
if ! grep -q "^GATE parallel_io .* pass=true" <<<"$pio_out"; then
    echo "parallel I/O smoke: window sweep gate failed" >&2
    grep "^GATE" <<<"$pio_out" >&2 || true
    exit 1
fi
if [ ! -s results/parallel_io.json ]; then
    echo "parallel I/O smoke: missing results/parallel_io.json" >&2
    exit 1
fi
grep "^GATE" <<<"$pio_out"

echo "==> aggregate I/O scaling smoke"
# The quick client sweep on a real TCP cluster. The GATE line asserts 64
# concurrent clients achieve at least 3x the single-client aggregate;
# results/aggregate_io.json is the machine-readable artifact CI uploads.
agg_out=$(cargo run --release --quiet -p octopus-bench --bin exp_aggregate_io -- --quick)
if ! grep -q "^GATE aggregate_io .* pass=true" <<<"$agg_out"; then
    echo "aggregate I/O smoke: client sweep gate failed" >&2
    grep "^GATE" <<<"$agg_out" >&2 || true
    exit 1
fi
if [ ! -s results/aggregate_io.json ]; then
    echo "aggregate I/O smoke: missing results/aggregate_io.json" >&2
    exit 1
fi
grep "^GATE" <<<"$agg_out"

echo "==> heat telemetry smoke"
# The example (worker touch counts → heartbeat piggyback → master EWMA,
# plus the audited placement of a block cross-checked against the block
# map), then the quick hot/cold separation sweep. The GATE line asserts
# the re-read file scores above its untouched sibling in ≥95% of epochs;
# results/heat.json is the machine-readable artifact CI uploads.
heat_out=$(cargo run --release --quiet --example heat_smoke)
for line in "^HEAT-SMOKE hot " "^HEAT-SMOKE cold " "^HEAT-SMOKE placement .* ok=true"; do
    if ! grep -q "$line" <<<"$heat_out"; then
        echo "heat smoke: missing line matching ${line}" >&2
        exit 1
    fi
done
heat_sweep=$(cargo run --release --quiet -p octopus-bench --bin exp_heat -- --quick)
if ! grep -q "^GATE heat .* pass=true" <<<"$heat_sweep"; then
    echo "heat smoke: hot/cold separation gate failed" >&2
    grep "^GATE" <<<"$heat_sweep" >&2 || true
    exit 1
fi
if [ ! -s results/heat.json ]; then
    echo "heat smoke: missing results/heat.json" >&2
    exit 1
fi
grep "^GATE" <<<"$heat_sweep"

echo "==> auto-tiering smoke"
# The quick shifting-working-set sweep. The GATE line asserts
# auto-tiering beats static placement ≥1.3x end-to-end with every
# working-set file promoted; results/autotier.json is the
# machine-readable artifact CI uploads.
autotier_out=$(cargo run --release --quiet -p octopus-bench --bin exp_autotier -- --quick)
if ! grep -q "^GATE autotier .* pass=true" <<<"$autotier_out"; then
    echo "auto-tiering smoke: shifting-working-set gate failed" >&2
    grep "^GATE" <<<"$autotier_out" >&2 || true
    exit 1
fi
if [ ! -s results/autotier.json ]; then
    echo "auto-tiering smoke: missing results/autotier.json" >&2
    exit 1
fi
grep "^GATE" <<<"$autotier_out"

echo "==> octobench smoke"
# The benchmark's own correctness harness on the two data-moving
# workloads: a non-zero exit is a failed op, a wrong byte, or a failed
# audit (stored_per_user_byte = 3.00, empty replication_scan). Smoke
# numbers are never compared. One traced `stream` run proves the ledger
# still builds its table against the data path's API. `meta` is the one
# workload whose set-up *is* master recovery (write a log, replay it,
# serve), and its traced run is what compiles and runs `editlog.*` and
# `master.replay_files_per_s` against the edit log's API.
octobench() {
    cargo run --release --quiet --manifest-path crates/benchmark/Cargo.toml \
        --bin octobench -- "$@" >/dev/null
}
octobench --workload stream --smoke --trace 0
octobench --workload tiered --smoke --trace 0
octobench --workload stream --smoke --trace 1
octobench --workload meta --smoke --trace 0
octobench --workload meta --smoke --trace 1
echo "octobench smoke: stream, tiered and meta correct, ledgers build"

echo "==> operator status smoke"
# Boot the real daemons (one master, two workers) and check that
# `octofs-remote status` renders the live cluster: every tier line must
# report a non-zero capacity once the workers have heartbeated in.
status_dir=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$status_dir"' EXIT
# The log exists before the master starts: the background job opens its
# redirection after the fork, possibly after the first `sed` below.
: >"$status_dir/master.log"
./target/release/octofs-master --listen 127.0.0.1:0 --heartbeat-ms 100 \
    >"$status_dir/master.log" 2>&1 &
for _ in $(seq 50); do
    master_addr=$(sed -n 's/^octofs-master listening on //p' "$status_dir/master.log")
    [ -n "$master_addr" ] && break
    sleep 0.1
done
if [ -z "${master_addr:-}" ]; then
    echo "status smoke: master did not report a listen address" >&2
    cat "$status_dir/master.log" >&2
    exit 1
fi
for w in 0 1; do
    ./target/release/octofs-worker --master "$master_addr" --id "$w" \
        >"$status_dir/worker$w.log" 2>&1 &
done
# Tier reports materialize as worker heartbeats register media, so poll
# until at least one non-zero-capacity tier line and a live worker show.
status_out=""
for _ in $(seq 50); do
    status_out=$(./target/release/octofs-remote --master "$master_addr" status || true)
    if grep -q "^tier " <<<"$status_out" &&
        ! grep "^tier " <<<"$status_out" | grep -q "capacity=0 B" &&
        grep -q "^worker .* live " <<<"$status_out"; then
        break
    fi
    sleep 0.2
done
if ! grep -q "^tier " <<<"$status_out"; then
    echo "status smoke: no tier lines in octofs-remote status output" >&2
    printf '%s\n' "$status_out" >&2
    exit 1
fi
if grep "^tier " <<<"$status_out" | grep -q "capacity=0 B"; then
    echo "status smoke: a tier reports zero capacity" >&2
    printf '%s\n' "$status_out" >&2
    exit 1
fi
echo "status smoke: $(grep -c "^tier " <<<"$status_out") tiers with non-zero capacity"

# The single-process shell runs the same command table over the same
# client, so a fresh `octofs --root … init` must render the same operator
# view: `status` tier lines and `report` lines, none at zero capacity.
./target/release/octofs --root "$status_dir/root" init --workers 2 >/dev/null
local_status=$(./target/release/octofs --root "$status_dir/root" status)
local_report=$(./target/release/octofs --root "$status_dir/root" report)
if ! grep -q "^tier " <<<"$local_status" ||
    grep "^tier " <<<"$local_status" | grep -q "capacity=0 B" ||
    ! grep -q "^worker .* live " <<<"$local_status"; then
    echo "status smoke: octofs --root status does not render the live cluster" >&2
    printf '%s\n' "$local_status" >&2
    exit 1
fi
if ! grep -q " capacity=" <<<"$local_report" || grep -q "capacity= *0 B" <<<"$local_report"; then
    echo "status smoke: octofs --root report shows no tier or a zero capacity" >&2
    printf '%s\n' "$local_report" >&2
    exit 1
fi
echo "status smoke: octofs --root renders the same operator view"

# The contention observatory against the same live daemons: after one
# metadata op, `status` must render per-op latency lines and `perf` must
# rank ops and tabulate master lock wait/hold statistics.
./target/release/octofs-remote --master "$master_addr" mkdir /ci-perf
status_out=$(./target/release/octofs-remote --master "$master_addr" status)
if ! grep -q "^meta mkdir .*p99=" <<<"$status_out"; then
    echo "status smoke: no per-op metadata line for mkdir" >&2
    printf '%s\n' "$status_out" >&2
    exit 1
fi
perf_out=$(./target/release/octofs-remote --master "$master_addr" perf)
if ! grep -q "^mkdir " <<<"$perf_out"; then
    echo "perf smoke: mkdir missing from the op ranking" >&2
    printf '%s\n' "$perf_out" >&2
    exit 1
fi
for lock in master.namespace master.blocks; do
    if ! grep -q "^${lock} " <<<"$perf_out"; then
        echo "perf smoke: ${lock} missing from the lock table" >&2
        printf '%s\n' "$perf_out" >&2
        exit 1
    fi
done
# The workers' liveness lives under master.blocks: the cluster state has
# no lock of its own any more.
if grep -q "^master[.]cluster " <<<"$perf_out"; then
    echo "perf smoke: the lock table still lists a lock for the cluster state" >&2
    printf '%s\n' "$perf_out" >&2
    exit 1
fi
echo "perf smoke: per-op ranking and lock table rendered"

echo "CI green."
