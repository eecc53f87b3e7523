//! `octofs-remote` — the file-system shell against a running
//! `octofs-master`/`octofs-worker` deployment.
//!
//! ```text
//! octofs-remote --master ADDR <mkdir|put|get|cat|ls|rm|mv|append|setrep|quota|report|balance|
//!                              fsck|status|heat|explain-placement|migrations|metrics|perf|
//!                              trace> [args]
//! ```
//!
//! The commands are [`octopusfs::shell::COMMANDS`], the table `octofs` runs
//! against a single-process instance; README lists each one's arguments,
//! and a command given the wrong ones answers with its usage line.
//!
//! `quota PATH` prints a directory's per-tier quota and usage; `quota PATH
//! --tier T --bytes N` limits tier slot `T` (0 = memory, 1 = SSD, 2 = HDD)
//! to `N` bytes of pinned replicas, leaving the other tiers as they are;
//! `quota PATH --clear` lifts every limit.
//!
//! `trace read PATH` / `trace write PATH [BYTES]` (BYTES defaults to 1 MiB;
//! one that does not parse is a usage error) runs the operation under a
//! trace root it opens itself, `shell.trace` — the client records spans
//! only inside a trace its caller opened, so nothing else is traced. It
//! prints the critical path assembled under that root's id from the
//! client's, the master's and every worker's ring, and dumps the span tree
//! to `results/traces/trace-<id>.jsonl` under the working directory.
//!
//! `balance`, `fsck` and `setrep`'s wait are §5 rounds the master node
//! runs, one per request, so they act on the running daemons.
//!
//! `status` prints the live cluster summary (per-tier capacity, per-worker
//! lines, hottest files, per-op metadata latency); `perf [N]` ranks the
//! top-N metadata operations by p99 latency and tabulates master lock
//! wait/hold statistics; `heat PATH` prints one file's access-heat EWMA;
//! `explain-placement BLOCK_ID` replays the audited MOOP decisions for a
//! block, candidate scores included; `migrations [N]` lists the most
//! recent auto-tiering promote/demote decisions.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use octopusfs::args::Args;
use octopusfs::core::net::transport::resolve;
use octopusfs::shell::{self, Command};
use octopusfs::{ClientLocation, RemoteFs, Result};

fn run(args: &[String]) -> Result<()> {
    let mut args =
        Args::new(format!("octofs-remote --master ADDR <{}> [args]", shell::names()), args);
    let master: String =
        args.value("--master")?.ok_or_else(|| args.bad("--master ADDR is required"))?;
    let master = resolve(&master).ok_or_else(|| args.bad("unresolvable master address"))?;
    let rest = args.rest();
    let (cmd, rest) = rest.split_first().ok_or_else(|| args.bad("no command given"))?;
    let command =
        Command::find(cmd).ok_or_else(|| args.bad(format_args!("unknown command {cmd:?}")))?;
    command.run(&RemoteFs::connect(master, ClientLocation::OffCluster)?, rest)
}

fn main() -> ExitCode {
    octopusfs::args::main("octofs-remote", run)
}
