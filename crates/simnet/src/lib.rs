//! A deterministic flow-level discrete-event simulator.
//!
//! OctopusFS's evaluation depends on the *rate behaviour* of cluster
//! hardware: device bandwidth splits among concurrent I/O connections,
//! write pipelines run at the speed of their slowest stage, and network
//! congestion grows with the degree of parallelism. This crate models that
//! world as **resources** (a device or NIC direction with a fixed capacity
//! in bytes/s) and **flows** (a transfer of N bytes traversing a path of
//! resources). Bandwidth is allocated by **max-min fairness** (progressive
//! filling), recomputed whenever a flow starts or finishes, so every flow's
//! rate is exact between events and completion times are analytic.
//!
//! Time is virtual (nanosecond integers), so simulating a 40 GB benchmark
//! takes microseconds of wall-clock time and results are reproducible
//! bit-for-bit.
//!
//! # Example
//!
//! ```
//! use octopus_simnet::{SimNet, EventKind};
//!
//! let mut net = SimNet::new();
//! let link = net.add_resource("link", 100.0); // 100 bytes/s
//! let a = net.start_flow(100.0, vec![link]);
//! let b = net.start_flow(100.0, vec![link]);
//! // The two flows share the link at 50 B/s each and, being equal-sized,
//! // finish together at t = 2 s.
//! let e1 = net.next_event().unwrap();
//! let e2 = net.next_event().unwrap();
//! assert_eq!(e1.time.as_secs_f64(), 2.0);
//! assert_eq!(e2.time.as_secs_f64(), 2.0);
//! assert!(matches!(e1.kind, EventKind::FlowDone(f) if f == a || f == b));
//! # let _ = e2;
//! ```

#![forbid(unsafe_code)]

mod engine;
mod time;

pub use engine::{Event, EventKind, FlowId, ResourceId, SimNet};
pub use time::SimTime;
