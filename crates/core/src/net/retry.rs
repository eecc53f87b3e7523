//! The one retry loop, run by both transports: `RpcClient` sleeps through
//! each backoff, and `LocalTransport` does not wait, as its harness owns
//! the clock. A request is resent when its failure proves it never left,
//! or when it is idempotent and its reply was lost; an answer, an
//! application error included, ends the call. Each resend is counted in
//! `rpc_client_retries_total` and waits `min(base << (n - 1), max)` plus
//! up to 50 % deterministic jitter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use octopus_common::metrics::{Labels, MetricsRegistry};
use octopus_common::{FsError, Result, RpcConfig};

/// How one attempt went without an answer.
pub(crate) enum Failed {
    /// The request provably never reached the callee.
    Unsent(FsError),
    /// The callee may have applied the request, but no reply came.
    Unanswered(FsError),
}

/// Jitter state: one splitmix64 walk for the process, no RNG dependency.
static JITTER: AtomicU64 = AtomicU64::new(0x243F_6A88_85A3_08D3);

/// Runs `attempt` (given its number, 0 first) until it answers or the rule
/// above stops it, and returns the answer; `wait` spends each backoff.
pub(crate) fn run<T>(
    cfg: &RpcConfig,
    metrics: &MetricsRegistry,
    request_type: &'static str,
    idempotent: bool,
    wait: impl Fn(Duration),
    mut attempt: impl FnMut(u32) -> std::result::Result<Result<T>, Failed>,
) -> Result<T> {
    let mut n = 0;
    loop {
        let e = match attempt(n) {
            Ok(answer) => return answer,
            Err(Failed::Unanswered(e)) if !idempotent => return Err(e),
            Err(Failed::Unsent(e) | Failed::Unanswered(e)) => e,
        };
        if n == cfg.max_retries {
            return Err(e);
        }
        n += 1;
        metrics.inc("rpc_client_retries_total", Labels::req(request_type));
        let base = cfg.backoff_base_ms.max(1);
        let exp = base.checked_shl((n - 1).min(16)).unwrap_or(u64::MAX);
        let capped = exp.min(cfg.backoff_max_ms.max(base));
        let mut z = JITTER.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let jitter = if capped / 2 == 0 { 0 } else { z % (capped / 2) };
        wait(Duration::from_millis(capped + jitter));
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};

    use super::*;

    fn fast() -> RpcConfig {
        RpcConfig::fast_test()
    }

    fn lost() -> FsError {
        FsError::Unreachable("server closed the connection".into())
    }

    type Outcome = std::result::Result<Result<u32>, Failed>;

    fn unsent() -> Outcome {
        Err(Failed::Unsent(lost()))
    }

    fn unanswered() -> Outcome {
        Err(Failed::Unanswered(lost()))
    }

    fn answer() -> Outcome {
        Ok(Ok(7))
    }

    fn refused() -> Outcome {
        Ok(Err(FsError::NotFound("/f".into())))
    }

    /// Runs the loop over `outcomes` (the last one repeats) and returns
    /// the result, the attempts made and the retries counted.
    fn drive(idempotent: bool, outcomes: &[fn() -> Outcome]) -> (Result<u32>, u32, u64) {
        let metrics = MetricsRegistry::new();
        let made = Cell::new(0);
        let out = run(
            &fast(),
            &metrics,
            "Status",
            idempotent,
            |_| {},
            |n| {
                made.set(made.get() + 1);
                outcomes[(n as usize).min(outcomes.len() - 1)]()
            },
        );
        let retries = metrics.counter("rpc_client_retries_total", Labels::req("Status")).get();
        (out, made.get(), retries)
    }

    #[test]
    fn only_an_unsent_or_idempotent_request_is_resent() {
        // A request that never left is resent whatever it is.
        assert!(matches!(drive(false, &[unsent, answer]), (Ok(7), 2, 1)));
        // A lost reply is resent only for an idempotent request.
        assert!(matches!(drive(true, &[unanswered, answer]), (Ok(7), 2, 1)));
        assert!(matches!(
            drive(false, &[unanswered, answer]),
            (Err(FsError::Unreachable(_)), 1, 0)
        ));
        // An answer, an error included, ends the call.
        assert!(matches!(drive(true, &[refused, answer]), (Err(FsError::NotFound(_)), 1, 0)));
        // The budget is `max_retries` after the first try.
        let budget = fast().max_retries;
        let (out, made, retries) = drive(true, &[unanswered]);
        assert!(out.is_err());
        assert_eq!((made, retries), (budget + 1, u64::from(budget)));
    }

    #[test]
    fn backoff_is_bounded_by_config() {
        let cfg = RpcConfig { backoff_base_ms: 8, backoff_max_ms: 50, max_retries: 9, ..fast() };
        let waits = RefCell::new(Vec::new());
        let metrics = MetricsRegistry::new();
        let out: Result<()> = run(
            &cfg,
            &metrics,
            "raw",
            true,
            |d| waits.borrow_mut().push(d),
            |_| Err(Failed::Unsent(lost())),
        );
        assert!(out.is_err());
        let waits = waits.into_inner();
        assert_eq!(waits.len(), 9);
        for (attempt, d) in (1..10).zip(waits) {
            assert!(d >= Duration::from_millis(8));
            assert!(d <= Duration::from_millis(50 + 25), "attempt {attempt}: {d:?}");
        }
    }
}
