//! The closed-loop generator: one thread, a fixed window of outstanding
//! calls, every reply checked.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use adn::rpc::error::RpcResult;
use adn::rpc::runtime::PendingCall;

use crate::stats::{quantile, threads_cpu};
use crate::workload::{Call, Checker, Inputs, ACL_ABORT, ADMITTED_USERS, WINDOW};
use crate::world::World;

/// Longest wait for one reply before it counts as a timeout.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(5);

/// When a loop stops issuing calls.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After exactly this many calls.
    Calls(u64),
    /// At this time, or after this many calls, whichever comes first.
    Time(Duration, u64),
}

/// One call's timestamps (ns since the world's epoch), kept while tracing.
#[derive(Debug, Clone, Copy)]
pub struct CallTimes {
    pub call_id: u64,
    /// Before `send_call`.
    pub start: u64,
    /// `send_call` returned.
    pub sent: u64,
    /// `wait` returned.
    pub done: u64,
    /// The reply echoed the payload (not an abort).
    pub echoed: bool,
}

/// The calls completed within one slice of a sliced loop.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub correct: u64,
    pub payload_bytes: u64,
    pub calls: usize,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub elapsed: Duration,
    /// CPU time of the process's threads during the slice.
    pub cpu: Duration,
}

/// The slice being filled. Only its own latencies are kept, so a sliced
/// loop's memory does not grow with its length.
struct OpenSlice {
    start: Instant,
    cpu: Duration,
    correct: u64,
    payload_bytes: u64,
    latencies_ns: Vec<u64>,
}

impl OpenSlice {
    fn new(start: Instant, out: &LoopResult) -> Self {
        Self {
            start,
            cpu: threads_cpu(),
            correct: out.correct,
            payload_bytes: out.payload_bytes,
            latencies_ns: Vec::new(),
        }
    }

    fn close(&mut self, end: Instant, out: &LoopResult) -> Slice {
        let lat = &mut self.latencies_ns;
        Slice {
            correct: out.correct - self.correct,
            payload_bytes: out.payload_bytes - self.payload_bytes,
            calls: lat.len(),
            p50_ns: quantile(lat, 0.5),
            p95_ns: quantile(lat, 0.95),
            p99_ns: quantile(lat, 0.99),
            elapsed: end.duration_since(self.start),
            cpu: threads_cpu().saturating_sub(self.cpu),
        }
    }
}

#[derive(Debug, Default)]
pub struct LoopResult {
    pub attempted: u64,
    pub correct: u64,
    pub failed: u64,
    /// Request plus response payload bytes of correctly answered calls.
    pub payload_bytes: u64,
    /// Per call, `send_call` to `wait` returning (unsliced loops only).
    pub latencies_ns: Vec<u64>,
    pub elapsed: Duration,
    pub times: Vec<CallTimes>,
    pub slices: Vec<Slice>,
}

struct InFlight {
    call: Call,
    start: Instant,
    sent: Instant,
    pending: RpcResult<PendingCall>,
}

/// Runs calls with `WINDOW` outstanding until `stop`, then drains the
/// window. With `record`, keeps per-call timestamps; with `slice`, cuts the
/// completions into slices of that length. `tick` runs after every
/// completion.
pub fn closed_loop(
    world: &World,
    inputs: &Inputs,
    checker: &Checker,
    stop: Stop,
    record: bool,
    slice: Option<Duration>,
    mut tick: impl FnMut(u64),
) -> LoopResult {
    let window = WINDOW;
    let mut out = LoopResult::default();
    let mut queue: VecDeque<InFlight> = VecDeque::with_capacity(window);
    let epoch = Instant::now();
    let mut open = slice.map(|_| OpenSlice::new(epoch, &out));
    let (max_calls, deadline) = match stop {
        Stop::Calls(n) => (n, None),
        Stop::Time(d, n) => (n, Some(epoch + d)),
    };
    let mut index = 0u64;
    let issue = |index: u64, queue: &mut VecDeque<InFlight>| {
        let call = inputs.call(index);
        let msg = world.request(inputs, &call);
        let start = Instant::now();
        let pending = world.send(msg);
        queue.push_back(InFlight {
            call,
            start,
            sent: Instant::now(),
            pending,
        });
    };
    while index < max_calls.min(window as u64) {
        issue(index, &mut queue);
        index += 1;
    }
    while let Some(f) = queue.pop_front() {
        let call_id = f.pending.as_ref().map(|p| p.call_id()).unwrap_or(0);
        let reply = f.pending.and_then(|p| p.wait(CALL_TIMEOUT));
        let done = Instant::now();
        out.attempted += 1;
        match checker.check(inputs, &f.call, &reply) {
            Some(bytes) => {
                out.correct += 1;
                out.payload_bytes += bytes;
            }
            None => out.failed += 1,
        }
        let latency = done.duration_since(f.start).as_nanos() as u64;
        match &mut open {
            Some(o) => o.latencies_ns.push(latency),
            None => out.latencies_ns.push(latency),
        }
        if record {
            out.times.push(CallTimes {
                call_id,
                start: world.tap.at(f.start),
                sent: world.tap.at(f.sent),
                done: world.tap.at(done),
                echoed: reply.is_ok(),
            });
        }
        if let (Some(o), Some(len)) = (&mut open, slice) {
            if done.duration_since(o.start) >= len {
                out.slices.push(o.close(done, &out));
                *o = OpenSlice::new(done, &out);
            }
        }
        tick(out.attempted);
        let more = index < max_calls && deadline.is_none_or(|d| done < d);
        if more {
            issue(index, &mut queue);
            index += 1;
        }
    }
    out.elapsed = epoch.elapsed();
    // A loop shorter than one slice is one slice.
    if let Some(o) = &mut open {
        if out.slices.is_empty() {
            out.slices.push(o.close(Instant::now(), &out));
        }
    }
    out
}

/// Builds a world's first correct reply: one call from an admitted user.
/// Returns an error when the reply is wrong.
pub fn probe(world: &World, inputs: &Inputs, checker: &Checker) -> Result<(), String> {
    let mut call = inputs.call(u64::MAX);
    call.user = ADMITTED_USERS[0];
    let reply = world
        .send(world.request(inputs, &call))
        .and_then(|p| p.wait(CALL_TIMEOUT));
    match checker.check(inputs, &call, &reply) {
        Some(_) => Ok(()),
        None => Err(format!(
            "probe call got a wrong reply (expected echo, fault or ACL {ACL_ABORT}): {:?}",
            reply.map(|m| m.status)
        )),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::*;
    use crate::workload::Workload;

    /// Runs `calls` calls of `workload` with replies corrupted in the tap
    /// and returns (failed, corrupted).
    fn corrupted_run(workload: &str, calls: u64) -> (u64, u64) {
        let w = Workload::by_name(workload).unwrap();
        let inputs = Inputs::generate(w, 11);
        let checker = Checker::new(w);
        let world = World::build(w, 11, Instant::now()).unwrap();
        probe(&world, &inputs, &checker).unwrap();
        let clean = closed_loop(
            &world,
            &inputs,
            &checker,
            Stop::Calls(calls),
            false,
            None,
            |_| {},
        );
        assert_eq!((clean.failed, clean.correct), (0, calls));
        world.tap.set_corrupt(true);
        let bad = closed_loop(
            &world,
            &inputs,
            &checker,
            Stop::Calls(calls),
            false,
            None,
            |_| {},
        );
        (bad.failed, world.tap.corrupted.load(Ordering::SeqCst))
    }

    #[test]
    fn corrupted_replies_are_counted_as_failures() {
        let (failed, corrupted) = corrupted_run("paper_small", 300);
        assert!(corrupted > 100, "most replies echo: {corrupted}");
        assert_eq!(failed, corrupted);
    }

    #[test]
    fn corrupted_bulk_replies_fail_the_checksum() {
        let (failed, corrupted) = corrupted_run("bulk_tcp", 40);
        assert!(corrupted > 20, "most replies echo: {corrupted}");
        assert_eq!(failed, corrupted);
    }
}
