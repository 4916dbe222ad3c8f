//! Property tests for the processor core: random batches mixing valid
//! requests and responses, same-batch and cross-batch duplicates, stale
//! responses, expired and low-priority requests, and truncated or garbage
//! payloads. Whatever arrives, the core never panics, never runs the chain
//! twice for one dedup key, and settles every frame in exactly one
//! outcome that its counters agree with.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use adn_dataplane::processor::{
    Fate, NextHop, Outputs, OverloadPolicy, ProcessorConfig, ProcessorCore, StatsSnapshot,
};
use adn_rpc::engine::{Engine, EngineChain, Verdict};
use adn_rpc::message::{MessageKind, RpcMessage};
use adn_rpc::schema::{MethodDef, RpcSchema, ServiceSchema};
use adn_rpc::transport::Frame;
use adn_rpc::value::{Value, ValueType};
use adn_rpc::wire_format::encode_message_to_vec;
use adn_wire::header::{OverloadContext, Priority};
use proptest::collection::vec;
use proptest::test_runner::ProptestConfig;
use proptest::{prop_assert, prop_assert_eq, proptest};

/// Every chain execution: (kind, pre-NAT source, call id).
type Runs = Arc<Mutex<Vec<(MessageKind, u64, u64)>>>;

/// Records each execution and picks a verdict from field `x`.
struct Recorder(Runs);

impl Engine for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn process(&mut self, msg: &mut RpcMessage) -> Verdict {
        self.0
            .lock()
            .unwrap()
            .push((msg.kind, msg.src, msg.call_id));
        match msg.get("x") {
            Some(Value::U64(x)) if x % 5 == 1 => Verdict::Abort {
                code: 3,
                message: "no".into(),
            },
            Some(Value::U64(x)) if x % 5 == 2 => Verdict::Drop,
            Some(Value::U64(x)) if x % 5 == 3 => Verdict::Shed,
            _ => Verdict::Forward,
        }
    }
}

fn service() -> Arc<ServiceSchema> {
    let schema = || {
        Arc::new(
            RpcSchema::builder()
                .field("x", ValueType::U64)
                .build()
                .unwrap(),
        )
    };
    Arc::new(
        ServiceSchema::new(
            "Echo",
            vec![MethodDef {
                id: 1,
                name: "Echo".into(),
                request: schema(),
                response: schema(),
            }],
        )
        .unwrap(),
    )
}

/// Builds one inbound frame from a generated `(code, seed)` pair. Clients
/// 1 and 2 own disjoint call ids, as real callers do; responses come from
/// server 9 for any of those ids, so some have a flow and some are stale.
fn make_frame(svc: &ServiceSchema, code: u64, seed: u64, prev: Option<&Frame>) -> Frame {
    let src = 1 + (seed >> 8) % 2;
    let call_id = src * 100 + seed % 12;
    let m = svc.method_by_id(1).unwrap();
    let mut msg = RpcMessage::request(call_id, 1, m.request.clone()).with("x", (seed >> 4) % 5);
    msg.src = src;
    msg.dst = 9;
    match code {
        // Stamped request: a budget of 0..4 ms (0 is already expired)
        // and any priority class.
        4 => {
            let prio = [
                Priority::Sheddable,
                Priority::Normal,
                Priority::Important,
                Priority::Critical,
            ][((seed >> 24) % 4) as usize];
            msg.deadline = Some(OverloadContext::root(((seed >> 16) % 5) * 1_000_000, prio));
        }
        5 | 6 => {
            msg = RpcMessage::request(call_id, 1, m.response.clone()).with("x", 0u64);
            msg.kind = MessageKind::Response;
            msg.src = 9;
            msg.dst = 5;
        }
        // Same-batch duplicate of the previous frame.
        9 => {
            if let Some(prev) = prev {
                return prev.clone();
            }
        }
        _ => {}
    }
    let mut payload = encode_message_to_vec(&msg).unwrap();
    match code {
        7 => payload.truncate((seed % payload.len() as u64) as usize),
        8 => payload = seed.to_le_bytes()[..(seed % 9) as usize].to_vec(),
        _ => {}
    }
    Frame {
        src: msg.src,
        dst: 5,
        payload,
    }
}

fn delta(after: &StatsSnapshot, before: &StatsSnapshot) -> [u64; 9] {
    [
        after.requests + after.responses - before.requests - before.responses,
        after.dedup_hits - before.dedup_hits,
        after.expired_drops - before.expired_drops,
        after.shed - before.shed,
        after.stale_responses - before.stale_responses,
        after.decode_errors - before.decode_errors,
        after.dropped - before.dropped,
        after.aborted - before.aborted,
        // `forwarded` is the driver's to count after sending.
        after.forwarded - before.forwarded,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_frame_settles_once_and_no_key_runs_twice(
        batches in vec(vec((0u64..10, 0u64..u64::MAX), 1..12), 1..8),
        queue_ms in 0u64..3,
        backlog in 0usize..40,
        shed_high_water in 0usize..6,
        brownout in 0u64..2,
    ) {
        let svc = service();
        let runs: Runs = Arc::default();
        let chain = EngineChain::from_engines(vec![Box::new(Recorder(runs.clone()))]);
        let mut core = ProcessorCore::new(
            ProcessorConfig::new(5, svc.clone(), chain, NextHop::Fixed(9), NextHop::Dst)
                .with_overload(OverloadPolicy {
                    shed_high_water,
                    drop_expired: true,
                    brownout: brownout == 1,
                }),
        );
        let mut out = Outputs::default();
        for batch in &batches {
            let mut frames: Vec<Frame> = Vec::new();
            for &(code, seed) in batch {
                let f = make_frame(&svc, code, seed, frames.last());
                frames.push(f);
            }
            let n = frames.len();
            let before = core.stats();
            let ran_before = runs.lock().unwrap().len();
            core.on_batch(queue_ms * 1_000_000, backlog, frames, &mut out);
            let after = core.stats();

            // Exactly one outcome per input frame ...
            prop_assert_eq!(out.outcomes.len(), n);
            // ... and the counters agree with the outcomes, category by
            // category (the categories partition the frames).
            let count = |f: &dyn Fn(Fate) -> bool| {
                out.outcomes.iter().filter(|o| f(o.fate)).count() as u64
            };
            let ran = count(&|f| f.ran_chain());
            let expected = [
                ran,
                count(&|f| matches!(f, Fate::Replay { .. })),
                count(&|f| f == Fate::Expired),
                count(&|f| matches!(f, Fate::Shed(_) | Fate::ChainShed)),
                count(&|f| f == Fate::Stale),
                count(&|f| f == Fate::Malformed),
                count(&|f| f == Fate::Drop),
                count(&|f| matches!(f, Fate::Abort(_))),
                0,
            ];
            prop_assert_eq!(delta(&after, &before), expected);
            prop_assert_eq!(runs.lock().unwrap().len() - ran_before, ran as usize);
            // Every frame sent sits in the queue its outcome names.
            let sent = |ran| {
                out.outcomes
                    .iter()
                    .filter(|o| o.sent && o.fate.ran_chain() == ran)
                    .count()
            };
            prop_assert_eq!(sent(true), out.forwards.len());
            prop_assert_eq!(sent(false), out.replays.len());
        }

        // No dedup key ever executed the chain twice: requests key on
        // (pre-NAT source, call id), responses on call id.
        let runs = runs.lock().unwrap();
        let mut seen = HashSet::new();
        for &(kind, src, call_id) in runs.iter() {
            let key = match kind {
                MessageKind::Request => (0, src, call_id),
                MessageKind::Response => (1, 0, call_id),
            };
            prop_assert!(seen.insert(key), "{key:?} executed twice");
        }
    }
}
