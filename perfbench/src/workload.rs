//! The benchmark's workloads, the seeded inputs they send and the checker
//! that judges every reply.

use std::sync::Arc;

use adn::cluster::resources::{ElementSpec, PlacementConstraint};
use adn::rpc::error::RpcError;
use adn::rpc::message::RpcMessage;
use adn::rpc::value::Value;

/// Calls kept outstanding by the single generator thread.
pub const WINDOW: usize = 16;

/// A second seed, for re-checking a claim on a seed it was not made on.
pub const CHECK_SEED: u64 = 0x5eed_0002;

/// The user mix of the paper evaluation harness (`adn_bench::PAPER_USERS`):
/// three writers and bob, whom the ACL denies. Copied, so that a change to
/// the harness cannot change this benchmark's inputs.
pub const PAPER_USERS: &[&str] = &["alice", "carol", "dave", "alice", "bob"];

/// Users the `Acl` element admits (permission `W` in its table).
pub const ADMITTED_USERS: &[&str] = &["alice", "carol", "dave"];

/// Abort code of the `Acl` element.
pub const ACL_ABORT: u32 = 7;
/// Abort code of the `Fault` element.
pub const FAULT_ABORT: u32 = 3;

/// How frames travel between client and server hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The in-process channel fabric.
    InProc,
    /// Two `TcpLink` hosts over loopback.
    Tcp,
}

impl Transport {
    pub fn label(self) -> &'static str {
        match self {
            Transport::InProc => "in-process channel",
            Transport::Tcp => "loopback TCP",
        }
    }
}

/// Hardware of the simulated environment the solver places against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Env {
    /// Hosts only: software processors.
    Bare,
    /// eBPF kernels, SmartNICs on both hosts and a programmable switch.
    Rich,
}

/// Shape of the payload bytes.
#[derive(Debug, Clone, Copy)]
pub enum Payload {
    /// Uniform random bytes.
    Random(usize),
    /// Runs of repeated bytes that the `Compress` element's RLE shrinks.
    Compressible(usize),
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Catalog elements, sender side first.
    pub elements: &'static [&'static str],
    /// Abort probability of the `Fault` element, when the chain has one.
    pub fault_prob: Option<f64>,
    /// Pin every element off the application (`OffApp`).
    pub off_app: bool,
    pub env: Env,
    pub replicas: usize,
    pub payload: Payload,
    pub users: &'static [&'static str],
    pub transport: Transport,
    /// Check echoed payloads by checksum instead of byte comparison.
    pub checksum: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_small",
        elements: &["Logging", "Acl", "Fault"],
        fault_prob: Some(0.02),
        off_app: true,
        env: Env::Bare,
        replicas: 1,
        payload: Payload::Random(25),
        users: PAPER_USERS,
        transport: Transport::InProc,
        checksum: false,
    },
    Workload {
        name: "bulk_tcp",
        elements: &["Logging", "Acl", "Fault"],
        fault_prob: Some(0.02),
        off_app: false,
        env: Env::Bare,
        replicas: 1,
        payload: Payload::Random(64 * 1024),
        users: ADMITTED_USERS,
        transport: Transport::Tcp,
        checksum: true,
    },
    Workload {
        name: "offload_compress",
        elements: &["LoadBalancer", "Compress", "Acl", "Decompress"],
        fault_prob: None,
        off_app: false,
        env: Env::Rich,
        replicas: 2,
        payload: Payload::Compressible(2048),
        users: PAPER_USERS,
        transport: Transport::InProc,
        checksum: false,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The AdnConfig chain.
    pub fn chain(&self) -> Vec<ElementSpec> {
        self.elements
            .iter()
            .map(|&element| ElementSpec {
                element: element.to_owned(),
                source: None,
                args: match (element, self.fault_prob) {
                    ("Fault", Some(p)) => vec![(
                        "abort_prob".to_owned(),
                        serde_json::Value::Number(
                            serde_json::Number::from_f64(p).expect("finite probability"),
                        ),
                    )],
                    _ => vec![],
                },
                constraints: if self.off_app {
                    vec![PlacementConstraint::OffApp]
                } else {
                    vec![]
                },
            })
            .collect()
    }

    pub fn has_fault(&self) -> bool {
        self.fault_prob.is_some()
    }
}

/// splitmix64: the benchmark's only source of randomness.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A word-at-a-time checksum of a payload.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One call's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub object_id: u64,
    pub user: &'static str,
    /// Index into the payload pool.
    pub payload: usize,
}

/// The seeded inputs of one workload: a pool of payloads and, per call
/// index, a user, an object id and a pool entry.
pub struct Inputs {
    seed: u64,
    users: &'static [&'static str],
    pub payloads: Vec<Arc<Vec<u8>>>,
    pub checksums: Vec<u64>,
}

const POOL_BYTES: usize = 2 << 20;

impl Inputs {
    pub fn generate(workload: &Workload, seed: u64) -> Self {
        let (len, compressible) = match workload.payload {
            Payload::Random(n) => (n, false),
            Payload::Compressible(n) => (n, true),
        };
        let entries = (POOL_BYTES / len).clamp(16, 1024);
        let mut state = mix64(seed ^ 0x0070_6179_6c6f_6164);
        let mut next = move || {
            state = mix64(state);
            state
        };
        let payloads: Vec<Arc<Vec<u8>>> = (0..entries)
            .map(|_| {
                let mut bytes = Vec::with_capacity(len);
                while bytes.len() < len {
                    let r = next();
                    if compressible {
                        // A run of 4..=67 copies of one byte, then up to
                        // three literal bytes.
                        let run = 4 + (r >> 8) as usize % 64;
                        bytes.extend(std::iter::repeat_n(r as u8, run));
                        let lits = (r >> 16) as usize % 4;
                        bytes.extend((0..lits).map(|k| (r >> (24 + 8 * k)) as u8));
                    } else {
                        bytes.extend_from_slice(&r.to_le_bytes());
                    }
                }
                bytes.truncate(len);
                Arc::new(bytes)
            })
            .collect();
        let checksums = payloads.iter().map(|p| checksum(p)).collect();
        Self {
            seed,
            users: workload.users,
            payloads,
            checksums,
        }
    }

    /// The inputs of call number `index`.
    pub fn call(&self, index: u64) -> Call {
        let r = mix64(self.seed ^ mix64(index));
        Call {
            object_id: r >> 16,
            user: self.users[(r % self.users.len() as u64) as usize],
            payload: ((r >> 8) % self.payloads.len() as u64) as usize,
        }
    }
}

/// Judges replies against the expected verdicts of a workload.
pub struct Checker {
    checksum: bool,
    fault: bool,
}

impl Checker {
    pub fn new(workload: &Workload) -> Self {
        Self {
            checksum: workload.checksum,
            fault: workload.has_fault(),
        }
    }

    /// `Some(payload bytes moved)` when the reply is correct for `call`,
    /// `None` for a wrong answer, a timeout or a transport error. A correct
    /// policy abort moves no payload bytes.
    pub fn check(
        &self,
        inputs: &Inputs,
        call: &Call,
        reply: &Result<RpcMessage, RpcError>,
    ) -> Option<u64> {
        let admitted = ADMITTED_USERS.contains(&call.user);
        match reply {
            Ok(resp) => {
                if !admitted || resp.get("ok") != Some(&Value::Bool(true)) {
                    return None;
                }
                let got = resp.get("payload")?.as_bytes()?;
                let sent = &inputs.payloads[call.payload];
                let same = if self.checksum {
                    checksum(got) == inputs.checksums[call.payload]
                } else {
                    got == sent.as_slice()
                };
                same.then_some(2 * sent.len() as u64)
            }
            Err(RpcError::Aborted { code, .. }) => {
                let expected = if !admitted {
                    *code == ACL_ABORT
                } else {
                    self.fault && *code == FAULT_ABORT
                };
                expected.then_some(0)
            }
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let w = Workload::by_name("paper_small").unwrap();
        let a = Inputs::generate(w, 1);
        let b = Inputs::generate(w, 1);
        let c = Inputs::generate(w, 2);
        for i in 0..100 {
            let (x, y) = (a.call(i), b.call(i));
            assert_eq!(
                (x.object_id, x.user, x.payload),
                (y.object_id, y.user, y.payload)
            );
        }
        assert_eq!(a.payloads, b.payloads);
        assert_ne!(a.payloads, c.payloads);
    }

    #[test]
    fn compressible_payloads_shrink_under_rle() {
        let w = Workload::by_name("offload_compress").unwrap();
        let inputs = Inputs::generate(w, 9);
        let p = &inputs.payloads[0];
        assert_eq!(p.len(), 2048);
        assert!(adn::backend::udf_impl::compress(p).len() < p.len() / 4);
    }

    #[test]
    fn bulk_users_are_all_admitted() {
        let w = Workload::by_name("bulk_tcp").unwrap();
        let inputs = Inputs::generate(w, 3);
        assert!((0..1000).all(|i| ADMITTED_USERS.contains(&inputs.call(i).user)));
    }

    #[test]
    fn checksum_sees_a_single_flipped_bit() {
        let mut bytes = vec![0xabu8; 65536];
        let before = checksum(&bytes);
        bytes[40_000] ^= 1;
        assert_ne!(before, checksum(&bytes));
    }
}
