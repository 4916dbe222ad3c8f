//! Per-layer figures: isolated timings of public calls, and the traced
//! run's intervals between recorded timestamps.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;

use adn::backend::jit::compile_fused_engine;
use adn::backend::native::CompileOpts;
use adn::controller::compile_app;
use adn::controller::placement::place;
use adn::dataplane::hop::{decode_hop, encode_hop, reencode_hop};
use adn::harness::object_store_schemas;
use adn::ir::passes::minimal_header;
use adn::rpc::message::RpcMessage;
use adn::rpc::schema::ServiceSchema;
use adn::rpc::value::Value;
use adn::rpc::wire_format::{decode_message_exact, encode_message_to_vec};
use adn::telemetry::Span;

use crate::generator::CallTimes;
use crate::stats::{median, median_f64};
use crate::tap::{SendEvent, Sender, CLIENT_ADDR, SERVER_BASE};
use crate::workload::{Inputs, Workload};
use crate::world::{adn_config, environment};

/// Batches per isolated timing; the median batch is reported.
const BATCHES: usize = 15;
/// Target wall time of one batch.
const BATCH_NS: f64 = 2e6;

/// Median ns per run of `op`, in batches sized to about `BATCH_NS`.
fn time_op(mut op: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    op();
    let once = start.elapsed().as_nanos().max(1) as f64;
    let per_batch = (BATCH_NS / once).clamp(1.0, 1e6) as usize;
    crate::stats::time_per_op(BATCHES, per_batch, op)
}

/// Isolated timings of public calls on the workload's own messages.
#[derive(Debug, Default)]
pub struct Isolated {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub hop_decode_ns: f64,
    pub hop_reencode_ns: f64,
    pub fused_ns: f64,
    pub place_us: f64,
}

pub fn isolated(
    workload: &Workload,
    seed: u64,
    inputs: &Inputs,
    service: &Arc<ServiceSchema>,
) -> Result<Isolated, String> {
    let (request, response) = object_store_schemas();
    let config = adn_config(workload, seed);
    let compiled = compile_app(&config, request, response).map_err(|e| format!("{e:?}"))?;
    let method = service.method_by_id(1).expect("method 1");

    let requests: Vec<RpcMessage> = (0..64u64)
        .map(|i| {
            let call = inputs.call(i);
            let mut msg = RpcMessage::request(i + 1, 1, method.request.clone())
                .with("object_id", call.object_id)
                .with("username", call.user)
                .with("payload", inputs.payloads[call.payload].as_slice().to_vec());
            msg.src = CLIENT_ADDR;
            msg.dst = SERVER_BASE;
            msg
        })
        .collect();
    let responses: Vec<RpcMessage> = requests
        .iter()
        .map(|req| {
            let mut resp = RpcMessage::response_to(req, method.response.clone());
            resp.set("ok", Value::Bool(true));
            if let Some(p) = req.get("payload") {
                resp.set("payload", p.clone());
            }
            resp
        })
        .collect();
    let messages: Vec<&RpcMessage> = requests.iter().chain(&responses).collect();
    let cycle = |k: &mut usize, n: usize| {
        *k = (*k + 1) % n;
        *k
    };

    let mut k = 0;
    let encode_ns = time_op(|| {
        let m = messages[cycle(&mut k, messages.len())];
        black_box(encode_message_to_vec(black_box(m)).expect("encodes"));
    });
    let encoded: Vec<Vec<u8>> = messages
        .iter()
        .map(|m| encode_message_to_vec(m).expect("encodes"))
        .collect();
    let decode_ns = time_op(|| {
        let b = &encoded[cycle(&mut k, encoded.len())];
        black_box(decode_message_exact(black_box(b), service).expect("decodes"));
    });

    // The hop layout names request fields, so hops carry the requests.
    let layout = minimal_header(&compiled.chain, 0);
    let hop_bytes: Vec<Vec<u8>> = requests
        .iter()
        .map(|m| encode_hop(m, &layout).expect("hop encodes"))
        .collect();
    let hop_decode_ns = time_op(|| {
        let b = &hop_bytes[cycle(&mut k, hop_bytes.len())];
        black_box(decode_hop(black_box(b), &layout).expect("hop decodes"));
    });
    let hop_frames: Vec<_> = hop_bytes
        .iter()
        .map(|b| decode_hop(b, &layout).expect("hop decodes"))
        .collect();
    let hop_reencode_ns = time_op(|| {
        let f = &hop_frames[cycle(&mut k, hop_frames.len())];
        black_box(reencode_hop(black_box(f), &layout).expect("hop re-encodes"));
    });

    // The whole chain fused into one engine, run on request copies made
    // outside the timed region.
    let opts = CompileOpts {
        seed: compiled.seed,
        replicas: (0..workload.replicas as u64)
            .map(|i| SERVER_BASE + i)
            .collect(),
        ..Default::default()
    };
    let mut engine = compile_fused_engine(&compiled.chain.elements, &opts);
    for m in &requests {
        engine.process(&mut m.clone());
    }
    let per_batch = 256;
    let mut per_msg: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut batch: Vec<RpcMessage> =
                requests.iter().cycle().take(per_batch).cloned().collect();
            let start = std::time::Instant::now();
            for m in &mut batch {
                black_box(engine.process(black_box(m)));
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    let fused_ns = median_f64(&mut per_msg);

    let env = environment(workload.env);
    let place_ns = time_op(|| {
        black_box(place(&compiled.chain.elements, &compiled.constraints, &env).expect("placement"));
    });

    Ok(Isolated {
        encode_ns,
        decode_ns,
        hop_decode_ns,
        hop_reencode_ns,
        fused_ns,
        place_us: place_ns / 1e3,
    })
}

/// A processor hop span, reduced to what the analysis reads.
#[derive(Debug, Clone, Copy)]
pub struct HopSpan {
    pub call_id: u64,
    pub queue_ns: u64,
    pub serialize_ns: u64,
    pub hop_ns: u64,
}

/// Everything recorded during the traced phase.
#[derive(Default)]
pub struct TraceData {
    pub calls: Vec<CallTimes>,
    pub events: Vec<SendEvent>,
    pub spans: Vec<HopSpan>,
    /// (element, ns) from span stages and from in-app engine wrappers.
    pub stages: Vec<(String, u64)>,
    /// (call id, ns) inside the server handler.
    pub handler: Vec<(u64, u64)>,
}

impl TraceData {
    /// Moves spans out of the controller's ring into the compact form.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        for s in spans {
            self.spans.push(HopSpan {
                call_id: s.call_id,
                queue_ns: s.queue_ns,
                serialize_ns: s.serialize_ns,
                hop_ns: s.total_ns(),
            });
            self.stages.extend(s.stages);
        }
    }
}

/// The ledger rows that partition a call's latency, in path order. Each is
/// an interval or span measured directly; none is derived from the others.
pub const LEDGER: &[&str] = &[
    "rpc.client.send_ns",
    "dataplane.processor.hop_ns",
    "rpc.server.handler_ns",
    "rpc.client.return_ns",
];

/// Result of the traced-phase analysis.
#[derive(Default)]
pub struct Analysis {
    /// Per-layer figures by metric name (ns unless the name says otherwise).
    pub metrics: BTreeMap<String, f64>,
    /// Sample count behind each figure.
    pub samples: BTreeMap<String, usize>,
    /// Median latency of the calls the ledger covers (echoed replies).
    pub ledger_p50_ns: u64,
    /// Ledger rows: (name, median per call).
    pub ledger: Vec<(String, u64)>,
}

fn put(a: &mut Analysis, name: &str, mut values: Vec<u64>) {
    a.samples.insert(name.to_owned(), values.len());
    a.metrics
        .insert(name.to_owned(), median(&mut values) as f64);
}

pub fn analyse(mut data: TraceData) -> Analysis {
    let mut a = Analysis::default();
    let traced: std::collections::HashSet<u64> = data.calls.iter().map(|c| c.call_id).collect();
    data.events.retain(|e| traced.contains(&e.call_id));
    data.events.sort_by_key(|e| (e.call_id, e.at_ns));
    put(
        &mut a,
        "rpc.transport.send_ns",
        data.events.iter().map(|e| e.dur_ns).collect(),
    );

    let mut by_call: HashMap<u64, &[SendEvent]> = HashMap::new();
    for group in data.events.chunk_by(|x, y| x.call_id == y.call_id) {
        by_call.insert(group[0].call_id, group);
    }
    let mut handler: HashMap<u64, u64> = HashMap::new();
    for &(call, ns) in &data.handler {
        *handler.entry(call).or_default() += ns;
    }
    let mut hops: HashMap<u64, u64> = HashMap::new();
    for s in &data.spans {
        if traced.contains(&s.call_id) {
            *hops.entry(s.call_id).or_default() += s.hop_ns;
        }
    }
    put(
        &mut a,
        "dataplane.processor.queue_ns",
        data.spans.iter().map(|s| s.queue_ns).collect(),
    );
    put(
        &mut a,
        "dataplane.processor.serialize_ns",
        data.spans.iter().map(|s| s.serialize_ns).collect(),
    );
    put(
        &mut a,
        "dataplane.processor.hop_ns",
        data.spans.iter().map(|s| s.hop_ns).collect(),
    );

    let mut send = Vec::new();
    let mut ret = Vec::new();
    let mut proc_transit = Vec::new();
    let mut server_transit = Vec::new();
    let mut ledger_lat = Vec::new();
    let mut ledger_rows: Vec<Vec<u64>> = vec![Vec::new(); LEDGER.len()];
    for c in &data.calls {
        send.push(c.sent - c.start);
        let events = by_call.get(&c.call_id).copied().unwrap_or(&[]);
        for pair in events.windows(2) {
            let gap = pair[1].at_ns.saturating_sub(pair[0].at_ns);
            match pair[1].sender {
                Sender::Processor => proc_transit.push(gap),
                Sender::Server => server_transit.push(gap),
                Sender::Client => {}
            }
        }
        let reply = events.iter().rev().find(|e| e.dst == CLIENT_ADDR);
        let return_ns = reply.map(|e| c.done.saturating_sub(e.at_ns));
        if let Some(r) = return_ns {
            ret.push(r);
        }
        if let (true, Some(r)) = (c.echoed, return_ns) {
            ledger_lat.push(c.done - c.start);
            let row = [
                c.sent - c.start,
                hops.get(&c.call_id).copied().unwrap_or(0),
                handler.get(&c.call_id).copied().unwrap_or(0),
                r,
            ];
            for (col, v) in ledger_rows.iter_mut().zip(row) {
                col.push(v);
            }
        }
    }
    put(&mut a, "rpc.client.send_ns", send);
    put(&mut a, "rpc.client.return_ns", ret);
    put(&mut a, "dataplane.processor.transit_ns", proc_transit);
    put(&mut a, "rpc.server.transit_ns", server_transit);
    put(
        &mut a,
        "rpc.server.handler_ns",
        data.handler.iter().map(|&(_, ns)| ns).collect(),
    );

    // Offload adapters prefix the element name (`p4:Acl`); the metric is
    // per element, wherever it runs.
    let mut per_element: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (name, ns) in data.stages {
        let element = name.rsplit(':').next().unwrap_or(&name).to_owned();
        per_element.entry(element).or_default().push(ns);
    }
    for (name, values) in per_element {
        put(&mut a, &format!("chain.{name}.ns"), values);
    }

    a.ledger_p50_ns = median(&mut ledger_lat);
    a.ledger = LEDGER
        .iter()
        .zip(ledger_rows)
        .map(|(name, mut col)| (name.to_string(), median(&mut col)))
        .collect();
    a
}
