//! RPC ledger benchmark for the ADN runtime.
//!
//! ```text
//! adn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in a closed loop and checks every reply. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` the
//! per-layer ones. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `NOTES.md` for the
//! workloads and what each metric is expected to move.

mod generator;
mod layers;
mod stats;
mod tap;
mod workload;
mod world;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use adn::backend::jit::{resolve_tier, JitTier};

use generator::{closed_loop, probe, LoopResult, Stop};
use layers::{analyse, isolated, TraceData};
use stats::{heap_in_use, host_ticks, median, median_f64, peak_rss_mib};
use workload::{Checker, Inputs, Workload, CHECK_SEED, WINDOW, WORKLOADS};
use world::{World, APP};

/// World constructions timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Calls in each exact-count phase.
const COUNT_CALLS: u64 = 4000;
/// Untimed traffic before a measured loop.
const WARMUP: Duration = Duration::from_secs(3);
/// Fresh worlds the measured time of an untraced run is split over.
const WORLDS: usize = 3;
/// Length of one slice of the measured loop. Each end-to-end figure is
/// the median over slices, so a stall confined to one slice moves it little.
const SLICE: Duration = Duration::from_millis(500);
/// Most calls whose traces one traced phase keeps.
const TRACED_CALLS: u64 = 150_000;

/// (name, unit) of every per-layer metric, in print order.
const PER_LAYER: &[(&str, &str)] = &[
    ("rpc.client.send_ns", "ns"),
    ("rpc.client.return_ns", "ns"),
    ("rpc.transport.send_ns", "ns"),
    ("rpc.transport.frames_per_call", "count"),
    ("rpc.transport.bytes_per_call", "bytes"),
    ("rpc.wire_format.encode_ns", "ns"),
    ("rpc.wire_format.decode_ns", "ns"),
    ("dataplane.processor.hops_per_call", "count"),
    ("dataplane.processor.queue_ns", "ns"),
    ("dataplane.processor.serialize_ns", "ns"),
    ("dataplane.processor.hop_ns", "ns"),
    ("dataplane.processor.transit_ns", "ns"),
    ("dataplane.processor.shed", "count"),
    ("dataplane.processor.expired_drops", "count"),
    ("dataplane.processor.decode_errors", "count"),
    ("dataplane.hop.decode_ns", "ns"),
    ("dataplane.hop.reencode_ns", "ns"),
    ("chain.Logging.ns", "ns"),
    ("chain.Acl.ns", "ns"),
    ("chain.Fault.ns", "ns"),
    ("chain.LoadBalancer.ns", "ns"),
    ("chain.Compress.ns", "ns"),
    ("chain.Decompress.ns", "ns"),
    ("chain.stages_per_call", "count"),
    ("chain.fused_ns", "ns"),
    ("rpc.server.handler_ns", "ns"),
    ("rpc.server.transit_ns", "ns"),
    ("controller.deploy_ms", "ms"),
    ("controller.place_us", "us"),
    ("traced.latency_p50_us", "us"),
    ("traced.gap_us", "us"),
    ("unattributed_us", "us"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Calls attempted and failed over every loop of the run.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
}

impl Totals {
    fn add(&mut self, r: &LoopResult) {
        self.attempted += r.attempted;
        self.failed += r.failed;
    }
}

/// End-to-end figures of sliced loops: per slice, then the median over the
/// slices of every loop.
struct EndToEnd {
    rate: f64,
    payload_mb_s: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    cpu_us_per_call: f64,
    samples_per_slice: u64,
}

impl EndToEnd {
    fn from_loops(loops: &[LoopResult]) -> Self {
        let slices: Vec<&generator::Slice> = loops.iter().flat_map(|r| &r.slices).collect();
        let per = |f: &dyn Fn(&generator::Slice) -> f64| {
            let mut v: Vec<f64> = slices.iter().map(|s| f(s)).collect();
            median_f64(&mut v)
        };
        Self {
            rate: per(&|s| s.correct as f64 / s.elapsed.as_secs_f64()),
            payload_mb_s: per(&|s| s.payload_bytes as f64 / s.elapsed.as_secs_f64() / 1e6),
            p50_us: per(&|s| s.p50_ns as f64 / 1e3),
            p95_us: per(&|s| s.p95_ns as f64 / 1e3),
            p99_us: per(&|s| s.p99_ns as f64 / 1e3),
            cpu_us_per_call: per(&|s| s.cpu.as_secs_f64() * 1e6 / s.correct.max(1) as f64),
            samples_per_slice: per(&|s| s.calls as f64) as u64,
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    let epoch = Instant::now();
    let inputs = Inputs::generate(w, args.seed);
    let checker = Checker::new(w);
    let mut totals = Totals::default();

    // Set-up: world construction to the first correct reply.
    let mut setup_ns = Vec::with_capacity(SETUP_REPS);
    let mut deploy_ns = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let world = World::build(w, args.seed, epoch)?;
        probe(&world, &inputs, &checker)?;
        setup_ns.push(started.elapsed().as_nanos() as u64);
        deploy_ns.push(world.deploy.as_nanos() as u64);
    }

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    if !args.trace {
        // The measured time is split over fresh worlds, so that one
        // world's unlucky thread placement is one share of the slices.
        let share = Duration::from_secs_f64(args.seconds / WORLDS as f64);
        let mut loops = Vec::with_capacity(WORLDS);
        let mut heap = Vec::with_capacity(WORLDS);
        let (steal_before, total_before) = host_ticks();
        for i in 0..WORLDS {
            let world = World::build(w, args.seed, epoch)?;
            probe(&world, &inputs, &checker)?;
            if i == 0 {
                print_record(&args, &world);
            }
            let warm = closed_loop(
                &world,
                &inputs,
                &checker,
                Stop::Time(WARMUP, u64::MAX),
                false,
                None,
                |_| {},
            );
            totals.add(&warm);
            let r = closed_loop(
                &world,
                &inputs,
                &checker,
                Stop::Time(share, u64::MAX),
                false,
                Some(SLICE),
                |_| {},
            );
            totals.add(&r);
            loops.push(r);
            // Memory the deployment retains after its traffic, sampled
            // while the world is still up.
            heap.push(heap_in_use() as u64);
        }
        let (steal_after, total_after) = host_ticks();
        let e2e = EndToEnd::from_loops(&loops);
        let (correct, attempted) = loops
            .iter()
            .fold((0, 0), |(c, a), r| (c + r.correct, a + r.attempted));
        let mut put = |name: &str, value: f64, unit: &str| {
            metrics.push((name.to_owned(), value, unit.to_owned()));
        };
        put("rpc_rate", e2e.rate, "1/s");
        put("payload_mb_s", e2e.payload_mb_s, "MB/s");
        put("latency_p50_us", e2e.p50_us, "us");
        put("cpu_us_per_call", e2e.cpu_us_per_call, "us");
        put("heap_mb", median(&mut heap) as f64 / 1e6, "MB");
        put(
            "ok_share",
            correct as f64 / attempted.max(1) as f64,
            "share",
        );
        put("setup_s", median(&mut setup_ns) as f64 / 1e9, "s");
        for (i, r) in loops.iter().enumerate() {
            let rates: Vec<String> = r
                .slices
                .iter()
                .map(|s| format!("{:.0}", s.correct as f64 / s.elapsed.as_secs_f64()))
                .collect();
            notes.push(format!(
                "world {i}: rpc_rate per slice: {}",
                rates.join(" ")
            ));
        }
        // Tail latency is shown but not reported as a metric: phases of
        // host contention lasting minutes triple it in every run they
        // cover, a wider run-to-run spread than any bound may be.
        notes.push(format!(
            "latency p95 / p99 (median over slices): {:.3} / {:.3} us",
            e2e.p95_us, e2e.p99_us
        ));
        notes.push(format!(
            "peak resident set: {:.1} MB (not a metric: it depends on which malloc arena each thread gets)",
            peak_rss_mib() * 1.048576
        ));
        notes.push(format!(
            "host CPU time stolen by the hypervisor while measuring: {:.2} %",
            100.0 * steal_after.saturating_sub(steal_before) as f64
                / total_after.saturating_sub(total_before).max(1) as f64
        ));
        let setups: Vec<String> = setup_ns
            .iter()
            .map(|n| format!("{:.2}", *n as f64 / 1e6))
            .collect();
        notes.push(format!("set-up times (ms): {}", setups.join(" ")));
        notes.push(format!(
            "{WORLDS} worlds, slices of {SLICE:?}; latency samples per slice: median {}; calls answered correctly: {correct} of {attempted}",
            e2e.samples_per_slice,
        ));
    } else {
        let world = World::build(w, args.seed, epoch)?;
        probe(&world, &inputs, &checker)?;
        print_record(&args, &world);
        traced_run(
            &args,
            &world,
            &inputs,
            &checker,
            &mut totals,
            &mut metrics,
            &mut notes,
            &mut deploy_ns,
        )?;
    }

    println!(
        "workload {} seed {} trace {}",
        w.name, args.seed, args.trace as u8
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    for note in &notes {
        println!("  {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        totals.failed == 0,
        totals.attempted,
        totals.failed,
        body.join(", ")
    );
    Ok(())
}

fn print_record(args: &Args, world: &World) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("commit", json_str(&env("PERFBENCH_COMMIT"))),
        ("cpu_model", json_str(&stats::cpu_model())),
        ("nproc", nproc.to_string()),
        ("kernel", json_str(&stats::kernel())),
        ("rustc", json_str(&env("PERFBENCH_RUSTC"))),
        (
            "jit_tier",
            json_str(&format!("{:?}", resolve_tier(JitTier::Auto))),
        ),
        ("transport", json_str(args.workload.transport.label())),
        ("placement", json_str(&world.placement())),
        ("workload", json_str(args.workload.name)),
        ("seed", args.seed.to_string()),
        ("check_seed", CHECK_SEED.to_string()),
        ("window", WINDOW.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"run_record\": {{{}}}}}", body.join(", "));
}

/// Exact per-call work over `COUNT_CALLS` calls on a fresh world: frames,
/// wire bytes and processor hops untraced, then chain stages run from a
/// second fresh world with every trace source on.
fn exact_counts(
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
    checker: &Checker,
    totals: &mut Totals,
    epoch: Instant,
) -> Result<[f64; 4], String> {
    let world = World::build(w, seed, epoch)?;
    probe(&world, inputs, checker)?;
    let (f0, b0, p0) = world.tap.counts();
    let r = closed_loop(
        &world,
        inputs,
        checker,
        Stop::Calls(COUNT_CALLS),
        false,
        None,
        |_| {},
    );
    totals.add(&r);
    let (f1, b1, p1) = world.tap.counts();
    drop(world);

    let world = World::build(w, seed, epoch)?;
    probe(&world, inputs, checker)?;
    world.wrap_in_app_engines();
    world.controller.set_trace_sampling(APP, 1.0);
    world.controller.spans().drain();
    let runs_before = world
        .rec
        .stage_runs
        .load(std::sync::atomic::Ordering::SeqCst);
    let mut span_stages = 0usize;
    let r = closed_loop(
        &world,
        inputs,
        checker,
        Stop::Calls(COUNT_CALLS),
        false,
        None,
        |n| {
            if n % 64 == 0 {
                span_stages += world
                    .controller
                    .spans()
                    .drain()
                    .iter()
                    .map(|s| s.stages.len())
                    .sum::<usize>();
            }
        },
    );
    totals.add(&r);
    // A hop's span lands just after it forwards the reply.
    std::thread::sleep(Duration::from_millis(50));
    span_stages += world
        .controller
        .spans()
        .drain()
        .iter()
        .map(|s| s.stages.len())
        .sum::<usize>();
    if world.controller.spans().dropped() > 0 {
        return Err("span ring overflowed during the stage count".into());
    }
    let runs = world
        .rec
        .stage_runs
        .load(std::sync::atomic::Ordering::SeqCst)
        - runs_before;
    let k = COUNT_CALLS as f64;
    Ok([
        (f1 - f0) as f64 / k,
        (b1 - b0) as f64 / k,
        (p1 - p0) as f64 / k,
        (span_stages as u64 + runs) as f64 / k,
    ])
}

#[allow(clippy::too_many_arguments)]
fn traced_run(
    args: &Args,
    world: &World,
    inputs: &Inputs,
    checker: &Checker,
    totals: &mut Totals,
    metrics: &mut Vec<(String, f64, String)>,
    notes: &mut Vec<String>,
    deploy_ns: &mut [u64],
) -> Result<(), String> {
    let w = args.workload;
    let epoch = Instant::now();
    let [frames, bytes, hops, stages] = exact_counts(w, args.seed, inputs, checker, totals, epoch)?;
    let iso = isolated(w, args.seed, inputs, &world.service)?;

    // Untraced reference, then the traced phase on the same world.
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let warm = closed_loop(
        world,
        inputs,
        checker,
        Stop::Time(WARMUP, u64::MAX),
        false,
        None,
        |_| {},
    );
    totals.add(&warm);
    let mut reference = closed_loop(
        world,
        inputs,
        checker,
        Stop::Time(half, u64::MAX),
        false,
        None,
        |_| {},
    );
    totals.add(&reference);
    let reference_p50 = median(&mut reference.latencies_ns);

    world.wrap_in_app_engines();
    world.controller.spans().drain();
    world.set_tracing(true);
    let mut data = TraceData::default();
    let mut traced = closed_loop(
        world,
        inputs,
        checker,
        Stop::Time(half, TRACED_CALLS),
        true,
        None,
        |n| {
            if n % 256 == 0 {
                data.absorb(world.controller.spans().drain());
            }
        },
    );
    std::thread::sleep(Duration::from_millis(50));
    world.set_tracing(false);
    totals.add(&traced);
    data.absorb(world.controller.spans().drain());
    data.calls = std::mem::take(&mut traced.times);
    data.events = world.tap.take_events();
    data.handler = std::mem::take(&mut *world.rec.handler.lock().expect("handler log poisoned"));
    data.stages
        .append(&mut world.rec.stages.lock().expect("stage log poisoned"));
    let spans_dropped = world.controller.spans().dropped();
    let traced_p50 = median(&mut traced.latencies_ns);
    let a = analyse(data);

    let (mut shed, mut expired, mut decode_errors) = (0, 0, 0);
    for (_, s) in world.controller.processor_stats(APP) {
        shed += s.shed;
        expired += s.expired_drops;
        decode_errors += s.decode_errors;
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        if let Some(v) = a.metrics.get(*name) {
            values.insert(name, *v);
        }
    }
    let ledger_sum: u64 = a.ledger.iter().map(|(_, v)| v).sum();
    let fixed = [
        ("rpc.transport.frames_per_call", frames),
        ("rpc.transport.bytes_per_call", bytes),
        ("dataplane.processor.hops_per_call", hops),
        ("chain.stages_per_call", stages),
        ("rpc.wire_format.encode_ns", iso.encode_ns),
        ("rpc.wire_format.decode_ns", iso.decode_ns),
        ("dataplane.hop.decode_ns", iso.hop_decode_ns),
        ("dataplane.hop.reencode_ns", iso.hop_reencode_ns),
        ("chain.fused_ns", iso.fused_ns),
        ("controller.place_us", iso.place_us),
        ("controller.deploy_ms", median(deploy_ns) as f64 / 1e6),
        ("dataplane.processor.shed", shed as f64),
        ("dataplane.processor.expired_drops", expired as f64),
        ("dataplane.processor.decode_errors", decode_errors as f64),
        ("traced.latency_p50_us", traced_p50 as f64 / 1e3),
        (
            "traced.gap_us",
            (traced_p50 as f64 - reference_p50 as f64) / 1e3,
        ),
        (
            "unattributed_us",
            (a.ledger_p50_ns as f64 - ledger_sum as f64) / 1e3,
        ),
    ];
    values.extend(fixed);
    for (name, unit) in PER_LAYER {
        let v = values.get(name).copied().unwrap_or(0.0);
        metrics.push((name.to_string(), v, unit.to_string()));
    }

    notes.push(format!(
        "untraced reference p50 {:.2} us over {} calls; traced p50 {:.2} us over {} calls; spans evicted unread: {spans_dropped}",
        reference_p50 as f64 / 1e3,
        reference.attempted,
        traced_p50 as f64 / 1e3,
        traced.attempted
    ));
    for (name, n) in &a.samples {
        notes.push(format!("samples {name}: {n}"));
    }
    notes.push(format!(
        "ledger over echoed calls (p50 {:.2} us), medians per call:",
        a.ledger_p50_ns as f64 / 1e3
    ));
    for (name, v) in &a.ledger {
        notes.push(format!("  {name:<34} {:>10.2} us", *v as f64 / 1e3));
    }
    notes.push(format!(
        "  {:<34} {:>10.2} us",
        "unattributed",
        (a.ledger_p50_ns as f64 - ledger_sum as f64) / 1e3
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_repeat_for_a_seed() {
        for name in ["paper_small", "offload_compress"] {
            let w = Workload::by_name(name).unwrap();
            let inputs = Inputs::generate(w, 5);
            let checker = Checker::new(w);
            let mut totals = Totals::default();
            let epoch = Instant::now();
            let a = exact_counts(w, 5, &inputs, &checker, &mut totals, epoch).unwrap();
            let b = exact_counts(w, 5, &inputs, &checker, &mut totals, epoch).unwrap();
            assert_eq!(a, b, "{name}");
            assert_eq!(totals.failed, 0);
            assert!(a[2] > 0.0, "{name} crosses processors");
        }
    }
}
