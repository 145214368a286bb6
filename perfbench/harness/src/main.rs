//! Benchmark harness for `bgpsim`: calls the library's entry points the
//! way the shipped binaries do, and — in the traced run — opens a span
//! around each call into a layer. Every subcommand prints one JSON
//! object on stdout.
//!
//! ```text
//! perfbench-harness provenance
//! perfbench-harness batch --job <jobspec-json>... --dir <d> [--cached 0|1]
//!                         [--check 0|1] [--sample-seed <s>]
//! perfbench-harness trace-specs --job <jobspec-json>... --dir <d> --bgpsim <bin>
//!                               --spans <file> [--probe-dir <d>]
//! perfbench-harness trace-paper --scale <quick|paper> --dir <d> --bgpsim <bin>
//!                               --spans <file>
//! perfbench-harness worker      (the `bgpsim worker` protocol, for trace-paper)
//! perfbench-harness serve-loop --addr <host:port> --plan <file> --out <file>
//!                              --seconds <s> [--clients 2] [--trace 0|1] [--spans <file>]
//! ```
//!
//! Jobs are `POST /v1/jobs` bodies (`JobSpec`), so the harness and the
//! daemon read scenarios the same way.

mod serve_loop;
mod spans;

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bgpsim_core::Prefix;
use bgpsim_dataplane::{
    generate_packets, paper_sources, walk_indexed_batch, walk_packet, Packet, PacketFate,
    DEFAULT_TTL,
};
use bgpsim_experiments::figures::{fig4, fig5, fig6, fig7, fig8, fig9, render_claims};
use bgpsim_experiments::{EventKind, JobSpec, Scale, ScenarioSpec, TopologySpec};
use bgpsim_metrics::{compute_metrics, measure_run, summarize, PaperMetrics};
use bgpsim_netsim::rng::SimRng;
use bgpsim_netsim::time::SimDuration;
use bgpsim_runner::supervisor::{decode_request, encode_failure, encode_request, encode_success};
use bgpsim_runner::{
    recover_journal, Job, JobOutput, ProgressMode, RunCache, Runner, RunnerConfig, WorkerPayload,
};
use bgpsim_sim::{ConvergenceExperiment, FailureEvent, RunRecord};
use bgpsim_topology::NodeId;
use bgpsim_trace::RunCounters;

use spans::{enter, enter_under, json_object, span};

/// The prefix every paper scenario studies.
const PREFIX: Prefix = Prefix::new(0);
/// Per-hop link delay of the replay (as in `measure_run`).
const LINK_DELAY: SimDuration = SimDuration::from_millis(2);
/// Samples per cache probe.
const CACHE_PROBES: usize = 25;
/// Runner workers: the core count of the reference box.
const WORKERS: usize = 2;
/// Length of one slice of a run's traffic checked against the
/// `walk_packet` oracle: ten CBR periods, so each source sends several
/// packets into it and the batched replay reuses memoised walks.
const ORACLE_SLICE: SimDuration = SimDuration::from_secs(1);
/// Slices checked per run.
const ORACLE_SLICES: usize = 4;

pub(crate) type Opts = BTreeMap<String, Vec<String>>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
    };
    let opts = match parse_opts(&args[1..]) {
        Ok(opts) => opts,
        Err(err) => fail(&err),
    };
    let result = match command.as_str() {
        "provenance" => {
            println!(
                "{}",
                json_object(&[("debug_assertions", &cfg!(debug_assertions))])
            );
            Ok(())
        }
        "batch" => batch(&opts),
        "trace-specs" => trace_specs(&opts),
        "trace-paper" => trace_paper(&opts),
        "worker" => worker(),
        "serve-loop" => serve_loop::serve_loop(&opts),
        _ => usage(),
    };
    if let Err(err) = result {
        fail(&err);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-harness provenance|batch|trace-specs|trace-paper|worker|serve-loop \
         [--key value]..."
    );
    std::process::exit(2);
}

fn fail(err: &str) -> ! {
    eprintln!("perfbench-harness: {err}");
    std::process::exit(1);
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        opts.entry(name.to_string())
            .or_default()
            .push(value.clone());
    }
    Ok(opts)
}

pub(crate) fn opt<'a>(opts: &'a Opts, name: &str) -> Result<&'a str, String> {
    opts.get(name)
        .and_then(|v| v.last())
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

pub(crate) fn opt_usize(opts: &Opts, name: &str, default: usize) -> Result<usize, String> {
    match opts.get(name).and_then(|v| v.last()) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} must be a whole number")),
        None => Ok(default),
    }
}

fn specs(opts: &Opts) -> Result<Vec<ScenarioSpec>, String> {
    let mut out = Vec::new();
    for body in opts.get("job").ok_or("missing --job")? {
        out.extend(JobSpec::parse(body)?.scenarios());
    }
    Ok(out)
}

fn label(spec: &ScenarioSpec) -> String {
    format!(
        "{}-{}-seed{}",
        spec.topology.label(),
        spec.event.label(),
        spec.seed
    )
}

fn runner(dir: &Path) -> Result<Runner, String> {
    Ok(Runner::new(WORKERS)
        .with_cache_dir(dir.join("cache"))
        .map_err(|e| e.to_string())?
        .try_with_journal_path(&dir.join("journal.jsonl"))
        .map_err(|e| e.to_string())?
        .with_progress(ProgressMode::Never))
}

/// Exact equality, also for NaN fields: two values are the same when
/// they print the same.
fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The packets `measure_run` replays for a run.
fn traffic(record: &RunRecord, destination: NodeId, seed: u64) -> Vec<Packet> {
    let mut rng = SimRng::new(seed).fork(0xDA7A);
    let sources = paper_sources(record.node_count, destination, &mut rng);
    let (start, end) = record.replay_window();
    generate_packets(&sources, PREFIX, DEFAULT_TTL, start, end)
}

/// Checks one measured run against the `walk_packet` oracle, untimed.
/// The run is simulated again (the measured pass keeps nothing of it)
/// and must reproduce the measured run's traffic and control-plane
/// metrics. Then every packet sent in `ORACLE_SLICES` one-second slices
/// of its replay window — the last second, where the settled FIB makes
/// memoised walks certain, and others placed by `sample_seed` — is
/// replayed as one batch and walked by the oracle. Returns the packets
/// checked and the batch's memo hits.
fn oracle_check(
    spec: &ScenarioSpec,
    destination: NodeId,
    failure: FailureEvent,
    measured: &PaperMetrics,
    sample_seed: u64,
) -> Result<(usize, u64), String> {
    let (graph, _) = spec.topology.build();
    let record = ConvergenceExperiment::new(graph, destination, failure)
        .with_config(spec.config)
        .with_params(spec.params)
        .with_seed(spec.seed)
        .run();
    let packets = traffic(&record, destination, spec.seed);
    let messages = record
        .failure_at
        .map_or(0, |at| record.sends_since(at) as u64);
    if packets.len() as u64 != measured.packets_total
        || record.convergence_time() != measured.convergence_time
        || messages != measured.messages_after_failure
    {
        return Err("the re-simulated run is not the measured run".into());
    }

    let (start, end) = record.replay_window();
    let (start, end) = (start.as_nanos(), end.as_nanos());
    let slice = ORACLE_SLICE.as_nanos();
    let room = end.saturating_sub(start).saturating_sub(slice) as usize;
    let mut rng = SimRng::new(sample_seed).fork(0x0AC1);
    let mut slices = vec![end.saturating_sub(slice).max(start)];
    slices.extend((1..ORACLE_SLICES).map(|_| start + rng.index(room.max(1)) as u64));
    let picked: Vec<Packet> = packets
        .into_iter()
        .filter(|p| {
            let at = p.sent_at.as_nanos();
            slices.iter().any(|&lo| lo <= at && at < lo + slice)
        })
        .collect();

    let fib = &record.fib;
    let (batched, stats) = walk_indexed_batch(&fib.epoch_index(PREFIX), &picked, LINK_DELAY);
    let differ = picked
        .iter()
        .zip(&batched)
        .filter(|(p, fate)| walk_packet(fib, p, LINK_DELAY) != **fate)
        .count();
    let count = |pick: fn(&PacketFate) -> bool| batched.iter().filter(|f| pick(f)).count() as u64;
    if picked.is_empty() {
        Err("the oracle sample is empty".into())
    } else if differ > 0 {
        Err(format!(
            "{differ}/{} sampled fates differ from walk_packet",
            picked.len()
        ))
    } else if stats.memo_hits == 0 {
        Err("the oracle sample reused no memoised walk".into())
    } else if count(|f| matches!(f, PacketFate::TtlExhausted { .. })) > measured.ttl_exhaustions
        || count(|f| matches!(f, PacketFate::Delivered { .. })) > measured.delivered
        || count(|f| matches!(f, PacketFate::NoRoute { .. })) > measured.no_route
    {
        Err("the measured run counts fewer fates than the oracle sample holds".into())
    } else {
        Ok((picked.len(), stats.memo_hits))
    }
}

/// `batch`: the end-to-end path of the spec workloads. The jobs run
/// through a `Runner` (run cache and fsynced journal in `--dir`) via
/// `ScenarioSpec::run`, keeping nothing of a run but its placement.
/// After the wall and peak-RSS readings, `--check 1` checks every
/// executed run with [`oracle_check`]. With `--cached 1` this is a
/// re-run that every job must find in the cache. The output carries a
/// digest of the metrics, so other runs can be compared with this one.
fn batch(opts: &Opts) -> Result<(), String> {
    let specs = specs(opts)?;
    let dir = PathBuf::from(opt(opts, "dir")?);
    let runner = runner(&dir)?;
    let cached = opt_usize(opts, "cached", 0)? == 1;
    let check = opt_usize(opts, "check", 0)? == 1;
    let sample_seed = opt_usize(opts, "sample-seed", 0)? as u64;

    type Placement = Option<(NodeId, FailureEvent)>;
    let placed: Arc<Mutex<Vec<Placement>>> = Arc::new(Mutex::new(vec![None; specs.len()]));
    let jobs = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let spec = spec.clone();
            let placed = Arc::clone(&placed);
            Job::new(label(&spec), Some(spec.fingerprint()), move || {
                let result = spec.run();
                placed.lock().expect("placement lock")[i] =
                    Some((result.destination, result.failure));
                JobOutput::with_counters(result.measurement.metrics, result.counters())
            })
        })
        .collect();
    let started = Instant::now();
    let metrics = runner.run_jobs(jobs).map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    let peak_rss_kb = bgpsim_trace::peak_rss_kb();

    let mut errors = Vec::new();
    let (mut checked_jobs, mut checked_packets, mut checked_memo_hits) = (0, 0, 0);
    let placed = std::mem::take(&mut *placed.lock().expect("placement lock"));
    for ((spec, place), measured) in specs.iter().zip(placed).zip(&metrics) {
        let why = match (cached, place) {
            (true, None) => None,
            (true, Some(_)) => Some("the re-run missed the run cache".to_string()),
            (false, None) => Some("the job did not run".to_string()),
            (false, Some(_)) if !check => None,
            (false, Some((destination, failure))) => {
                match oracle_check(spec, destination, failure, measured, sample_seed) {
                    Ok((packets, memo_hits)) => {
                        checked_jobs += 1;
                        checked_packets += packets;
                        checked_memo_hits += memo_hits;
                        None
                    }
                    Err(why) => Some(why),
                }
            }
        };
        if let Some(why) = why {
            errors.push(format!("{}: {why}", label(spec)));
        }
    }
    let digest = format!("{:016x}", fnv1a(format!("{metrics:?}").as_bytes()));
    println!(
        "{}",
        json_object(&[
            ("wall_s", &wall_s),
            ("peak_rss_kb", &peak_rss_kb),
            ("jobs", &specs.len()),
            ("failed", &errors.len()),
            ("checked_jobs", &checked_jobs),
            ("checked_packets", &checked_packets),
            ("checked_memo_hits", &checked_memo_hits),
            ("metrics_digest", &digest),
            ("errors", &errors),
        ])
    );
    Ok(())
}

/// 64-bit FNV-1a, for comparing results across processes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One scenario, decomposed: the stable entry point first
/// (`ScenarioSpec::run`, the untraced reference), then the same run
/// layer by layer with a span around each call, then `measure_run` as
/// the cross-check. Any disagreement is recorded as an error.
fn trace_one(spec: &ScenarioSpec) -> (PaperMetrics, RunCounters) {
    let reference = span("experiments.run", || spec.run());
    let out = (reference.measurement.metrics, reference.counters());
    let name = label(spec);
    if spec.faults.is_some() || spec.event == EventKind::Flap {
        spans::error(format!("{name}: fault scenarios are not decomposed"));
        return out;
    }
    let destination = reference.destination;
    let (graph, _) = span("topology.build", || spec.topology.build());
    let record = span("sim.run", || {
        ConvergenceExperiment::new(graph, destination, reference.failure)
            .with_config(spec.config)
            .with_params(spec.params)
            .with_seed(spec.seed)
            .run()
    });
    if record != reference.record {
        spans::error(format!(
            "{name}: ConvergenceExperiment::run differs from ScenarioSpec::run"
        ));
    }
    let stats = record.total_stats();
    spans::add("sim.events", record.events_dispatched as f64);
    spans::add("sim.decisions", stats.decisions_run as f64);
    spans::add("sim.updates_sent", record.sends.len() as f64);
    spans::add("sim.path_changes", record.path_changes.len() as f64);
    spans::max("sim.max_queue_depth", record.max_queue_depth as f64);

    let packets = span("dataplane.traffic", || {
        traffic(&record, destination, spec.seed)
    });
    let index = span("dataplane.epoch_index", || record.fib.epoch_index(PREFIX));
    let (fates, replay) = span("dataplane.replay", || {
        walk_indexed_batch(&index, &packets, LINK_DELAY)
    });
    let metrics = span("metrics.compute", || {
        compute_metrics(&record, &packets, &fates)
    });
    let census = span("dataplane.census", || index.loop_census());
    let summary = span("metrics.compute", || summarize(&census));
    spans::add("dataplane.packets", packets.len() as f64);
    spans::add("dataplane.indexes", 1.0);
    spans::add(
        "dataplane.dense_indexes",
        f64::from(u8::from(index.is_dense())),
    );
    spans::add("dataplane.epochs", index.epoch_count() as f64);
    spans::add("dataplane.replay_walks", replay.walks as f64);
    spans::add("dataplane.memo_hits", replay.memo_hits as f64);
    spans::add("dataplane.loops", census.len() as f64);
    drop((packets, fates, index));

    let full = span("metrics.measure_run", || {
        measure_run(&record, destination, PREFIX, spec.seed)
    });
    let agree = same(&full.metrics, &metrics)
        && full.census == census
        && same(&full.census_summary, &summary)
        && full.replay == replay
        && same(&reference.measurement.metrics, &metrics);
    if !agree {
        spans::error(format!(
            "{name}: decomposed measurement differs from measure_run"
        ));
    }
    out
}

/// Records the runner's own statistics as counters.
fn runner_counters(runner: &Runner) {
    let stats = runner.stats();
    spans::add("runner.jobs", stats.jobs as f64);
    spans::add("runner.executed", stats.executed as f64);
    spans::add("runner.cache_hits", stats.cache_hits as f64);
    spans::add("runner.sim_ms", stats.counters.sim_ms as f64);
    spans::add("runner.measure_ms", stats.counters.measure_ms as f64);
    spans::add("runner.job_ms", stats.job_time.as_secs_f64() * 1e3);
}

/// Times the runner's durable-store calls on `dir`'s cache and journal
/// and one isolated-worker round trip through `bgpsim worker`.
fn runner_probes(dir: &Path, bgpsim: &str) -> Result<(), String> {
    let spec = ScenarioSpec::new(TopologySpec::Clique(4), EventKind::TDown).with_seed(1);
    let metrics = spec.run().measurement.metrics;
    let cache = RunCache::new(dir.join("cache")).map_err(|e| e.to_string())?;
    for i in 0..CACHE_PROBES {
        let key = format!("perfbench-probe/{i}");
        span("runner.cache_store", || cache.store(&key, &metrics)).map_err(|e| e.to_string())?;
    }
    for i in 0..CACHE_PROBES {
        let key = format!("perfbench-probe/{i}");
        let hit = span("runner.cache_lookup", || cache.lookup(&key));
        if !hit.is_some_and(|m| same(&m, &metrics)) {
            spans::error(format!("cache probe {key} did not read back"));
        }
    }
    let report = span("runner.recover", || {
        recover_journal(&dir.join("journal.jsonl"), Some(&cache))
    });
    if !report.is_clean() {
        spans::error(format!(
            "journal recovery is not clean: {}",
            report.render()
        ));
    }
    let payload = WorkerPayload {
        scenario: spec.to_canonical_json()?,
        seed: spec.seed,
    };
    let verdict = span("runner.worker_spawn", || -> Result<String, String> {
        let mut child = Command::new(bgpsim)
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {bgpsim} worker: {e}"))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin
            .write_all(format!("{}\n", encode_request(&payload, None)).as_bytes())
            .map_err(|e| e.to_string())?;
        drop(stdin);
        let out = child.wait_with_output().map_err(|e| e.to_string())?;
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    })?;
    if !verdict.starts_with("{\"ok\":true") {
        spans::error(format!(
            "bgpsim worker round trip failed: {}",
            verdict.trim()
        ));
    }
    Ok(())
}

fn finish(opts: &Opts, failed_claims: usize) -> Result<(), String> {
    spans::write(Path::new(opt(opts, "spans")?)).map_err(|e| e.to_string())?;
    println!(
        "{}",
        json_object(&[
            ("errors", &spans::error_count()),
            ("failed_claims", &failed_claims),
        ])
    );
    Ok(())
}

/// `trace-specs`: the traced run of the spec workloads. The jobs run
/// through a `Runner` like `batch` does, each job decomposed by
/// [`trace_one`], then once more from the cache, then the runner probes.
fn trace_specs(opts: &Opts) -> Result<(), String> {
    let root = enter("bench.process");
    let specs = specs(opts)?;
    let dir = PathBuf::from(opt(opts, "dir")?);
    let runner = runner(&dir)?;
    let jobs = |cold: bool| -> Vec<Job> {
        let parent = spans::current();
        specs
            .iter()
            .map(|spec| {
                let spec = spec.clone();
                Job::new(label(&spec), Some(spec.fingerprint()), move || {
                    let _job = enter_under(parent, "bench.job");
                    if !cold {
                        spans::error(format!("{}: warm pass missed the cache", label(&spec)));
                    }
                    let (metrics, counters) = trace_one(&spec);
                    JobOutput::with_counters(metrics, counters)
                })
            })
            .collect()
    };
    for cold in [true, false] {
        let _pass = enter("runner.run_jobs");
        runner.run_jobs(jobs(cold)).map_err(|e| e.to_string())?;
    }
    runner_counters(&runner);
    let probe_dir = opts
        .get("probe-dir")
        .and_then(|v| v.last())
        .map_or(dir.clone(), PathBuf::from);
    runner_probes(&probe_dir, opt(opts, "bgpsim")?)?;
    drop(root);
    finish(opts, 0)
}

/// `trace-paper`: the traced run of the paper sweep. The figures run on
/// an isolated global runner whose workers are this binary's `worker`
/// subcommand, so every job is decomposed by [`trace_one`] in its own
/// process; the figure output goes to `<dir>/stdout.txt`.
fn trace_paper(opts: &Opts) -> Result<(), String> {
    let root = enter("bench.process");
    let scale = Scale::parse(opt(opts, "scale")?).ok_or("--scale must be quick or paper")?;
    let dir = PathBuf::from(opt(opts, "dir")?);
    let spans_dir = dir.join("spans");
    std::fs::create_dir_all(&spans_dir).map_err(|e| e.to_string())?;
    std::env::set_var("PERFBENCH_SPANS_DIR", &spans_dir);
    let runner = bgpsim_runner::init_global(
        RunnerConfig::new()
            .jobs(WORKERS)
            .cache_dir(dir.join("cache"))
            .journal(dir.join("journal.jsonl"))
            .progress(ProgressMode::Never)
            .isolate(true),
    )
    .map_err(|e| e.to_string())?;
    let mut text = String::new();
    let mut failed_claims = 0;
    macro_rules! figure {
        ($m:ident, $span:expr) => {{
            let fig = span($span, || $m::run(scale));
            let claims = fig.claims();
            text.push_str(&format!("{}\n{}\n", fig.render(), render_claims(&claims)));
            failed_claims += claims.iter().filter(|c| !c.pass).count();
        }};
    }
    figure!(fig4, "experiments.fig4");
    figure!(fig5, "experiments.fig5");
    figure!(fig6, "experiments.fig6");
    figure!(fig7, "experiments.fig7");
    figure!(fig8, "experiments.fig8");
    figure!(fig9, "experiments.fig9");
    std::fs::write(dir.join("stdout.txt"), text).map_err(|e| e.to_string())?;
    runner_counters(runner);
    runner_probes(&dir, opt(opts, "bgpsim")?)?;
    drop(root);
    finish(opts, failed_claims)
}

/// `worker`: one isolated job for `trace-paper`, speaking the
/// `bgpsim worker` protocol; the job's spans go to
/// `$PERFBENCH_SPANS_DIR/<pid>.jsonl`.
fn worker() -> Result<(), String> {
    let root = enter("bench.job");
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| e.to_string())?;
    let spec = decode_request(&input).and_then(|r| ScenarioSpec::from_canonical_json(&r.scenario));
    let line = match spec {
        Ok(spec) => {
            let (metrics, counters) = trace_one(&spec);
            encode_success(&metrics, Some(&counters))
        }
        Err(err) => encode_failure("worker", &err),
    };
    drop(root);
    if let Some(dir) = std::env::var_os("PERFBENCH_SPANS_DIR") {
        let path = Path::new(&dir).join(format!("{}.jsonl", std::process::id()));
        spans::write(&path).map_err(|e| e.to_string())?;
    }
    println!("{line}");
    Ok(())
}
