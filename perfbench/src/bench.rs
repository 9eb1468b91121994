//! The run loop: set up and run rounds of a workload until the measuring
//! time is spent, gate every journey, and reduce the rounds to metrics.
//!
//! A round generates the workload's inputs from the seed, builds a fresh
//! fleet (set-up), and runs it until it drains. Every round of one seed is
//! the same batch of journeys, so wall-clock metrics are medians over
//! rounds while the sim-time and byte metrics must repeat exactly, and
//! the gate checks that they do.
//!
//! The untraced run reports the end-to-end metrics. The traced run reports
//! the per-layer ones: each of its rounds runs the fleet plain and with the
//! epoch probe (in alternating order), once more without the ops planes,
//! and then replays every journey's layer calls under spans.

use std::time::Instant;

use crate::gate::{check_journey, digest};
use crate::inputs::{generate, JourneyInput, Workload};
use crate::replay::{gateway_keys, replay_journey, CodecTally, Recorder};
use crate::stats::{allowed_cpus, cpu_seconds, median, peak_rss_mib, pin_to, tail};
use crate::world::{build, EpochProbe, Harvest};

/// Rounds every run makes, however short its measuring time.
pub const MIN_ROUNDS: usize = 3;

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug)]
pub struct Report {
    /// Every journey passed the gate.
    pub correct: bool,
    /// Journeys run.
    pub attempted: u64,
    /// Journeys that failed the gate.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Recorded spans, one JSON object a line (traced runs only).
    pub spans: Option<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One round of a workload.
pub struct Round {
    /// Input generation plus fleet construction, s.
    pub setup_s: f64,
    /// Wall time from the first event until the fleet drained, s.
    pub wall_s: f64,
    /// Process CPU over the same interval, s.
    pub cpu_s: f64,
    /// What the fleet produced.
    pub harvest: Harvest,
    /// Per-journey result digests.
    pub digests: Vec<u64>,
}

/// Set up and run one round; `ops` builds the ops planes (every workload
/// runs with them; the traced pass also runs without, to price them).
pub fn run_round(w: &Workload, seed: u64, ops: bool, probe: Option<&mut EpochProbe>) -> Round {
    let t0 = Instant::now();
    let inputs = generate(w, seed);
    let mut world = build(w, &inputs, seed, ops);
    let setup_s = t0.elapsed().as_secs_f64();
    let cpu0 = cpu_seconds();
    let t1 = Instant::now();
    world.run(probe);
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let harvest = world.harvest();
    let digests = harvest.journeys.iter().map(digest).collect();
    Round { setup_s, wall_s, cpu_s, harvest, digests }
}

/// Gate bookkeeping across rounds.
struct Gate {
    inputs: Vec<JourneyInput>,
    reference: Option<Vec<u64>>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Gate {
    fn new(inputs: Vec<JourneyInput>) -> Gate {
        Gate { inputs, reference: None, attempted: 0, failed: 0, first_failure: None }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Check every journey of `round`, and hold its digest to the first
    /// round's: plain, probed and ops-free runs must all agree.
    fn check(&mut self, round: &Round) {
        let mut failures = Vec::new();
        for (i, (input, j)) in self.inputs.iter().zip(&round.harvest.journeys).enumerate() {
            if let Err(e) = check_journey(input, j) {
                failures
                    .push(format!("journey {i} (cell {}, device {}): {e}", input.cell, input.dev));
            } else {
                let reference = self.reference.get_or_insert_with(|| round.digests.clone());
                if reference[i] != round.digests[i] {
                    failures.push(format!("journey {i}: result digest differs between rounds"));
                }
            }
        }
        self.attempted += round.harvest.journeys.len() as u64;
        for f in failures {
            self.fail(f);
        }
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The timings of a round, kept after its harvest is dropped (so memory
/// does not grow with the number of rounds).
#[derive(Debug, Clone, Copy)]
struct Times {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
}

impl Times {
    fn of(r: &Round) -> Times {
        Times { setup_s: r.setup_s, wall_s: r.wall_s, cpu_s: r.cpu_s }
    }
}

fn times(rounds: &[Times], f: impl Fn(&Times) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

/// Run `w` on `seed` for at least `seconds` of set-up plus runs (and at
/// least [`MIN_ROUNDS`] rounds), untraced or traced.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    if traced {
        run_traced(w, seed, seconds)
    } else {
        run_untraced(w, seed, seconds)
    }
}

/// Where rounds run, and how their timings reduce to one figure.
///
/// A one-shard round runs on a single thread, and the vCPUs of a shared
/// host need not be equally fast: two vCPUs of the reference host measured
/// 16% apart, so a one-shard figure would depend on which one the
/// scheduler happened to pick. One-shard rounds therefore visit every
/// allowed CPU in turn, and a timing is the median over windows of one
/// visit each of the window's mean. Multi-shard rounds keep every CPU for
/// their shard workers, which inherit the affinity of the thread that
/// spawns them, and use windows of one round.
struct Placement {
    cpus: Vec<usize>,
    window: usize,
}

impl Placement {
    fn new(w: &Workload) -> Placement {
        let cpus = allowed_cpus();
        let window = if w.shards == 1 { cpus.len() } else { 1 };
        Placement { cpus, window }
    }

    /// Pin the calling thread for round `i`. If the host refuses, the round
    /// runs unpinned, and its timings still count.
    fn enter(&self, i: usize) {
        if self.window > 1 {
            pin_to(&[self.cpus[i % self.window]]);
        }
    }

    /// Give the calling thread every allowed CPU back.
    fn leave(&self) {
        if self.window > 1 {
            pin_to(&self.cpus);
        }
    }

    /// Another round? At least [`MIN_ROUNDS`] and one window, whole windows
    /// only, and until `seconds` have passed.
    fn keep_going(&self, rounds: usize, start: Instant, seconds: f64) -> bool {
        rounds < MIN_ROUNDS.max(self.window)
            || !rounds.is_multiple_of(self.window)
            || start.elapsed().as_secs_f64() < seconds
    }

    /// Median over windows of the per-window mean of `values`.
    fn median(&self, values: &[f64]) -> f64 {
        let means: Vec<f64> = values
            .chunks_exact(self.window)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        median(&means)
    }
}

fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut gate = Gate::new(generate(w, seed));
    let place = Placement::new(w);
    let mut rounds = Vec::new();
    let mut first = None;
    let start = Instant::now();
    while place.keep_going(rounds.len(), start, seconds) {
        place.enter(rounds.len());
        let r = run_round(w, seed, true, None);
        gate.check(&r);
        rounds.push(Times::of(&r));
        first.get_or_insert(r.harvest);
    }
    place.leave();
    let first = &first.expect("at least one round").journeys;
    let online: Vec<f64> = first
        .iter()
        .filter_map(|j| j.timing.as_ref())
        .map(|t| t.completion.as_micros() as f64 / 1e6)
        .collect();
    let wire: Vec<f64> = first
        .iter()
        .filter_map(|j| j.timing.as_ref())
        .map(|t| (t.pi_bytes + t.result_bytes) as f64 / 1024.0)
        .collect();
    let mut notes = vec![format!(
        "workload {} seed {seed}: {} rounds of {} journeys on {} shard(s), {} core(s) available",
        w.name,
        rounds.len(),
        w.journeys(),
        w.shards,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )];
    // With no completed journey every one failed the gate: no metrics.
    let metrics = if online.is_empty() {
        Vec::new()
    } else {
        let t = tail(&online);
        notes.push(format!("online_s_tail is p{:.1} of {} journeys", t.pct, t.n));
        let journeys = first.len() as f64;
        vec![
            metric("devices_per_s", journeys / place.median(&times(&rounds, |r| r.wall_s)), "1/s"),
            metric(
                "cpu_ms_per_device",
                1e3 * place.median(&times(&rounds, |r| r.cpu_s)) / journeys,
                "ms",
            ),
            metric("setup_s", place.median(&times(&rounds, |r| r.setup_s)), "s"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
            metric("online_s_p50", median(&online), "s"),
            metric("online_s_tail", t.value, "s"),
            metric("wire_kib_per_device", wire.iter().sum::<f64>() / wire.len() as f64, "KiB"),
        ]
    };
    finish(gate, metrics, notes, None)
}

fn finish(
    gate: Gate,
    metrics: Vec<Metric>,
    mut notes: Vec<String>,
    spans: Option<String>,
) -> Report {
    notes.push(format!(
        "deploy_fail_ratio {} ({} of {} journeys failed the gate)",
        gate.failed as f64 / gate.attempted.max(1) as f64,
        gate.failed,
        gate.attempted
    ));
    if let Some(why) = &gate.first_failure {
        notes.push(format!("first failure: {why}"));
    }
    let correct = gate.failed == 0 && !metrics.is_empty();
    Report { correct, attempted: gate.attempted, failed: gate.failed, metrics, notes, spans }
}

/// Per-call percentiles of every span called `name`, as two metrics.
fn span_metrics(out: &mut Vec<Metric>, rec: &Recorder, name: &str) {
    let d = rec.durations(name);
    out.push(metric(format!("{name}_us_p50"), median(&d), "us"));
    out.push(metric(format!("{name}_us_tail"), tail(&d).value, "us"));
}

fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Report {
    let inputs = generate(w, seed);
    let keys: Vec<_> = (0..w.cells).map(|c| gateway_keys(seed, c)).collect();
    let mut gate = Gate::new(inputs.clone());
    let (mut plain, mut probed, mut bare) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Harvest, u64)> = None;
    let mut probe = EpochProbe::default();
    let mut rec = Recorder::new();
    let mut tallies: Vec<CodecTally> = Vec::new();
    let place = Placement::new(w);
    let start = Instant::now();
    while place.keep_going(plain.len(), start, seconds) {
        place.enter(plain.len());
        // Alternate which of the plain and probed runs goes first, so
        // neither always meets a warmer heap.
        let odd = plain.len() % 2 == 1;
        let p = if odd { Some(run_round(w, seed, true, Some(&mut probe))) } else { None };
        let u = run_round(w, seed, true, None);
        let p = p.unwrap_or_else(|| run_round(w, seed, true, Some(&mut probe)));
        gate.check(&u);
        gate.check(&p);
        let b = run_round(w, seed, false, None);
        gate.check(&b);
        bare.push(Times::of(&b));
        let mut tally = CodecTally::default();
        for (i, (input, j)) in inputs.iter().zip(&u.harvest.journeys).enumerate() {
            let Some(sub) = &j.subscription else { continue };
            gate.attempted += 1;
            if let Err(e) =
                replay_journey(i as u32, input, sub, &keys[input.cell], seed, &mut rec, &mut tally)
            {
                gate.fail(format!("replay of journey {i}: {e}"));
            }
        }
        if tallies.first().is_some_and(|t| *t != tally) {
            gate.fail("codec picks or sizes differ between rounds".to_owned());
        }
        tallies.push(tally);
        plain.push(Times::of(&u));
        probed.push(Times::of(&p));
        first.get_or_insert((u.harvest, p.harvest.epochs));
    }
    place.leave();

    let (h, probed_epochs) = first.expect("at least one round");
    let h = &h;
    let journeys = h.journeys.len() as f64;
    let t = &tallies[0];
    let wall_u = place.median(&times(&plain, |r| r.wall_s));
    let wall_p = place.median(&times(&probed, |r| r.wall_s));
    let cpu_ms_per_device = 1e3 * place.median(&times(&plain, |r| r.cpu_s)) / journeys;
    let replayed = (tallies.len() * inputs.len()) as f64;
    let sum_us = |name: &str| rec.durations(name).iter().sum::<f64>();
    let compress_in: u64 = tallies.iter().map(|t| t.compress_in).sum();
    let decompress_out: u64 = tallies.iter().map(|t| t.decompress_out).sum();

    let mut m = Vec::new();
    for name in
        ["core.pack", "core.subscribe_unpack", "core.result_unpack", "xml.write", "xml.parse"]
    {
        span_metrics(&mut m, &rec, name);
    }
    span_metrics(&mut m, &rec, "codec.compress");
    span_metrics(&mut m, &rec, "codec.decompress");
    m.push(metric(
        "codec.compress_mb_per_s",
        compress_in as f64 / sum_us("codec.compress"),
        "MB/s",
    ));
    m.push(metric(
        "codec.decompress_mb_per_s",
        decompress_out as f64 / sum_us("codec.decompress"),
        "MB/s",
    ));
    m.push(metric("codec.ratio", t.compress_in as f64 / t.compress_out as f64, "ratio"));
    for (i, alg) in ["store", "rle", "lzss", "huffman", "lzss_huffman"].iter().enumerate() {
        m.push(metric(format!("codec.pick.{alg}"), t.picks[i] as f64, "count"));
    }
    for name in
        ["crypto.seal", "crypto.open", "gateway.unpack", "gateway.stage", "gateway.result_pack"]
    {
        span_metrics(&mut m, &rec, name);
    }
    m.push(metric("gateway.rejects", h.gateway_rejects as f64, "count"));
    span_metrics(&mut m, &rec, "mas.hop_codec");
    let agent_kib = t.agent_bytes.iter().sum::<u64>() as f64 / 1024.0 / t.agent_bytes.len() as f64;
    m.push(metric("mas.agent_kib", agent_kib, "KiB"));
    span_metrics(&mut m, &rec, "vm.exec");
    m.push(metric("net.events", h.events as f64, "count"));
    m.push(metric("net.events_per_device", h.events as f64 / journeys, "count"));
    m.push(metric("net.events_per_s", h.events as f64 / wall_u, "1/s"));
    m.push(metric("net.peak_queue", h.peak_queue as f64, "count"));
    m.push(metric("net.http_retransmits", h.http_retransmits as f64, "count"));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let active: Vec<f64> = probe.active.iter().map(|&a| f64::from(a)).collect();
    m.push(metric("shard.epochs", probed_epochs as f64, "count"));
    m.push(metric("shard.active_per_epoch", mean(&active), "count"));
    m.push(metric("shard.imbalance", mean(&probe.imbalance), "ratio"));
    m.push(metric("shard.epoch_us_p50", median(&probe.epoch_us), "us"));
    m.push(metric("shard.epoch_us_tail", tail(&probe.epoch_us).value, "us"));
    let ops_share = 1.0 - place.median(&times(&bare, |r| r.wall_s)) / wall_u;
    m.push(metric("ops.overhead_share", ops_share, "ratio"));
    m.push(metric("ops.scrapes", h.scrapes as f64, "count"));
    m.push(metric("ops.federation_kib", h.federation_bytes as f64 / 1024.0, "KiB"));
    let self_ms_per_journey = rec.self_time_us() / 1e3 / replayed;
    m.push(metric("trace.coverage", self_ms_per_journey / cpu_ms_per_device, "ratio"));
    m.push(metric("trace.overhead", wall_p / wall_u - 1.0, "ratio"));

    let notes = vec![format!(
        "workload {} seed {seed} traced: {} rounds of {} journeys, {} epochs probed, {} spans",
        w.name,
        plain.len(),
        inputs.len(),
        probe.active.len(),
        rec.spans.len()
    )];
    finish(gate, m, notes, Some(rec.to_jsonl()))
}
