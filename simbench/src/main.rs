//! End-to-end and per-layer benchmark of the mesh multicast simulator.
//!
//! ```text
//! simbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--report PATH]
//! ```
//!
//! Untraced (`--trace 0`) runs measure the end-to-end metrics; traced
//! (`--trace 1`) runs wrap the medium and every protocol instance with
//! timers and report the per-layer split. Both check the simulator's
//! results; a failed check exits non-zero. See README.md for the metrics,
//! the workloads and how to read a traced run.

mod cell;
mod report;
mod timed;
mod workloads;

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use cell::{check_resumed, resume, run_cell, run_production, run_straight, CellRun, Outcome};
use report::{median, quantile, Better, Metric, END_TO_END, PER_LAYER};
use timed::{now, Span, Tally};
use workloads::{assemble_plain, assemble_timed, secs, Workload, DEFAULT_SEED, TOPOLOGY_SEED};

/// Assemblies per cell in untraced runs: `setup_s` is the median of these.
const SETUP_REPS: usize = 8;

/// Restores per cell in untraced runs: `resume_s` is the median of these.
const RESUME_REPS: usize = 10;

/// Traced runs repeat the cell at least this often, so the work counts of
/// two runs can be compared.
const MIN_TRACED_RUNS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: Option<String>,
}

const USAGE: &str =
    "usage: simbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--report PATH]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut report = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = Workload::all().iter().map(|w| w.name).collect();
                workload = Some(Workload::by_name(&name).ok_or(format!(
                    "unknown workload `{name}` (known: {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            "--report" => report = Some(value()?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        report,
    })
}

/// Cell bookkeeping shared by both modes.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    /// Record one attempted cell and the checks it failed.
    fn cell(&mut self, label: &str, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            for e in errors {
                let msg = format!("FAILED {label}: {e}");
                println!("{msg}");
                self.failures.push(msg);
            }
        }
    }
}

/// The pinned-result check, which applies only at the default seed.
fn check_pin(w: &Workload, world_seed: u64, o: &Outcome, errors: &mut Vec<String>) {
    if world_seed != DEFAULT_SEED || TOPOLOGY_SEED != DEFAULT_SEED {
        return;
    }
    let p = w.pin;
    if o.schedule_hash != p.schedule_hash
        || o.delivered != p.delivered
        || o.counters.events != p.events
    {
        errors.push(format!(
            "pinned results differ: hash {:016x} delivered {} events {} (pinned {:016x} / {} / {})",
            o.schedule_hash, o.delivered, o.counters.events, p.schedule_hash, p.delivered, p.events
        ));
    }
}

fn cell_line(tag: &str, run: &CellRun) -> String {
    let o = &run.outcome;
    format!(
        "{tag} world_seed={} events={} delivered={} pdr={:.4} hash={:016x} cell_s={:.4} setup_s={:.5}",
        run.world_seed,
        o.counters.events,
        o.delivered,
        o.pdr,
        o.schedule_hash,
        run.cell_s,
        run.setup.total_s()
    )
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line `{line}`: {e}"))?;
    Ok(kb / 1024.0)
}

fn metric(value: f64, unit: &'static str) -> Metric {
    Metric {
        value,
        unit,
        exact: unit == "count" || unit == "bytes",
    }
}

/// Untraced run: the end-to-end metrics.
fn untraced(
    args: &Args,
    gate: &mut Gate,
    log: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, Metric>, String> {
    let w = &args.workload;
    let start = now();
    let mut setup_s = Vec::new();
    let mut cell_s = Vec::new();
    let mut events_per_s = Vec::new();
    let mut slice_ms = Vec::new();
    let mut resume_s = Vec::new();
    let mut first: BTreeMap<u64, Outcome> = BTreeMap::new();
    let mut peak_rss = None;
    let mut pass = 0usize;
    loop {
        let (mut pass_s, mut pass_events) = (0.0, 0u64);
        for k in 0..w.cells_per_pass {
            let ws = w.cell_seed(args.seed, k);
            let fp = w.fingerprint(TOPOLOGY_SEED, ws);
            let mut errors = Vec::new();
            for _ in 1..SETUP_REPS {
                setup_s.push(assemble_plain(w, TOPOLOGY_SEED, ws).setup.total_s());
            }
            let asm = assemble_plain(w, TOPOLOGY_SEED, ws);
            setup_s.push(asm.setup.total_s());
            let run = run_cell(w, ws, fp, asm, None);
            if pass == 0 && k + 1 == w.cells_per_pass {
                // The peak of the cells themselves: read before this cell's
                // resume checks, which hold a second simulator and two
                // checkpoint copies. Later passes repeat the same cells, and
                // the heap they inherit adds allocator noise.
                peak_rss = Some(peak_rss_mb()?);
            }
            check_pin(w, ws, &run.outcome, &mut errors);
            match first.get(&ws) {
                Some(reference) => {
                    if let Some(d) = run.outcome.diff(reference) {
                        errors.push(format!("repeated cell differs: {d}"));
                    }
                }
                None => {
                    first.insert(ws, run.outcome.clone());
                }
            }
            for rep in 0..RESUME_REPS {
                let r = resume(&run.half, fp, || assemble_plain(w, TOPOLOGY_SEED, ws));
                resume_s.push(r.resume_s);
                let checked = r.asm.and_then(|asm| {
                    // The run's first cell is also resumed to the end.
                    let to_end = (pass == 0 && k == 0 && rep == 0).then_some(&run.outcome);
                    check_resumed(w, ws, fp, &run.half, asm, to_end)
                });
                if let Err(e) = checked {
                    errors.push(e);
                }
            }
            let line = cell_line(&format!("cell pass={pass} k={k}"), &run);
            println!("{line}");
            log.push(line);
            gate.cell(&format!("{} world_seed={ws}", w.name), errors);
            pass_s += run.cell_s;
            pass_events += run.outcome.counters.events;
            slice_ms.extend_from_slice(&run.window_slice_ms);
        }
        cell_s.push(pass_s / w.cells_per_pass as f64);
        events_per_s.push(pass_events as f64 / pass_s);
        pass += 1;
        // Start another pass only if it should end within the budget.
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / pass as f64 > args.seconds {
            break;
        }
    }
    let beyond_p90 = slice_ms.len() - (slice_ms.len() as f64 * 0.9).ceil() as usize;
    let note = format!(
        "samples: {} cell(s) per pass over {pass} pass(es), {} setups, {} resumes, {} data-window slices of {} ms ({beyond_p90} beyond p90)",
        w.cells_per_pass,
        setup_s.len(),
        resume_s.len(),
        slice_ms.len(),
        w.slice().as_nanos() / 1_000_000
    );
    println!("{note}");
    log.push(note);
    let mut m = BTreeMap::new();
    m.insert("setup_s", metric(median(&setup_s), "s"));
    m.insert("cell_s", metric(median(&cell_s), "s"));
    m.insert("events_per_s", metric(median(&events_per_s), "1/s"));
    m.insert("slice_ms.p50", metric(quantile(&slice_ms, 0.5), "ms"));
    m.insert("slice_ms.p90", metric(quantile(&slice_ms, 0.9), "ms"));
    m.insert("resume_s", metric(median(&resume_s), "s"));
    m.insert("peak_rss_mb", metric(peak_rss.expect("one pass ran"), "MB"));
    Ok(m)
}

/// The deterministic work of one traced cell. Two runs of the same cell
/// must agree exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WorkCounts {
    events: u64,
    tx_frames: u64,
    rx_frames: u64,
    fan_out_calls: u64,
    receivers_planned: u64,
    cache_hits: u64,
    cache_refreshes: u64,
    cache_rebuilds: u64,
    positions_changed_calls: u64,
    handler_calls: Vec<(&'static str, u64)>,
    snapshot_bytes: Vec<usize>,
}

impl WorkCounts {
    fn of(run: &CellRun, tally: &Tally) -> WorkCounts {
        let c = &run.outcome.counters;
        let ix = run.index.unwrap_or_default();
        WorkCounts {
            events: c.events,
            tx_frames: c.tx_data.iter().map(|x| x.frames).sum::<u64>() + c.tx_ctrl_frames,
            rx_frames: c.rx_data.iter().map(|x| x.frames).sum(),
            fan_out_calls: tally.get(Span::FanOut).calls,
            receivers_planned: tally.receivers(),
            cache_hits: ix.cache_hits,
            cache_refreshes: ix.cache_refreshes,
            cache_rebuilds: ix.cache_rebuilds,
            positions_changed_calls: tally.get(Span::PositionsChanged).calls,
            handler_calls: Span::ODMRP
                .iter()
                .map(|&s| (s.name(), tally.get(s).calls))
                .collect(),
            snapshot_bytes: run.snaps.iter().map(|s| s.bytes).collect(),
        }
    }

    fn lines(&self) -> Vec<String> {
        let mut out = vec![
            format!("  events                 {}", self.events),
            format!("  tx_frames              {}", self.tx_frames),
            format!("  rx_frames              {}", self.rx_frames),
            format!("  fan_out.calls          {}", self.fan_out_calls),
            format!("  receivers_planned      {}", self.receivers_planned),
            format!("  cache_hits             {}", self.cache_hits),
            format!("  cache_refreshes        {}", self.cache_refreshes),
            format!("  cache_rebuilds         {}", self.cache_rebuilds),
            format!("  positions_changed      {}", self.positions_changed_calls),
        ];
        for (name, calls) in &self.handler_calls {
            out.push(format!("  {:<22} {calls}", format!("{name}.calls")));
        }
        out.push(format!(
            "  snapshot_bytes         {:?}",
            self.snapshot_bytes
        ));
        out
    }
}

/// Per-layer numbers of one traced cell.
fn layer_sample(
    untraced: &CellRun,
    traced: &CellRun,
    tally: &Tally,
    decode_s: f64,
) -> BTreeMap<String, f64> {
    let wall_ns = traced.cell_s * 1e9;
    let self_ns: u64 = traced.spans.iter().map(|s| s.self_ns()).sum();
    let wc = WorkCounts::of(traced, tally);
    let c = &traced.outcome.counters;
    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    put("scenario.layout_ms", untraced.setup.layout_s * 1e3);
    put("scenario.build_ms", untraced.setup.build_s * 1e3);
    put("world.self_ms", self_ns as f64 / 1e6);
    put("world.self_share", self_ns as f64 / wall_ns);
    put("world.self_ns_per_event", self_ns as f64 / wc.events as f64);
    put("world.events", wc.events as f64);
    put(
        "world.events_per_frame",
        wc.events as f64 / wc.tx_frames as f64,
    );
    put(
        "world.frames_in_flight.peak",
        traced.frames_in_flight_peak as f64,
    );
    put("world.tx_frames", wc.tx_frames as f64);
    put("world.rx_frames", wc.rx_frames as f64);
    put("world.collisions", c.collisions as f64);
    put("world.queue_drops", c.queue_drops as f64);
    put("world.retries", c.retries as f64);
    let fan = tally.get(Span::FanOut);
    put("medium.fan_out.calls", fan.calls as f64);
    put(
        "medium.fan_out.ns_per_call",
        fan.ns as f64 / fan.calls as f64,
    );
    put("medium.fan_out.share", fan.ns as f64 / wall_ns);
    put(
        "medium.fan_out.rx_per_call",
        wc.receivers_planned as f64 / fan.calls as f64,
    );
    put("medium.fan_out.receivers", wc.receivers_planned as f64);
    let lookups = wc.cache_hits + wc.cache_refreshes + wc.cache_rebuilds;
    put(
        "medium.cache_hit_ratio",
        wc.cache_hits as f64 / lookups.max(1) as f64,
    );
    put("medium.cache_hits", wc.cache_hits as f64);
    put("medium.cache_refreshes", wc.cache_refreshes as f64);
    put("medium.cache_rebuilds", wc.cache_rebuilds as f64);
    let pos = tally.get(Span::PositionsChanged);
    put("medium.positions_changed.calls", pos.calls as f64);
    put("medium.positions_changed.share", pos.ns as f64 / wall_ns);
    let (mut calls, mut odmrp_ns) = (0u64, 0u64);
    for s in Span::ODMRP {
        let a = tally.get(s);
        calls += a.calls;
        odmrp_ns += a.ns;
        put(&format!("{}.calls", s.name()), a.calls as f64);
        put(&format!("{}.share", s.name()), a.ns as f64 / wall_ns);
    }
    put("odmrp.calls", calls as f64);
    put("odmrp.ns_per_call", odmrp_ns as f64 / calls as f64);
    put("odmrp.share", odmrp_ns as f64 / wall_ns);
    let enc: Vec<f64> = traced
        .snaps
        .iter()
        .map(|s| (s.wall_ns.1 - s.wall_ns.0) as f64 / 1e6)
        .collect();
    put("snapshot.encode_ms", median(&enc));
    put("snapshot.decode_ms", decode_s * 1e3);
    put("snapshot.bytes", traced.half.len() as f64);
    m
}

/// ns per call of each handler kind, for the text report.
fn handler_cost_lines(tally: &Tally) -> Vec<String> {
    Span::ALL
        .iter()
        .map(|&s| {
            let a = tally.get(s);
            let per = if a.calls == 0 {
                0.0
            } else {
                a.ns as f64 / a.calls as f64
            };
            format!(
                "  {:<26} calls {:>10}  total {:>10.3} ms  {:>9.1} ns/call",
                s.name(),
                a.calls,
                a.ns as f64 / 1e6,
                per
            )
        })
        .collect()
}

struct Traced {
    metrics: BTreeMap<&'static str, Metric>,
    counts: Option<WorkCounts>,
    spans: Vec<(usize, CellRun)>,
}

/// Traced run: the per-layer metrics, the rebuilt-simulator guard and the
/// traced-equals-untraced and repeat-equals checks.
fn traced(args: &Args, gate: &mut Gate, log: &mut Vec<String>) -> Traced {
    let w = &args.workload;
    let start = now();

    // Guard: the benchmark's own assembly, with every wrapper in place,
    // must reproduce the production path exactly.
    let production = run_production(w, args.seed);
    let guard_tally = Rc::new(Tally::default());
    let rebuilt = run_straight(
        w,
        args.seed,
        assemble_timed(w, args.seed, args.seed, &guard_tally),
    );
    let mut errors = Vec::new();
    check_pin(w, args.seed, &production, &mut errors);
    if let Some(d) = rebuilt.diff(&production) {
        errors.push(format!(
            "traced rebuild drifts from WorkloadScenario::run_once: {d}"
        ));
    }
    let line = format!(
        "guard seed={} production hash={:016x} rebuilt hash={:016x} pdr={:.4}",
        args.seed, production.schedule_hash, rebuilt.schedule_hash, production.pdr
    );
    println!("{line}");
    log.push(line);
    gate.cell(&format!("{} guard seed={}", w.name, args.seed), errors);

    let ws = w.cell_seed(args.seed, 0);
    let fp = w.fingerprint(TOPOLOGY_SEED, ws);
    let mut samples: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut counts: Option<WorkCounts> = None;
    let mut spans = Vec::new();
    let mut last_tally = None;
    let mut i = 0usize;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if i >= MIN_TRACED_RUNS && elapsed + elapsed / (i + 1) as f64 > args.seconds {
            break;
        }
        let plain = run_cell(w, ws, fp, assemble_plain(w, TOPOLOGY_SEED, ws), None);
        let mut errors = Vec::new();
        check_pin(w, ws, &plain.outcome, &mut errors);
        gate.cell(&format!("{} untraced world_seed={ws}", w.name), errors);

        let tally = Rc::new(Tally::default());
        let run = run_cell(
            w,
            ws,
            fp,
            assemble_timed(w, TOPOLOGY_SEED, ws, &tally),
            Some(&tally),
        );
        let mut errors = Vec::new();
        if let Some(d) = run.outcome.diff(&plain.outcome) {
            errors.push(format!("traced run differs from untraced: {d}"));
        }
        let wc = WorkCounts::of(&run, &tally);
        match &counts {
            Some(reference) if *reference != wc => {
                errors.push("work counts differ between two traced runs of one cell".to_string())
            }
            Some(_) => {}
            None => counts = Some(wc),
        }
        let r = resume(&run.half, fp, || {
            assemble_timed(w, TOPOLOGY_SEED, ws, &Rc::new(Tally::default()))
        });
        let to_end = (i == 0).then_some(&plain.outcome);
        if let Err(e) = r
            .asm
            .and_then(|asm| check_resumed(w, ws, fp, &run.half, asm, to_end))
        {
            errors.push(e);
        }
        gate.cell(&format!("{} traced world_seed={ws}", w.name), errors);

        let line = format!(
            "{}\n{}",
            cell_line(&format!("untraced run={i}"), &plain),
            cell_line(&format!("traced   run={i}"), &run)
        );
        println!("{line}");
        log.push(line);
        untraced_s.push(plain.cell_s);
        traced_s.push(run.cell_s);
        samples.push(layer_sample(&plain, &run, &tally, r.decode_s));
        last_tally = Some(tally);
        spans.push((
            i,
            CellRun {
                half: Vec::new(),
                ..run
            },
        ));
        i += 1;
    }

    let mut metrics = BTreeMap::new();
    for &(name, unit) in PER_LAYER.iter() {
        let values: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.get(name).copied())
            .collect();
        if !values.is_empty() {
            metrics.insert(name, metric(median(&values), unit));
        }
    }
    let (u, t) = (median(&untraced_s), median(&traced_s));
    metrics.insert("trace.overhead_share", metric(t / u - 1.0, "fraction"));
    metrics.insert("trace.untraced_cell_s", metric(u, "s"));
    metrics.insert("trace.traced_cell_s", metric(t, "s"));
    for &(name, _) in PER_LAYER.iter() {
        assert!(
            metrics.contains_key(name),
            "per-layer metric {name} not measured"
        );
    }
    if let Some(tally) = last_tally {
        let mut lines = vec![
            "span costs of the last traced cell (spans include Ctx sends into the MAC queue):"
                .to_string(),
        ];
        lines.extend(handler_cost_lines(&tally));
        for l in &lines {
            println!("{l}");
        }
        log.extend(lines);
    }
    Traced {
        metrics,
        counts,
        spans,
    }
}

fn spans_json(spans: &[(usize, CellRun)]) -> String {
    let mut out = Vec::new();
    for (cell, run) in spans {
        for (i, s) in run.spans.iter().enumerate() {
            let children: Vec<String> = Span::ALL
                .iter()
                .zip(s.children.iter())
                .filter(|(_, a)| a.calls > 0)
                .map(|(k, a)| {
                    format!(
                        "{{\"name\": \"{}\", \"calls\": {}, \"ns\": {}}}",
                        k.name(),
                        a.calls,
                        a.ns
                    )
                })
                .collect();
            out.push(format!(
                "{{\"cell\": {cell}, \"name\": \"world.run_until\", \"slice\": {i}, \"sim_ns\": [{}, {}], \"wall_ns\": [{}, {}], \"self_ns\": {}, \"children\": [{}]}}",
                s.sim_ns.0,
                s.sim_ns.1,
                s.wall_ns.0,
                s.wall_ns.1,
                s.self_ns(),
                children.join(", ")
            ));
        }
        for s in &run.snaps {
            out.push(format!(
                "{{\"cell\": {cell}, \"name\": \"snapshot.encode\", \"sim_ns\": {}, \"wall_ns\": [{}, {}], \"bytes\": {}}}",
                s.sim_ns, s.wall_ns.0, s.wall_ns.1, s.bytes
            ));
        }
    }
    format!("[\n{}\n]", out.join(",\n"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    let started: Instant = now();
    let header = format!(
        "simbench workload={} seed={} seconds={} trace={} variant={} horizon_s={} slice_ms={} cells_per_pass={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.variant,
        w.horizon().as_secs_f64(),
        w.slice().as_nanos() / 1_000_000,
        w.cells_per_pass
    );
    println!("{header}");
    let mut log = vec![header];
    let mut gate = Gate::default();
    let (metrics, counts, spans, better): (_, _, _, fn(&str) -> Better) = if args.trace {
        let t = traced(&args, &mut gate, &mut log);
        (t.metrics, t.counts, t.spans, |_| Better::Neither)
    } else {
        match untraced(&args, &mut gate, &mut log) {
            Ok(m) => (m, None, Vec::new(), |name| {
                END_TO_END
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or(Better::Neither, |m| m.2)
            }),
            Err(e) => {
                eprintln!("simbench: {e}");
                std::process::exit(1);
            }
        }
    };
    let mut text = String::new();
    text.push_str(if args.trace {
        "per-layer metrics (median over traced runs):\n"
    } else {
        "end-to-end metrics (median over passes; slices pooled):\n"
    });
    text.push_str(&report::metric_table(&metrics, better));
    if let Some(c) = &counts {
        text.push_str("deterministic work counts (one traced cell; identical across runs):\n");
        for l in c.lines() {
            text.push_str(&l);
            text.push('\n');
        }
    }
    let summary = format!(
        "cells attempted {} failed {} (cells_failed {:.4}); wall {:.1} s",
        gate.attempted,
        gate.failed,
        gate.failed as f64 / gate.attempted.max(1) as f64,
        secs(started, now())
    );
    for f in &gate.failures {
        text.push_str(f);
        text.push('\n');
    }
    text.push_str(&summary);
    println!("{text}");
    log.push(text);
    let correct = gate.failed == 0;
    let line = report::result_line(correct, gate.attempted, gate.failed, &metrics);
    if let Some(path) = &args.report {
        let body = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"text\": {}, \"result\": {line}, \"spans\": {}}}\n",
            report::json_str(w.name),
            args.seed,
            args.trace,
            report::json_str(&log.join("\n")),
            spans_json(&spans)
        );
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("simbench: cannot write report {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
