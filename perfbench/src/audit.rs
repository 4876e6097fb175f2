//! The `audit` workload: batch parsing and auditing of a campaign trace.
//!
//! Set-up records a governed campaign (the `campaign` workload's points,
//! 64 fault plans × 4 arms × 8 periods) with the program's own enabled
//! `Recorder` and serializes it with `to_jsonl`. The timed passes run
//! `Trace::parse` and then `dpm_trace::audit` over that document. The
//! recorder's event ring is left at its shipped capacity, so the events
//! it drops are reported as measured.

use crate::campaign::{self, SetupTiming};
use crate::report::{median, ratio, us, Report};
use crate::Options;
use dpm_sim::prelude::Recorder;
use dpm_trace::{audit, AuditConfig, Trace};
use std::time::{Duration, Instant};

/// One recorded trace document and what it cost to make.
struct Recorded {
    doc: String,
    lines: usize,
    recorded: u64,
    dropped: u64,
    record: Duration,
    to_jsonl: Duration,
    setup: SetupTiming,
}

fn record(opts: &Options, size: campaign::Size) -> Result<Recorded, String> {
    let (inputs, setup) = campaign::setup(opts.seed, size)?;
    let recorder = Recorder::enabled("campaign");
    let start = Instant::now();
    let pass = campaign::pass(&inputs, opts.jobs, &recorder, false);
    let record = start.elapsed();
    if pass.failures > 0 {
        return Err(format!("{} recorded campaign points failed", pass.failures));
    }
    let start = Instant::now();
    let doc = recorder.to_jsonl();
    let to_jsonl = start.elapsed();
    let dropped = recorder.dropped();
    Ok(Recorded {
        lines: doc.lines().count(),
        doc,
        recorded: recorder.event_count() as u64 + dropped,
        dropped,
        record,
        to_jsonl,
        setup,
    })
}

/// One parse + audit pass.
struct Pass {
    wall: Duration,
    parse: Duration,
    audit: Duration,
    ok: bool,
    checks: usize,
}

fn pass(doc: &str, traced: bool) -> Pass {
    let start = Instant::now();
    let trace = Trace::parse(doc);
    let parsed = traced.then(Instant::now);
    let report = trace
        .as_ref()
        .ok()
        .map(|t| audit(t, &AuditConfig::default()));
    let audited = traced.then(Instant::now);
    let (ok, checks) = report.map_or((false, 0), |r| (r.ok(), r.checks));
    drop(trace);
    let wall = start.elapsed();
    let (parse, audit) = match (parsed, audited) {
        (Some(p), Some(a)) => (p - start, a - p),
        _ => (Duration::ZERO, Duration::ZERO),
    };
    Pass {
        wall,
        parse,
        audit,
        ok,
        checks,
    }
}

/// The audit workload.
pub fn run(opts: &Options, size: campaign::Size, report: &mut Report) -> Result<(), String> {
    let mut recording = Vec::new();
    // Set-up takes longer than a pass, so it is not repeated between
    // passes.
    let (rec, setup_s) = crate::repeated_setup(
        || {
            let rec = record(opts, size)?;
            recording.push(rec.record.as_secs_f64());
            Ok(rec)
        },
        |_| Ok(()),
    )?;
    report.set("setup_s", setup_s);
    let (untraced, traced) = crate::timed_passes(opts, |t| pass(&rec.doc, t), || Ok(()))?;
    for p in untraced.iter().chain(&traced) {
        if !p.ok {
            report.problem("audit: the recorded campaign trace failed to parse or audit");
        }
        if p.checks != untraced[0].checks {
            report.problem("audit: two passes over one trace performed different checks");
        }
    }
    let mut wall = 0.0;
    for p in &untraced {
        report.attempted += 1;
        report.failed += u64::from(!p.ok);
        wall += p.wall.as_secs_f64();
    }
    // One trace is one distinct operation: its latency is its fastest
    // pass (see `crate::fastest_jobs`), so p50 and p90 coincide.
    let fastest = untraced
        .iter()
        .map(|p| p.wall.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let lines_per_s = ratio(rec.lines as f64, fastest);
    report.set("throughput_per_s", lines_per_s);
    report.set("latency_p50_ms", fastest * 1e3);
    report.set("latency_p90_ms", fastest * 1e3);
    report.note(format!(
        "audit: {}-line trace, fastest of {} passes: lines_per_s={lines_per_s:.0} 1/s \
         (mean over passes {:.0} 1/s); the recorder dropped {} of {} events \
         (dropped_share={:.4})",
        rec.lines,
        untraced.len(),
        ratio((rec.lines * untraced.len()) as f64, wall),
        rec.dropped,
        rec.recorded,
        ratio(rec.dropped as f64, rec.recorded as f64)
    ));

    if opts.trace {
        let (mut parse, mut audited, mut traced_wall) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for p in &traced {
            parse += p.parse;
            audited += p.audit;
            traced_wall += p.wall;
        }
        let lines = (rec.lines * traced.len()) as f64;
        report.set("trace.parse_us_per_line", ratio(us(parse), lines));
        report.set("trace.audit_us_per_line", ratio(us(audited), lines));
        report.set(
            "unattributed_share",
            1.0 - ratio((parse + audited).as_secs_f64(), traced_wall.as_secs_f64()),
        );
        crate::set_tracing_overhead(
            report,
            wall / untraced.len() as f64,
            traced_wall.as_secs_f64() / traced.len().max(1) as f64,
        );
        report.set(
            "telemetry.to_jsonl_us_per_line",
            ratio(us(rec.to_jsonl), rec.lines as f64),
        );
        report.set("telemetry.events_recorded", rec.recorded as f64);
        report.set("telemetry.events_dropped", rec.dropped as f64);
        campaign::set_setup_layers(report, &rec.setup);

        // The recorder's cost: the same points with it disabled.
        let (inputs, _) = campaign::setup(opts.seed, size)?;
        let mut off = Vec::new();
        for _ in 0..recording.len() {
            let start = Instant::now();
            campaign::pass(&inputs, opts.jobs, &Recorder::disabled(), false);
            off.push(start.elapsed().as_secs_f64());
        }
        let on = median(&recording);
        report.set("telemetry.overhead_share", ratio(on - median(&off), on));
    }
    Ok(())
}
