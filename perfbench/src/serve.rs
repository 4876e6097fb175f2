//! The `serve` workload: live sessions over loopback TCP.
//!
//! Set-up samples a population of session specs from the seed (one
//! `dpm_workloads::board_spec` board per session, the four campaign arms
//! in turn) and starts a `dpm_serve::Server` with auditing on. The load
//! is a closed loop: `jobs` connections, each on its own thread, each
//! driving sessions back to back — `Open`, single-slot `Advance`s to the
//! horizon, three `Query` reads, one `Metrics` scrape, `Close` — and
//! waiting for every reply before it sends the next request. Each
//! request goes out in one write, with default socket options.
//!
//! The traced run adds in-process probes on the same request mix:
//! `Server::handle` per verb, the `serde_json` codec, `Session::advance`
//! with and without auditing, and `AuditState::push` over the streamed
//! telemetry.

use crate::report::{median, quantile, ratio, us, Report};
use crate::Options;
use dpm_core::units::seconds;
use dpm_serve::metrics;
use dpm_serve::protocol::{decode_request, encode_response};
use dpm_serve::{QueryKind, Request, Response, Server, ServerConfig, Session, SessionSpec};
use dpm_trace::{AuditConfig, AuditState};
use dpm_workloads::{board_spec, scenarios, FleetScenarioConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Population size: sessions are drawn from it round-robin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Distinct session specs sampled in set-up.
    pub population: usize,
    /// Charging periods per session.
    pub periods: usize,
}

/// `Server::handle` time per verb, in the order `verb` numbers them.
const HANDLE_METRICS: [&str; 5] = [
    "serve.handle_us.open",
    "serve.handle_us.advance",
    "serve.handle_us.query",
    "serve.handle_us.metrics",
    "serve.handle_us.close",
];

fn verb(req: &Request) -> usize {
    match req {
        Request::Open { .. } => 0,
        Request::Advance { .. } => 1,
        Request::Metrics => 3,
        Request::Close { .. } => 4,
        _ => 2,
    }
}

/// Session specs for the population: board `i` of the fleet sampler,
/// arm `i mod 4`.
fn population(seed: u64, size: Size) -> Result<Vec<SessionSpec>, String> {
    let scenario = scenarios::scenario_one();
    let slots = scenario.charging.len();
    let tau = scenario.charging.slot_width();
    let horizon = seconds(size.periods as f64 * slots as f64 * tau.value());
    let fleet = FleetScenarioConfig::standard(horizon);
    Ok((0..size.population)
        .map(|i| {
            let board = board_spec(&scenario, seed, i, &fleet);
            SessionSpec {
                scenario: scenario.name.clone(),
                governor: crate::campaign::ARMS[i % 4].0.to_string(),
                periods: size.periods,
                initial_charge_j: Some(board.initial_charge.value()),
                phase_slots: board.phase_slots,
                faults: board.faults.iter().map(|(t, d)| (t.value(), *d)).collect(),
            }
        })
        .collect())
}

/// A server on a loopback port, serving on its own thread.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<Result<(), String>>,
}

fn start_server() -> Result<Running, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server = Server::new(ServerConfig { audit: true });
    let thread = std::thread::spawn(move || server.serve_tcp(listener).map_err(|e| e.to_string()));
    Ok(Running { addr, thread })
}

/// One client connection: request out in one write, reply line in.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// One exchange; returns the reply and the client-observed latency.
    fn call(&mut self, req: &Request) -> Result<(Response, Duration), String> {
        let mut out = serde_json::to_string(req).map_err(|e| e.to_string())?;
        out.push('\n');
        self.line.clear();
        let start = Instant::now();
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| e.to_string())?;
        if self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Err("server closed the connection".into());
        }
        let latency = start.elapsed();
        let resp = serde_json::from_str(&self.line).map_err(|e| format!("bad reply: {e}"))?;
        Ok((resp, latency))
    }
}

/// The request script of one session, generated as replies arrive.
/// `exchange` sends a request and returns its reply; the script stops
/// at the first reply that is not the expected one.
fn script(
    name: &str,
    spec: &SessionSpec,
    exchange: &mut dyn FnMut(&Request) -> Result<Response, String>,
) -> Result<(), String> {
    let session = name.to_string();
    let open = exchange(&Request::Open {
        session: session.clone(),
        spec: spec.clone(),
    })?;
    let Response::Opened { .. } = open else {
        return Err(format!("open of {name} answered {open:?}"));
    };
    loop {
        let resp = exchange(&Request::Advance {
            session: session.clone(),
            slots: 1,
        })?;
        let Response::Advanced { done, .. } = resp else {
            return Err(format!("advance of {name} answered {resp:?}"));
        };
        if done {
            break;
        }
    }
    for what in [QueryKind::Plan, QueryKind::Battery, QueryKind::Degradation] {
        let resp = exchange(&Request::Query {
            session: session.clone(),
            what,
        })?;
        if matches!(resp, Response::Error { .. } | Response::Killed { .. }) {
            return Err(format!("query of {name} answered {resp:?}"));
        }
    }
    let scrape = exchange(&Request::Metrics)?;
    match &scrape {
        Response::Metrics { text } => {
            metrics::validate(text).map_err(|e| format!("bad exposition: {e}"))?
        }
        other => return Err(format!("metrics scrape answered {other:?}")),
    }
    let close = exchange(&Request::Close { session })?;
    match &close {
        Response::Closed { audit_ok: true, .. } => {}
        other => return Err(format!("close of {name} answered {other:?}")),
    }
    Ok(())
}

/// What the closed-loop clients saw.
#[derive(Debug, Default)]
pub struct Load {
    /// Client-observed latency per request (ms), with its verb.
    pub latencies: Vec<(usize, f64)>,
    /// Sessions that closed with a green audit.
    pub sessions: u64,
    /// Sessions that failed (error reply, kill, red audit, transport).
    pub failed_sessions: u64,
    /// Requests sent.
    pub requests: u64,
    /// Wall clock from the first request to the last reply (s).
    pub wall: f64,
    /// Summed per-connection time spent inside sessions (s).
    pub session_time: f64,
    /// Most connections that were open at once.
    pub peak_connections: usize,
    /// Failure messages (first few).
    pub errors: Vec<String>,
}

/// Drive sessions over `connections` client threads until `seconds`
/// have passed; every thread runs at least one session and finishes the
/// session it is in.
pub fn closed_loop(
    addr: SocketAddr,
    specs: &[SessionSpec],
    connections: usize,
    seconds: f64,
) -> Load {
    let next = AtomicU64::new(0);
    let open = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_thread: Vec<Load> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut load = Load::default();
                    let now_open = open.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now_open, Ordering::SeqCst);
                    match Conn::open(addr) {
                        Ok(mut conn) => loop {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            let spec = &specs[i as usize % specs.len()];
                            let begun = Instant::now();
                            let mut exchange = |req: &Request| {
                                load.requests += 1;
                                let (resp, latency) = conn.call(req)?;
                                load.latencies
                                    .push((verb(req), latency.as_secs_f64() * 1e3));
                                Ok(resp)
                            };
                            let outcome = script(&format!("s{i}"), spec, &mut exchange);
                            load.session_time += begun.elapsed().as_secs_f64();
                            match outcome {
                                Ok(()) => load.sessions += 1,
                                Err(e) => {
                                    load.failed_sessions += 1;
                                    load.errors.push(e);
                                    break;
                                }
                            }
                            if Instant::now() >= deadline {
                                break;
                            }
                        },
                        Err(e) => {
                            load.failed_sessions += 1;
                            load.errors.push(e);
                        }
                    }
                    open.fetch_sub(1, Ordering::SeqCst);
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Load {
                    failed_sessions: 1,
                    errors: vec!["client thread panicked".into()],
                    ..Load::default()
                })
            })
            .collect()
    });
    let mut total = Load {
        wall: start.elapsed().as_secs_f64(),
        peak_connections: peak.load(Ordering::SeqCst),
        ..Load::default()
    };
    for l in per_thread {
        total.latencies.extend(l.latencies);
        total.sessions += l.sessions;
        total.failed_sessions += l.failed_sessions;
        total.requests += l.requests;
        total.session_time += l.session_time;
        total.errors.extend(l.errors);
    }
    total
}

/// Scrape the server once more and match its census to the run.
fn check_census(addr: SocketAddr, load: &Load, report: &mut Report) -> Result<(), String> {
    let mut conn = Conn::open(addr)?;
    let (resp, _) = conn.call(&Request::Metrics)?;
    let Response::Metrics { text } = resp else {
        return Err(format!("final scrape answered {resp:?}"));
    };
    metrics::validate(&text).map_err(|e| format!("bad exposition: {e}"))?;
    let opened = load.sessions + load.failed_sessions;
    for (metric, want) in [
        ("dpm_serve_sessions_opened_total", opened),
        ("dpm_serve_sessions_closed_total", load.sessions),
        ("dpm_serve_sessions_killed_total", 0),
    ] {
        let got = metrics::sample(&text, metric, &[]).ok_or(format!("scrape lacks {metric}"))?;
        if got != want as f64 {
            report.problem(format!("serve: {metric} is {got}, the run saw {want}"));
        }
    }
    Ok(())
}

fn shutdown(server: Running) -> Result<(), String> {
    let mut conn = Conn::open(server.addr)?;
    let (resp, _) = conn.call(&Request::Shutdown)?;
    drop(conn);
    if !matches!(resp, Response::ShuttingDown) {
        return Err(format!("shutdown answered {resp:?}"));
    }
    server
        .thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
}

/// The serve workload.
pub fn run(opts: &Options, size: Size, report: &mut Report) -> Result<(), String> {
    let mut spec_time = 0.0;
    let ((specs, server), setup_s) = crate::repeated_setup(
        || {
            let start = Instant::now();
            let specs = population(opts.seed, size)?;
            spec_time = start.elapsed().as_secs_f64();
            Ok((specs, start_server()?))
        },
        |(_, old)| shutdown(old),
    )?;
    report.set("setup_s", setup_s);

    // The traced run spends half its time on in-process probes.
    let load_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let load = closed_loop(server.addr, &specs, opts.jobs, load_seconds);
    let census = check_census(server.addr, &load, report);
    shutdown(server)?;
    census?;

    report.attempted += load.requests;
    report.failed += load.failed_sessions;
    for e in load.errors.iter().take(3) {
        report.problem(format!("serve: {e}"));
    }
    if load.peak_connections > opts.jobs {
        report.problem(format!(
            "serve: {} connections were open at once, above the cap of {}",
            load.peak_connections, opts.jobs
        ));
    }
    let latency: Vec<f64> = load.latencies.iter().map(|(_, ms)| *ms).collect();
    // Per-connection rate, summed: each connection's sessions over the
    // time it spent in them, so the last session's tail does not count.
    let sessions_per_s = ratio(
        load.sessions as f64 * load.peak_connections as f64,
        load.session_time,
    );
    report.set("throughput_per_s", sessions_per_s);
    report.set("latency_p50_ms", median(&latency));
    report.set("latency_p90_ms", quantile(&latency, 0.9));
    report.note(format!(
        "serve: {} sessions ({} requests) on {} connections in {:.3} s: \
         sessions_per_s={sessions_per_s:.3} 1/s, request_p50_ms={:.3}, \
         request_p90_ms={:.3} from {} samples",
        load.sessions,
        load.requests,
        load.peak_connections,
        load.wall,
        median(&latency),
        quantile(&latency, 0.9),
        latency.len()
    ));

    if opts.trace {
        report.set(
            "workloads.board_spec_us",
            ratio(spec_time * 1e6, specs.len() as f64),
        );
        let sessions = (load.sessions as usize).clamp(4, specs.len());
        probe(&specs[..sessions], &load, opts.seconds / 2.0, report)?;
    }
    Ok(())
}

/// In-process probes on the same request mix (traced run only).
fn probe(
    specs: &[SessionSpec],
    load: &Load,
    budget: f64,
    report: &mut Report,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(budget.max(0.1));
    let server = Server::new(ServerConfig { audit: true });
    let mut handle = [Duration::ZERO; 5];
    let mut calls = [0u64; 5];
    let mut codec = Duration::ZERO;
    let mut exchanges = 0u64;
    let mut streams: Vec<Vec<String>> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if Instant::now() > deadline && !streams.is_empty() {
            break;
        }
        let mut stream = Vec::new();
        let mut exchange = |req: &Request| -> Result<Response, String> {
            // Codec: the request and its reply, each encoded and decoded
            // once, as one exchange over the wire costs.
            let start = Instant::now();
            let line = serde_json::to_string(req).map_err(|e| e.to_string())?;
            let decoded = decode_request(&line).map_err(|e| e.to_string())?;
            codec += start.elapsed();
            let start = Instant::now();
            let resp = server.handle(&decoded);
            handle[verb(req)] += start.elapsed();
            calls[verb(req)] += 1;
            let start = Instant::now();
            let text = encode_response(&resp);
            let resp: Response = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            codec += start.elapsed();
            exchanges += 1;
            match &resp {
                Response::Opened { telemetry, .. } | Response::Advanced { telemetry, .. } => {
                    stream.extend(telemetry.iter().cloned());
                }
                _ => {}
            }
            Ok(resp)
        };
        script(&format!("p{i}"), spec, &mut exchange)?;
        streams.push(stream);
    }
    for (v, metric) in HANDLE_METRICS.iter().enumerate() {
        report.set(metric, ratio(us(handle[v]), calls[v] as f64));
    }
    let codec_us = ratio(us(codec), exchanges as f64);
    report.set("serve.codec_us", codec_us);

    // Client latency not spent in `handle` or the codec: the socket.
    let handled: Duration = handle.iter().sum();
    let in_process_ms = ratio(handled.as_secs_f64() * 1e3, exchanges as f64) + codec_us / 1e3;
    let client_ms = ratio(
        load.latencies.iter().map(|(_, ms)| ms).sum::<f64>(),
        load.latencies.len() as f64,
    );
    report.set("serve.wait_ms", client_ms - in_process_ms);
    let requested: f64 = load.latencies.iter().map(|(_, ms)| ms / 1e3).sum();
    report.set(
        "unattributed_share",
        1.0 - ratio(requested, load.session_time),
    );

    // The online auditor alone, replayed over the streamed telemetry.
    let (mut pushed, mut push_time) = (0u64, Duration::ZERO);
    for stream in &streams {
        let lines =
            dpm_telemetry::parse_trace_jsonl(&stream.join("\n")).map_err(|e| e.to_string())?;
        let mut state = AuditState::new(AuditConfig::default());
        let start = Instant::now();
        for line in &lines {
            std::hint::black_box(state.push(line));
        }
        push_time += start.elapsed();
        pushed += lines.len() as u64;
        if !state.ok_so_far() {
            report.problem("serve: the replayed stream failed its online audit");
        }
    }
    report.set(
        "trace.push_us_per_line",
        ratio(us(push_time), pushed as f64),
    );

    // `Session::advance` with the auditor against without it.
    let mut advance = [Duration::ZERO; 2];
    for spec in specs.iter().take(streams.len()) {
        for (k, audit) in [true, false].into_iter().enumerate() {
            let mut session = Session::open("probe", spec, audit).map_err(|e| e.to_string())?;
            let start = Instant::now();
            while !session.advance(1).map_err(|e| e.to_string())?.done {}
            advance[k] += start.elapsed();
        }
    }
    let (on, off) = (advance[0].as_secs_f64(), advance[1].as_secs_f64());
    report.set("serve.audit_share", ratio(on - off, on));
    Ok(())
}
