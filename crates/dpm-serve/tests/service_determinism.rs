//! End-to-end determinism gates for the `dpm-serve` binary:
//!
//! - a fixed `--stdio` request script produces **byte-identical** output
//!   (and thus a byte-identical telemetry stream) across runs;
//! - a session driven over TCP returns the **same batch trace** as the
//!   identical script over stdio, even while other concurrent sessions
//!   hammer the same server — per-session traces are independent of
//!   transport and of neighbour load;
//! - the loadgen client round-trips a small fleet population cleanly
//!   (exit 0) and gets a corrupted session killed (exit 1).

use dpm_serve::protocol::{QueryKind, Request, Response, SessionSpec};
use dpm_sim::prelude::Disturbance;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_dpm-serve");

fn spec_with_faults() -> SessionSpec {
    let mut spec = SessionSpec::plain("scenario-1", "proposed+safe", 1);
    spec.initial_charge_j = Some(7.0);
    spec.phase_slots = 2;
    spec.faults = vec![
        (
            300.0,
            Disturbance::SupplyScale {
                factor: 0.4,
                duration: dpm_core::units::seconds(600.0),
            },
        ),
        (1200.0, Disturbance::EventBurst { count: 4 }),
    ];
    spec
}

/// The canonical request script driving one session named `name`.
fn session_script(name: &str) -> Vec<Request> {
    vec![
        Request::Open {
            session: name.to_string(),
            spec: spec_with_faults(),
        },
        Request::Advance {
            session: name.to_string(),
            slots: 3,
        },
        Request::SetRates {
            session: name.to_string(),
            rates: vec![0.25, 0.1, 0.4],
        },
        Request::Disturb {
            session: name.to_string(),
            at_s: 2000.0,
            disturbance: Disturbance::ChargingDropout {
                duration: dpm_core::units::seconds(400.0),
            },
        },
        Request::Query {
            session: name.to_string(),
            what: QueryKind::Battery,
        },
        Request::Advance {
            session: name.to_string(),
            slots: 64,
        },
        Request::Query {
            session: name.to_string(),
            what: QueryKind::Degradation,
        },
        Request::Close {
            session: name.to_string(),
        },
    ]
}

fn encode_script(reqs: &[Request], shutdown: bool) -> String {
    let mut lines: Vec<String> = reqs
        .iter()
        .map(|r| serde_json::to_string(r).expect("encode request"))
        .collect();
    if shutdown {
        lines.push("\"Shutdown\"".to_string());
    }
    lines.join("\n")
}

fn run_stdio(script: &str) -> (i32, String) {
    let mut child = Command::new(BIN)
        .args(["stdio", "--audit"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn dpm-serve stdio");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let output = child.wait_with_output().expect("wait");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8(output.stdout).expect("utf8"),
    )
}

/// Extract the `trace` document from the one `Closed` response in a
/// transcript.
fn closed_trace(transcript: &str) -> Vec<String> {
    for line in transcript.lines() {
        if let Ok(Response::Closed {
            trace, audit_ok, ..
        }) = serde_json::from_str(line)
        {
            assert!(audit_ok, "session must audit green");
            return trace;
        }
    }
    panic!("no Closed response in transcript");
}

#[test]
fn stdio_transcripts_are_byte_identical_across_runs() {
    let script = encode_script(&session_script("det"), true);
    let (code_a, out_a) = run_stdio(&script);
    let (code_b, out_b) = run_stdio(&script);
    assert_eq!(code_a, 0);
    assert_eq!(code_b, 0);
    assert!(!out_a.is_empty());
    assert_eq!(out_a, out_b, "stdio transcripts must be byte-identical");
}

#[test]
fn stdio_answers_hostile_nesting_with_errors_and_keeps_serving() {
    let deep = "[".repeat(100_000);
    let open = serde_json::to_string(&Request::Open {
        session: "after".into(),
        spec: SessionSpec::plain("scenario-1", "proposed", 1),
    })
    .expect("encode");
    // The same deep value hidden in an unknown key, which the decoder
    // skips but must still walk.
    let hidden = format!("{{\"Open\":{{\"session\":\"x\",\"x\":{deep}}}}}");
    let script = [deep.as_str(), &open, &hidden].join("\n");
    let (code, transcript) = run_stdio(&script);
    assert_eq!(code, 0, "stdio must survive deep nesting");
    let replies: Vec<Response> = transcript
        .lines()
        .map(|l| serde_json::from_str(l).expect("reply decodes"))
        .collect();
    assert!(
        matches!(replies.as_slice(), [Response::Error { .. }, Response::Opened { .. }, Response::Error { message }]
            if message.contains("nesting deeper than")),
        "got {transcript}"
    );
}

struct ServerHandle {
    child: Child,
    addr: String,
}

fn spawn_server() -> ServerHandle {
    let mut child = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0", "--audit"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn dpm-serve serve");
    let stdout = child.stdout.take().expect("stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("addr in listen line")
        .to_string();
    ServerHandle { child, addr }
}

fn shutdown_server(mut handle: ServerHandle) {
    if let Ok(stream) = TcpStream::connect(&handle.addr) {
        let mut writer = stream;
        let _ = writeln!(writer, "\"Shutdown\"");
        let _ = writer.flush();
        let mut buf = String::new();
        let _ = writer.read_to_string(&mut buf);
    }
    let status = handle.child.wait().expect("server exit");
    assert_eq!(status.code(), Some(0), "server must shut down cleanly");
}

/// Drive `reqs` over one TCP connection, returning the raw response
/// lines.
fn drive_tcp(addr: &str, reqs: &[Request]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut responses = Vec::with_capacity(reqs.len());
    for req in reqs {
        let line = serde_json::to_string(req).expect("encode");
        writeln!(writer, "{line}").expect("send");
        writer.flush().expect("flush");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        assert!(!resp.is_empty(), "server closed early");
        responses.push(resp.trim().to_string());
    }
    responses
}

#[test]
fn tcp_sessions_match_stdio_traces_under_concurrent_load() {
    // Reference: the same script through the deterministic stdio mode.
    let script = encode_script(&session_script("ref"), true);
    let (code, transcript) = run_stdio(&script);
    assert_eq!(code, 0);
    let reference = closed_trace(&transcript);

    let server = spawn_server();
    let addr = server.addr.clone();
    let traces = crossbeam::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let addr = addr.clone();
                s.spawn(move |_| {
                    let name = format!("tcp-{i}");
                    let responses = drive_tcp(&addr, &session_script(&name));
                    let joined = responses.join("\n");
                    closed_trace(&joined)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    })
    .expect("scope");
    shutdown_server(server);

    for (i, trace) in traces.iter().enumerate() {
        assert_eq!(
            trace, &reference,
            "session tcp-{i}: TCP trace must equal the stdio trace"
        );
    }
}

#[test]
fn stdio_metrics_snapshots_are_byte_identical_across_runs() {
    // A script that scrapes mid-run and again after more progress.
    let mut reqs = vec![
        Request::Open {
            session: "m0".to_string(),
            spec: spec_with_faults(),
        },
        Request::Advance {
            session: "m0".to_string(),
            slots: 5,
        },
        Request::Metrics,
        Request::Advance {
            session: "m0".to_string(),
            slots: 7,
        },
    ];
    reqs.push(Request::Metrics);
    let script = encode_script(&reqs, true);

    let extract = |transcript: &str| -> Vec<String> {
        transcript
            .lines()
            .filter_map(|l| match serde_json::from_str(l) {
                Ok(Response::Metrics { text }) => Some(text),
                _ => None,
            })
            .collect()
    };

    let (code_a, out_a) = run_stdio(&script);
    let (code_b, out_b) = run_stdio(&script);
    assert_eq!(code_a, 0);
    assert_eq!(code_b, 0);
    let snaps_a = extract(&out_a);
    let snaps_b = extract(&out_b);
    assert_eq!(snaps_a.len(), 2, "two scrapes in the script");
    assert_eq!(snaps_a, snaps_b, "metrics snapshots must be byte-identical");
    for snap in &snaps_a {
        dpm_serve::metrics::validate(snap).expect("snapshot validates");
    }
    // The scrapes see the session's live progress.
    assert_eq!(
        dpm_serve::metrics::sample(
            &snaps_a[0],
            "dpm_session_slots_stepped_total",
            &[("session", "m0")]
        ),
        Some(5.0)
    );
    assert_eq!(
        dpm_serve::metrics::sample(
            &snaps_a[1],
            "dpm_session_slots_stepped_total",
            &[("session", "m0")]
        ),
        Some(12.0)
    );
}

#[test]
fn tcp_scrapes_validate_under_concurrent_sessions() {
    let server = spawn_server();
    let addr = server.addr.clone();

    // Three sessions, opened and advanced partway — all still live.
    let mut conns = Vec::new();
    for i in 0..3 {
        let name = format!("live-{i}");
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        for req in [
            Request::Open {
                session: name.clone(),
                spec: spec_with_faults(),
            },
            Request::Advance {
                session: name.clone(),
                slots: 4,
            },
        ] {
            let line = serde_json::to_string(&req).expect("encode");
            writeln!(writer, "{line}").expect("send");
            writer.flush().expect("flush");
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("recv");
            assert!(
                !resp.contains("Error"),
                "setup request failed for {name}: {resp}"
            );
        }
        conns.push((name, reader, writer));
    }

    // Scrape from a fresh connection while all three stay open.
    let text = {
        let responses = drive_tcp(&addr, &[Request::Metrics]);
        match serde_json::from_str(&responses[0]) {
            Ok(Response::Metrics { text }) => text,
            other => panic!("unexpected metrics reply: {other:?}"),
        }
    };
    dpm_serve::metrics::validate(&text).expect("scrape validates");
    assert_eq!(
        dpm_serve::metrics::sample(&text, "dpm_serve_sessions_open", &[]),
        Some(3.0)
    );
    for i in 0..3 {
        let name = format!("live-{i}");
        assert_eq!(
            dpm_serve::metrics::sample(
                &text,
                "dpm_session_slots_stepped_total",
                &[("session", &name)]
            ),
            Some(4.0),
            "{name}"
        );
    }

    // Drain the sessions cleanly, then stop the server.
    for (name, mut reader, mut writer) in conns {
        let line = serde_json::to_string(&Request::Close {
            session: name.clone(),
        })
        .expect("encode");
        writeln!(writer, "{line}").expect("send close");
        writer.flush().expect("flush");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv close");
        assert!(resp.contains("Closed"), "{name}: {resp}");
    }
    shutdown_server(server);
}

#[test]
fn loadgen_round_trips_a_clean_fleet_and_kills_a_corrupt_one() {
    // Clean population: exit 0, with a validated post-run scrape.
    let server = spawn_server();
    let metrics_path =
        std::env::temp_dir().join(format!("dpm_loadgen_metrics_{}.prom", std::process::id()));
    let status = Command::new(BIN)
        .args([
            "loadgen",
            "--addr",
            &server.addr,
            "--sessions",
            "3",
            "--periods",
            "1",
            "--seed",
            "7",
            "--metrics",
            &metrics_path.display().to_string(),
        ])
        .status()
        .expect("loadgen clean");
    assert_eq!(status.code(), Some(0), "clean fleet must exit 0");
    let text = std::fs::read_to_string(&metrics_path).expect("metrics file");
    let _ = std::fs::remove_file(&metrics_path);
    dpm_serve::metrics::validate(&text).expect("loadgen scrape validates");
    assert_eq!(
        dpm_serve::metrics::sample(&text, "dpm_serve_sessions_closed_total", &[]),
        Some(3.0)
    );

    // Corrupted session: the auditor must kill it, exit 1.
    let status = Command::new(BIN)
        .args([
            "loadgen",
            "--addr",
            &server.addr,
            "--sessions",
            "3",
            "--periods",
            "1",
            "--seed",
            "7",
            "--corrupt-session",
            "1",
        ])
        .status()
        .expect("loadgen corrupt");
    assert_eq!(
        status.code(),
        Some(1),
        "a detected corruption must exit 1 (2 means undetected)"
    );
    shutdown_server(server);
}
