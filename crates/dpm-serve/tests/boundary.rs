//! Hostile values at the session boundary, driven through `dpm-serve
//! stdio --audit` with a deadline:
//!
//! - an `EventBurst` of any size is admitted in one step, so the next
//!   `Advance` answers at once and the drops are counted;
//! - a non-finite charge, fault time or fault parameter gets an `Error`
//!   reply instead of reaching the trace, and the session keeps serving;
//! - a session with an enormous horizon opens and steps without
//!   allocating anything sized by it.

use dpm_serve::protocol::Response;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run a raw NDJSON script through `stdio --audit`; panics unless the
/// server has answered everything and exited within 20 s.
fn run_stdio(lines: &[String]) -> Vec<Response> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dpm-serve"))
        .args(["stdio", "--audit"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dpm-serve stdio");
    let script = format!("{}\n\"Shutdown\"\n", lines.join("\n"));
    let mut stdin = child.stdin.take().expect("stdin");
    stdin.write_all(script.as_bytes()).expect("write script");
    drop(stdin);
    let started = Instant::now();
    while child.try_wait().expect("poll").is_none() {
        if started.elapsed() > Duration::from_secs(20) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("dpm-serve did not answer within 20 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut out = String::new();
    let mut stdout = child.stdout.take().expect("stdout");
    stdout.read_to_string(&mut out).expect("read transcript");
    out.lines()
        .map(|l| serde_json::from_str(l).expect("reply decodes"))
        .collect()
}

fn open(session: &str, periods: &str, charge: &str, faults: &str) -> String {
    format!(
        r#"{{"Open":{{"session":"{session}","spec":{{"scenario":"scenario-1","governor":"proposed+safe","periods":{periods},"initial_charge_j":{charge},"phase_slots":0,"faults":[{faults}]}}}}}}"#
    )
}

fn disturb(session: &str, at_s: &str, disturbance: &str) -> String {
    format!(r#"{{"Disturb":{{"session":"{session}","at_s":{at_s},"disturbance":{disturbance}}}}}"#)
}

fn advance(session: &str, slots: u64) -> String {
    format!(r#"{{"Advance":{{"session":"{session}","slots":{slots}}}}}"#)
}

fn close(session: &str) -> String {
    format!(r#"{{"Close":{{"session":"{session}"}}}}"#)
}

fn is_finite_error(reply: &Response) -> bool {
    matches!(reply, Response::Error { message } if message.contains("must be finite"))
}

#[test]
fn a_max_count_burst_is_answered_and_its_drops_counted() {
    let burst = r#"{"EventBurst":{"count":18446744073709551615}}"#;
    let replies = run_stdio(&[
        open("b", "1", "null", ""),
        disturb("b", "1.0", burst),
        advance("b", 2),
        close("b"),
    ]);
    assert!(
        matches!(replies[2], Response::Advanced { slot: 2, .. }),
        "{replies:?}"
    );
    let Response::Closed {
        audit_ok, trace, ..
    } = &replies[3]
    else {
        panic!("expected Closed, got {:?}", replies[3]);
    };
    assert!(audit_ok, "the session must audit green");
    let key = r#""Counter":{"name":"sim.jobs_dropped","value":"#;
    let dropped: f64 = trace
        .iter()
        .find_map(|l| l.split_once(key)?.1.split('}').next()?.parse().ok())
        .expect("drop counter in the trace");
    assert!(dropped >= 1.8e19, "the overflow is counted: {dropped}");
}

#[test]
fn non_finite_values_get_errors_and_the_session_keeps_serving() {
    let scale = r#"{"SupplyScale":{"factor":1e400,"duration":1e400}}"#;
    let noise = r#"{"SensorNoise":{"amplitude":1e400,"duration":1.0,"seed":1}}"#;
    let burst = r#"{"EventBurst":{"count":1}}"#;
    let replies = run_stdio(&[
        open("x", "1", "1e400", ""),
        open("x", "1", "null", &format!("[10.0,{scale}]")),
        open("x", "1", "null", &format!("[1e400,{burst}]")),
        open("s", "1", "null", ""),
        disturb("s", "1e400", burst),
        disturb("s", "5.0", scale),
        disturb("s", "5.0", noise),
        disturb("s", "5.0", r#"{"BatteryFade":{"factor":0.9}}"#),
        advance("s", 12),
        close("s"),
    ]);
    assert!(replies[..3].iter().all(is_finite_error), "{replies:?}");
    assert!(matches!(replies[3], Response::Opened { .. }));
    assert!(replies[4..7].iter().all(is_finite_error), "{replies:?}");
    assert!(matches!(replies[7], Response::Disturbed { .. }));
    assert!(matches!(replies[8], Response::Advanced { slot: 12, .. }));
    assert!(matches!(
        replies[9],
        Response::Closed { audit_ok: true, .. }
    ));
}

#[test]
fn an_enormous_horizon_opens_and_steps_promptly() {
    let started = Instant::now();
    let replies = run_stdio(&[open("h", "1000000000", "null", ""), advance("h", 1)]);
    assert!(
        matches!(
            replies[0],
            Response::Opened {
                total_slots: 12_000_000_000,
                ..
            }
        ),
        "{replies:?}"
    );
    assert!(matches!(replies[1], Response::Advanced { slot: 1, .. }));
    assert!(started.elapsed() < Duration::from_secs(10));
}
