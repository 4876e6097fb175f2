//! The session registry and the two transports (stdio, TCP).
//!
//! One [`Server`] owns a root [`Recorder`] and a mutex-guarded registry
//! of open sessions. Request handling is transport-agnostic:
//! [`Server::handle`] maps one request to one response, and both the
//! NDJSON-over-stdio loop and the thread-per-connection TCP loop are
//! thin shells around it.
//!
//! ## Determinism across transports
//!
//! Each session records into its own recorder and is absorbed into the
//! root under `serve/<name>` only at close (a reused name gets an
//! `@<n>` incarnation suffix, so every absorbed scope holds exactly one
//! run's stream), so a session's trace depends only on its own request
//! sequence — never on what other connections are doing. The root trace
//! aggregates counters (commutative sums) and absorbed per-session
//! scopes; it audits green but its cross-scope line order is not a
//! determinism surface.

use dpm_sim::prelude::Recorder;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::ServeError;
use crate::metrics::{self, ServerMetrics};
use crate::protocol::{decode_request, encode_response, QueryKind, Request, Response};
use crate::session::{check_disturbance, Session};

/// Server-wide switches.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Feed every session's stream through an incremental auditor and
    /// kill sessions whose stream breaks an invariant.
    pub audit: bool,
}

/// The session host: registry, root telemetry, shutdown latch.
pub struct Server {
    config: ServerConfig,
    root: Recorder,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    /// Retirements per session name, for incarnation-suffixed absorb
    /// scopes: a reused name must not merge two runs' streams into one
    /// scope, or the aggregate trace stops being a set of single-run
    /// streams and fails its own audit.
    retired: Mutex<HashMap<String, u64>>,
    shutdown: AtomicBool,
    any_killed: AtomicBool,
}

/// A poisoned registry or session mutex only means a peer thread
/// panicked mid-request; the data is still coherent, so serving
/// continues (the same policy as the telemetry recorder).
fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

impl Server {
    /// A server with no sessions and an enabled root recorder.
    pub fn new(config: ServerConfig) -> Self {
        Self {
            config,
            root: Recorder::enabled("serve"),
            sessions: Mutex::new(HashMap::new()),
            retired: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            any_killed: AtomicBool::new(false),
        }
    }

    /// Whether any session was killed by the auditor over the server's
    /// lifetime — the stdio exit-code signal.
    pub fn any_killed(&self) -> bool {
        self.any_killed.load(Ordering::SeqCst)
    }

    /// The root trace (absorbed sessions + census counters) as JSONL.
    pub fn trace_jsonl(&self) -> String {
        self.root.to_jsonl()
    }

    /// Snapshot the metrics plane as Prometheus-style text exposition.
    ///
    /// Lock discipline: the registry lock is held only long enough to
    /// clone the session handles; sessions are then locked **one at a
    /// time, in name order**, never while holding the registry — the
    /// same registry-then-single-session order every request path uses,
    /// so a scrape can never deadlock against concurrent session
    /// traffic.
    pub fn metrics_text(&self) -> String {
        let mut handles: Vec<(String, Arc<Mutex<Session>>)> = relock(&self.sessions)
            .iter()
            .map(|(name, cell)| (name.clone(), Arc::clone(cell)))
            .collect();
        handles.sort_by(|a, b| a.0.cmp(&b.0));
        let sessions = handles
            .iter()
            .map(|(_, cell)| relock(cell).metrics())
            .collect();
        metrics::render(&ServerMetrics {
            requests: self.root.counter("serve.requests"),
            sessions_opened: self.root.counter("serve.sessions_opened"),
            sessions_closed: self.root.counter("serve.sessions_closed"),
            sessions_killed: self.root.counter("serve.sessions_killed"),
            sessions_open: handles.len() as u64,
            sessions,
        })
    }

    fn session(&self, name: &str) -> Result<Arc<Mutex<Session>>, ServeError> {
        relock(&self.sessions)
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownSession(name.to_string()))
    }

    /// Remove a session from the registry and absorb its trace into the
    /// root under `serve/<name>` — or `serve/<name>@<n>` when the name
    /// has been retired before, so every absorbed scope holds exactly
    /// one run's stream and the aggregate stays auditable.
    fn retire(&self, name: &str, session: &Session, killed: bool) {
        relock(&self.sessions).remove(name);
        let incarnation = {
            let mut retired = relock(&self.retired);
            let n = retired.entry(name.to_string()).or_insert(0);
            *n += 1;
            *n
        };
        let scope = if incarnation == 1 {
            format!("serve/{name}")
        } else {
            format!("serve/{name}@{incarnation}")
        };
        self.root.absorb(&scope, session.recorder());
        if killed {
            self.root.incr("serve.sessions_killed", 1);
            self.any_killed.store(true, Ordering::SeqCst);
        } else {
            self.root.incr("serve.sessions_closed", 1);
        }
    }

    /// Map one request to one response. Never panics; failures become
    /// [`Response::Error`].
    pub fn handle(&self, req: &Request) -> Response {
        self.root.incr("serve.requests", 1);
        match req {
            Request::Open { session, spec } => {
                if relock(&self.sessions).contains_key(session) {
                    return Response::error(&ServeError::DuplicateSession(session.clone()));
                }
                match Session::open(session, spec, self.config.audit) {
                    Ok(s) => {
                        let total_slots = s.total_slots();
                        let tau_s = s.tau_s();
                        let telemetry = s.gauge_telemetry();
                        // Re-check under the lock: a racing open of the
                        // same name keeps the first registration.
                        let mut registry = relock(&self.sessions);
                        if registry.contains_key(session) {
                            return Response::error(&ServeError::DuplicateSession(session.clone()));
                        }
                        registry.insert(session.clone(), Arc::new(Mutex::new(s)));
                        drop(registry);
                        self.root.incr("serve.sessions_opened", 1);
                        Response::Opened {
                            session: session.clone(),
                            total_slots,
                            tau_s,
                            telemetry,
                        }
                    }
                    Err(e) => Response::error(&e),
                }
            }
            Request::Advance { session, slots } => match self.session(session) {
                Ok(cell) => {
                    let mut s = relock(&cell);
                    match s.advance(*slots) {
                        Ok(out) if out.violations.is_empty() => Response::Advanced {
                            session: session.clone(),
                            slot: out.slot,
                            done: out.done,
                            telemetry: out.telemetry,
                            violations: out.violations,
                        },
                        Ok(out) => {
                            self.retire(session, &s, true);
                            Response::Killed {
                                session: session.clone(),
                                violations: out.violations,
                            }
                        }
                        Err(e) => Response::error(&e),
                    }
                }
                Err(e) => Response::error(&e),
            },
            Request::SetRates { session, rates } => match self.session(session) {
                Ok(cell) => match relock(&cell).set_rates(rates.clone()) {
                    Ok(()) => Response::RatesSet {
                        session: session.clone(),
                    },
                    Err(e) => Response::error(&e),
                },
                Err(e) => Response::error(&e),
            },
            Request::Disturb {
                session,
                at_s,
                disturbance,
            } => match self.session(session) {
                Ok(cell) => match check_disturbance(*at_s, disturbance) {
                    Ok(()) => {
                        relock(&cell).disturb(*at_s, *disturbance);
                        Response::Disturbed {
                            session: session.clone(),
                        }
                    }
                    Err(e) => Response::error(&e.into()),
                },
                Err(e) => Response::error(&e),
            },
            Request::Query { session, what } => match self.session(session) {
                Ok(cell) => {
                    let s = relock(&cell);
                    match what {
                        QueryKind::Plan => {
                            let (slot, workers, freq_mhz, backlog) = s.plan();
                            Response::Plan {
                                session: session.clone(),
                                slot,
                                workers,
                                freq_mhz,
                                backlog,
                            }
                        }
                        QueryKind::Battery => {
                            let (level_j, c_min_j, c_max_j, forecast_j) = s.battery();
                            Response::Battery {
                                session: session.clone(),
                                level_j,
                                c_min_j,
                                c_max_j,
                                forecast_j,
                            }
                        }
                        QueryKind::Degradation => {
                            let (degradations, shed_level, fallback_engaged) = s.degradation();
                            Response::Degradation {
                                session: session.clone(),
                                degradations,
                                shed_level: shed_level as u64,
                                fallback_engaged,
                            }
                        }
                    }
                }
                Err(e) => Response::error(&e),
            },
            Request::InjectLine { session, line } => match self.session(session) {
                Ok(cell) => {
                    let mut s = relock(&cell);
                    match s.inject(line) {
                        Ok(fresh) if fresh.is_empty() => Response::Injected {
                            session: session.clone(),
                        },
                        Ok(fresh) => {
                            self.retire(session, &s, true);
                            Response::Killed {
                                session: session.clone(),
                                violations: fresh,
                            }
                        }
                        Err(e) => Response::error(&e),
                    }
                }
                Err(e) => Response::error(&e),
            },
            Request::Close { session } => match self.session(session) {
                Ok(cell) => {
                    let mut s = relock(&cell);
                    let out = s.close();
                    self.retire(session, &s, false);
                    Response::Closed {
                        session: session.clone(),
                        audit_ok: out.audit_ok,
                        violations: out.violations,
                        checks: out.checks,
                        jobs_done: out.jobs_done,
                        undersupplied_j: out.undersupplied_j,
                        trace: out.trace,
                    }
                }
                Err(e) => Response::error(&e),
            },
            Request::Metrics => Response::Metrics {
                text: self.metrics_text(),
            },
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Response::ShuttingDown
            }
        }
    }

    /// Serve NDJSON request/response over arbitrary reader/writer pairs
    /// — the `--stdio` mode, and the deterministic harness for tests.
    /// Returns the process exit code: 0 clean, 1 when any session was
    /// killed by the auditor or the transport failed.
    pub fn run_stdio<R: BufRead, W: Write>(&self, reader: R, mut writer: W) -> i32 {
        for line in reader.lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("dpm-serve: stdin read failed: {e}");
                    return 1;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let resp = match decode_request(&line) {
                Ok(req) => self.handle(&req),
                Err(e) => Response::error(&e),
            };
            let stop = matches!(resp, Response::ShuttingDown);
            if let Err(e) = writeln!(writer, "{}", encode_response(&resp)) {
                eprintln!("dpm-serve: write failed: {e}");
                return 1;
            }
            if stop {
                break;
            }
        }
        let _ = writer.flush();
        i32::from(self.any_killed())
    }

    /// One TCP connection: NDJSON request/response until EOF or
    /// shutdown. `addr` is the listener's own address, used to unblock
    /// the accept loop when this connection requests shutdown.
    fn serve_conn(&self, stream: TcpStream, addr: SocketAddr) {
        let reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(e) => {
                eprintln!("dpm-serve: connection clone failed: {e}");
                return;
            }
        };
        let mut writer = stream;
        for line in reader.lines() {
            let Ok(line) = line else { return };
            if line.trim().is_empty() {
                continue;
            }
            let resp = match decode_request(&line) {
                Ok(req) => self.handle(&req),
                Err(e) => Response::error(&e),
            };
            let stop = matches!(resp, Response::ShuttingDown);
            if writeln!(writer, "{}", encode_response(&resp)).is_err() {
                return;
            }
            let _ = writer.flush();
            if stop {
                // Unblock the accept loop so the server can exit.
                let _ = TcpStream::connect(addr);
                return;
            }
        }
    }

    /// Accept connections until a client sends `Shutdown`, serving each
    /// on its own scoped thread.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the listener's address cannot be read or
    /// a connection thread panicked.
    pub fn serve_tcp(&self, listener: TcpListener) -> Result<(), ServeError> {
        let addr = listener.local_addr()?;
        let outcome = crossbeam::scope(|scope| {
            for stream in listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        scope.spawn(move |_| self.serve_conn(stream, addr));
                    }
                    Err(e) => {
                        eprintln!("dpm-serve: accept failed: {e}");
                    }
                }
            }
        });
        outcome.map_err(|_| ServeError::Io("a connection thread panicked".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SessionSpec;
    use std::io::Cursor;

    fn open_req(name: &str) -> Request {
        Request::Open {
            session: name.to_string(),
            spec: SessionSpec::plain("scenario-1", "proposed+safe", 1),
        }
    }

    #[test]
    fn server_and_session_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Server>();
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
    }

    #[test]
    fn the_full_session_lifecycle_works_through_handle() {
        let server = Server::new(ServerConfig { audit: true });
        let Response::Opened { total_slots, .. } = server.handle(&open_req("a")) else {
            panic!("open failed");
        };
        let Response::Advanced { done, .. } = server.handle(&Request::Advance {
            session: "a".into(),
            slots: total_slots,
        }) else {
            panic!("advance failed");
        };
        assert!(done);
        let Response::Closed {
            audit_ok, trace, ..
        } = server.handle(&Request::Close {
            session: "a".into(),
        })
        else {
            panic!("close failed");
        };
        assert!(audit_ok);
        assert!(trace.first().is_some_and(|l| l.contains("Meta")));
        assert!(!server.any_killed());
    }

    #[test]
    fn a_reused_session_name_keeps_the_aggregate_trace_auditable() {
        use dpm_trace::{audit, AuditConfig, Trace};
        let server = Server::new(ServerConfig { audit: true });
        for _ in 0..3 {
            let Response::Opened { total_slots, .. } = server.handle(&open_req("a")) else {
                panic!("open failed");
            };
            assert!(matches!(
                server.handle(&Request::Advance {
                    session: "a".into(),
                    slots: total_slots,
                }),
                Response::Advanced { .. }
            ));
            assert!(matches!(
                server.handle(&Request::Close {
                    session: "a".into(),
                }),
                Response::Closed { .. }
            ));
        }
        let doc = server.trace_jsonl();
        // Each incarnation landed in its own scope...
        for scope in ["serve/a/", "serve/a@2/", "serve/a@3/"] {
            assert!(doc.contains(scope), "missing scope {scope}");
        }
        // ...so every scope is a single run's stream and the aggregate
        // passes the same audit a batch trace would.
        let trace = Trace::parse(&doc).expect("aggregate parses");
        let report = audit(&trace, &AuditConfig::default());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn duplicate_opens_and_unknown_sessions_are_refused() {
        let server = Server::new(ServerConfig::default());
        assert!(matches!(
            server.handle(&open_req("a")),
            Response::Opened { .. }
        ));
        assert!(matches!(
            server.handle(&open_req("a")),
            Response::Error { .. }
        ));
        let resp = server.handle(&Request::Advance {
            session: "ghost".into(),
            slots: 1,
        });
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn corrupt_injection_kills_the_session_and_sets_the_exit_signal() {
        let server = Server::new(ServerConfig { audit: true });
        assert!(matches!(
            server.handle(&open_req("a")),
            Response::Opened { .. }
        ));
        assert!(matches!(
            server.handle(&Request::Advance {
                session: "a".into(),
                slots: 2
            }),
            Response::Advanced { .. }
        ));
        let bad = "{\"Event\":{\"seq\":0,\"scope\":\"\",\"name\":\"inject.corrupt\",\
                   \"slot\":null,\"time\":0.0,\"fields\":[],\"detail\":null}}";
        let resp = server.handle(&Request::InjectLine {
            session: "a".into(),
            line: bad.to_string(),
        });
        assert!(matches!(resp, Response::Killed { .. }), "{resp:?}");
        assert!(server.any_killed());
        // The killed session is gone.
        let resp = server.handle(&Request::Advance {
            session: "a".into(),
            slots: 1,
        });
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn metrics_snapshots_validate_and_track_the_registry() {
        let server = Server::new(ServerConfig { audit: true });
        // An empty server scrapes clean.
        let text = server.metrics_text();
        crate::metrics::validate(&text).expect("empty snapshot validates");
        assert_eq!(
            crate::metrics::sample(&text, "dpm_serve_sessions_open", &[]),
            Some(0.0)
        );

        for name in ["b", "a"] {
            assert!(matches!(
                server.handle(&open_req(name)),
                Response::Opened { .. }
            ));
            assert!(matches!(
                server.handle(&Request::Advance {
                    session: name.into(),
                    slots: 6,
                }),
                Response::Advanced { .. }
            ));
        }
        let Response::Metrics { text } = server.handle(&Request::Metrics) else {
            panic!("metrics failed");
        };
        crate::metrics::validate(&text).expect("snapshot validates");
        assert_eq!(
            crate::metrics::sample(&text, "dpm_serve_sessions_open", &[]),
            Some(2.0)
        );
        for name in ["a", "b"] {
            assert_eq!(
                crate::metrics::sample(
                    &text,
                    "dpm_session_slots_stepped_total",
                    &[("session", name)]
                ),
                Some(6.0),
                "{name}"
            );
        }
        // Sessions render in name order regardless of registry order.
        let a_pos = text.find("session=\"a\"").expect("a row");
        let b_pos = text.find("session=\"b\"").expect("b row");
        assert!(a_pos < b_pos);
        // Battery slack quantiles exist and are ordered.
        let slack = |q: &str| {
            crate::metrics::sample(
                &text,
                "dpm_session_battery_slack_joules",
                &[("session", "a"), ("quantile", q)],
            )
            .expect("slack quantile")
        };
        assert!(slack("0.1") <= slack("0.5") && slack("0.5") <= slack("0.9"));

        // A scrape mutates nothing: back-to-back snapshots are
        // byte-identical (modulo the request counter the first scrape
        // itself bumped — compare via metrics_text, which doesn't count).
        assert_eq!(server.metrics_text(), server.metrics_text());

        assert!(matches!(
            server.handle(&Request::Close {
                session: "a".into()
            }),
            Response::Closed { .. }
        ));
        let text = server.metrics_text();
        assert_eq!(
            crate::metrics::sample(&text, "dpm_serve_sessions_open", &[]),
            Some(1.0)
        );
        assert_eq!(
            crate::metrics::sample(&text, "dpm_serve_sessions_closed_total", &[]),
            Some(1.0)
        );
        assert!(!text.contains("session=\"a\""), "closed sessions drop out");
    }

    #[test]
    fn stdio_scripts_produce_one_response_per_request() {
        let server = Server::new(ServerConfig { audit: true });
        let script = [
            encode_request_line(&open_req("s0")),
            encode_request_line(&Request::Advance {
                session: "s0".into(),
                slots: 3,
            }),
            encode_request_line(&Request::Query {
                session: "s0".into(),
                what: QueryKind::Battery,
            }),
            encode_request_line(&Request::Close {
                session: "s0".into(),
            }),
            "\"Shutdown\"".to_string(),
        ]
        .join("\n");
        let mut out = Vec::new();
        let code = server.run_stdio(Cursor::new(script), &mut out);
        assert_eq!(code, 0);
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 5);
        assert!(text
            .lines()
            .last()
            .is_some_and(|l| l.contains("ShuttingDown")));
    }

    fn encode_request_line(req: &Request) -> String {
        serde_json::to_string(req).expect("encode request")
    }
}
