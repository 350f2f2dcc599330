//! The `serve` workload: an in-process `coyote-serve` daemon on Geant
//! driven by one closed-loop client over loopback, one connection per
//! request.
//!
//! The client replays a seeded, interleaved script of `GET /state` reads,
//! single-pair `POST /demand` updates and `POST /link` down/up flaps (at
//! most one link is down at a time), then checks with `POST /recompile`
//! that the incrementally maintained program equals a cold recompile.

use coyote_graph::NodeId;
use coyote_serve::json::{parse, JsonValue};
use coyote_serve::{DemandModel, EngineConfig, Server, ServerConfig, TeEngine};
use coyote_traffic::GravityModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Topology the daemon serves.
const TOPOLOGY: &str = "geant";
/// `GET /state` requests per pass.
pub const STATE_REQUESTS: usize = 2000;
/// Single-pair `POST /demand` requests per pass.
pub const DEMAND_REQUESTS: usize = 2000;
/// Link down/up flaps per pass (two `POST /link` requests each).
pub const LINK_FLAPS: usize = 500;
/// Total demand volume of the daemon's gravity matrix.
const DEMAND_TOTAL: f64 = 100.0;

/// A request class, as reported per class in the results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `GET /state`.
    State,
    /// `POST /demand`.
    Demand,
    /// `POST /link`.
    Link,
}

impl Class {
    /// All classes, in report order.
    pub const ALL: [Class; 3] = [Class::State, Class::Demand, Class::Link];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Class::State => "state",
            Class::Demand => "demand",
            Class::Link => "link",
        }
    }

    /// HTTP method and path of the class's requests.
    fn route(self) -> (&'static str, &'static str) {
        match self {
            Class::State => ("GET", "/state"),
            Class::Demand => ("POST", "/demand"),
            Class::Link => ("POST", "/link"),
        }
    }
}

/// One scripted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The request class.
    pub class: Class,
    /// JSON body (empty for reads).
    pub body: String,
}

/// The engine configuration the daemon starts with.
fn engine_config() -> EngineConfig {
    EngineConfig {
        topology: TOPOLOGY.to_string(),
        model: DemandModel::Gravity {
            total: Some(DEMAND_TOTAL),
        },
        budget: 5,
    }
}

/// The seeded request script: reads, demand updates and link flaps in a
/// shuffled order. A demand update sets one pair to its starting gravity
/// rate scaled by a factor in `[0.9, 1.1)`: demand drifts around the
/// daemon's own matrix instead of wandering off it. Each link token
/// toggles: it fails the next link when none is down and restores the
/// failed one otherwise, so the script ends with every link up. Links fail
/// in rounds, each round a fresh shuffle of all links, so every link fails
/// about equally often.
pub fn script(seed: u64) -> Vec<Op> {
    let topo = coyote_topology::zoo::by_name(TOPOLOGY).expect("geant is in the zoo");
    let n = topo.nodes.len();
    let graph = topo.to_graph().expect("geant builds a graph");
    let base = GravityModel::with_total(DEMAND_TOTAL).generate(&graph);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tokens: Vec<Class> = std::iter::repeat_n(Class::State, STATE_REQUESTS)
        .chain(std::iter::repeat_n(Class::Demand, DEMAND_REQUESTS))
        .chain(std::iter::repeat_n(Class::Link, 2 * LINK_FLAPS))
        .collect();
    shuffle(&mut tokens, &mut rng);
    let mut down: Option<(usize, usize)> = None;
    let mut round: Vec<usize> = Vec::new();
    tokens
        .into_iter()
        .map(|class| {
            let body = match class {
                Class::State => String::new(),
                Class::Demand => {
                    let src = rng.gen_range(0..n);
                    let dst = (src + rng.gen_range(1..n)) % n;
                    let factor = 0.9 + 0.2 * rng.gen::<f64>();
                    let rate = base.get(NodeId(src), NodeId(dst)) * factor;
                    format!("{{\"updates\":[{{\"src\":{src},\"dst\":{dst},\"rate\":{rate:.9}}}]}}")
                }
                Class::Link => {
                    let ((a, b), up) = match down.take() {
                        Some(link) => (link, true),
                        None => {
                            if round.is_empty() {
                                round = (0..topo.links.len()).collect();
                                shuffle(&mut round, &mut rng);
                            }
                            let link = &topo.links[round.pop().expect("refilled above")];
                            down = Some((link.a, link.b));
                            ((link.a, link.b), false)
                        }
                    };
                    format!("{{\"a\":{a},\"b\":{b},\"up\":{up}}}")
                }
            };
            Op { class, body }
        })
        .collect()
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// A started daemon and how long it took to become healthy.
pub struct Daemon {
    /// The running server.
    pub server: Server,
    /// Engine cold solve + compile + server start, until `/healthz` is 200.
    pub setup: Duration,
}

/// Starts the engine and server and waits for `/healthz`.
pub fn start() -> Result<Daemon, String> {
    let started = Instant::now();
    let engine = TeEngine::new(&engine_config()).map_err(|e| format!("engine: {e}"))?;
    let server = Server::start(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            batch_recompile_micros: None,
        },
    )
    .map_err(|e| format!("server: {e}"))?;
    loop {
        match request(server.addr(), "GET", "/healthz", "") {
            Ok((200, _)) => break,
            _ if started.elapsed() > Duration::from_secs(30) => {
                stop(server);
                return Err("daemon never became healthy".into());
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    Ok(Daemon {
        server,
        setup: started.elapsed(),
    })
}

/// Stops the daemon and joins its worker threads.
pub fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// One replayed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The request class.
    pub class: Class,
    /// HTTP status of the reply.
    pub status: u16,
    /// Send-to-full-reply latency as seen by the client.
    pub latency: Duration,
    /// `[send, reply)` relative to the `since` instant given to [`replay`].
    pub window_ns: (u64, u64),
    /// The engine's `reopt_micros` (updates only).
    pub reopt_micros: Option<u64>,
    /// The reply's `max_utilization` (updates only).
    pub max_utilization: Option<f64>,
    /// The reply's `fake_nodes` (reads only).
    pub fake_nodes: Option<usize>,
}

/// The outcome of one pass over the script.
#[derive(Debug, Clone)]
pub struct Replay {
    /// One sample per scripted request, in script order.
    pub samples: Vec<Sample>,
    /// First send to last reply.
    pub wall: Duration,
    /// Whether `POST /recompile` reported `identical: true`.
    pub identical: bool,
}

/// Replays `script` against `addr`, then runs the differential check. `on_done` runs between the last
/// scripted reply and the final checks (the traced run snapshots its
/// counters there).
pub fn replay(
    addr: SocketAddr,
    script: &[Op],
    since: Instant,
    on_done: impl FnOnce(),
) -> Result<Replay, String> {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(script.len());
    for op in script {
        let sent = Instant::now();
        let (method, path) = op.class.route();
        let (status, body) = request(addr, method, path, &op.body)?;
        let latency = sent.elapsed();
        let start_ns = nanos(sent.saturating_duration_since(since));
        let (mut reopt_micros, mut max_utilization, mut fake_nodes) = (None, None, None);
        if status == 200 && op.class == Class::State {
            fake_nodes = Some(number_field(&body, "fake_nodes")? as usize);
        } else if status == 200 {
            reopt_micros = Some(number_field(&body, "reopt_micros")? as u64);
            max_utilization = Some(number_field(&body, "max_utilization")?);
        }
        samples.push(Sample {
            class: op.class,
            status,
            latency,
            window_ns: (start_ns, start_ns + nanos(latency)),
            reopt_micros,
            max_utilization,
            fake_nodes,
        });
    }
    let wall = started.elapsed();
    on_done();
    let (status, check) = request(addr, "POST", "/recompile", "")?;
    let identical = status == 200
        && parse(&check)
            .map_err(|e| format!("/recompile reply: {e}"))?
            .get("identical")
            .and_then(JsonValue::as_bool)
            == Some(true);
    Ok(Replay {
        samples,
        wall,
        identical,
    })
}

/// The top-level number `"key":<number>` in a flat JSON reply. The replies
/// are large (`/state` lists every link), so this scans for the one field
/// instead of parsing the whole document.
fn number_field(body: &str, key: &str) -> Result<f64, String> {
    let needle = format!("\"{key}\":");
    let at = body
        .find(&needle)
        .ok_or_else(|| format!("reply has no {key}: {body}"))?
        + needle.len();
    let rest = &body[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|e| format!("{key} in reply: {e}"))
}

/// One blocking HTTP/1.1 request on a fresh connection; `(status, body)`.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: malformed response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed status line"))?;
    Ok((status, payload.to_string()))
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_seeded_and_balanced() {
        let a = script(7);
        assert_eq!(a, script(7));
        assert_ne!(a, script(8));
        let count = |c: Class| a.iter().filter(|op| op.class == c).count();
        assert_eq!(count(Class::State), STATE_REQUESTS);
        assert_eq!(count(Class::Demand), DEMAND_REQUESTS);
        assert_eq!(count(Class::Link), 2 * LINK_FLAPS);
        // Link tokens alternate down/up, so the script ends with all up.
        let links: Vec<&Op> = a.iter().filter(|op| op.class == Class::Link).collect();
        for pair in links.chunks(2) {
            assert!(pair[0].body.ends_with("\"up\":false}"));
            assert_eq!(
                pair[1].body,
                pair[0].body.replace("\"up\":false", "\"up\":true")
            );
        }
    }
}
