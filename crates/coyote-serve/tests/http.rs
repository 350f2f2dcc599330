//! Request framing of the daemon's HTTP front end.

use coyote_serve::{EngineConfig, Server, ServerConfig, TeEngine};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// Writes `raw` as the whole request, half-closes the connection and
/// returns the reply's status and body.
fn exchange(addr: &str, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    let text = String::from_utf8_lossy(&reply);
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no reply head in {text:?}"));
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, payload.to_string())
}

fn get_state(addr: &str) -> String {
    let (status, body) = exchange(addr, "GET /state HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    body
}

/// A peer that closes before `Content-Length` body bytes arrive sent a
/// truncated request: it gets a 400 with a JSON error, and the valid-looking
/// prefix of the body is not applied.
#[test]
fn truncated_body_is_rejected_and_not_applied() {
    let engine = TeEngine::new(&EngineConfig::default()).unwrap();
    let server = Server::start(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            batch_recompile_micros: None,
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let before = get_state(&addr);

    let body = r#"{"updates":[{"src":0,"dst":4,"rate":7.5}]}"#;
    let raw = format!(
        "POST /demand HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len() + 10
    );
    let (status, reply) = exchange(&addr, &raw);
    assert_eq!(status, 400, "{reply}");
    assert!(reply.starts_with("{\"error\":"), "{reply}");
    assert_eq!(get_state(&addr), before);

    // The same body, framed correctly, is applied.
    let raw = format!(
        "POST /demand HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, reply) = exchange(&addr, &raw);
    assert_eq!(status, 200, "{reply}");
    assert_ne!(get_state(&addr), before);

    server.shutdown();
    server.join();
}
