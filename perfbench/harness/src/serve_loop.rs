//! `serve-loop`: the closed-loop clients of the `serve_mixed` workload.
//!
//! Each client sends its next request only after the previous one's
//! whole result stream has arrived. A request is a `POST /v1/jobs`
//! through the project's own client, then a `GET /v1/jobs/{id}/results`
//! read here so the first result byte can be timed. Each HTTP request
//! uses a fresh connection, as `bgpsim-loadtest` does.
//!
//! The plan is JSONL, one request per line:
//! `{"round":0,"kind":"cold"|"warm"|"prime","body":"<JobSpec JSON>","seeds":2,"expect":"<stream>"|null}`.
//! Rounds run in order, split across the clients, until `--seconds`
//! have passed (at least one round). The output is JSONL: one line per
//! request and one per round.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bgpsim_serve::client::request;
use serde::value::{field, Value};

use crate::spans::{self, enter_under, json_object};
use crate::{opt, opt_usize, Opts};

struct Planned {
    round: u64,
    kind: String,
    body: String,
    seeds: usize,
    expect: Option<String>,
}

struct Outcome {
    status: u16,
    stream: Vec<u8>,
    submit: Duration,
    first: Duration,
    total: Duration,
}

fn parse_plan(text: &str) -> Result<Vec<Planned>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v: Value = serde_json::from_str(line).map_err(|e| format!("bad plan line: {e}"))?;
            let get = |name: &str| field(&v, name).map_err(|e| e.to_string());
            Ok(Planned {
                round: get("round")?.as_u64().ok_or("round must be a number")?,
                kind: get("kind")?
                    .as_str()
                    .ok_or("kind must be a string")?
                    .to_string(),
                body: get("body")?
                    .as_str()
                    .ok_or("body must be a string")?
                    .to_string(),
                seeds: get("seeds")?.as_u64().ok_or("seeds must be a number")? as usize,
                expect: get("expect")?.as_str().map(str::to_string),
            })
        })
        .collect()
}

/// Decodes a chunked transfer-encoding body.
fn dechunk(mut body: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk header")?;
        let size = usize::from_str_radix(
            std::str::from_utf8(&body[..end])
                .map_err(|e| e.to_string())?
                .trim(),
            16,
        )
        .map_err(|e| e.to_string())?;
        body = &body[end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if body.len() < size + 2 {
            return Err("truncated chunk".into());
        }
        out.extend_from_slice(&body[..size]);
        body = &body[size + 2..];
    }
}

/// Reads a job's result stream; returns (status, body, time of the
/// first body byte).
fn results(addr: &str, job: u64) -> Result<(u16, Vec<u8>, Instant), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let head =
        format!("GET /v1/jobs/{job}/results HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n");
    conn.write_all(head.as_bytes()).map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut header_end = None;
    let mut first = None;
    loop {
        let n = conn.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if header_end.is_none() {
            header_end = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
        }
        if first.is_none() && header_end.is_some_and(|h| buf.len() > h) {
            first = Some(Instant::now());
        }
    }
    let header_end = header_end.ok_or("response without a header end")?;
    let head = String::from_utf8_lossy(&buf[..header_end]).to_ascii_lowercase();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let body = if head.contains("transfer-encoding: chunked") {
        dechunk(&buf[header_end..])?
    } else {
        buf[header_end..].to_vec()
    };
    Ok((status, body, first.unwrap_or_else(Instant::now)))
}

fn send(addr: &str, planned: &Planned) -> Result<Outcome, String> {
    let started = Instant::now();
    let resp = request(addr, "POST", "/v1/jobs", &[], planned.body.as_bytes())
        .map_err(|e| e.to_string())?;
    let submit = started.elapsed();
    if resp.status != 201 {
        return Ok(Outcome {
            status: resp.status,
            stream: Vec::new(),
            submit,
            first: submit,
            total: submit,
        });
    }
    let id: Value = serde_json::from_str(&resp.text()).map_err(|e| e.to_string())?;
    let job = field(&id, "id")
        .ok()
        .and_then(Value::as_u64)
        .ok_or("submit answer without id")?;
    let (status, stream, first) = results(addr, job)?;
    Ok(Outcome {
        status,
        stream,
        submit,
        first: first - started,
        total: started.elapsed(),
    })
}

/// Why a completed request fails its checks, if it does.
fn check(planned: &Planned, out: &Outcome) -> Option<String> {
    if out.status != 200 {
        return Some(format!("status {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stream);
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != planned.seeds {
        return Some(format!(
            "{} result lines for {} seeds",
            lines.len(),
            planned.seeds
        ));
    }
    if let Some(line) = lines
        .iter()
        .find(|l| serde_json::from_str::<Value>(l).is_err())
    {
        return Some(format!("result line does not parse: {line}"));
    }
    if planned
        .expect
        .as_deref()
        .is_some_and(|e| e.as_bytes() != out.stream.as_slice())
    {
        return Some("warm stream differs from the stream that primed it".into());
    }
    None
}

pub fn serve_loop(opts: &Opts) -> Result<(), String> {
    let addr = opt(opts, "addr")?.to_string();
    let plan =
        parse_plan(&std::fs::read_to_string(opt(opts, "plan")?).map_err(|e| e.to_string())?)?;
    let clients = opt_usize(opts, "clients", 2)?.max(1);
    let traced = opt_usize(opts, "trace", 0)? == 1;
    let seconds: f64 = opt(opts, "seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    let lines = Mutex::new(Vec::<String>::new());
    let started = Instant::now();
    let mut round_start = 0;
    while round_start < plan.len() {
        let round = plan[round_start].round;
        let end = plan[round_start..]
            .iter()
            .position(|p| p.round != round)
            .map_or(plan.len(), |n| round_start + n);
        let requests = &plan[round_start..end];
        round_start = end;
        // Odd rounds are traced in a traced run; even rounds are the
        // untraced comparison.
        let trace_round = traced && round % 2 == 1;
        let root = trace_round.then(|| enter_under(None, "bench.round"));
        let parent = spans::current();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let (addr, lines) = (&addr, &lines);
                s.spawn(move || {
                    for planned in requests.iter().skip(c).step_by(clients) {
                        let request_span =
                            trace_round.then(|| enter_under(parent, "serve.request"));
                        let t = Instant::now();
                        let outcome = send(addr, planned);
                        if let (Some(span), Ok(out)) = (&request_span, &outcome) {
                            let id = Some(span.id());
                            spans::record("serve.submit", id, t, t + out.submit);
                            spans::record("serve.first_result", id, t + out.submit, t + out.first);
                            spans::record("serve.stream", id, t + out.first, t + out.total);
                        }
                        drop(request_span);
                        let line = match outcome {
                            Ok(out) => {
                                let why = check(planned, &out);
                                let stream = (planned.kind == "prime")
                                    .then(|| String::from_utf8_lossy(&out.stream).into_owned());
                                json_object(&[
                                    ("round", &round),
                                    ("kind", &planned.kind),
                                    ("client", &c),
                                    ("status", &out.status),
                                    ("why", &why),
                                    ("submit_ms", &(out.submit.as_secs_f64() * 1e3)),
                                    ("first_ms", &(out.first.as_secs_f64() * 1e3)),
                                    ("lat_ms", &(out.total.as_secs_f64() * 1e3)),
                                    ("stream", &stream),
                                ])
                            }
                            Err(err) => json_object(&[
                                ("round", &round),
                                ("kind", &planned.kind),
                                ("client", &c),
                                ("status", &0u16),
                                ("why", &err),
                            ]),
                        };
                        lines.lock().expect("output lock").push(line);
                    }
                });
            }
        });
        let wall = t0.elapsed();
        drop(root);
        lines.lock().expect("output lock").push(json_object(&[
            ("round", &round),
            ("wall_s", &wall.as_secs_f64()),
            ("traced", &trace_round),
        ]));
        if started.elapsed().as_secs_f64() >= seconds && (!traced || round % 2 == 1) {
            break;
        }
    }
    let mut text = lines.into_inner().expect("output lock").join("\n");
    text.push('\n');
    std::fs::write(opt(opts, "out")?, text).map_err(|e| e.to_string())?;
    if traced {
        spans::write(std::path::Path::new(opt(opts, "spans")?)).map_err(|e| e.to_string())?;
    }
    println!("{}", json_object(&[("errors", &0u32)]));
    Ok(())
}
