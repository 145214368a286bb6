//! In-memory span and counter recorder for the traced run.
//!
//! Spans are opened around calls into a layer's public functions and
//! kept in memory; [`write`] appends them, with the summed counters, to
//! a JSONL file once the run is over. Nothing is written while the
//! measured code runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde::{Serialize, Value};

struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    base: Instant,
    base_unix_ns: u64,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<String, (f64, &'static str)>>,
    errors: Mutex<Vec<String>>,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        base: Instant::now(),
        base_unix_ns: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64),
        next_id: AtomicU64::new(1),
        next_thread: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
        errors: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = recorder().next_thread.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    let rec = recorder();
    rec.base_unix_ns + rec.base.elapsed().as_nanos() as u64
}

/// An open span; records itself when dropped.
pub struct Guard {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Guard {
    /// This span's id, for children recorded with [`record`].
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Records a finished span from two instants (for intervals timed by
/// the caller).
pub fn record(name: &'static str, parent: Option<u64>, start: Instant, end: Instant) {
    let rec = recorder();
    let at =
        |t: Instant| rec.base_unix_ns + t.saturating_duration_since(rec.base).as_nanos() as u64;
    let span = Span {
        id: rec.next_id.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        thread: THREAD.with(|t| *t),
        start_ns: at(start),
        end_ns: at(end),
    };
    rec.spans.lock().expect("span lock").push(span);
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: THREAD.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
        };
        recorder().spans.lock().expect("span lock").push(span);
    }
}

/// The innermost span open on this thread.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Opens a span whose parent is given explicitly (for work handed to
/// another thread).
pub fn enter_under(parent: Option<u64>, name: &'static str) -> Guard {
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

/// Opens a span under the innermost open span of this thread.
pub fn enter(name: &'static str) -> Guard {
    enter_under(current(), name)
}

/// Runs `f` inside a span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = enter(name);
    f()
}

/// Adds `value` to a summed counter.
pub fn add(name: &str, value: f64) {
    let mut counters = recorder().counters.lock().expect("counter lock");
    counters.entry(name.to_string()).or_insert((0.0, "sum")).0 += value;
}

/// Raises a high-water-mark counter to at least `value`.
pub fn max(name: &str, value: f64) {
    let mut counters = recorder().counters.lock().expect("counter lock");
    let slot = counters.entry(name.to_string()).or_insert((value, "max"));
    slot.0 = slot.0.max(value);
}

/// Records a failed check; the run reports it and counts it as failed.
pub fn error(message: String) {
    recorder().errors.lock().expect("error lock").push(message);
}

/// Number of failed checks recorded so far.
pub fn error_count() -> usize {
    recorder().errors.lock().expect("error lock").len()
}

/// Appends every recorded span, counter and error to `path` as JSONL.
pub fn write(path: &Path) -> std::io::Result<()> {
    let rec = recorder();
    let pid = std::process::id();
    let mut out = String::new();
    let mut line = |fields: &[(&str, &dyn Serialize)]| {
        out.push_str(&json_object(fields));
        out.push('\n');
    };
    for s in rec.spans.lock().expect("span lock").iter() {
        line(&[
            ("span", &s.name),
            ("id", &s.id),
            ("parent", &s.parent),
            ("pid", &pid),
            ("thread", &s.thread),
            ("start_ns", &s.start_ns),
            ("end_ns", &s.end_ns),
        ]);
    }
    for (name, (value, op)) in rec.counters.lock().expect("counter lock").iter() {
        line(&[
            ("counter", name),
            ("value", value),
            ("op", op),
            ("pid", &pid),
        ]);
    }
    for message in rec.errors.lock().expect("error lock").iter() {
        line(&[("error", message), ("pid", &pid)]);
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(out.as_bytes())
}

/// One JSON object with the given fields, in order.
pub fn json_object(fields: &[(&str, &dyn Serialize)]) -> String {
    let value = Value::Object(
        fields
            .iter()
            .map(|(key, value)| (key.to_string(), value.to_value()))
            .collect(),
    );
    serde_json::to_string(&value).expect("the harness writes finite numbers only")
}
