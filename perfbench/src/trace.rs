//! Layer spans recorded around the benchmark's calls into the library.
//!
//! Every layer call is timed whether or not tracing is on, because the
//! end-to-end metrics are sums of layer times. With tracing on, the
//! [`Recorder`] also keeps one span per call (name, start, end, parent and
//! the layer's counters) in memory; [`Recorder::write_jsonl`] writes them out
//! once the run has ended.

use std::fmt::Write as _;
use std::io::Write as _;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    threads: usize,
    counters: Vec<(&'static str, f64)>,
}

/// A span that has been opened and not yet closed.
pub struct Open {
    id: Option<usize>,
    started: Instant,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside an open span");
        self.enabled = enabled;
    }

    /// Opens a span; spans opened before it is closed become its children.
    pub fn open(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                start_s: started.duration_since(self.origin).as_secs_f64(),
                end_s: f64::NAN,
                parent: self.stack.last().copied(),
                threads: rayon::current_num_threads(),
                counters: Vec::new(),
            });
            self.stack.push(id);
            id
        });
        Open { id, started }
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn close(&mut self, open: &Open) -> f64 {
        let secs = open.started.elapsed().as_secs_f64();
        if let Some(id) = open.id {
            assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
            self.spans[id].end_s = self.spans[id].start_s + secs;
        }
        secs
    }

    /// Attaches the layer's counters to a span (a no-op when tracing is off).
    pub fn counters(&mut self, open: &Open, counters: &[(&'static str, f64)]) {
        if let Some(id) = open.id {
            self.spans[id].counters.extend_from_slice(counters);
        }
    }

    /// Times `f` as one span without children.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name);
        let value = f();
        let secs = self.close(&open);
        (value, secs)
    }

    /// Number of spans recorded so far; marks where a traced section starts.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Mean duration of the spans named `name` among those recorded at
    /// positions `within` (NaN if there are none).
    pub fn mean_seconds(&self, within: Range<usize>, name: &str) -> f64 {
        mean(self.spans[within].iter().filter(|s| s.name == name).map(|s| s.end_s - s.start_s))
    }

    /// Mean of counter `key` over the spans named `name` among those
    /// recorded at positions `within` (NaN if there are none).
    pub fn mean_counter(&self, within: Range<usize>, name: &str, key: &str) -> f64 {
        mean(
            self.spans[within]
                .iter()
                .filter(|s| s.name == name)
                .flat_map(|s| s.counters.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v)),
        )
    }

    /// Writes every recorded span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{},\"threads\":{},\"counters\":{{",
                span.name, span.start_s, span.end_s, span.threads
            )
            .expect("writing to a String cannot fail");
            for (i, (key, value)) in span.counters.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                write!(out, "{sep}\"{key}\":{value}").expect("writing to a String cannot fail");
            }
            out.push_str("}}\n");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(sum, count), v| (sum + v, count + 1));
    sum / count as f64
}
