//! In-memory spans of the traced run: the recorder, self times, the
//! self-time table and the Chrome-trace export.

use crate::workloads::THREADS;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `dur_us` is NaN while the span is open.
#[derive(Clone, Debug)]
pub struct Span {
    /// Display name (a cell id for cell spans).
    pub name: String,
    /// Layer: `bench`, `workload`, `experiments`, `risk`, `simsvc` or
    /// `policies`.
    pub layer: &'static str,
    /// Thread: 0 for the main thread, 1.. for pool workers.
    pub tid: usize,
    /// Start, microseconds since the recorder's origin.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Extra `"key":value` JSON members.
    pub args: String,
}

/// In-memory span store, written out when the run ends.
pub(crate) struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(
        &self,
        name: impl Into<String>,
        layer: &'static str,
        tid: usize,
        parent: Option<usize>,
    ) -> usize {
        let start_us = self.us(Instant::now());
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name: name.into(),
            layer,
            tid,
            start_us,
            dur_us: f64::NAN,
            parent,
            args: String::new(),
        });
        spans.len() - 1
    }

    /// Closes span `id` now, attaching `args`.
    pub fn close(&self, id: usize, args: String) {
        let end = self.us(Instant::now());
        let mut spans = self.spans.lock().expect("span store poisoned");
        let s = &mut spans[id];
        s.dur_us = end - s.start_us;
        s.args = args;
    }

    /// Start of span `id`, microseconds since the origin.
    pub fn start_us(&self, id: usize) -> f64 {
        self.spans.lock().expect("span store poisoned")[id].start_us
    }

    /// Records a finished span with a known start and duration.
    pub fn add(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, layer, 0, parent);
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        self.close(id, String::new());
        (r, secs)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children (on any thread) cover.
pub(crate) fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.start_us + s.dur_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = lo;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.dur_us - covered).max(0.0)
        })
        .collect()
}

/// Marks the spans under any of `roots` (roots included). Spans are
/// opened parent first, so one forward pass suffices.
pub(crate) fn subtree(spans: &[Span], roots: &[usize]) -> Vec<bool> {
    let mut inside = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        inside[i] = roots.contains(&i) || s.parent.is_some_and(|p| inside[p]);
    }
    inside
}

/// Rows of the self-time table over the spans marked in `include`:
/// (layer, spans, total µs, self µs), the `policies` layer split per
/// policy.
pub(crate) fn self_time_table(spans: &[Span], include: &[bool]) -> Vec<(String, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for ((s, own), _) in spans.iter().zip(selfs).zip(include).filter(|(_, &inc)| inc) {
        let key = match s.layer {
            "policies" => format!("policies.{}", s.name),
            layer => layer.to_string(),
        };
        let row = rows.entry(key).or_default();
        row.0 += 1;
        row.1 += s.dur_us;
        row.2 += own;
    }
    rows.into_iter()
        .map(|(k, (n, t, o))| (k, n, t, o))
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span], meta: &[(&str, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for tid in 0..=THREADS {
        let name = if tid == 0 {
            "main".to_string()
        } else {
            format!("pool-{tid}")
        };
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}},",
            json_str(&name)
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if s.args.is_empty() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}{sep}{}}}}},",
            json_str(&s.name),
            s.layer,
            s.tid,
            s.start_us,
            s.dur_us,
            s.args
        );
    }
    // Trailing comma: close with an empty metadata event.
    out.push_str(
        "{\"name\":\"end\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{}}\n],\"otherData\":{",
    );
    let fields: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    out.push_str(&fields.join(","));
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        layer: &'static str,
        tid: usize,
        start_us: f64,
        dur_us: f64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name: layer.into(),
            layer,
            tid,
            start_us,
            dur_us,
            parent,
            args: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench", 0, 0.0, 100.0, None),
            // Two overlapping children on different threads cover 10..70.
            span("simsvc", 1, 10.0, 40.0, Some(0)),
            span("simsvc", 2, 30.0, 40.0, Some(0)),
            // A grandchild covers half of the first child.
            span("policies", 1, 10.0, 20.0, Some(1)),
            // Outside the subtree of interest.
            span("risk", 0, 200.0, 5.0, None),
        ];
        assert_eq!(self_times(&spans), vec![40.0, 20.0, 40.0, 20.0, 5.0]);
        let table = self_time_table(&spans, &subtree(&spans, &[0]));
        let layers: Vec<&str> = table.iter().map(|r| r.0.as_str()).collect();
        assert_eq!(layers, ["bench", "policies.policies", "simsvc"]);
        assert_eq!(table[2], ("simsvc".to_string(), 2, 80.0, 60.0));
    }

    #[test]
    fn chrome_trace_escapes_names() {
        let mut s = span("bench", 0, 0.0, 1.0, None);
        s.name = "Libra+$ \"quoted\"".into();
        let json = chrome_trace(&[s], &[("seed", "7".into())]);
        assert!(json.contains(r#""name":"Libra+$ \"quoted\"""#), "{json}");
        assert!(json.trim_end().ends_with("}}"));
    }
}
